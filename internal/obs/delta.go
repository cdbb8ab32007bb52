package obs

import "sort"

// Apply folds a finished cell's sibling recorder (see Sibling) into
// the recorder: phases are appended (event epochs shifted accordingly,
// so each cell keeps its own trace process), per-thread events are
// re-pushed in their original order, counters and histogram buckets
// add, gauges keep the maximum (every gauge in this codebase is a
// watermark), and heatmap cells accumulate. Applying the same siblings
// in the same order always yields the same recorder state — merge
// determinism is the caller's ordering duty. The sibling is only read,
// and nothing may record into it concurrently.
func (r *Recorder) Apply(d *Recorder) {
	if r == nil || d == nil {
		return
	}
	off := int32(len(r.phases))
	r.phases = append(r.phases, d.phases...)
	for tid, rg := range d.rings {
		if rg == nil {
			continue
		}
		r.extraDropped += rg.dropped()
		for _, ev := range rg.events() {
			ev.Epoch += off
			r.pushRaw(tid, ev)
		}
	}
	r.reg.merge(d.reg)
	r.heat.merge(d.heat)
}

// pushRaw appends an event preserving its TID/Epoch/TS (unlike push,
// which stamps the recorder's current epoch).
func (r *Recorder) pushRaw(tid int, ev Event) {
	for tid >= len(r.rings) {
		r.rings = append(r.rings, &ring{size: r.ringSize})
	}
	ev.TID = int32(tid)
	r.rings[tid].push(ev)
}

// merge folds src into the registry: counters and histograms add,
// gauges take the maximum (watermark semantics).
func (g *Registry) merge(src *Registry) {
	if src == nil {
		return
	}
	for k, c := range src.counters {
		g.Counter(k).Add(c.v)
	}
	for k, sg := range src.gauges {
		dst := g.Gauge(k)
		if sg.v > dst.v {
			dst.v = sg.v
		}
	}
	for k, sh := range src.hists {
		dst := g.Histogram(k)
		dst.count += sh.count
		dst.sum += sh.sum
		for i := range sh.buckets {
			dst.buckets[i] += sh.buckets[i]
		}
	}
}

// merge folds src into the heatmap. Placement keys are visited in
// sorted order so the maxPlacements cap cuts off deterministically.
func (h *Heatmap) merge(src *Heatmap) {
	if src == nil {
		return
	}
	entries := make([]uint64, 0, len(src.cells))
	for e := range src.cells {
		entries = append(entries, e)
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i] < entries[j] })
	for _, e := range entries {
		sc := src.cells[e]
		c := h.cells[e]
		if c == nil {
			c = &StripeCell{Entry: e, placements: make(map[uint64]uint64, len(sc.placements))}
			h.cells[e] = c
		}
		c.Conflicts += sc.Conflicts
		c.FalseAborts += sc.FalseAborts
		c.OtherPlacements += sc.OtherPlacements
		keys := make([]uint64, 0, len(sc.placements))
		for k := range sc.placements {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		for _, k := range keys {
			n := sc.placements[k]
			if _, ok := c.placements[k]; !ok && len(c.placements) >= maxPlacements {
				c.OtherPlacements += n
				continue
			}
			c.placements[k] += n
		}
	}
}
