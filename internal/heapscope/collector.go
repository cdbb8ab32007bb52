package heapscope

import (
	"repro/internal/alloc"
	"repro/internal/mem"
	"repro/internal/obs"
)

// lineShift is the cache-line granularity of the sharing map (64-byte
// lines, matching the cache model).
const lineShift = 6

// block is the collector's shadow of one live allocation. Mirroring the
// sanitizer's shadow-map semantics: an entry survives its free (freed
// flag) so a later OnHeapReuse can revive it with the original extent.
type block struct {
	usable uint64
	req    uint64
	tid    int // owning (allocating or reusing) thread
	freed  bool
}

// line tracks which threads own live blocks touching one 64-byte line.
type line struct {
	owners map[int]uint32 // tid -> live blocks of that thread on this line
}

// Collector is the per-cell telemetry instrument. It implements
// mem.HeapWatcher (block-lifecycle shadow) and vtime.HeapSampler
// (cadence-driven snapshots); Attach wires it to one allocator and its
// space. It keeps running counters so a snapshot is O(size classes),
// never O(heap).
//
// A Collector is single-cell, single-engine state: the vtime engine
// serializes all callbacks, so no locking is needed, and because every
// input is virtual-time-deterministic, the collected series is
// byte-identical across host schedules and sweep pool widths.
type Collector struct {
	cadence uint64
	shift   uint   // ORT placement-key shift (stripe bytes = 1<<shift)
	ortSize uint64 // ORT entry count for aliasing

	name string
	heap alloc.Allocator
	rec  *obs.Recorder // Prometheus gauges + Perfetto counter tracks; nil disables

	// Block-lifecycle shadow with running totals.
	blocks     map[mem.Addr]*block
	liveBlocks uint64
	liveBytes  uint64
	reqBytes   uint64

	// Cache-line sharing map.
	lines       map[uint64]*line
	sharedLines uint64 // lines currently owned by ≥2 threads
	churn       uint64 // cumulative ownership extensions of nonempty lines

	// ORT-stripe occupancy: live blocks aliasing each ORT entry, with an
	// incrementally maintained count histogram (occHist[c] = entries with
	// exactly c aliasing blocks; index 0 unused).
	stripes map[uint64]uint32
	occHist []uint64

	epoch   int
	phase   string
	nextDue uint64
	classes []uint64
	geom    *Geometry
	samples []Sample
}

// New builds a collector snapshotting every cadence virtual cycles
// (0 selects DefaultCadence).
func New(cadence uint64) *Collector {
	if cadence == 0 {
		cadence = DefaultCadence
	}
	return &Collector{
		cadence: cadence,
		blocks:  make(map[mem.Addr]*block),
		lines:   make(map[uint64]*line),
		stripes: make(map[uint64]uint32),
		occHist: make([]uint64, 1),
		phase:   "init",
		nextDue: cadence,
	}
}

// Attach wires the collector to one allocator and the STM's lock map
// (stm.Config's effective Shift and 1<<OrtBits entries), which stripe
// occupancy counts against: the class table and static geometry are
// read once. The collector also needs the space's block lifecycle:
// watch it on the space (mem.Space.Watch) before any simulated thread
// allocates.
func (c *Collector) Attach(a alloc.Allocator, shift uint, ortSize uint64) {
	c.heap = a
	c.shift, c.ortSize = shift, ortSize
	st := Static("", a)
	c.name, c.classes, c.geom = st.Allocator, st.Classes, st.Geometry
}

// Static is a's static layout as a series without samples: its
// size-class table and superblock geometry, the part of every Series
// that Attach reads once (tmlayout -heap-geometry emits these alone).
func Static(label string, a alloc.Allocator) *Series {
	st := a.InspectHeap()
	sr := &Series{
		Label:     label,
		Allocator: a.Name(),
		Samples:   []Sample{},
		Geometry: &Geometry{
			SuperblockBytes: st.SuperblockBytes,
			MinBlock:        st.MinBlock,
			MaxBlock:        st.MaxBlock,
		},
	}
	for _, cl := range st.Classes {
		sr.Classes = append(sr.Classes, cl.Size)
	}
	return sr
}

// SetRecorder attaches the obs recorder that receives Prometheus gauges
// and Perfetto counter samples alongside the series (nil disables).
func (c *Collector) SetRecorder(r *obs.Recorder) { c.rec = r }

// Sample implements vtime.HeapSampler: called from the scheduler loop
// with the monotone min-runnable clock, it snapshots once per elapsed
// cadence interval, stamping each snapshot at its exact due cycle so
// the series is a pure function of virtual time.
func (c *Collector) Sample(now uint64) {
	for now >= c.nextDue {
		c.snapshot(c.nextDue)
		c.nextDue += c.cadence
	}
}

// Phase closes the outgoing phase with a snapshot at now (its final
// clock) and starts a new epoch named name. Workloads call it where
// they reset the engine clocks, so Cycle restarts with the new phase.
func (c *Collector) Phase(name string, now uint64) {
	c.snapshot(now)
	c.epoch++
	c.phase = name
	c.nextDue = c.cadence
}

// Finish closes the final phase with a snapshot at now (the region's
// end clock).
func (c *Collector) Finish(now uint64) { c.snapshot(now) }

// Series packages the collected samples under the cell's label.
func (c *Collector) Series(label string) *Series {
	samples := c.samples
	if samples == nil {
		samples = []Sample{}
	}
	return &Series{
		Label:     label,
		Allocator: c.name,
		Cadence:   c.cadence,
		Classes:   c.classes,
		Geometry:  c.geom,
		Samples:   samples,
	}
}

// OnHeapAlloc implements mem.HeapWatcher.
func (c *Collector) OnHeapAlloc(_ string, base mem.Addr, req, usable uint64, tid int, _ uint64) {
	if b, ok := c.blocks[base]; ok {
		if !b.freed {
			// Same base handed out twice without an intervening free (the
			// shadow map overwrites here too): retract the stale entry.
			c.retract(base, b)
		}
		delete(c.blocks, base)
	}
	b := &block{usable: usable, req: req, tid: tid}
	c.blocks[base] = b
	c.admit(base, b)
}

// OnHeapFree implements mem.HeapWatcher: first free wins; unknown bases
// (bad pointers the allocator rejects after notifying) are ignored.
func (c *Collector) OnHeapFree(base mem.Addr, _ int, _ uint64) {
	b, ok := c.blocks[base]
	if !ok || b.freed {
		return
	}
	b.freed = true
	c.retract(base, b)
}

// OnHeapReuse implements mem.HeapWatcher: a block revived from a
// transaction-local cache comes back with its original extent but the
// reusing thread as owner.
func (c *Collector) OnHeapReuse(base mem.Addr, tid int, _ uint64) {
	b, ok := c.blocks[base]
	if !ok || !b.freed {
		return
	}
	b.freed = false
	b.tid = tid
	c.admit(base, b)
}

// admit adds a live block's contributions to the running counters.
func (c *Collector) admit(base mem.Addr, b *block) {
	c.liveBlocks++
	c.liveBytes += b.usable
	c.reqBytes += b.req
	end := base + mem.Addr(b.usable) - 1
	for l := uint64(base) >> lineShift; l <= uint64(end)>>lineShift; l++ {
		ln := c.lines[l]
		if ln == nil {
			ln = &line{owners: make(map[int]uint32)}
			c.lines[l] = ln
		}
		if len(ln.owners) > 0 && ln.owners[b.tid] == 0 {
			c.churn++
		}
		before := len(ln.owners)
		ln.owners[b.tid]++
		if before == 1 && len(ln.owners) == 2 {
			c.sharedLines++
		}
	}
	for k := uint64(base) >> c.shift; k <= uint64(end)>>c.shift; k++ {
		c.stripeDelta(k%c.ortSize, +1)
	}
}

// retract removes a block's contributions (on free, or on a same-base
// overwrite).
func (c *Collector) retract(base mem.Addr, b *block) {
	c.liveBlocks--
	c.liveBytes -= b.usable
	c.reqBytes -= b.req
	end := base + mem.Addr(b.usable) - 1
	for l := uint64(base) >> lineShift; l <= uint64(end)>>lineShift; l++ {
		ln := c.lines[l]
		if ln == nil {
			continue
		}
		if n := ln.owners[b.tid]; n > 1 {
			ln.owners[b.tid] = n - 1
		} else {
			delete(ln.owners, b.tid)
			if len(ln.owners) == 1 {
				c.sharedLines--
			}
			if len(ln.owners) == 0 {
				delete(c.lines, l)
			}
		}
	}
	for k := uint64(base) >> c.shift; k <= uint64(end)>>c.shift; k++ {
		c.stripeDelta(k%c.ortSize, -1)
	}
}

// stripeDelta adjusts one ORT entry's live-block count and keeps the
// occupancy histogram in step.
func (c *Collector) stripeDelta(entry uint64, d int) {
	old := c.stripes[entry]
	if old > 0 {
		c.occHist[old]--
	}
	var nw uint32
	if d > 0 {
		nw = old + 1
	} else if old > 0 {
		nw = old - 1
	}
	if nw == 0 {
		delete(c.stripes, entry)
		return
	}
	c.stripes[entry] = nw
	for uint32(len(c.occHist)) <= nw {
		c.occHist = append(c.occHist, 0)
	}
	c.occHist[nw]++
}

// snapshot appends one sample at virtual cycle cyc, combining the
// running lifecycle counters with a fresh InspectHeap view. Pure
// observation: Go-side state only.
func (c *Collector) snapshot(cyc uint64) {
	s := Sample{
		Epoch:          c.epoch,
		Phase:          c.phase,
		Cycle:          cyc,
		LiveBlocks:     c.liveBlocks,
		LiveBytes:      c.liveBytes,
		RequestedBytes: c.reqBytes,
		SharedLines:    c.sharedLines,
		LineChurn:      c.churn,
	}
	if c.liveBytes > 0 {
		s.InternalFrag = float64(c.liveBytes-c.reqBytes) / float64(c.liveBytes)
	}
	st := c.heap.InspectHeap()
	s.ReservedBytes = st.Reserved
	s.CacheBytes = st.CacheBytes
	s.CentralBytes = st.CentralBytes
	s.FreeBytes = st.CacheBytes + st.CentralBytes
	s.FreeBlocks = st.FreeBlocks()
	s.Superblocks = st.Superblocks
	s.EmptySuperblocks = st.EmptySuperblocks
	s.Migrations = st.Migrations
	s.Arenas = st.Arenas
	if st.SBCapacity > 0 {
		s.Occupancy = float64(st.SBUsedBlocks) / float64(st.SBCapacity)
	}
	if st.Reserved > 0 && st.Reserved >= c.liveBytes {
		s.ExternalFrag = float64(st.Reserved-c.liveBytes) / float64(st.Reserved)
	}
	if c.liveBytes > 0 && st.Reserved > 0 {
		s.Blowup = float64(st.Reserved) / float64(c.liveBytes)
	}
	if len(c.classes) > 0 {
		depth := make(map[uint64]uint64, len(st.Classes))
		for _, cl := range st.Classes {
			depth[cl.Size] = cl.Free + cl.Cached
		}
		s.FreeDepths = make([]uint64, len(c.classes))
		for i, sz := range c.classes {
			s.FreeDepths[i] = depth[sz]
		}
	}
	for i := len(c.occHist) - 1; i > 0; i-- {
		if c.occHist[i] > 0 {
			s.MaxStripe = uint64(i)
			break
		}
	}
	s.StripeHist = make([]uint64, 4)
	for i := 1; i < len(c.occHist); i++ {
		switch {
		case i <= 3:
			s.StripeHist[i-1] += c.occHist[i]
		default:
			s.StripeHist[3] += c.occHist[i]
		}
	}
	c.samples = append(c.samples, s)
	c.publish(&s)
}

// publish mirrors a sample into the obs layer: Prometheus gauges (last
// value wins) and Perfetto counter tracks at the sample's cycle.
func (c *Collector) publish(s *Sample) {
	if c.rec == nil {
		return
	}
	pfx := `heap_` + c.name + "_"
	c.rec.Gauge(pfx+"live_bytes", float64(s.LiveBytes))
	c.rec.Gauge(pfx+"reserved_bytes", float64(s.ReservedBytes))
	c.rec.Gauge(pfx+"blowup", s.Blowup)
	c.rec.Gauge(pfx+"internal_frag", s.InternalFrag)
	c.rec.Gauge(pfx+"external_frag", s.ExternalFrag)
	c.rec.Gauge(pfx+"shared_lines", float64(s.SharedLines))
	c.rec.Gauge(pfx+"max_stripe", float64(s.MaxStripe))
	track := "heap/" + c.name + "/"
	c.rec.Counter(track+"live_bytes", s.Cycle, s.LiveBytes)
	c.rec.Counter(track+"reserved_bytes", s.Cycle, s.ReservedBytes)
	c.rec.Counter(track+"shared_lines", s.Cycle, s.SharedLines)
	c.rec.Counter(track+"central_bytes", s.Cycle, s.CentralBytes)
	c.rec.Counter(track+"cache_bytes", s.Cycle, s.CacheBytes)
}
