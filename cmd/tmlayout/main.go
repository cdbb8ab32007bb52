// Command tmlayout analyses how each allocator's block placement
// interacts with the STM's ownership-record table and the cache — the
// paper's §5 analysis as a standalone tool.
//
// For a given block size and thread count it allocates a batch of
// blocks per thread and reports, per allocator:
//
//   - how many blocks share an ORT stripe with another block
//     (intra-thread and cross-thread separately);
//   - how many blocks alias to an already-used ORT entry from a
//     *different* stripe (the Glibc 64 MiB-arena effect);
//   - how many blocks share a 64-byte cache line with a block of
//     another thread (false-sharing exposure);
//   - the resulting collision histogram over the ORT.
//
// The per-allocator analyses run as independent sweep cells on the
// -jobs pool and memoize into -cache by configuration hash.
//
// Usage:
//
//	tmlayout [-size 16] [-threads 8] [-blocks 512] [-shift 5] [-json]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"text/tabwriter"

	_ "repro/internal/alloc/glibc"
	_ "repro/internal/alloc/hoard"
	_ "repro/internal/alloc/tbb"
	_ "repro/internal/alloc/tcmalloc"

	"repro/cmd/internal/cliflags"
	"repro/internal/alloc"
	"repro/internal/harness"
	"repro/internal/heapscope"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/prof"
	"repro/internal/stm"
	"repro/internal/sweep"
	"repro/internal/vtime"
)

// layoutParams is the cell spec: everything that determines a layout
// analysis, so the cache key changes exactly when the analysis would.
type layoutParams struct {
	Allocator string `json:"allocator"`
	Size      uint64 `json:"size"`
	Threads   int    `json:"threads"`
	Blocks    int    `json:"blocks"`
	Shift     uint   `json:"shift"`
	Parallel  bool   `json:"parallel"`
}

func main() {
	var (
		size    = flag.Uint64("size", 16, "block size in bytes")
		threads = flag.Int("threads", 8, "allocating threads")
		blocks  = flag.Int("blocks", 512, "blocks per thread")
		shift   = flag.Uint("shift", 5, "ORT shift amount")
		mode    = flag.String("mode", "parallel", "parallel (contended, via the virtual-time engine) or solo")
		jsonOut = flag.Bool("json", false, "emit the analysis as a machine-readable run record on stdout")
		heapGeo = flag.Bool("heap-geometry", false, "emit each allocator's static size-class/superblock geometry as a tmheap/series/v1 artifact on stdout")
	)
	sw := cliflags.AddSweep(flag.CommandLine)
	cliflags.AddSanitize(flag.CommandLine)
	flag.Parse()

	if *heapGeo {
		if err := writeGeometry(*threads); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	cache, err := sw.Open()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	// The analyses attach no observer, so the spec is empty; the session
	// still bypasses the cache under -sanitize.
	session := &harness.Session{Spec: &harness.Spec{}, Jobs: sw.Jobs, Cache: cache}
	var cells []sweep.Cell
	for _, name := range alloc.Names() {
		p := layoutParams{
			Allocator: name,
			Size:      *size,
			Threads:   *threads,
			Blocks:    *blocks,
			Shift:     *shift,
			Parallel:  *mode == "parallel",
		}
		key := fmt.Sprintf("cli/layout/%s/b%d/t%d/n%d/s%d/%s", name, *size, *threads, *blocks, *shift, *mode)
		cells = append(cells, session.Spec.Cell(key, p, 0, func(*obs.Recorder, *prof.Profiler, *heapscope.Collector) (any, error) {
			return analyze(p)
		}))
	}
	outs, stats := session.RunCells(cells)

	table := obs.Table{
		Title: fmt.Sprintf("%d threads x %d blocks of %d bytes, ORT shift %d, %s mode",
			*threads, *blocks, *size, *shift, *mode),
		Columns: []string{"allocator", "stripe-shared", "blocks", "cross-thread stripes",
			"aliased entries", "cross-thread lines", "max/stripe"},
	}
	for i, name := range alloc.Names() {
		out := outs[i]
		if out.Err != nil {
			fmt.Fprintln(os.Stderr, out.Err)
			os.Exit(1)
		}
		var r report
		if err := json.Unmarshal(out.Payload, &r); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		total := *threads * *blocks
		table.Rows = append(table.Rows, []string{
			name,
			fmt.Sprintf("%d", r.StripeShared),
			fmt.Sprintf("%d", total),
			fmt.Sprintf("%d", r.CrossThreadStripes),
			fmt.Sprintf("%d", r.Aliased),
			fmt.Sprintf("%d", r.CrossThreadLines),
			fmt.Sprintf("%d", r.MaxPerStripe),
		})
	}
	if stats.Cached > 0 {
		fmt.Fprintf(os.Stderr, "%d/%d cells served from cache (%s)\n", stats.Cached, stats.Cells, sw.Dir)
	}

	if *jsonOut {
		record := obs.NewRunRecord("layout")
		record.Title = "Allocator block placement vs ORT stripes and cache lines"
		record.Config = obs.RunConfig{Extra: map[string]string{
			"size":    fmt.Sprintf("%d", *size),
			"threads": fmt.Sprintf("%d", *threads),
			"blocks":  fmt.Sprintf("%d", *blocks),
			"shift":   fmt.Sprintf("%d", *shift),
			"mode":    *mode,
		}}
		record.Sweep = sw.Info(cells, stats)
		record.Tables = []obs.Table{table}
		if err := record.WriteJSON(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	fmt.Printf("layout analysis: %s\n\n", table.Title)
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "allocator\tstripe-shared\tcross-thread stripes\taliased entries\tcross-thread lines\tmax/stripe")
	for _, row := range table.Rows {
		fmt.Fprintf(tw, "%s\t%s/%s\t%s\t%s\t%s\t%s\n",
			row[0], row[1], row[2], row[3], row[4], row[5], row[6])
	}
	tw.Flush()
	fmt.Println(`
stripe-shared:        stripe slots where a stripe is touched by more than one block
cross-thread stripes: stripes holding blocks of two different threads (false conflicts)
aliased entries:      ORT entries hit by blocks >1 stripe apart (e.g. 64MB arena aliasing)
cross-thread lines:   64-byte cache lines holding blocks of two threads (false sharing)
max/stripe:           worst-case blocks mapped to one versioned lock`)
}

// writeGeometry emits each allocator's static layout — size-class table
// and superblock/arena granularity — as a tmheap/series/v1 artifact
// with empty sample lists, so static geometry diffs with the same
// tooling as runtime series (tmheap).
func writeGeometry(threads int) error {
	set := heapscope.NewSet("geometry")
	for _, name := range alloc.Names() {
		space := mem.NewSpace()
		a, err := alloc.New(name, space, threads)
		if err != nil {
			return err
		}
		st, ok := alloc.InspectHeap(a)
		if !ok {
			continue
		}
		sr := &heapscope.Series{
			Label:     "geometry/" + name,
			Allocator: name,
			Samples:   []heapscope.Sample{},
			Geometry: &heapscope.Geometry{
				SuperblockBytes: st.SuperblockBytes,
				MinBlock:        st.MinBlock,
				MaxBlock:        st.MaxBlock,
			},
		}
		for _, cl := range st.Classes {
			sr.Classes = append(sr.Classes, cl.Size)
		}
		set.Add(sr)
	}
	return set.WriteJSON(os.Stdout)
}

type report struct {
	StripeShared       int `json:"stripe_shared"`
	CrossThreadStripes int `json:"cross_thread_stripes"`
	Aliased            int `json:"aliased"`
	CrossThreadLines   int `json:"cross_thread_lines"`
	MaxPerStripe       int `json:"max_per_stripe"`
}

func analyze(p layoutParams) (report, error) {
	space := mem.NewSpace()
	a, err := alloc.New(p.Allocator, space, p.Threads)
	if err != nil {
		return report{}, err
	}
	st := stm.New(space, stm.Config{Shift: p.Shift})

	type blk struct {
		addr mem.Addr
		tid  int
	}
	var all []blk
	if p.Parallel {
		// Threads allocate concurrently under the virtual-time engine:
		// Glibc's arena trylock contention creates per-thread arenas,
		// exposing the 64 MiB aliasing of the paper's §5.2.
		e := vtime.NewEngine(space, p.Threads, vtime.Config{})
		perThread := make([][]mem.Addr, p.Threads)
		e.Run(func(th *vtime.Thread) {
			for i := 0; i < p.Blocks; i++ {
				perThread[th.ID()] = append(perThread[th.ID()], a.Malloc(th, p.Size))
				th.Tick(40) // space the requests out, as real work would
			}
		})
		for t, addrs := range perThread {
			for _, ad := range addrs {
				all = append(all, blk{addr: ad, tid: t})
			}
		}
	} else {
		// Interleaved round-robin allocation on one uncontended thread
		// sequence (Glibc keeps everyone on the main arena).
		ths := make([]*vtime.Thread, p.Threads)
		for t := range ths {
			ths[t] = vtime.Solo(space, t, nil)
		}
		for i := 0; i < p.Blocks; i++ {
			for t := 0; t < p.Threads; t++ {
				all = append(all, blk{addr: a.Malloc(ths[t], p.Size), tid: t})
			}
		}
	}

	// ORT stripe statistics. Key stripes by the address range they
	// represent (addr >> shift) to separate sharing from aliasing.
	type stripeInfo struct {
		count int
		tids  map[int]bool
	}
	stripes := map[uint64]*stripeInfo{} // addr>>shift -> info
	entries := map[uint64]map[uint64]bool{}
	stripeSz := uint64(1) << p.Shift
	for _, b := range all {
		// A block covers every stripe its bytes touch; a 48-byte block
		// with shift 5 spans two stripes (the paper's rbtree case).
		first := uint64(b.addr) >> p.Shift
		last := (uint64(b.addr) + p.Size - 1) >> p.Shift
		for sk := first; sk <= last; sk++ {
			si := stripes[sk]
			if si == nil {
				si = &stripeInfo{tids: map[int]bool{}}
				stripes[sk] = si
			}
			si.count++
			si.tids[b.tid] = true
			e := st.OrtIndex(mem.Addr(sk * stripeSz))
			if entries[e] == nil {
				entries[e] = map[uint64]bool{}
			}
			entries[e][sk] = true
		}
	}
	var r report
	for _, si := range stripes {
		if si.count > 1 {
			r.StripeShared += si.count
		}
		if len(si.tids) > 1 {
			r.CrossThreadStripes++
		}
		if si.count > r.MaxPerStripe {
			r.MaxPerStripe = si.count
		}
	}
	for _, sks := range entries {
		if len(sks) > 1 {
			r.Aliased++
		}
	}
	// Cache line sharing across threads.
	lines := map[uint64]map[int]bool{}
	for _, b := range all {
		for lk := uint64(b.addr) >> 6; lk <= (uint64(b.addr)+p.Size-1)>>6; lk++ {
			if lines[lk] == nil {
				lines[lk] = map[int]bool{}
			}
			lines[lk][b.tid] = true
		}
	}
	for _, tids := range lines {
		if len(tids) > 1 {
			r.CrossThreadLines++
		}
	}
	return r, nil
}
