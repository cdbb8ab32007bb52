package harness

import (
	"fmt"

	_ "repro/internal/alloc/glibc"
	_ "repro/internal/alloc/hoard"
	_ "repro/internal/alloc/tbb"
	_ "repro/internal/alloc/tcmalloc"

	"repro/internal/alloc"
	"repro/internal/mem"
	"repro/internal/stm"
	"repro/internal/vtime"
)

// planStatic wires the common shape of the computed (workload-free)
// experiments: one static cell holding the whole Result.
func planStatic(b *Builder, fn func() (*Result, error)) error {
	h := b.Static(fn)
	b.Reduce(func() (*Result, error) {
		r := h.Get()
		return &r, nil
	})
	return nil
}

// tab1: the allocator attribute summary, generated from the allocator
// models' self-descriptions.
func init() {
	Register(&Experiment{
		ID:    "tab1",
		Paper: "Table 1: summary of the main attributes of the studied allocators",
		Plan: func(b *Builder) error {
			return planStatic(b, func() (*Result, error) {
				t := Table{
					Columns: []string{"Allocator", "Metadata (tag)", "Min Size", "Fast Path", "Granularity", "Synchronization"},
				}
				for _, name := range Allocators() {
					space := mem.NewSpace()
					a, err := alloc.New(name, space, 1)
					if err != nil {
						return nil, err
					}
					d := a.Describe()
					t.Rows = append(t.Rows, []string{
						d.Name, d.Metadata, fmt.Sprintf("%d bytes", d.MinSize), d.FastPath, d.Granularity, d.Sync,
					})
				}
				return &Result{
					ID:     "tab1",
					Title:  "Allocator attributes",
					Tables: []Table{t},
				}, nil
			})
		},
	})
}

// tab2: the modelled machine configuration.
func init() {
	Register(&Experiment{
		ID:    "tab2",
		Paper: "Table 2: machine configuration used in the experiments",
		Plan: func(b *Builder) error {
			return planStatic(b, func() (*Result, error) {
				return &Result{
					ID:    "tab2",
					Title: "Modelled machine configuration (paper's Xeon E5405)",
					Tables: []Table{{
						Columns: []string{"Component", "Model"},
						Rows: [][]string{
							{"Processor model", "Intel Xeon E5405 @ 2.00GHz (virtual-time model)"},
							{"Total cores", "8 (2 sockets, 4 per socket)"},
							{"L1 data cache", "32KB, 8-way set associative, 64-byte lines"},
							{"L2 cache", "2x6MB, unified, 24-way set associative"},
							{"Execution", "deterministic virtual-time engine (internal/vtime)"},
						},
					}},
				}, nil
			})
		},
	})
}

// fig2: the TCMalloc false-sharing handout scenario, demonstrated by
// tracing the addresses two threads receive.
func init() {
	Register(&Experiment{
		ID:    "fig2",
		Paper: "Figure 2: false sharing induced by TCMalloc's incremental central-cache transfer",
		Plan: func(b *Builder) error {
			return planStatic(b, func() (*Result, error) {
				space := mem.NewSpace()
				a := alloc.MustNew("tcmalloc", space, 2)
				th0 := vtime.Solo(space, 0, nil)
				th1 := vtime.Solo(space, 1, nil)

				t := Table{
					Title:   "16-byte allocation trace (2 threads, cold caches)",
					Columns: []string{"Step", "Thread", "Address", "Cache line", "Blocks transferred"},
				}
				type step struct {
					th    *vtime.Thread
					label string
				}
				// The paper's (1)..(4) sequence.
				seq := []step{
					{th0, "thread 1 malloc"},
					{th1, "thread 2 malloc"},
					{th0, "thread 1 malloc"},
					{th0, "thread 1 malloc"},
					{th1, "thread 2 malloc"},
					{th1, "thread 2 malloc"},
				}
				var prevRefills uint64
				for i, s := range seq {
					addr := a.Malloc(s.th, 16)
					refills := a.Stats().SlowRefills
					batch := "-"
					if refills != prevRefills {
						batch = fmt.Sprintf("refill #%d", refills)
					}
					prevRefills = refills
					t.Rows = append(t.Rows, []string{
						fmt.Sprintf("%d", i+1), s.label,
						fmt.Sprintf("%#x", uint64(addr)),
						fmt.Sprintf("%#x", uint64(addr)>>6),
						batch,
					})
				}
				notes := []string{
					"the first blocks of both threads are 16 bytes apart on one 64-byte line (false sharing)",
					"each refill transfers one block more than the previous one (incremental slow start)",
				}
				return &Result{ID: "fig2", Title: "TCMalloc adjacent-block handout", Tables: []Table{t}, Notes: notes}, nil
			})
		},
	})
}

// fig5: the mechanism illustration — ORT mapping of 16- vs 32-byte
// spaced nodes under shift 5.
func init() {
	Register(&Experiment{
		ID:    "fig5",
		Paper: "Figure 5: allocator block spacing vs the STM lock mapping (mechanism demo)",
		Plan: func(b *Builder) error {
			return planStatic(b, func() (*Result, error) {
				space := mem.NewSpace()
				st := stm.New(space, stm.Config{})
				base := mem.Addr(0x18000020)
				t := Table{
					Columns: []string{"Layout", "Node x", "Node y", "ORT entry x", "ORT entry y", "Conflict?"},
				}
				add := func(label string, x, y mem.Addr) {
					ix, iy := st.OrtIndex(x), st.OrtIndex(y)
					conflict := "no"
					if ix == iy {
						conflict = "YES (false)"
					}
					t.Rows = append(t.Rows, []string{
						label,
						fmt.Sprintf("%#x", uint64(x)), fmt.Sprintf("%#x", uint64(y)),
						fmt.Sprintf("%d", ix), fmt.Sprintf("%d", iy), conflict,
					})
				}
				add("Glibc (32-byte chunks)", base, base+32)
				add("Hoard/TBB/TCMalloc (16-byte blocks)", base, base+16)
				add("Glibc arenas 64MB apart", base, base+64<<20)
				return &Result{ID: "fig5", Title: "Lock-mapping interaction", Tables: []Table{t}}, nil
			})
		},
	})
}
