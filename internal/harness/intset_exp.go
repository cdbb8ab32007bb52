package harness

import (
	"fmt"

	"repro/internal/intset"
)

// IntsetScale returns the workload parameters for the synthetic
// benchmark: the paper's 4096/8192 at full scale, a shape-preserving
// reduction otherwise.
func IntsetScale(full bool, kind intset.Kind) (initial, keyRange, ops int) {
	if full {
		return 4096, 8192, 400
	}
	// The linked list is O(n) per operation; keep it smaller.
	if kind == intset.LinkedList {
		return 768, 1536, 120
	}
	return 2048, 4096, 300
}

func intsetThreads() []int { return []int{1, 2, 4, 6, 8} }

// intsetCfg builds the write-dominated synthetic configuration used by
// several experiments (so their cells hash — and dedupe — identically).
func intsetCfg(full bool, kind intset.Kind, aname string, threads int) intset.Config {
	initial, keyRange, ops := IntsetScale(full, kind)
	return intset.Config{
		Kind:         kind,
		Allocator:    aname,
		Threads:      threads,
		InitialSize:  initial,
		KeyRange:     keyRange,
		UpdatePct:    60,
		OpsPerThread: ops,
	}
}

// fig4 (+tab3 data): throughput of the three structures across thread
// counts, write-dominated workload. Both experiments declare the same
// cells, so a session running both executes the sweep once.
func init() {
	Register(&Experiment{
		ID:    "fig4",
		Paper: "Figure 4: throughput of linked list / hashset / red-black tree (60% updates)",
		Plan:  func(b *Builder) error { return planFig4Tab3(b, "fig4") },
	})
	Register(&Experiment{
		ID:    "tab3",
		Paper: "Table 3: best and worst allocators per data structure (write-dominated)",
		Plan:  func(b *Builder) error { return planFig4Tab3(b, "tab3") },
	})
}

func planFig4Tab3(b *Builder, id string) error {
	reps := b.Reps(2, 5)
	kinds := intset.Kinds()
	threads := intsetThreads()
	sweeps := make([][][]Sweep[IntsetCell], len(kinds))
	for ki, kind := range kinds {
		sweeps[ki] = make([][]Sweep[IntsetCell], len(threads))
		for ni, n := range threads {
			sweeps[ki][ni] = make([]Sweep[IntsetCell], len(Allocators()))
			for ai, aname := range Allocators() {
				sweeps[ki][ni][ai] = b.IntsetSweep(intsetCfg(b.Full(), kind, aname, n), reps)
			}
		}
	}
	b.Reduce(func() (*Result, error) {
		res := &Result{ID: id, Title: "Synthetic benchmark, 60% updates"}
		best := Table{
			Title:   "Best and worst allocators (Table 3)",
			Columns: []string{"Application", "Best", "Worst", "Perf. Diff.", "Threads"},
		}
		for ki, kind := range kinds {
			t := Table{Title: fmt.Sprintf("%s throughput (tx/s)", kind), Columns: []string{"Threads"}}
			for _, a := range Allocators() {
				t.Columns = append(t.Columns, DisplayName(a))
			}
			// peak[a] tracks each allocator's best throughput over thread
			// counts, as Table 3 compares maxima.
			peak := make([]float64, len(Allocators()))
			peakThreads := make([]int, len(Allocators()))
			series := make([]Series, len(Allocators()))
			for ai, a := range Allocators() {
				series[ai].Label = fmt.Sprintf("%s/%s", kind, DisplayName(a))
			}
			for ni, n := range threads {
				row := []string{fmt.Sprintf("%d", n)}
				for ai := range Allocators() {
					thr := sweeps[ki][ni][ai].Summary(intsetThr)
					row = append(row, fmt.Sprintf("%.3g", thr.Mean))
					series[ai].X = append(series[ai].X, float64(n))
					series[ai].Y = append(series[ai].Y, thr.Mean)
					series[ai].Err = append(series[ai].Err, thr.CI95)
					if thr.Mean > peak[ai] {
						peak[ai] = thr.Mean
						peakThreads[ai] = n
					}
				}
				t.Rows = append(t.Rows, row)
			}
			res.Tables = append(res.Tables, t)
			res.Series = append(res.Series, series...)

			bi, wi := bestWorst(peak, false)
			best.Rows = append(best.Rows, []string{
				string(kind),
				DisplayName(Allocators()[bi]),
				DisplayName(Allocators()[wi]),
				fmt.Sprintf("%.2f%%", pctDiff(peak[bi], peak[wi])),
				fmt.Sprintf("%d", peakThreads[bi]),
			})
		}
		res.Tables = append(res.Tables, best)
		return res, nil
	})
	return nil
}

// tab4: percentage of aborted transactions and L1 miss ratio for the
// sorted linked list.
func init() {
	Register(&Experiment{
		ID:    "tab4",
		Paper: "Table 4: aborted transactions and L1 data misses (sorted linked list, 60% updates)",
		Plan: func(b *Builder) error {
			reps := b.Reps(1, 3)
			threads := intsetThreads()
			sweeps := make([][]Sweep[IntsetCell], len(threads))
			for ni, n := range threads {
				sweeps[ni] = make([]Sweep[IntsetCell], len(Allocators()))
				for ai, aname := range Allocators() {
					sweeps[ni][ai] = b.IntsetSweep(intsetCfg(b.Full(), intset.LinkedList, aname, n), reps)
				}
			}
			b.Reduce(func() (*Result, error) {
				t := Table{Columns: []string{"#P"}}
				for _, a := range Allocators() {
					t.Columns = append(t.Columns, DisplayName(a)+" aborts", DisplayName(a)+" L1miss")
				}
				for ni, n := range threads {
					row := []string{fmt.Sprintf("%d", n)}
					for ai := range Allocators() {
						s := sweeps[ni][ai]
						abort := s.Summary(func(c IntsetCell) float64 { return c.AbortRate })
						l1 := s.Summary(func(c IntsetCell) float64 { return c.L1Miss })
						row = append(row, fmt.Sprintf("%04.1f%%", abort.Mean*100), fmt.Sprintf("%.1f%%", l1.Mean*100))
					}
					t.Rows = append(t.Rows, row)
				}
				return &Result{
					ID:     "tab4",
					Title:  "Linked-list abort and L1 miss rates",
					Tables: []Table{t},
					Notes: []string{
						"expected shape: Glibc fewest aborts (32-byte spacing dodges stripe sharing)",
						"but the highest L1 miss ratio (halved cache density).",
					},
				}, nil
			})
			return nil
		},
	})
}

// fig6: relative speedup of shift 4 over shift 5 for the linked list.
func init() {
	Register(&Experiment{
		ID:    "fig6",
		Paper: "Figure 6: relative speedup (-1) of the linked list with shift 4 vs shift 5",
		Plan: func(b *Builder) error {
			reps := b.Reps(1, 3)
			threads := intsetThreads()
			type pair struct{ s5, s4 Sweep[IntsetCell] }
			sweeps := make([][]pair, len(threads))
			for ni, n := range threads {
				sweeps[ni] = make([]pair, len(Allocators()))
				for ai, aname := range Allocators() {
					base := intsetCfg(b.Full(), intset.LinkedList, aname, n)
					s5 := base
					s5.Shift = 5
					s4 := base
					s4.Shift = 4
					sweeps[ni][ai] = pair{s5: b.IntsetSweep(s5, reps), s4: b.IntsetSweep(s4, reps)}
				}
			}
			b.Reduce(func() (*Result, error) {
				t := Table{Columns: []string{"Threads"}}
				for _, a := range Allocators() {
					t.Columns = append(t.Columns, DisplayName(a))
				}
				series := make([]Series, len(Allocators()))
				for ai, a := range Allocators() {
					series[ai].Label = DisplayName(a)
				}
				for ni, n := range threads {
					row := []string{fmt.Sprintf("%d", n)}
					for ai := range Allocators() {
						t5, t4 := sweeps[ni][ai].s5.Summary(intsetThr), sweeps[ni][ai].s4.Summary(intsetThr)
						rel := t4.Mean/t5.Mean - 1
						row = append(row, fmt.Sprintf("%+.3f", rel))
						series[ai].X = append(series[ai].X, float64(n))
						series[ai].Y = append(series[ai].Y, rel)
					}
					t.Rows = append(t.Rows, row)
				}
				return &Result{
					ID:     "fig6",
					Title:  "Shift-amount sensitivity (speedup-1 of shift 4 over shift 5)",
					Tables: []Table{t},
					Series: series,
					Notes: []string{
						"expected shape: negative for Glibc (nothing to gain, extra ORT pressure);",
						"positive at higher thread counts for the 16-byte allocators.",
					},
				}, nil
			})
			return nil
		},
	})
}
