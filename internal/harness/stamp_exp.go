package harness

import (
	"fmt"

	_ "repro/internal/stamp/bayes"
	_ "repro/internal/stamp/genome"
	_ "repro/internal/stamp/intruder"
	_ "repro/internal/stamp/kmeans"
	_ "repro/internal/stamp/labyrinth"
	_ "repro/internal/stamp/ssca2"
	_ "repro/internal/stamp/vacation"
	_ "repro/internal/stamp/yada"

	"repro/internal/stamp"
)

// figApps are the six applications of Figure 7 (Kmeans and SSCA2 are
// dropped there, as in the paper, for being allocator-insensitive).
func figApps() []string {
	return []string{"bayes", "genome", "intruder", "labyrinth", "vacation", "yada"}
}

func stampThreads() []int { return []int{1, 2, 4, 8} }

func stampScale(full bool) stamp.Scale {
	if full {
		return stamp.Ref
	}
	return stamp.Quick
}

// stampCfg builds the plain timed configuration shared by the STAMP
// experiments, so overlapping sweeps (fig7/fig8/tab7) dedupe.
func stampCfg(full bool, app, aname string, threads int) stamp.Config {
	return stamp.Config{App: app, Allocator: aname, Threads: threads, Scale: stampScale(full)}
}

// fig1: the motivation figure — Intruder and Yada at 8 threads with
// Glibc vs Hoard.
func init() {
	Register(&Experiment{
		ID:    "fig1",
		Paper: "Figure 1: influence of allocators on Intruder and Yada (8 cores, Glibc vs Hoard)",
		Plan: func(b *Builder) error {
			reps := b.Reps(2, 5)
			apps := []string{"intruder", "yada"}
			allocs := []string{"glibc", "hoard"}
			sweeps := make([][]Sweep[StampCell], len(apps))
			for pi, app := range apps {
				sweeps[pi] = make([]Sweep[StampCell], len(allocs))
				for ai, aname := range allocs {
					sweeps[pi][ai] = b.StampSweep(stampCfg(b.Full(), app, aname, 8), reps)
				}
			}
			b.Reduce(func() (*Result, error) {
				t := Table{Columns: []string{"Application", "Glibc (ms)", "Hoard (ms)", "Winner"}}
				for pi, app := range apps {
					var means [2]float64
					row := []string{app}
					for ai := range allocs {
						s := sweeps[pi][ai].Summary(stampMs)
						means[ai] = s.Mean
						row = append(row, fmt.Sprintf("%.3g ± %.2g", s.Mean, s.CI95))
					}
					winner := "Glibc"
					if means[1] < means[0] {
						winner = "Hoard"
					}
					row = append(row, winner)
					t.Rows = append(t.Rows, row)
				}
				return &Result{
					ID:     "fig1",
					Title:  "Motivation: the best-performing allocator changes between applications",
					Tables: []Table{t},
					Notes:  []string{"paper: Glibc wins Intruder, Hoard wins Yada (both at 8 cores)"},
				}, nil
			})
			return nil
		},
	})
}

// tab5: the allocation characterization, from instrumented sequential
// runs (as in the paper).
func init() {
	Register(&Experiment{
		ID:    "tab5",
		Paper: "Table 5: characterization of memory allocations of the STAMP benchmark",
		Plan: func(b *Builder) error {
			apps := stamp.Names()
			probes := make([]Handle[StampProbe], len(apps))
			for pi, app := range apps {
				cfg := stampCfg(b.Full(), app, "tbb", 1)
				cfg.Profile = true
				probes[pi] = b.StampProbeCell(cfg)
			}
			b.Reduce(func() (*Result, error) {
				res := &Result{ID: "tab5", Title: "Allocation profile per app, region and size class (sequential run)"}
				t := Table{Columns: []string{"App", "Region", "<=16", "<=32", "<=48", "<=64", "<=96", "<=128", "<=256", ">256", "#mallocs", "#frees", "bytes"}}
				for pi, app := range apps {
					out := probes[pi].Get()
					p := out.Profile
					if p == nil { // run wound down (watchdog / captured panic) before profiling finished
						t.Rows = append(t.Rows, []string{app, "(" + out.Status + ")", "", "", "", "", "", "", "", "", "", "", ""})
						continue
					}
					for _, reg := range []stamp.Region{stamp.RegionSeq, stamp.RegionPar, stamp.RegionTx} {
						row := []string{app, reg.String()}
						for bk := 0; bk < 8; bk++ {
							row = append(row, fmt.Sprintf("%d", p.Counts[reg][bk]))
						}
						row = append(row,
							fmt.Sprintf("%d", p.Mallocs[reg]),
							fmt.Sprintf("%d", p.Frees[reg]),
							fmt.Sprintf("%d", p.Bytes[reg]))
						t.Rows = append(t.Rows, row)
					}
				}
				res.Tables = []Table{t}
				res.Notes = []string{
					"expected shapes: kmeans & ssca2 allocate only in seq; genome's tx allocs all <=16B;",
					"intruder allocates in tx and frees in par (privatization); yada heaviest tx churn.",
				}
				return res, nil
			})
			return nil
		},
	})
}

// fig7 + tab6: STAMP execution times per allocator and the best/worst
// summary. Both declare the same cells, so a session running both (or
// fig8 / tab7, whose sweeps overlap) executes each configuration once.
func init() {
	Register(&Experiment{
		ID:    "fig7",
		Paper: "Figure 7: execution time with different allocators for the STAMP applications",
		Plan:  func(b *Builder) error { return planFig7Tab6(b, "fig7") },
	})
	Register(&Experiment{
		ID:    "tab6",
		Paper: "Table 6: best and worst allocators for each STAMP application",
		Plan:  func(b *Builder) error { return planFig7Tab6(b, "tab6") },
	})
}

func planFig7Tab6(b *Builder, id string) error {
	reps := b.Reps(2, 5)
	apps := figApps()
	threads := stampThreads()
	sweeps := make([][][]Sweep[StampCell], len(apps))
	for pi, app := range apps {
		sweeps[pi] = make([][]Sweep[StampCell], len(threads))
		for ni, n := range threads {
			sweeps[pi][ni] = make([]Sweep[StampCell], len(Allocators()))
			for ai, aname := range Allocators() {
				sweeps[pi][ni][ai] = b.StampSweep(stampCfg(b.Full(), app, aname, n), reps)
			}
		}
	}
	b.Reduce(func() (*Result, error) {
		res := &Result{ID: id, Title: "STAMP execution time (modelled ms)"}
		best := Table{
			Title:   "Best and worst allocators (Table 6)",
			Columns: []string{"Application", "Best", "Worst", "Perf. Diff.", "Threads"},
		}
		for pi, app := range apps {
			t := Table{Title: app, Columns: []string{"Threads"}}
			for _, a := range Allocators() {
				t.Columns = append(t.Columns, DisplayName(a))
			}
			series := make([]Series, len(Allocators()))
			// Track each allocator's best (minimum) time and where.
			bestTime := make([]float64, len(Allocators()))
			bestThreads := make([]int, len(Allocators()))
			for ai, a := range Allocators() {
				series[ai].Label = fmt.Sprintf("%s/%s", app, DisplayName(a))
			}
			for ni, n := range threads {
				row := []string{fmt.Sprintf("%d", n)}
				for ai := range Allocators() {
					s := sweeps[pi][ni][ai].Summary(stampMs)
					row = append(row, fmt.Sprintf("%.3g", s.Mean))
					series[ai].X = append(series[ai].X, float64(n))
					series[ai].Y = append(series[ai].Y, s.Mean)
					series[ai].Err = append(series[ai].Err, s.CI95)
					if bestTime[ai] == 0 || s.Mean < bestTime[ai] {
						bestTime[ai] = s.Mean
						bestThreads[ai] = n
					}
				}
				t.Rows = append(t.Rows, row)
			}
			res.Tables = append(res.Tables, t)
			res.Series = append(res.Series, series...)

			bi, wi := bestWorst(bestTime, true)
			best.Rows = append(best.Rows, []string{
				app,
				DisplayName(Allocators()[bi]),
				DisplayName(Allocators()[wi]),
				fmt.Sprintf("%.1f%%", pctDiff(bestTime[bi], bestTime[wi])),
				fmt.Sprintf("%d", bestThreads[bi]),
			})
		}
		res.Tables = append(res.Tables, best)
		return res, nil
	})
	return nil
}

// fig8: speedup curves for Genome and Yada.
func init() {
	Register(&Experiment{
		ID:    "fig8",
		Paper: "Figure 8: speedup curves for Genome and Yada with different allocators",
		Plan: func(b *Builder) error {
			reps := b.Reps(2, 5)
			apps := []string{"genome", "yada"}
			threads := stampThreads()
			sweeps := make([][][]Sweep[StampCell], len(apps))
			for pi, app := range apps {
				sweeps[pi] = make([][]Sweep[StampCell], len(threads))
				for ni, n := range threads {
					sweeps[pi][ni] = make([]Sweep[StampCell], len(Allocators()))
					for ai, aname := range Allocators() {
						sweeps[pi][ni][ai] = b.StampSweep(stampCfg(b.Full(), app, aname, n), reps)
					}
				}
			}
			b.Reduce(func() (*Result, error) {
				res := &Result{ID: "fig8", Title: "Speedup over each allocator's own 1-thread run"}
				for pi, app := range apps {
					t := Table{Title: app, Columns: []string{"Threads"}}
					for _, a := range Allocators() {
						t.Columns = append(t.Columns, DisplayName(a))
					}
					base := make([]float64, len(Allocators()))
					var rows [][]string
					series := make([]Series, len(Allocators()))
					for ai, a := range Allocators() {
						series[ai].Label = fmt.Sprintf("%s/%s", app, DisplayName(a))
					}
					for ni, n := range threads {
						row := []string{fmt.Sprintf("%d", n)}
						for ai := range Allocators() {
							s := sweeps[pi][ni][ai].Summary(stampMs)
							if n == 1 {
								base[ai] = s.Mean
							}
							sp := base[ai] / s.Mean
							row = append(row, fmt.Sprintf("%.2f", sp))
							series[ai].X = append(series[ai].X, float64(n))
							series[ai].Y = append(series[ai].Y, sp)
						}
						rows = append(rows, row)
					}
					t.Rows = rows
					res.Tables = append(res.Tables, t)
					res.Series = append(res.Series, series...)
				}
				res.Notes = []string{
					"paper: Genome's Glibc speedup looks best only because its 1-thread run is slow;",
					"Yada does not scale under Glibc while it does under the others.",
				}
				return res, nil
			})
			return nil
		},
	})
}

// tab7: gains from the STM-level transactional-object caching
// optimization.
func init() {
	Register(&Experiment{
		ID:    "tab7",
		Paper: "Table 7: performance gains with tx-object caching optimizations (8 threads)",
		Plan: func(b *Builder) error {
			reps := b.Reps(2, 5)
			apps := []string{"genome", "intruder", "vacation", "yada"}
			type pair struct{ off, on Sweep[StampCell] }
			sweeps := make([][]pair, len(apps))
			for pi, app := range apps {
				sweeps[pi] = make([]pair, len(Allocators()))
				for ai, aname := range Allocators() {
					off := stampCfg(b.Full(), app, aname, 8)
					on := off
					on.CacheTx = true
					sweeps[pi][ai] = pair{off: b.StampSweep(off, reps), on: b.StampSweep(on, reps)}
				}
			}
			b.Reduce(func() (*Result, error) {
				t := Table{Columns: []string{"App"}}
				for _, a := range Allocators() {
					t.Columns = append(t.Columns, DisplayName(a))
				}
				for pi, app := range apps {
					row := []string{app}
					for ai := range Allocators() {
						off, on := sweeps[pi][ai].off.Summary(stampMs), sweeps[pi][ai].on.Summary(stampMs)
						gain := (off.Mean - on.Mean) / off.Mean * 100
						row = append(row, fmt.Sprintf("%+.2f%%", gain))
					}
					t.Rows = append(t.Rows, row)
				}
				return &Result{
					ID:     "tab7",
					Title:  "Gain from caching transactional objects at the STM level",
					Tables: []Table{t},
					Notes: []string{
						"expected shape: largest gains where the allocator lacks thread-private caching",
						"(Glibc) and the app churns tx memory (Yada); ~neutral for TBB/TCMalloc.",
					},
				}, nil
			})
			return nil
		},
	})
}
