package harness

import (
	"fmt"

	"repro/internal/intset"
	"repro/internal/stm"
)

// poolDisciplines is the sweep order for the tx-pooling axis: the
// paper's malloc baseline, its §6.2 cache, then the two disciplines
// grown out of it (ActionMemoryPool-style reuse, BatchActionAllocator-
// style slab batching).
func poolDisciplines() []stm.Pooling {
	return []stm.Pooling{stm.PoolNone, stm.PoolCache, stm.PoolReuse, stm.PoolBatch}
}

// poolTxnTotals is the transaction-count scaling axis: 10^3–10^6 total
// update transactions at full scale, the affordable prefix otherwise.
func poolTxnTotals(full bool) []int {
	if full {
		return []int{1_000, 10_000, 100_000, 1_000_000}
	}
	return []int{1_000, 10_000}
}

// pooling: the fig4 grid gains a pooling-discipline axis. Part one
// sweeps discipline × allocator on the write-dominated hash set (the
// structure whose per-tx node churn the disciplines target); part two
// scales total transactions 10^3–10^6 per discipline so the crossover
// between per-tx malloc, demand caching and bulk allocation is visible.
func init() {
	Register(&Experiment{
		ID:    "pooling",
		Paper: "Pooling sweep: tx-object disciplines (none/cache/pool/batch) across allocators and txn counts",
		Plan: func(b *Builder) error {
			reps := b.Reps(1, 3)
			full := b.Full()
			discs := poolDisciplines()
			threads := 8

			// Part 1: discipline x allocator at the fig4 operating point.
			grid := make([][]Sweep[IntsetCell], len(discs))
			for di, d := range discs {
				grid[di] = make([]Sweep[IntsetCell], len(Allocators()))
				for ai, aname := range Allocators() {
					cfg := intsetCfg(full, intset.HashSet, aname, threads)
					cfg.Pool = d
					grid[di][ai] = b.IntsetSweep(cfg, reps)
				}
			}

			// Part 2: discipline x total transactions on the default
			// allocator.
			totals := poolTxnTotals(full)
			scale := make([][]Sweep[IntsetCell], len(discs))
			for di, d := range discs {
				scale[di] = make([]Sweep[IntsetCell], len(totals))
				for ti, total := range totals {
					cfg := intsetCfg(full, intset.HashSet, "glibc", threads)
					cfg.Pool = d
					cfg.OpsPerThread = total / threads
					scale[di][ti] = b.IntsetSweep(cfg, reps)
				}
			}

			b.Reduce(func() (*Result, error) {
				res := &Result{ID: "pooling", Title: "Transaction-object pooling disciplines (hash set, 60% updates)"}

				t := Table{
					Title:   fmt.Sprintf("Throughput (tx/s) by discipline, %d threads", threads),
					Columns: []string{"Discipline"},
				}
				for _, a := range Allocators() {
					t.Columns = append(t.Columns, DisplayName(a))
				}
				t.Columns = append(t.Columns, "Pool hit rate")
				for di, d := range discs {
					row := []string{d.String()}
					var hits, gets uint64
					for ai := range Allocators() {
						row = append(row, fmt.Sprintf("%.3g", grid[di][ai].Summary(intsetThr).Mean))
						for _, c := range grid[di][ai].Cells() {
							if c.Pool != nil {
								hits += c.Pool.Hits
								gets += c.Pool.Hits + c.Pool.Misses
							}
						}
					}
					if gets > 0 {
						row = append(row, fmt.Sprintf("%.1f%%", 100*float64(hits)/float64(gets)))
					} else {
						row = append(row, "-")
					}
					t.Rows = append(t.Rows, row)
				}
				res.Tables = append(res.Tables, t)

				st := Table{
					Title:   "Throughput (tx/s) vs total transactions (glibc)",
					Columns: []string{"Txns"},
				}
				series := make([]Series, len(discs))
				for di, d := range discs {
					st.Columns = append(st.Columns, d.String())
					series[di].Label = "pooling/" + d.String()
				}
				for ti, total := range totals {
					row := []string{fmt.Sprintf("%d", total)}
					for di := range discs {
						thr := scale[di][ti].Summary(intsetThr)
						row = append(row, fmt.Sprintf("%.3g", thr.Mean))
						series[di].X = append(series[di].X, float64(total))
						series[di].Y = append(series[di].Y, thr.Mean)
						series[di].Err = append(series[di].Err, thr.CI95)
					}
					st.Rows = append(st.Rows, row)
				}
				res.Tables = append(res.Tables, st)
				res.Series = append(res.Series, series...)
				res.Notes = []string{
					"none = per-tx malloc baseline; cache = the paper's §6.2 thread-local cache;",
					"pool = eager pool-and-reuse (contiguous refill runs); batch = slab carving.",
					"expected shape: the pooled disciplines converge as txn counts amortize warmup,",
					"with batch doing the fewest allocator operations.",
				}
				return res, nil
			})
			return nil
		},
	})
}
