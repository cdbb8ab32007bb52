package harness

import (
	"fmt"

	"repro/internal/intset"
)

// hytm: the paper's future-work configuration — the same allocator
// comparison on a best-effort HTM with lock-elision fallback, where
// conflicts are detected at cache-line granularity, so the allocator's
// line-sharing behaviour becomes transactional-abort behaviour
// directly.
func init() {
	Register(&Experiment{
		ID:    "hytm",
		Paper: "future work (§7): allocator influence on a best-effort HTM / hybrid TM",
		Plan: func(b *Builder) error {
			initial, keyRange, ops := IntsetScale(b.Full(), intset.HashSet)
			reps := b.Reps(1, 3)
			sweeps := make([]Sweep[HyTMCell], len(Allocators()))
			for ai, aname := range Allocators() {
				cfg := intset.Config{
					Kind:         intset.HashSet,
					Allocator:    aname,
					Threads:      8,
					InitialSize:  initial,
					KeyRange:     keyRange,
					UpdatePct:    60,
					OpsPerThread: ops,
				}
				sweeps[ai] = repeat(reps, func(r int) Handle[HyTMCell] { return b.HyTM(cfg, r) })
			}
			b.Reduce(func() (*Result, error) {
				t := Table{
					Title: "hash set, 60% updates, 8 threads, HTM + lock-elision fallback",
					Columns: []string{
						"Allocator", "Throughput (tx/s)", "HTM commits", "HTM aborts",
						"conflict", "capacity", "lock", "alloc", "fallbacks",
					},
				}
				series := make([]Series, 1)
				series[0].Label = "HTM conflict aborts per allocator (x=allocator index)"
				for ai, aname := range Allocators() {
					var thr float64
					var agg HyTMCell
					for _, c := range sweeps[ai].Cells() {
						thr += c.Throughput
						agg = c
					}
					thr /= float64(len(sweeps[ai]))
					st := agg.HTM
					t.Rows = append(t.Rows, []string{
						DisplayName(aname),
						fmt.Sprintf("%.3g", thr),
						fmt.Sprintf("%d", st.HTMCommits),
						fmt.Sprintf("%d", st.HTMAborts),
						fmt.Sprintf("%d", st.ByReason[0]), // conflict
						fmt.Sprintf("%d", st.ByReason[1]), // capacity
						fmt.Sprintf("%d", st.ByReason[2]), // lock
						fmt.Sprintf("%d", st.ByReason[3]), // alloc
						fmt.Sprintf("%d", st.Fallbacks),
					})
					series[0].X = append(series[0].X, float64(ai))
					series[0].Y = append(series[0].Y, float64(st.ByReason[0]))
				}
				return &Result{
					ID:     "hytm",
					Title:  "Allocators under hybrid (HTM + fallback) transactional memory",
					Tables: []Table{t},
					Series: series,
					Notes: []string{
						"HTM detects conflicts per 64-byte line: allocators that pack several nodes",
						"per line (or hand adjacent blocks to different threads) convert their",
						"false-sharing behaviour directly into transactional aborts.",
					},
				}, nil
			})
			return nil
		},
	})
}
