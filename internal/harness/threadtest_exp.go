package harness

import (
	"fmt"

	"repro/internal/threadtest"
)

// fig3: allocator throughput for malloc/free pairs across block sizes,
// 8 threads.
func init() {
	Register(&Experiment{
		ID:    "fig3",
		Paper: "Figure 3: throughput of the studied allocators for different block sizes (8 threads)",
		Plan: func(b *Builder) error {
			sizes := []uint64{16, 64, 128, 256, 512, 2048, 8192}
			ops := 2000
			if b.Full() {
				ops = 10000
			}
			reps := b.Reps(2, 5)
			sweeps := make([][]Sweep[ThreadtestCell], len(sizes))
			for si, size := range sizes {
				sweeps[si] = make([]Sweep[ThreadtestCell], len(Allocators()))
				for ai, aname := range Allocators() {
					sweeps[si][ai] = b.ThreadtestSweep(threadtest.Config{
						Allocator:    aname,
						Threads:      8,
						BlockSize:    size,
						OpsPerThread: ops,
					}, reps)
				}
			}
			b.Reduce(func() (*Result, error) {
				res := &Result{ID: "fig3", Title: "threadtest throughput (million op/s)"}
				t := Table{Columns: []string{"Block size"}}
				for _, a := range Allocators() {
					t.Columns = append(t.Columns, DisplayName(a))
				}
				series := make([]Series, len(Allocators()))
				for i, a := range Allocators() {
					series[i].Label = DisplayName(a)
				}
				for si, size := range sizes {
					row := []string{fmt.Sprintf("%d", size)}
					for ai := range Allocators() {
						s := sweeps[si][ai].Summary(func(c ThreadtestCell) float64 { return c.Throughput })
						s.Mean /= 1e6
						s.CI95 /= 1e6
						row = append(row, fmt.Sprintf("%.2f", s.Mean))
						series[ai].X = append(series[ai].X, float64(size))
						series[ai].Y = append(series[ai].Y, s.Mean)
						series[ai].Err = append(series[ai].Err, s.CI95)
					}
					t.Rows = append(t.Rows, row)
				}
				res.Tables = []Table{t}
				res.Series = series
				res.Notes = []string{
					"expected shapes: TCMalloc weak at 16B (false sharing), strong elsewhere;",
					"Hoard fast through 256B then drops; TBB flat until ~8KB then collapses;",
					"Glibc pays an arena lock on every operation.",
				}
				return res, nil
			})
			return nil
		},
	})
}
