package harness

import (
	"fmt"

	"repro/internal/intset"
)

// fig4rates: the paper ran its synthetic benchmark at three update
// rates — read-only, read-dominated (20%) and write-dominated (60%) —
// but printed only the write-dominated results for space. This
// experiment provides the other two for the linked list, showing how
// the allocator effects grow with the update rate.
func init() {
	Register(&Experiment{
		ID:    "fig4rates",
		Paper: "§4/§5 update-rate sweep: read-only, read-dominated, write-dominated (linked list, 8 threads)",
		Plan: func(b *Builder) error {
			initial, keyRange, ops := IntsetScale(b.Full(), intset.LinkedList)
			reps := b.Reps(1, 3)
			rates := []int{0, 20, 60}
			sweeps := make([][]Sweep[IntsetCell], len(rates))
			for ri, rate := range rates {
				sweeps[ri] = make([]Sweep[IntsetCell], len(Allocators()))
				for ai, aname := range Allocators() {
					sweeps[ri][ai] = b.IntsetSweep(intset.Config{
						Kind:         intset.LinkedList,
						Allocator:    aname,
						Threads:      8,
						InitialSize:  initial,
						KeyRange:     keyRange,
						UpdatePct:    rate,
						OpsPerThread: ops,
					}, reps)
				}
			}
			b.Reduce(func() (*Result, error) {
				res := &Result{ID: "fig4rates", Title: "Update-rate sensitivity (linked list, 8 threads)"}
				for ri, rate := range rates {
					t := Table{
						Title:   fmt.Sprintf("%d%% updates", rate),
						Columns: []string{"Allocator", "Throughput (tx/s)", "Abort rate", "False aborts"},
					}
					for ai, aname := range Allocators() {
						var thrSum, abortSum, falseSum float64
						cells := sweeps[ri][ai].Cells()
						for _, c := range cells {
							thrSum += c.Throughput
							abortSum += c.AbortRate
							falseSum += float64(c.FalseAborts)
						}
						n := float64(len(cells))
						t.Rows = append(t.Rows, []string{
							DisplayName(aname),
							fmt.Sprintf("%.3g", thrSum/n),
							fmt.Sprintf("%.1f%%", abortSum/n*100),
							fmt.Sprintf("%.0f", falseSum/n),
						})
					}
					res.Tables = append(res.Tables, t)
				}
				res.Notes = []string{
					"read-only runs never abort regardless of allocator;",
					"allocator separation grows with the update rate (the paper used 60% as the",
					"most allocator-sensitive configuration).",
				}
				return res, nil
			})
			return nil
		},
	})
}
