package harness

import (
	"fmt"

	"repro/internal/stamp"
)

// appchar: the qualitative application characterization the paper's §4
// leans on ("different behavior concerning time in transaction, level
// of contention, size of read/write sets, and transaction length"),
// measured from instrumented runs of this repository's ports.
func init() {
	Register(&Experiment{
		ID:    "appchar",
		Paper: "§4 application characterization: contention, set sizes, tx memory behaviour",
		Plan: func(b *Builder) error {
			apps := stamp.Names()
			probes := make([]Handle[StampProbe], len(apps))
			for pi, app := range apps {
				probes[pi] = b.StampProbeCell(stampCfg(b.Full(), app, "tbb", 8))
			}
			b.Reduce(func() (*Result, error) {
				t := Table{
					Columns: []string{
						"App", "Commits", "Abort rate", "False aborts",
						"Max read set", "Max write set", "Tx mallocs", "Tx frees",
						"L1 miss",
					},
				}
				for pi, app := range apps {
					res := probes[pi].Get()
					t.Rows = append(t.Rows, []string{
						app,
						fmt.Sprintf("%d", res.Tx.Commits),
						fmt.Sprintf("%.1f%%", res.Tx.AbortRate()*100),
						fmt.Sprintf("%d", res.Tx.FalseAborts),
						fmt.Sprintf("%d", res.Tx.MaxReadSet),
						fmt.Sprintf("%d", res.Tx.MaxWriteSet),
						fmt.Sprintf("%d", res.Tx.AllocsInTx),
						fmt.Sprintf("%d", res.Tx.FreesInTx),
						fmt.Sprintf("%.2f%%", res.L1Miss*100),
					})
				}
				return &Result{
					ID:     "appchar",
					Title:  "STAMP characterization on this substrate (8 threads, TBBMalloc)",
					Tables: []Table{t},
					Notes: []string{
						"qualitative expectations: labyrinth/yada long transactions (large sets);",
						"kmeans/ssca2 short ones with no tx allocation; intruder/yada high contention.",
					},
				}, nil
			})
			return nil
		},
	})
}
