package harness

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/conflict"
	"repro/internal/core"
	"repro/internal/intset"
	"repro/internal/obs"
	"repro/internal/stamp"
	"repro/internal/stm"
)

// observedCell is what one golden cell pins: the race block, the
// conflict block and the observatory's full report, each as indented
// JSON ("null" when the observer was not attached).
type observedCell struct {
	race, conflict, report []byte
}

func indentJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func observed(t *testing.T, b obs.Blocks, r *conflict.Report) observedCell {
	return observedCell{race: indentJSON(t, b.Race), conflict: indentJSON(t, b.Conflict), report: indentJSON(t, r)}
}

// intsetObserved runs one intset cell with the selected observers.
func intsetObserved(cfg intset.Config) func(t *testing.T, race, conflict bool) observedCell {
	return func(t *testing.T, race, conflict bool) observedCell {
		cfg.Race, cfg.Conflict = race, conflict
		res, err := intset.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Status != obs.StatusOK {
			t.Fatalf("%s: %s", res.Status, res.Failure)
		}
		return observed(t, res.Blocks, res.ConflictReport)
	}
}

// vacationObserved runs vacation on hoard at 4 threads, quick scale.
func vacationObserved(t *testing.T, race, conflict bool) observedCell {
	res, err := stamp.Run(stamp.Config{App: "vacation", Allocator: "hoard", Threads: 4, Scale: stamp.Quick,
		Policy: core.Policy{Race: race, Conflict: conflict}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != obs.StatusOK {
		t.Fatalf("%s: %s", res.Status, res.Failure)
	}
	return observed(t, res.Blocks, res.ConflictReport)
}

// TestObserverBlocksGolden pins what the race checker and the conflict
// observatory report, not only that they are pure: each cell's race
// block, conflict block and full conflict report (thread edges and
// exemplars carry the killer ids) are compared with a golden file. The
// cells reach every STM event the two observers consume — begin,
// extend, access, acquire, publish, rollback, abort, commit, label,
// committed frees, quarantine release and the durable brackets — over
// the three STM designs, an aggressive contention manager (kills name
// their killer), a durable heap, transaction-object pooling and a
// STAMP application. Each cell also runs with each observer alone, and
// each block must equal its counterpart from the combined run.
func TestObserverBlocksGolden(t *testing.T) {
	list := intset.Config{Kind: intset.LinkedList, Allocator: "glibc", Threads: 4,
		InitialSize: 64, KeyRange: 128, OpsPerThread: 60, UpdatePct: 60}
	listWith := func(set func(c *intset.Config)) intset.Config {
		c := list
		set(&c)
		return c
	}
	cells := []struct {
		name string
		run  func(t *testing.T, race, conflict bool) observedCell
	}{
		{"linkedlist/glibc/t4/etl-wb", intsetObserved(list)},
		{"linkedlist/glibc/t4/etl-wt", intsetObserved(listWith(func(c *intset.Config) { c.Design = stm.ETLWriteThrough }))},
		{"linkedlist/glibc/t4/ctl", intsetObserved(listWith(func(c *intset.Config) { c.Design = stm.CTL }))},
		{"linkedlist/glibc/t4/aggressive", intsetObserved(listWith(func(c *intset.Config) { c.CM = stm.CMAggressive }))},
		{"linkedlist/glibc/t4/pmem", intsetObserved(listWith(func(c *intset.Config) { c.Pmem = true }))},
		{"rbtree/tcmalloc/t8/pool-cache", intsetObserved(intset.Config{Kind: intset.RBTree, Allocator: "tcmalloc",
			Threads: 8, InitialSize: 64, KeyRange: 128, OpsPerThread: 60, UpdatePct: 60, Pool: stm.PoolCache})},
		{"vacation/hoard/t4", vacationObserved},
	}
	var out bytes.Buffer
	for _, c := range cells {
		both := c.run(t, true, true)
		if raceOnly := c.run(t, true, false); !bytes.Equal(raceOnly.race, both.race) {
			t.Errorf("%s: race block differs with the observatory detached", c.name)
		}
		conflictOnly := c.run(t, false, true)
		if !bytes.Equal(conflictOnly.conflict, both.conflict) || !bytes.Equal(conflictOnly.report, both.report) {
			t.Errorf("%s: conflict block or report differs with the race checker detached", c.name)
		}
		out.WriteString("== " + c.name + " ==\nrace: ")
		out.Write(both.race)
		out.WriteString("\nconflict: ")
		out.Write(both.conflict)
		out.WriteString("\nreport: ")
		out.Write(both.report)
		out.WriteString("\n\n")
	}
	checkGolden(t, "observer_blocks.golden", out.Bytes())
}
