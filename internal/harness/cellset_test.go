package harness

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/obs"
	"repro/internal/sweep"
)

// TestCommittedCellSets plans every experiment at the default spec,
// without running a cell, and checks each plan's cell-set hash and cell
// count against the sweep block of its committed run record in
// results/. A cell's hash covers the JSON of its workload config, so a
// change to how a config encodes (a field added, moved or renamed)
// shows here in milliseconds, before any results gate reruns the sweep.
func TestCommittedCellSets(t *testing.T) {
	spec := &Spec{}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, id := range IDs() {
		e, _ := Get(id)
		b := &Builder{id: id, spec: spec}
		if err := planRecovered(e, b); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		f, err := os.Open(filepath.Join("..", "..", "results", "BENCH_"+id+".json"))
		if err != nil {
			t.Fatal(err)
		}
		recs, err := obs.DecodeRunRecords(f)
		f.Close()
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		want := recs[0].Sweep
		if want == nil {
			t.Fatalf("%s: committed record has no sweep block", id)
		}
		if got := sweep.CellSetHash(b.cells); got != want.CellSet || len(b.cells) != want.Cells {
			t.Errorf("%s: planned %d cells with cell_set %s; results/ has %d cells with %s",
				id, len(b.cells), got, want.Cells, want.CellSet)
		}
	}
}
