package obs

import (
	"reflect"
	"testing"
)

// TestDeltaMergeDeterminism is the sweep's observability contract:
// per-cell sibling recorders merged in cell order produce the same
// parent state regardless of which host goroutine ran which cell —
// because each sibling is only read at Apply time.
func TestDeltaMergeDeterminism(t *testing.T) {
	build := func() *Recorder {
		parent := New(Config{RingSize: 64})
		a := parent.Sibling()
		a.BeginPhase("cell-a")
		a.TxCommit(0, 0, 10, 2, 1)
		a.Metrics().Counter("tm_tx_commits_total").Add(1)
		a.Metrics().Gauge("alloc_heap_bytes").Set(100)

		b := parent.Sibling()
		b.BeginPhase("cell-b")
		b.TxAbort(1, 0, 5, "locked", 3, true, 7, 8)
		b.Metrics().Counter("tm_tx_commits_total").Add(2)
		b.Metrics().Gauge("alloc_heap_bytes").Set(250)

		parent.Apply(a)
		parent.Apply(b)
		return parent
	}
	p1, p2 := build(), build()
	s1, s2 := p1.Metrics().Snapshot(), p2.Metrics().Snapshot()
	if !reflect.DeepEqual(s1, s2) {
		t.Errorf("merge is not deterministic: %+v vs %+v", s1, s2)
	}
	if s1.Counters["tm_tx_commits_total"] != 3 {
		t.Errorf("counters must add across siblings: %+v", s1.Counters)
	}
	if s1.Gauges["alloc_heap_bytes"] != 250 {
		t.Errorf("gauges are watermarks and must merge by max: %+v", s1.Gauges)
	}
	// Every recorder opens with the implicit "run" phase; the merged
	// list carries each cell's phase history verbatim, in apply order.
	want := []string{"run", "run", "cell-a", "run", "cell-b"}
	if got := p1.Phases(); !reflect.DeepEqual(got, want) {
		t.Errorf("phases = %v, want %v", got, want)
	}
	if p1.EventCount() != 2 {
		t.Errorf("events = %d, want both cells' events", p1.EventCount())
	}
	// Events keep their origin phase: the abort recorded in cell-b must
	// sit in the remapped second epoch, not the first.
	evs := p1.Events()
	var abortEpoch, commitEpoch int32 = -1, -1
	for _, ev := range evs {
		switch ev.Kind.String() {
		case "tx-abort":
			abortEpoch = ev.Epoch
		case "tx-commit":
			commitEpoch = ev.Epoch
		}
	}
	if commitEpoch == abortEpoch {
		t.Errorf("epochs not remapped: commit epoch %d, abort epoch %d", commitEpoch, abortEpoch)
	}
}

func TestDeltaNilSafety(t *testing.T) {
	parent := New(Config{})
	parent.Apply(nil) // must not panic
	if parent.EventCount() != 0 || len(parent.Phases()) != 1 {
		t.Error("applying a nil sibling must leave the recorder as it was")
	}
	if s := (*Recorder)(nil).Sibling(); s != nil {
		t.Error("nil recorder must yield a nil sibling")
	}
}
