package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// A nil recorder must accept every emitter and accessor without
// panicking — that is the disabled state all hot paths rely on.
func TestNilRecorderSafe(t *testing.T) {
	var r *Recorder
	r.TxCommit(0, 0, 10, 3, 2)
	r.TxAbort(0, 0, 10, "locked", 7, true, 1, 2)
	r.Alloc("glibc", 0, 0, 5, 16, 0x1000)
	r.Free("glibc", 0, 0, 5, 0x1000)
	r.LockWait(0, 0, 9)
	r.Transfer("x", 0, 3, 1)
	r.Quantum(0, 0, 100)
	r.BeginPhase("p")
	r.Gauge("g", 1)
	if r.Metrics() != nil || r.StripeHeatmap() != nil || r.Events() != nil || r.Phases() != nil {
		t.Fatal("nil recorder leaked non-nil internals")
	}
	if r.Dropped() != 0 || r.EventCount() != 0 {
		t.Fatal("nil recorder reports activity")
	}
	if err := r.WriteJSONL(&bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	if err := r.WritePrometheus(&bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
}

func TestRingOverflow(t *testing.T) {
	r := New(Config{RingSize: 4})
	for i := 0; i < 10; i++ {
		r.Quantum(0, uint64(i), uint64(i)+1)
	}
	evs := r.Events()
	if len(evs) != 4 {
		t.Fatalf("retained %d events, want 4", len(evs))
	}
	// Newest events win: timestamps 6..9.
	if evs[0].TS != 6 || evs[3].TS != 9 {
		t.Fatalf("retained window [%d, %d], want [6, 9]", evs[0].TS, evs[3].TS)
	}
	if r.Dropped() != 6 {
		t.Fatalf("dropped = %d, want 6", r.Dropped())
	}
	if r.EventCount() != 4 {
		t.Fatalf("EventCount = %d, want 4", r.EventCount())
	}
}

// TestRingGrowsOnDemand checks that a ring's backing array grows with
// the events it holds: 100 events into a default-size recorder must not
// allocate the full 2^15-slot ring.
func TestRingGrowsOnDemand(t *testing.T) {
	r := New(Config{})
	for i := 0; i < 100; i++ {
		r.Quantum(0, uint64(i), uint64(i)+1)
	}
	if got := cap(r.rings[0].buf); got > 256 {
		t.Fatalf("100 events hold a %d-slot backing array, want at most 256 (ring size %d)", got, DefaultRingSize)
	}
	if r.EventCount() != 100 || r.Dropped() != 0 {
		t.Fatalf("EventCount = %d, Dropped = %d; want 100 and 0", r.EventCount(), r.Dropped())
	}
}

// TestGrownRingWraps checks a ring that grows through several steps and
// then wraps: its backing array never passes the ring size, and it
// returns the newest events in order with their sequence numbers and
// the right drop count.
func TestGrownRingWraps(t *testing.T) {
	const size, pushed = 200, 1000
	r := New(Config{RingSize: size})
	for i := 0; i < pushed; i++ {
		r.Quantum(0, uint64(i), uint64(i)+1)
		if c := cap(r.rings[0].buf); c > size {
			t.Fatalf("after %d events the backing array has %d slots, past the ring size %d", i+1, c, size)
		}
	}
	evs := r.Events()
	if len(evs) != size {
		t.Fatalf("retained %d events, want %d", len(evs), size)
	}
	for i, ev := range evs {
		if want := uint64(pushed - size + i); ev.TS != want || ev.Seq != want {
			t.Fatalf("event %d: TS %d, Seq %d; want both %d", i, ev.TS, ev.Seq, want)
		}
	}
	if r.Dropped() != pushed-size {
		t.Fatalf("dropped = %d, want %d", r.Dropped(), pushed-size)
	}
}

func TestHistogramBuckets(t *testing.T) {
	cases := []struct {
		v    uint64
		want int
	}{
		{0, 0}, {1, 0}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {8, 3}, {9, 4},
		{1 << 20, 20}, {1<<20 + 1, 21}, {^uint64(0), histBuckets},
	}
	for _, c := range cases {
		if got := bucketOf(c.v); got != c.want {
			t.Errorf("bucketOf(%d) = %d, want %d", c.v, got, c.want)
		}
	}
	var h Histogram
	h.Observe(1)
	h.Observe(8)
	h.Observe(9)
	if h.Count() != 3 || h.Sum() != 18 {
		t.Fatalf("count/sum = %d/%d, want 3/18", h.Count(), h.Sum())
	}
	if m := h.Mean(); m != 6 {
		t.Fatalf("mean = %v, want 6", m)
	}
	if (&Histogram{}).Mean() != 0 {
		t.Fatal("empty histogram mean != 0")
	}
}

func TestRegistryPrometheusDeterministic(t *testing.T) {
	reg := NewRegistry()
	reg.Counter(`ops_total{alloc="tbb"}`).Add(2)
	reg.Counter(`ops_total{alloc="glibc"}`).Inc()
	reg.Counter("aborts_total").Add(7)
	reg.Gauge("live_bytes").Set(128)
	reg.Histogram("lat_cycles").Observe(3)
	reg.Histogram("lat_cycles").Observe(300)

	var a, b bytes.Buffer
	if err := reg.WritePrometheus(&a); err != nil {
		t.Fatal(err)
	}
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("two expositions of one registry differ")
	}
	out := a.String()
	for _, w := range []string{
		"# TYPE aborts_total counter",
		"aborts_total 7",
		`ops_total{alloc="glibc"} 1`,
		`ops_total{alloc="tbb"} 2`,
		"# TYPE live_bytes gauge",
		"# TYPE lat_cycles histogram",
		`lat_cycles_bucket{le="+Inf"} 2`,
		"lat_cycles_sum 303",
		"lat_cycles_count 2",
	} {
		if !strings.Contains(out, w) {
			t.Errorf("exposition missing %q\n%s", w, out)
		}
	}
	// Label variants of one family must be grouped under a single # TYPE.
	if strings.Count(out, "# TYPE ops_total counter") != 1 {
		t.Errorf("ops_total family emitted more than one TYPE line:\n%s", out)
	}
	// glibc sorts before tbb within the family.
	if strings.Index(out, `alloc="glibc"`) > strings.Index(out, `alloc="tbb"`) {
		t.Errorf("label variants not sorted:\n%s", out)
	}
}

func TestSnapshotJSONDeterministic(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("b_total").Inc()
	reg.Counter("a_total").Add(3)
	reg.Histogram("h").Observe(5)
	s1, _ := json.Marshal(reg.Snapshot())
	s2, _ := json.Marshal(reg.Snapshot())
	if !bytes.Equal(s1, s2) {
		t.Fatal("snapshot JSON not deterministic")
	}
	var back Snapshot
	if err := json.Unmarshal(s1, &back); err != nil {
		t.Fatal(err)
	}
	if back.Counters["a_total"] != 3 {
		t.Fatalf("round-trip lost counter: %v", back.Counters)
	}
}

func TestHeatmap(t *testing.T) {
	h := NewHeatmap()
	// Two different placements colliding on entry 5: false abort.
	h.Record(5, true, 100, 200)
	h.Record(5, true, 100, 200)
	// Same placement on entry 9: a true conflict.
	h.Record(9, false, 300, 300)
	if h.Len() != 2 {
		t.Fatalf("Len = %d, want 2", h.Len())
	}
	if h.TotalFalseAborts() != 2 {
		t.Fatalf("TotalFalseAborts = %d, want 2", h.TotalFalseAborts())
	}
	top := h.Top(10)
	if len(top) != 2 || top[0].Entry != 5 {
		t.Fatalf("Top order wrong: %+v", top)
	}
	if !top[0].Aliased || top[1].Aliased {
		t.Fatalf("aliasing flags wrong: %+v", top)
	}
	if len(top[0].Placements) != 2 {
		t.Fatalf("entry 5 placements = %+v, want two keys", top[0].Placements)
	}

	// The placement cap folds extra keys into OtherPlacements instead of
	// growing without bound.
	for k := uint64(0); k < 3*maxPlacements; k++ {
		h.Record(7, true, k, k+1000)
	}
	var cell StripeJSON
	for _, c := range h.Top(100) {
		if c.Entry == 7 {
			cell = c
		}
	}
	if len(cell.Placements) != maxPlacements || cell.OtherPlacements == 0 {
		t.Fatalf("placement cap not applied: %+v", cell)
	}

	var buf bytes.Buffer
	if err := h.WritePrometheus(&buf, 8); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "stm_stripe_false_aborts_bucket") {
		t.Fatalf("heatmap exposition missing histogram:\n%s", buf.String())
	}
}

func TestChromeTraceValidAndStable(t *testing.T) {
	build := func() *Recorder {
		r := New(Config{RingSize: 64})
		r.BeginPhase("phase-a")
		r.TxCommit(1, 10, 25, 4, 2)
		r.TxAbort(0, 12, 30, "locked", 7, true, 3, 9)
		r.TxAbort(0, 31, 40, "validation", NoStripe, false, 0, 0)
		r.Alloc("tbb", 0, 50, 58, 48, 0x4000)
		r.Free("tbb", 1, 60, 64, 0x4000)
		r.LockWait(1, 70, 90)
		r.Transfer("tbb:sb-refill", 0, 95, 16)
		r.Quantum(0, 0, 100)
		return r
	}
	var a, b bytes.Buffer
	if err := build().WriteChromeTrace(&a); err != nil {
		t.Fatal(err)
	}
	if err := build().WriteChromeTrace(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("identical recorders produced different traces")
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(a.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	cats := map[string]bool{}
	var sawNullStripe bool
	for _, ev := range doc.TraceEvents {
		if c, ok := ev["cat"].(string); ok {
			cats[c] = true
		}
		if ev["name"] == "tx-abort" {
			if args, ok := ev["args"].(map[string]any); ok && args["stripe"] == nil {
				sawNullStripe = true
			}
		}
	}
	for _, want := range []string{"stm", "alloc", "sched"} {
		if !cats[want] {
			t.Errorf("trace missing category %q (got %v)", want, cats)
		}
	}
	if !sawNullStripe {
		t.Error("unattributed abort did not render stripe:null")
	}

	var jl bytes.Buffer
	if err := build().WriteJSONL(&jl); err != nil {
		t.Fatal(err)
	}
	for i, line := range strings.Split(strings.TrimSpace(jl.String()), "\n") {
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("JSONL line %d invalid: %v", i, err)
		}
	}
}

func TestRunRecordAttachAndWrite(t *testing.T) {
	r := New(Config{RingSize: 16})
	r.BeginPhase("p0")
	r.TxCommit(0, 0, 9, 1, 1)
	r.TxAbort(0, 2, 7, "locked", 3, true, 10, 11)

	rec := &RunRecord{
		Schema:     RunRecordSchema,
		Experiment: "test",
		Config:     RunConfig{Seed: 42},
		Tables:     []Table{{Columns: []string{"a"}, Rows: [][]string{{"1"}}}},
		Series:     []Series{{Label: "s", X: []float64{1}, Y: []float64{2}}},
	}
	rec.Attach(r)
	if rec.Metrics == nil || rec.Trace == nil {
		t.Fatal("Attach left metrics/trace nil")
	}
	if rec.Trace.Events != 2 {
		t.Fatalf("trace events = %d, want 2", rec.Trace.Events)
	}
	if len(rec.Stripes) != 1 || !rec.Stripes[0].Aliased {
		t.Fatalf("stripes = %+v", rec.Stripes)
	}

	var one, many bytes.Buffer
	if err := rec.WriteJSON(&one); err != nil {
		t.Fatal(err)
	}
	var back RunRecord
	if err := json.Unmarshal(one.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if back.Schema != RunRecordSchema || back.Experiment != "test" {
		t.Fatalf("round trip lost fields: %+v", back)
	}
	if err := WriteRunRecords(&many, []*RunRecord{rec, rec}); err != nil {
		t.Fatal(err)
	}
	var arr []RunRecord
	if err := json.Unmarshal(many.Bytes(), &arr); err != nil || len(arr) != 2 {
		t.Fatalf("two records should serialize as an array: %v", err)
	}

	// A record with no recorder stays a plain result container.
	plain := &RunRecord{Schema: RunRecordSchema, Experiment: "plain"}
	plain.Attach(nil)
	if plain.Metrics != nil || plain.Trace != nil {
		t.Fatal("Attach(nil) touched the record")
	}
}

func TestPhasesAndEpochs(t *testing.T) {
	r := New(Config{RingSize: 8})
	r.Quantum(0, 0, 1) // epoch 0 ("run")
	r.BeginPhase("a")
	r.Quantum(0, 1, 2) // epoch 1
	r.BeginPhase("b")
	r.Quantum(0, 2, 3) // epoch 2
	evs := r.Events()
	if len(evs) != 3 {
		t.Fatalf("got %d events", len(evs))
	}
	for i, want := range []int32{0, 1, 2} {
		if evs[i].Epoch != want {
			t.Fatalf("event %d epoch = %d, want %d", i, evs[i].Epoch, want)
		}
	}
	if ph := r.Phases(); len(ph) != 3 || ph[0] != "run" || ph[2] != "b" {
		t.Fatalf("phases = %v", ph)
	}
}
