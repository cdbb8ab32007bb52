package obs_test

import (
	"bytes"
	"testing"

	_ "repro/internal/alloc/glibc"
	_ "repro/internal/alloc/tbb"

	"repro/internal/core"
	"repro/internal/intset"
	"repro/internal/obs"
)

// run executes a small contended intset workload with a fresh recorder
// and returns the recorder plus its three serialized outputs.
func run(t *testing.T, allocator string) (*obs.Recorder, []byte, []byte, []byte) {
	t.Helper()
	rec := obs.New(obs.Config{})
	_, err := intset.Run(intset.Config{
		Kind:         intset.LinkedList,
		Allocator:    allocator,
		Threads:      4,
		InitialSize:  128,
		KeyRange:     256,
		UpdatePct:    60,
		OpsPerThread: 60,
		Instruments:  core.Instruments{Obs: rec},
	})
	if err != nil {
		t.Fatal(err)
	}
	var trace, prom, jsonl bytes.Buffer
	if err := rec.WriteChromeTrace(&trace); err != nil {
		t.Fatal(err)
	}
	if err := rec.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	if err := rec.WriteJSONL(&jsonl); err != nil {
		t.Fatal(err)
	}
	return rec, trace.Bytes(), prom.Bytes(), jsonl.Bytes()
}

// The recorder must capture events from the STM and the allocator (and
// the scheduler) in one run, and the stripe heatmap must attribute the
// false aborts a 16-byte-spacing allocator provokes on the linked list.
func TestWorkloadCoverage(t *testing.T) {
	rec, _, prom, _ := run(t, "tbb")

	kinds := map[obs.Kind]int{}
	for _, ev := range rec.Events() {
		kinds[ev.Kind]++
	}
	if kinds[obs.KindTxCommit] == 0 {
		t.Error("no tx-commit events recorded")
	}
	if kinds[obs.KindAlloc] == 0 || kinds[obs.KindFree] == 0 {
		t.Error("no allocator events recorded")
	}
	if kinds[obs.KindQuantum] == 0 {
		t.Error("no scheduler events recorded")
	}

	if rec.StripeHeatmap().TotalFalseAborts() == 0 {
		t.Error("contended linked list over tbb produced no false aborts in the heatmap")
	}
	if !bytes.Contains(prom, []byte("stm_stripe_false_aborts_bucket")) {
		t.Error("Prometheus output missing the per-stripe false-abort histogram")
	}
	if !bytes.Contains(prom, []byte(`alloc_ops_total{alloc="tbb",op="malloc"}`)) {
		t.Error("Prometheus output missing allocator op counters")
	}
}

// Two runs with identical configuration must serialize to identical
// bytes: every timestamp is virtual and every map is emitted sorted.
func TestOutputsDeterministic(t *testing.T) {
	_, trace1, prom1, jsonl1 := run(t, "glibc")
	_, trace2, prom2, jsonl2 := run(t, "glibc")
	if !bytes.Equal(trace1, trace2) {
		t.Error("Chrome traces of identical runs differ")
	}
	if !bytes.Equal(prom1, prom2) {
		t.Error("Prometheus outputs of identical runs differ")
	}
	if !bytes.Equal(jsonl1, jsonl2) {
		t.Error("JSONL outputs of identical runs differ")
	}
}
