package obs_test

import (
	"testing"

	_ "repro/internal/alloc/tbb"

	"repro/internal/core"
	"repro/internal/intset"
	"repro/internal/obs"
)

// benchCfg is the workload the overhead benchmarks run: small enough to
// iterate, contended enough to exercise the instrumented hot paths (tx
// begin/commit/abort, allocator malloc/free, lock waits).
func benchCfg(rec *obs.Recorder) intset.Config {
	return intset.Config{
		Kind:         intset.LinkedList,
		Allocator:    "tbb",
		Threads:      4,
		InitialSize:  96,
		KeyRange:     192,
		UpdatePct:    60,
		OpsPerThread: 40,
		Instruments:  core.Instruments{Obs: rec},
	}
}

// BenchmarkWorkloadObsDisabled is the baseline: the fully instrumented
// hot paths with a nil recorder, where every event site reduces to one
// pointer nil-check. Compare against BenchmarkWorkloadObsEnabled to see
// the cost tracing adds when switched on; compare both against any
// pre-instrumentation baseline to bound the disabled-path regression
// (acceptance: < 5%).
func BenchmarkWorkloadObsDisabled(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := intset.Run(benchCfg(nil)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWorkloadObsEnabled runs the same workload with a live
// recorder capturing every event.
func BenchmarkWorkloadObsEnabled(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := intset.Run(benchCfg(obs.New(obs.Config{}))); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEmitNil measures the per-event cost of a disabled
// instrumentation site: a method call on a nil *Recorder.
func BenchmarkEmitNil(b *testing.B) {
	var r *obs.Recorder
	for i := 0; i < b.N; i++ {
		r.TxCommit(0, uint64(i), uint64(i)+10, 4, 2)
	}
}

// BenchmarkEmitTxCommit measures the per-event cost of an enabled
// tx-commit site (ring push + pre-resolved metric updates).
func BenchmarkEmitTxCommit(b *testing.B) {
	r := obs.New(obs.Config{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.TxCommit(0, uint64(i), uint64(i)+10, 4, 2)
	}
}

// BenchmarkEmitAlloc measures the per-event cost of an enabled
// allocator malloc site (ring push + counter + latency histogram).
func BenchmarkEmitAlloc(b *testing.B) {
	r := obs.New(obs.Config{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Alloc("tbb", 0, uint64(i), uint64(i)+5, 48, uint64(i)*64)
	}
}
