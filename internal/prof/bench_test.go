package prof_test

import (
	"fmt"
	"io"
	"testing"

	"repro/internal/cachesim"
	"repro/internal/core"
	"repro/internal/intset"
	"repro/internal/mem"
	"repro/internal/prof"
	"repro/internal/vtime"
)

// benchWorkload is the profiled-overhead workload: small enough to
// iterate, busy enough to hit every instrumented layer (STM phases,
// allocator internals, cache stalls).
func benchWorkload(p *prof.Profiler) intset.Config {
	return intset.Config{
		Kind:         intset.LinkedList,
		Allocator:    "glibc",
		Threads:      4,
		InitialSize:  96,
		KeyRange:     192,
		UpdatePct:    60,
		OpsPerThread: 40,
		Instruments:  core.Instruments{Prof: p},
	}
}

// BenchmarkWorkloadUnprofiled is the baseline: the fully instrumented
// stack with a nil profiler, where every region site reduces to a
// pointer nil-check. Compare against BenchmarkWorkloadProfiled to see
// what attribution costs when switched on.
func BenchmarkWorkloadUnprofiled(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := intset.Run(benchWorkload(nil)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWorkloadProfiled runs the same workload with live cycle
// attribution into a fresh profiler per run.
func BenchmarkWorkloadProfiled(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := intset.Run(benchWorkload(prof.New())); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBeginEnd measures one enabled region open/close pair on a
// live engine thread.
func BenchmarkBeginEnd(b *testing.B) {
	p := prof.New()
	eng := vtime.NewEngine(mem.NewSpace(), 1, vtime.Config{Prof: p})
	eng.Run(func(th *vtime.Thread) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p.Begin(th, "bench")
			p.End(th)
		}
	})
}

// BenchmarkBeginEndNil measures the same pair on a nil profiler — the
// cost every instrumentation site pays when profiling is off.
func BenchmarkBeginEndNil(b *testing.B) {
	var p *prof.Profiler
	eng := vtime.NewEngine(mem.NewSpace(), 1, vtime.Config{})
	eng.Run(func(th *vtime.Thread) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p.Begin(th, "bench")
			p.End(th)
		}
	})
}

// BenchmarkStall measures the per-memory-access attribution hook.
func BenchmarkStall(b *testing.B) {
	p := prof.New()
	for i := 0; i < b.N; i++ {
		p.Stall(0, cachesim.L1Hit, 1, 0, uint64(i)+1)
	}
}

// benchState returns a profiler populated with a spread of threads,
// stacks, and stall leaves for the extraction/encoding benchmarks.
func benchState() *prof.Profiler {
	p := prof.New()
	now := make([]uint64, 8)
	for round := 0; round < 64; round++ {
		for tid := 0; tid < 8; tid++ {
			lvl := cachesim.Level(round % int(cachesim.MemoryHit+1))
			now[tid] += 10
			p.Stall(tid, lvl, 3, uint64(round%2), now[tid])
			now[tid] = now[tid] + 3 + uint64(round%2)
		}
	}
	for tid := 0; tid < 8; tid++ {
		p.SyncClock(tid, now[tid]+5)
	}
	return p
}

// BenchmarkProfileExtract measures tree walk + canonical sort.
func BenchmarkProfileExtract(b *testing.B) {
	p := benchState()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if p.Profile() == nil {
			b.Fatal("nil profile")
		}
	}
}

// BenchmarkWriteFolded measures the folded-stacks encoder.
func BenchmarkWriteFolded(b *testing.B) {
	pf := benchState().Profile()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := pf.WriteFolded(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWritePprof measures the pprof protobuf+gzip encoder.
func BenchmarkWritePprof(b *testing.B) {
	pf := benchState().Profile()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := pf.WritePprof(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMerge measures the sweep-side per-cell profile reduction.
func BenchmarkMerge(b *testing.B) {
	cells := make([]*prof.Profile, 8)
	for i := range cells {
		pf := benchState().Profile()
		pf.Label = fmt.Sprintf("cell-%d", i)
		cells[i] = pf
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if prof.Merge(cells...).TotalCycles == 0 {
			b.Fatal("empty merge")
		}
	}
}

// BenchmarkDiff measures the differential report over two profiles.
func BenchmarkDiff(b *testing.B) {
	pa, pb := benchState().Profile(), benchState().Profile()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(prof.Diff(pa, pb).Rows) == 0 {
			b.Fatal("empty diff")
		}
	}
}
