package intset_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/intset"
)

// benchConfig is the overhead-pair workload: large enough that the
// steady-state cost dominates engine setup, small enough for -benchtime
// defaults. The observers are the only axes the pairs vary.
func benchConfig(race, conflict bool) intset.Config {
	return intset.Config{
		Kind:         intset.LinkedList,
		Allocator:    "glibc",
		Threads:      4,
		InitialSize:  128,
		OpsPerThread: 200,
		Policy:       core.Policy{Sanitize: true, Race: race, Conflict: conflict},
	}
}

func benchRun(b *testing.B, race, conflict bool) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		res, err := intset.Run(benchConfig(race, conflict))
		if err != nil {
			b.Fatal(err)
		}
		if res.Failure != "" {
			b.Fatal(res.Failure)
		}
	}
}

// BenchmarkIntsetPlain / BenchmarkIntsetRaceSim are the race-checker
// overhead pair: identical runs except for the attached happens-before
// checker.
//
// BenchmarkIntsetConflict completes the forensics pair: the same run
// with the abort-forensics observatory attached.
func BenchmarkIntsetPlain(b *testing.B)    { benchRun(b, false, false) }
func BenchmarkIntsetRaceSim(b *testing.B)  { benchRun(b, true, false) }
func BenchmarkIntsetConflict(b *testing.B) { benchRun(b, false, true) }
