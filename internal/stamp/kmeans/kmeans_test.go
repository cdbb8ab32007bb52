package kmeans_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/stamp"
	_ "repro/internal/stamp/kmeans"
	"repro/internal/stamp/stamptest"
)

func TestKMeans(t *testing.T)              { stamptest.Check(t, "kmeans", true) }
func TestKMeansDeterministic(t *testing.T) { stamptest.CheckDeterministic(t, "kmeans") }

// kmeans must not allocate inside transactions (Table 5).
func TestKMeansNoTxAllocation(t *testing.T) {
	res, err := stamp.Run(stamp.Config{App: "kmeans", Allocator: "tbb", Threads: 4, Profile: true})
	if err != nil {
		t.Fatal(err)
	}
	p := res.Profile
	if p.Mallocs[stamp.RegionTx] != 0 || p.Mallocs[stamp.RegionPar] != 0 {
		t.Errorf("kmeans allocated outside seq: %+v", p.Mallocs)
	}
	if p.Mallocs[stamp.RegionSeq] == 0 {
		t.Error("no seq allocations recorded")
	}
}

// A failed allocation attempt is not an allocation: with the second
// malloc failing three times, the profile counts the four sequential-
// phase mallocs the fault-free run makes.
func TestKMeansProfileCountsAllocations(t *testing.T) {
	for _, fault := range []string{"", "oom@2x3"} {
		res, err := stamp.Run(stamp.Config{App: "kmeans", Allocator: "glibc", Threads: 1, Profile: true,
			Policy: core.Policy{Fault: fault}})
		if err != nil {
			t.Fatal(err)
		}
		if fault != "" && res.Alloc.FailedMallocs != 3 {
			t.Errorf("fault %q: %d failed mallocs, want 3", fault, res.Alloc.FailedMallocs)
		}
		if got := res.Profile.Mallocs[stamp.RegionSeq]; got != 4 {
			t.Errorf("fault %q: %d seq mallocs, want 4", fault, got)
		}
	}
}
