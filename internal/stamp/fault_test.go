package stamp_test

import (
	"testing"

	_ "repro/internal/alloc/glibc"
	_ "repro/internal/alloc/hoard"
	_ "repro/internal/alloc/tbb"
	_ "repro/internal/alloc/tcmalloc"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/stamp"
	"repro/internal/stm"
)

// TestAppsSurviveOOMPlan runs every STAMP application under an
// injected-OOM fault plan with backoff contention management and a
// watchdog deadline, and checks the graceful-degradation contract:
// the run terminates (no host hang), the status is ok or degraded
// (never an error or a captured panic), and deterministic transient
// OOMs were actually injected and survived.
func TestAppsSurviveOOMPlan(t *testing.T) {
	for _, app := range stamp.Names() {
		t.Run(app, func(t *testing.T) {
			res, err := stamp.Run(stamp.Config{
				App:       app,
				Allocator: "tbb",
				Threads:   2,
				Scale:     stamp.Quick,
				Seed:      7,
				Policy:    core.Policy{CM: stm.CMBackoff, RetryCap: 64, Fault: "oom@10x2,oom%1,lat%2:200", Deadline: 2_000_000_000},
			})
			if err != nil {
				t.Fatalf("Run returned an error under faults: %v", err)
			}
			switch res.Status {
			case obs.StatusOK, obs.StatusDegraded:
			default:
				t.Fatalf("status = %q (%s), want ok or degraded", res.Status, res.Failure)
			}
			// oom@10x2 fails the 10th and 11th allocation requests; apps
			// that allocate less than that (ssca2, kmeans at Quick scale)
			// legitimately never see the injected fault.
			if res.Alloc.Mallocs >= 12 && res.Alloc.FailedMallocs < 2 {
				t.Errorf("FailedMallocs = %d over %d mallocs, want >= 2 (oom@10x2 must fire)",
					res.Alloc.FailedMallocs, res.Alloc.Mallocs)
			}
		})
	}
}

// TestSameSeedSameOutcome pins fault-plan determinism end to end: two
// runs with identical configuration and seed must agree on every
// reported number.
func TestSameSeedSameOutcome(t *testing.T) {
	cfg := stamp.Config{
		App:       "genome",
		Allocator: "glibc",
		Threads:   4,
		Scale:     stamp.Quick,
		Seed:      42,
		Policy:    core.Policy{Fault: "oom%2,lat%5:300,storm@20000:24000", RetryCap: 64, Deadline: 2_000_000_000},
	}
	a, err := stamp.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := stamp.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Cycles != b.Cycles || a.Tx != b.Tx || a.Alloc != b.Alloc || a.Status != b.Status {
		t.Errorf("same seed diverged:\n  run1: cycles=%d tx=%+v status=%q\n  run2: cycles=%d tx=%+v status=%q",
			a.Cycles, a.Tx, a.Status, b.Cycles, b.Tx, b.Status)
	}
}
