package stamp_test

import (
	"encoding/json"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/stamp"

	_ "repro/internal/stamp/genome"
	_ "repro/internal/stamp/vacation"
)

// TestStampCrashRecovery halts a STAMP application mid-commit and
// requires recovery to verify clean for each allocator model.
func TestStampCrashRecovery(t *testing.T) {
	for _, a := range []string{"glibc", "hoard", "tbb", "tcmalloc"} {
		t.Run(a, func(t *testing.T) {
			res, err := stamp.Run(stamp.Config{
				App: "genome", Allocator: a, Threads: 2,
				Policy: core.Policy{Crash: "crashphase:commit@10"},
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Recovery == nil || !res.Recovery.Crashed {
				t.Fatalf("crash never fired: %+v", res.Recovery)
			}
			if res.Status != obs.StatusOK {
				t.Fatalf("status = %q (%s): %+v", res.Status, res.Failure, res.Recovery)
			}
		})
	}
}

// TestStampCrashDeterministic requires byte-identical recovery info
// across identical crashed runs.
func TestStampCrashDeterministic(t *testing.T) {
	cfg := stamp.Config{App: "vacation", Allocator: "tbb", Threads: 2, Policy: core.Policy{Crash: "crash@20000"}}
	r1, err := stamp.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := stamp.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	j1, _ := json.Marshal(r1.Recovery)
	j2, _ := json.Marshal(r2.Recovery)
	if string(j1) != string(j2) {
		t.Fatalf("recovery differs:\n%s\n%s", j1, j2)
	}
}
