package intset

import (
	"encoding/json"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
)

// TestCrashRecoverVerdicts drives the full durable pipeline through the
// benchmark entry point: a crash clause halts the run at a commit-phase
// checkpoint, recovery replays the redo log and rebuilds the free
// lists, and the invariant sweep's verdict becomes the run status.
func TestCrashRecoverVerdicts(t *testing.T) {
	for _, a := range []string{"glibc", "hoard", "tbb", "tcmalloc"} {
		for _, phase := range []string{"commit", "apply", "malloc"} {
			t.Run(a+"/"+phase, func(t *testing.T) {
				res, err := Run(Config{
					Kind: LinkedList, Allocator: a, Threads: 4,
					InitialSize: 64, OpsPerThread: 50, UpdatePct: 60,
					Policy: core.Policy{Crash: "crashphase:" + phase + "@3", Sanitize: true},
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
				if r := res.Recovery; r.LostWrites != 0 || r.Resurrected != 0 || r.ChainBreaks != 0 {
					t.Fatalf("recovery invariants broken: %+v", r)
				}
			})
		}
	}
}

// TestCrashRunDeterministic re-runs the same crashed configuration and
// requires byte-identical recovery info — the property the harness
// depends on for cache-free crash cells at any -jobs width.
func TestCrashRunDeterministic(t *testing.T) {
	cfg := Config{
		Kind: HashSet, Allocator: "hoard", Threads: 4,
		InitialSize: 64, OpsPerThread: 50, UpdatePct: 60,
		Policy: core.Policy{Crash: "crash@9000", Sanitize: true},
	}
	r1, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	j1, _ := json.Marshal(r1.Recovery)
	j2, _ := json.Marshal(r2.Recovery)
	if string(j1) != string(j2) {
		t.Fatalf("recovery differs across identical runs:\n%s\n%s", j1, j2)
	}
	if r1.Cycles != r2.Cycles {
		t.Fatalf("cycles differ: %d vs %d", r1.Cycles, r2.Cycles)
	}
}

// TestPmemOverheadVisible checks that a durable run without any crash
// clause completes normally, reports flush/fence traffic, and costs
// virtual time relative to the volatile baseline.
func TestPmemOverheadVisible(t *testing.T) {
	base := Config{
		Kind: LinkedList, Allocator: "glibc", Threads: 2,
		InitialSize: 64, OpsPerThread: 40, UpdatePct: 60,
		Policy: core.Policy{Sanitize: true},
	}
	vol, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	base.Pmem = true
	dur, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	if dur.Status != obs.StatusOK || dur.Recovery == nil || dur.Recovery.Crashed {
		t.Fatalf("durable run did not complete cleanly: %+v", dur.Recovery)
	}
	if dur.Recovery.Flushes == 0 || dur.Recovery.Fences == 0 || dur.Recovery.LogAppends == 0 {
		t.Fatalf("no durable traffic recorded: %+v", dur.Recovery)
	}
	if dur.Cycles <= vol.Cycles {
		t.Fatalf("durable run not slower: %d <= %d cycles", dur.Cycles, vol.Cycles)
	}
	if vol.Recovery != nil {
		t.Fatalf("volatile run carries recovery info: %+v", vol.Recovery)
	}
}
