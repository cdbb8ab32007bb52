package intset_test

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/alloc"
	"repro/internal/core"
	"repro/internal/intset"
	"repro/internal/obs"
)

func conflictConfig(allocator string, seedAlias bool) intset.Config {
	return intset.Config{
		Kind:         intset.LinkedList,
		Allocator:    allocator,
		Threads:      4,
		InitialSize:  48,
		OpsPerThread: 40,
		UpdatePct:    60,
		SeedAlias:    seedAlias,
		Policy:       core.Policy{Sanitize: true, Conflict: true},
	}
}

// TestConflictPureObserver: a run with the observatory attached must
// measure exactly what a plain run measures — the forensics layer
// never ticks virtual time or touches simulated memory.
func TestConflictPureObserver(t *testing.T) {
	for _, name := range alloc.Names() {
		t.Run(name, func(t *testing.T) {
			observed, err := intset.Run(conflictConfig(name, false))
			if err != nil {
				t.Fatal(err)
			}
			if observed.Status != obs.StatusOK {
				t.Fatalf("status = %q (%s), want ok", observed.Status, observed.Failure)
			}
			if observed.Conflict == nil || !observed.Conflict.Observed {
				t.Fatalf("conflict info missing: %+v", observed.Conflict)
			}
			if observed.ConflictReport == nil {
				t.Fatal("conflict report missing")
			}
			plainCfg := conflictConfig(name, false)
			plainCfg.Conflict = false
			plain, err := intset.Run(plainCfg)
			if err != nil {
				t.Fatal(err)
			}
			observed.Conflict = nil
			observed.ConflictReport = nil
			observed.Config.Conflict = false
			if !reflect.DeepEqual(plain, observed) {
				t.Fatalf("observed run diverged from plain run:\nplain:    %+v\nobserved: %+v", plain, observed)
			}
		})
	}
}

// TestConflictAccountsEveryAbort: the observatory's event count must
// equal the STM's abort counter — every rollback produces exactly one
// forensic event, none double-counted.
func TestConflictAccountsEveryAbort(t *testing.T) {
	res, err := intset.Run(conflictConfig("glibc", false))
	if err != nil {
		t.Fatal(err)
	}
	if res.Tx.Aborts == 0 {
		t.Skip("workload produced no aborts at this scale")
	}
	if uint64(res.Conflict.Events) != res.Tx.Aborts {
		t.Fatalf("observatory saw %d events, STM counted %d aborts", res.Conflict.Events, res.Tx.Aborts)
	}
	if res.Conflict.WastedCycles == 0 {
		t.Error("aborts recorded but no wasted cycles attributed")
	}
}

// TestSeedAliasDetected is the headline forensics demo: the seeded
// stripe-aliasing pair is classified as aliasing and fails the run when
// the observatory is attached, and completes silently when it is not.
func TestSeedAliasDetected(t *testing.T) {
	for _, name := range alloc.Names() {
		t.Run(name+"/observed", func(t *testing.T) {
			res, err := intset.Run(conflictConfig(name, true))
			if err != nil {
				t.Fatal(err)
			}
			if res.Status != obs.StatusFailed {
				t.Fatalf("status = %q (%s), want failed", res.Status, res.Failure)
			}
			if !strings.Contains(res.Failure, "stripe") {
				t.Fatalf("failure %q does not mention stripe aliasing", res.Failure)
			}
			if res.Conflict == nil || res.Conflict.StripeAlias == 0 {
				t.Fatalf("conflict info: %+v, want stripe-alias aborts", res.Conflict)
			}
		})
		t.Run(name+"/unobserved", func(t *testing.T) {
			cfg := conflictConfig(name, true)
			cfg.Conflict = false
			res, err := intset.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.Status != obs.StatusOK {
				t.Fatalf("status = %q (%s), want ok (aliasing is silent unobserved)", res.Status, res.Failure)
			}
		})
	}
}

// TestConflictDeterministic: same seed, same forensics, byte for byte.
func TestConflictDeterministic(t *testing.T) {
	a, err := intset.Run(conflictConfig("tcmalloc", false))
	if err != nil {
		t.Fatal(err)
	}
	b, err := intset.Run(conflictConfig("tcmalloc", false))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("conflict-observed run not deterministic:\n%+v\n%+v", a, b)
	}
}
