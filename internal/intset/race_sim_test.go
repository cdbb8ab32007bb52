package intset_test

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/alloc"
	"repro/internal/core"
	"repro/internal/intset"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/stm"
)

func raceConfig(allocator string, seed bool) intset.Config {
	return intset.Config{
		Kind:         intset.LinkedList,
		Allocator:    allocator,
		Threads:      2,
		InitialSize:  32,
		OpsPerThread: 25,
		SeedRace:     seed,
		Policy:       core.Policy{Race: true},
	}
}

// pooled are the disciplines that recycle transaction objects.
var pooled = []stm.Pooling{stm.PoolCache, stm.PoolReuse, stm.PoolBatch}

// TestRaceSimCleanRun: the workload's own discipline is clean — the
// checker attached to an unseeded run reports nothing, and the run's
// measurements are identical to an unchecked run (the checker is a
// pure observer). The pooled rows run a write-heavy shape, so committed
// and aborted frees park blocks in the recycle lists and later
// transactions take them back out.
func TestRaceSimCleanRun(t *testing.T) {
	for _, name := range alloc.Names() {
		t.Run(name, func(t *testing.T) { checkRaceClean(t, raceConfig(name, false)) })
		for _, p := range pooled {
			t.Run(name+"/"+p.String(), func(t *testing.T) {
				cfg := raceConfig(name, false)
				cfg.Threads, cfg.InitialSize, cfg.OpsPerThread, cfg.UpdatePct = 4, 64, 100, 60
				cfg.Pool = p
				checkRaceClean(t, cfg)
			})
		}
	}
}

func checkRaceClean(t *testing.T, cfg intset.Config) {
	checked, err := intset.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if checked.Status != obs.StatusOK {
		t.Fatalf("status = %q (%s), want ok", checked.Status, checked.Failure)
	}
	if checked.Race == nil || !checked.Race.Checked {
		t.Fatalf("race info missing: %+v", checked.Race)
	}
	if checked.Race.Findings != 0 {
		t.Fatalf("clean run reported findings: %+v (first: %s)", checked.Race, checked.Race.First)
	}
	if checked.Race.Events == 0 || checked.Race.Blocks == 0 {
		t.Fatalf("checker saw no events: %+v", checked.Race)
	}
	plainCfg := cfg
	plainCfg.Race = false
	plain, err := intset.Run(plainCfg)
	if err != nil {
		t.Fatal(err)
	}
	checked.Race = nil
	checked.Config.Race = false
	if !reflect.DeepEqual(plain, checked) {
		t.Fatalf("checked run diverged from plain run:\nplain:   %+v\nchecked: %+v", plain, checked)
	}
}

// TestSeedRaceDetected is the headline checker demo: the seeded
// in-band-metadata race fails with a metadata finding when the checker
// is attached and completes silently when it is not, under every
// allocator model and every pooling discipline.
func TestSeedRaceDetected(t *testing.T) {
	old := mem.SanitizeDefault()
	mem.SetSanitizeDefault(false) // let the race reach commit un-diagnosed
	defer mem.SetSanitizeDefault(old)
	for _, name := range alloc.Names() {
		for _, p := range append([]stm.Pooling{stm.PoolNone}, pooled...) {
			row := name
			if p != stm.PoolNone {
				row += "/" + p.String()
			}
			cfg := raceConfig(name, true)
			cfg.Pool = p
			t.Run(row+"/checked", func(t *testing.T) {
				res, err := intset.Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if res.Status != obs.StatusFailed {
					t.Fatalf("status = %q (%s), want failed", res.Status, res.Failure)
				}
				if !strings.Contains(res.Failure, "metadata") {
					t.Fatalf("failure %q does not mention the metadata race", res.Failure)
				}
				if res.Race == nil || res.Race.Metadata == 0 {
					t.Fatalf("race info: %+v, want metadata findings", res.Race)
				}
			})
			t.Run(row+"/unchecked", func(t *testing.T) {
				cfg := cfg
				cfg.Race = false
				res, err := intset.Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if res.Status != obs.StatusOK {
					t.Fatalf("status = %q (%s), want ok (the race is silent unchecked)", res.Status, res.Failure)
				}
			})
		}
	}
}

// TestRaceSimDeterministic: same seed, same verdict, byte for byte.
func TestRaceSimDeterministic(t *testing.T) {
	a, err := intset.Run(raceConfig("glibc", false))
	if err != nil {
		t.Fatal(err)
	}
	b, err := intset.Run(raceConfig("glibc", false))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("race-sim run not deterministic:\n%+v\n%+v", a, b)
	}
}
