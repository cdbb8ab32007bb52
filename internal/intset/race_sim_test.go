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

// TestRaceSimCleanRun: the workload's own discipline is clean — the
// checker attached to an unseeded run reports nothing, and the run's
// measurements are identical to an unchecked run (the checker is a
// pure observer).
func TestRaceSimCleanRun(t *testing.T) {
	for _, name := range alloc.Names() {
		t.Run(name, func(t *testing.T) {
			checked, err := intset.Run(raceConfig(name, false))
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
			plainCfg := raceConfig(name, false)
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
		})
	}
}

// TestSeedRaceDetected is the headline checker demo: the seeded
// in-band-metadata race fails with a metadata finding when the checker
// is attached and completes silently when it is not, under every
// allocator model.
func TestSeedRaceDetected(t *testing.T) {
	old := mem.SanitizeDefault()
	mem.SetSanitizeDefault(false) // let the race reach commit un-diagnosed
	defer mem.SetSanitizeDefault(old)
	for _, name := range alloc.Names() {
		t.Run(name+"/checked", func(t *testing.T) {
			res, err := intset.Run(raceConfig(name, true))
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
		t.Run(name+"/unchecked", func(t *testing.T) {
			cfg := raceConfig(name, true)
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
