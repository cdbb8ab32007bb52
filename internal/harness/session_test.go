package harness

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/sweep"
)

// recordBytes serializes a run's record with the execution provenance
// zeroed: pool width and executed-vs-cached counts are allowed to vary
// between byte-identical runs, like wall-clock time, and are excluded
// from the comparison. The result itself — cell set, tables, series —
// must not vary.
func recordBytes(t *testing.T, s *Session, run *ExperimentRun) []byte {
	t.Helper()
	rec := s.Record(run)
	if rec.Sweep != nil {
		rec.Sweep.Jobs = 0
		rec.Sweep.Executed = 0
		rec.Sweep.Cached = 0
	}
	var buf bytes.Buffer
	if err := rec.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func runAll(t *testing.T, jobs int, cache *sweep.Cache) (map[string][]byte, sweep.Stats) {
	t.Helper()
	one := 1
	s := &Session{Spec: &Spec{Reps: &one}, Jobs: jobs, Cache: cache}
	runs, stats := s.Run(IDs())
	recs := make(map[string][]byte, len(runs))
	for _, r := range runs {
		if r.Err != nil {
			t.Fatalf("jobs=%d: %s failed: %v", jobs, r.ID, r.Err)
		}
		recs[r.ID] = recordBytes(t, s, r)
	}
	return recs, stats
}

// TestSessionParallelByteIdentity is the tentpole guarantee: every
// experiment's run record is byte-identical whether its cells run
// serially or on a wide pool.
func TestSessionParallelByteIdentity(t *testing.T) {
	serial, _ := runAll(t, 1, nil)
	for _, jobs := range []int{4, 8} {
		parallel, _ := runAll(t, jobs, nil)
		for _, id := range IDs() {
			if !bytes.Equal(serial[id], parallel[id]) {
				t.Errorf("%s: record bytes differ between -jobs 1 and -jobs %d", id, jobs)
			}
		}
	}
}

// TestSessionCacheRoundTrip reruns a session against a warm cache: the
// second pass must execute nothing, serve every cell from disk, and
// reproduce the records byte for byte.
func TestSessionCacheRoundTrip(t *testing.T) {
	ids := []string{"tab4", "fig3"}
	one := 1
	run := func(cache *sweep.Cache) (map[string][]byte, map[string]*obs.SweepInfo, sweep.Stats) {
		s := &Session{Spec: &Spec{Reps: &one}, Jobs: 2, Cache: cache}
		runs, stats := s.Run(ids)
		recs := make(map[string][]byte)
		infos := make(map[string]*obs.SweepInfo)
		for _, r := range runs {
			if r.Err != nil {
				t.Fatalf("%s failed: %v", r.ID, r.Err)
			}
			recs[r.ID] = recordBytes(t, s, r)
			infos[r.ID] = r.Sweep
		}
		return recs, infos, stats
	}
	cache, err := sweep.OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cold, coldInfo, coldStats := run(cache)
	if coldStats.Cached != 0 || coldStats.Executed == 0 {
		t.Fatalf("cold stats = %+v, want all executed", coldStats)
	}
	warm, warmInfo, warmStats := run(cache)
	if warmStats.Executed != 0 || warmStats.Cached != coldStats.Executed {
		t.Fatalf("warm stats = %+v, want all %d unique cells cached", warmStats, coldStats.Executed)
	}
	for _, id := range ids {
		if !bytes.Equal(cold[id], warm[id]) {
			t.Errorf("%s: cached record differs from executed record", id)
		}
		if ci, wi := coldInfo[id], warmInfo[id]; ci.CellSet != wi.CellSet || wi.Executed != 0 || wi.Cached != wi.Cells {
			t.Errorf("%s: sweep provenance cold=%+v warm=%+v, want warm fully cached with same cell set", id, ci, wi)
		}
	}
	// A different base seed is a different cell set: everything reruns.
	seed := uint64(42)
	s := &Session{Spec: &Spec{Reps: &one, Seed: &seed}, Jobs: 2, Cache: cache}
	runs, stats := s.Run(ids)
	for _, r := range runs {
		if r.Err != nil {
			t.Fatalf("%s failed: %v", r.ID, r.Err)
		}
	}
	if stats.Cached != 0 {
		t.Errorf("reseeded stats = %+v, want no cache hits", stats)
	}
}

// TestSessionObservedRunsBypassCache pins the must-execute rule: after
// a plain run warms the cache, a session with any observer attached —
// recorder, profiler, heap telemetry, race checker, conflict
// observatory, sanitizer — or a crash clause executes every cell, since
// a cache hit could replay none of what they observe.
func TestSessionObservedRunsBypassCache(t *testing.T) {
	cache, err := sweep.OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	one := 1
	warmup := &Session{Spec: &Spec{Reps: &one}, Cache: cache}
	if runs, _ := warmup.Run([]string{"fig1"}); runs[0].Err != nil {
		t.Fatal(runs[0].Err)
	}
	rec := obs.New(obs.Config{})
	for _, tc := range []struct {
		name string
		set  func(s *Spec)
	}{
		{"recorder", func(s *Spec) { s.Obs = rec }},
		{"profiler", func(s *Spec) { s.Profile = true }},
		{"heap", func(s *Spec) { s.Heap = true }},
		{"race", func(s *Spec) { s.Race = true }},
		{"conflict", func(s *Spec) { s.Conflict = true }},
		{"crash", func(s *Spec) { s.Crash = "crash@5000" }},
		{"sanitizer", func(s *Spec) { s.Sanitize = true }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			spec := &Spec{Reps: &one}
			tc.set(spec)
			s := &Session{Spec: spec, Cache: cache}
			runs, stats := s.Run([]string{"fig1"})
			if runs[0].Err != nil {
				t.Fatal(runs[0].Err)
			}
			if stats.Cached != 0 || stats.Executed == 0 {
				t.Errorf("stats = %+v, want every cell executed", stats)
			}
		})
	}
	if len(rec.Events()) == 0 {
		t.Error("observed run produced no events")
	}
}

// TestSessionStormFaultParallel schedules a transaction-heavy
// experiment under an abort-storm fault plan on a wide pool: every cell
// must finish without error. No gate runs it under -race (it takes
// minutes there); core's TestWorldsShareNothing is the race check that
// worlds share no fault plan.
func TestSessionStormFaultParallel(t *testing.T) {
	one := 1
	spec := &Spec{Reps: &one, Policy: core.Policy{Fault: "storm@20000:24000"}}
	s := &Session{Spec: spec, Jobs: 8}
	runs, stats := s.Run([]string{"tab4"})
	if runs[0].Err != nil {
		t.Fatal(runs[0].Err)
	}
	if stats.Errors != 0 {
		t.Errorf("stats = %+v, want no cell errors under the storm", stats)
	}
	serial := &Session{Spec: spec, Jobs: 1}
	sruns, _ := serial.Run([]string{"tab4"})
	if sruns[0].Err != nil {
		t.Fatal(sruns[0].Err)
	}
	if !bytes.Equal(recordBytes(t, s, runs[0]), recordBytes(t, serial, sruns[0])) {
		t.Error("storm-fault records differ between jobs 1 and 8")
	}
}

func TestSpecValidate(t *testing.T) {
	if err := (&Spec{}).Validate(); err != nil {
		t.Error("zero spec must validate:", err)
	}
	bad := 0
	if err := (&Spec{Reps: &bad}).Validate(); err == nil {
		t.Error("Reps=0 override must be rejected")
	}
	if err := (&Spec{Policy: core.Policy{CM: 99}}).Validate(); err == nil {
		t.Error("unknown CM must be rejected")
	}
	if err := (&Spec{Policy: core.Policy{Fault: "bogus@"}}).Validate(); err == nil {
		t.Error("unparsable fault plan must be rejected")
	}
	if err := (&Spec{Policy: core.Policy{Fault: "storm@1:2"}}).Validate(); err != nil {
		t.Error("valid fault plan must pass:", err)
	}
}

func TestSessionUnknownExperiment(t *testing.T) {
	s := &Session{Spec: &Spec{}}
	runs, _ := s.Run([]string{"no-such-experiment"})
	if runs[0].Err == nil || !strings.Contains(runs[0].Err.Error(), "no-such-experiment") {
		t.Errorf("unknown id error = %v, want it named", runs[0].Err)
	}
}
