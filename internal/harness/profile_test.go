package harness

import (
	"bytes"
	"testing"
)

// profiledRun executes one experiment with per-cell profiling on the
// given pool width and returns the merged profile's folded bytes plus
// the run itself.
func profiledRun(t *testing.T, jobs int) ([]byte, *ExperimentRun, *Session) {
	t.Helper()
	one := 1
	s := &Session{Spec: &Spec{Reps: &one, Profile: true}, Jobs: jobs}
	runs, _ := s.Run([]string{"tab4"})
	r := runs[0]
	if r.Err != nil {
		t.Fatalf("jobs=%d: %v", jobs, r.Err)
	}
	if r.Profile == nil {
		t.Fatalf("jobs=%d: profiled session must attach a merged profile", jobs)
	}
	var buf bytes.Buffer
	if err := r.Profile.WriteFolded(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), r, s
}

// TestSessionProfileJobsByteIdentity pins the merge determinism
// guarantee: the merged per-cell profile — down to its folded-stacks
// bytes — is identical whether the sweep ran serially or on a wide
// pool.
func TestSessionProfileJobsByteIdentity(t *testing.T) {
	serial, r, s := profiledRun(t, 1)
	if len(serial) == 0 || r.Profile.TotalCycles == 0 {
		t.Fatal("merged profile is empty")
	}
	if r.Profile.Label != r.ID {
		t.Errorf("merged profile label = %q, want the run id %q", r.Profile.Label, r.ID)
	}
	rec := s.Record(r)
	if rec.Profile == nil || rec.Profile.TotalCycles != r.Profile.TotalCycles {
		t.Errorf("run record profile section = %+v, want totals matching the merged profile", rec.Profile)
	}
	for _, jobs := range []int{4, 8} {
		parallel, _, _ := profiledRun(t, jobs)
		if !bytes.Equal(serial, parallel) {
			t.Errorf("folded profile bytes differ between -jobs 1 and -jobs %d", jobs)
		}
	}
}

// TestSessionProfileDoesNotChangeResults pins transparency: switching
// profiling on must not perturb the experiment's record (profiling
// reads clocks, it never ticks them). Only the record's profile
// section may differ.
func TestSessionProfileDoesNotChangeResults(t *testing.T) {
	one := 1
	plain := &Session{Spec: &Spec{Reps: &one}, Jobs: 2}
	runs, _ := plain.Run([]string{"tab4"})
	if runs[0].Err != nil {
		t.Fatal(runs[0].Err)
	}
	want := recordBytes(t, plain, runs[0])

	_, r, s := profiledRun(t, 2)
	rec := s.Record(r)
	if rec.Profile == nil {
		t.Fatal("profiled record lacks a profile section")
	}
	rec.Profile = nil
	if rec.Sweep != nil {
		rec.Sweep.Jobs = 0
		rec.Sweep.Executed = 0
		rec.Sweep.Cached = 0
	}
	var buf bytes.Buffer
	if err := rec.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, buf.Bytes()) {
		t.Error("profiling changed the experiment record beyond its profile section")
	}
}
