package harness

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/sweep"
)

// recordCell is a synthetic cell body: it only records into the cell's
// own sibling recorder, so a run needs no simulation.
func recordCell(rec *obs.Recorder, i int) {
	n := uint64(i + 1)
	rec.BeginPhase("cell")
	for tid := 0; tid < 3; tid++ {
		rec.TxCommit(tid, 10*n, 20*n+uint64(tid), i, tid)
		rec.TxAbort(tid, 30*n, 40*n, "locked", n, tid == 1, n, n+1)
	}
	rec.Gauge("synthetic_watermark", float64(n))
}

// TestRunCellsFoldsEachSiblingOnce drives synthetic cells through
// Session.RunCells: the session recorder must hold exactly what
// applying each distinct, successful cell's sibling in first-reference
// order produces, at any pool width, and no outcome may keep its
// recorder once folded. ci.sh runs it under -race, since the fold runs
// on worker goroutines while later cells still record.
func TestRunCellsFoldsEachSiblingOnce(t *testing.T) {
	keys := []string{"a", "b", "a", "boom", "c", "d", "e", "f"}
	cells := func(spec *Spec) []sweep.Cell {
		var cs []sweep.Cell
		for i, k := range keys {
			delay := time.Duration(len(keys)-i) * time.Millisecond // later cells finish first
			cs = append(cs, spec.Cell(k, k, 1, func(in core.Instruments) (any, error) {
				time.Sleep(delay)
				if k == "boom" {
					return nil, errors.New("injected")
				}
				recordCell(in.Obs, i)
				return k, nil
			}))
		}
		return cs
	}
	dump := func(rec *obs.Recorder) []byte {
		var buf bytes.Buffer
		if err := rec.WriteJSONL(&buf); err != nil {
			t.Fatal(err)
		}
		if err := rec.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	ref := obs.New(obs.Config{})
	seen := map[string]bool{}
	for i, k := range keys {
		if seen[k] || k == "boom" {
			continue
		}
		seen[k] = true
		sib := ref.Sibling()
		recordCell(sib, i)
		ref.Apply(sib)
	}
	want := dump(ref)

	for _, jobs := range []int{1, 8} {
		s := &Session{Spec: &Spec{Obs: obs.New(obs.Config{})}, Jobs: jobs}
		outs, stats := s.RunCells(cells(s.Spec))
		if stats.Unique != len(keys)-1 || stats.Errors != 1 {
			t.Fatalf("jobs=%d: stats = %+v, want %d unique and 1 failed", jobs, stats, len(keys)-1)
		}
		if got := dump(s.Spec.Obs); !bytes.Equal(got, want) {
			t.Errorf("jobs=%d: session recorder differs from the first-reference reference (%d vs %d bytes)", jobs, len(got), len(want))
		}
		firsts := map[string]bool{}
		for i, o := range outs {
			first := !firsts[keys[i]]
			firsts[keys[i]] = true
			h, ok := o.Harvest.(*Harvest)
			if ok != (first && keys[i] != "boom") {
				t.Errorf("jobs=%d: cell %d (%s) harvest %v", jobs, i, keys[i], o.Harvest)
			}
			if ok && h.rec != nil {
				t.Errorf("jobs=%d: cell %d still holds its recorder after the fold", jobs, i)
			}
		}
	}
}

// recorderSessionDigest is the SHA-256 of a recorder-attached fig1,tab7
// session at Reps 1: each run record (pool width zeroed), then the
// session recorder's JSONL trace and Prometheus text.
const recorderSessionDigest = "ee13b182792b5ca1b5056d3272b0e8b17def162dc9fc64b1d14f66117b0e3534"

// TestSessionRecorderDigest pins what a recorder-attached session
// merges: the records, the trace and the metrics must not move, and a
// wide pool must produce the same bytes.
func TestSessionRecorderDigest(t *testing.T) {
	one := 1
	rec := obs.New(obs.Config{})
	s := &Session{Spec: &Spec{Reps: &one, Obs: rec}, Jobs: 8}
	runs, stats := s.Run([]string{"fig1", "tab7"})
	if stats.Cells != 36 || stats.Unique != 32 {
		t.Fatalf("stats = %+v, want 36 cells / 32 unique", stats)
	}
	h := sha256.New()
	for _, r := range runs {
		if r.Err != nil {
			t.Fatalf("%s: %v", r.ID, r.Err)
		}
		record := s.Record(r)
		record.Sweep.Jobs = 0
		if err := record.WriteJSON(h); err != nil {
			t.Fatal(err)
		}
	}
	if err := rec.WriteJSONL(h); err != nil {
		t.Fatal(err)
	}
	if err := rec.WritePrometheus(h); err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != recorderSessionDigest {
		t.Errorf("session digest = %s, want %s", got, recorderSessionDigest)
	}
}
