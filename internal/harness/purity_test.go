package harness

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/obs"
)

// purityRun is one fig1 session's observable output: the printed
// result, the run record decoded as JSON (pool width zeroed) and the
// observer's own artifact (merged profile, heap series, or the session
// recorder's JSONL trace and Prometheus text), if any.
type purityRun struct {
	printed  []byte
	record   []byte
	decoded  map[string]any
	artifact []byte
}

func runFig1(t *testing.T, jobs int, spec *Spec) purityRun {
	t.Helper()
	s := &Session{Spec: spec, Jobs: jobs}
	runs, _ := s.Run([]string{"fig1"})
	r := runs[0]
	if r.Err != nil {
		t.Fatalf("jobs=%d: %v", jobs, r.Err)
	}
	var out purityRun
	var buf bytes.Buffer
	Print(&buf, r.Result)
	out.printed = buf.Bytes()
	rec := s.Record(r)
	rec.Sweep.Jobs = 0
	buf = bytes.Buffer{}
	if err := rec.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	out.record = buf.Bytes()
	if err := json.Unmarshal(out.record, &out.decoded); err != nil {
		t.Fatal(err)
	}
	buf = bytes.Buffer{}
	switch {
	case r.Profile != nil:
		if err := r.Profile.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
	case r.Heap != nil:
		if err := r.Heap.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
	case spec.Obs != nil:
		if err := spec.Obs.WriteJSONL(&buf); err != nil {
			t.Fatal(err)
		}
		if err := spec.Obs.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
	}
	out.artifact = buf.Bytes()
	return out
}

// TestObserverPurity proves every observer is a pure observer: with it
// attached, fig1 prints exactly what a plain run prints, its run record
// is the plain record plus the observer's own top-level blocks, and the
// observed record and artifact are byte-identical at -jobs 1 and 8.
func TestObserverPurity(t *testing.T) {
	plain := runFig1(t, 1, &Spec{})
	for _, tc := range []struct {
		name  string
		keys  []string // the observer's top-level record blocks; none when it adds none
		set   func(s *Spec)
		check func(t *testing.T, block map[string]any) // inspects the keys[0] block
	}{
		{name: "sanitizer", set: func(s *Spec) { s.Sanitize = true }},
		{name: "profiler", keys: []string{"profile"}, set: func(s *Spec) { s.Profile = true }},
		{name: "heapscope", keys: []string{"heap"}, set: func(s *Spec) { s.Heap = true }},
		{name: "race", keys: []string{"race"}, set: func(s *Spec) { s.Race = true },
			check: func(t *testing.T, block map[string]any) {
				if block["findings"] != 0.0 {
					t.Errorf("clean run reported race findings: %v", block)
				}
			}},
		{name: "conflict", keys: []string{"conflict"}, set: func(s *Spec) { s.Conflict = true },
			check: func(t *testing.T, block map[string]any) {
				if block["observed"] != true {
					t.Errorf("conflict block not marked observed: %v", block)
				}
			}},
		{name: "recorder", keys: []string{"trace", "metrics", "stripe_heatmap"},
			set: func(s *Spec) { s.Obs = obs.New(obs.Config{}) },
			check: func(t *testing.T, block map[string]any) {
				if n, _ := block["events"].(float64); n <= 0 {
					t.Errorf("recorder traced no events: %v", block["events"])
				}
			}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			runs := map[int]purityRun{}
			for _, jobs := range []int{1, 8} {
				spec := &Spec{}
				tc.set(spec)
				runs[jobs] = runFig1(t, jobs, spec)
			}
			one, eight := runs[1], runs[8]
			if !bytes.Equal(one.printed, plain.printed) {
				t.Error("printed result differs from the plain run")
			}
			if !bytes.Equal(one.record, eight.record) {
				t.Error("run records differ between -jobs 1 and -jobs 8")
			}
			if !bytes.Equal(one.artifact, eight.artifact) {
				t.Error("observer artifacts differ between -jobs 1 and -jobs 8")
			}
			for _, key := range tc.keys {
				if one.decoded[key] == nil {
					t.Fatalf("record carries no %q block", key)
				}
			}
			if tc.check != nil {
				block, _ := one.decoded[tc.keys[0]].(map[string]any)
				tc.check(t, block)
			}
			for _, key := range tc.keys {
				delete(one.decoded, key)
			}
			if !reflect.DeepEqual(one.decoded, plain.decoded) {
				t.Errorf("record differs from the plain record (own blocks %q deleted)", tc.keys)
			}
		})
	}
}
