package harness

import (
	"encoding/json"
	"fmt"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/heapscope"
	"repro/internal/obs"
	"repro/internal/prof"
	"repro/internal/stm"
	"repro/internal/sweep"
)

// Spec is the typed experiment specification: what to run, at which
// scale, under which robustness policy. It replaces the stringly-typed
// Options (contention manager as a free-form string, zero-means-default
// integers) with enum and explicit-override fields that validate at
// construction time instead of deep inside an experiment loop.
//
// Reps and Seed are nil for "use the per-experiment default"; the other
// knobs are plain values whose zero means the default.
type Spec struct {
	Full bool    // paper-scale parameters instead of quick ones
	Reps *int    // repetitions for mean/CI; nil = per-experiment default
	Seed *uint64 // base seed; nil = the suite default

	// Policy holds the robustness knobs and the simulated-side observer
	// switches, which every workload cell runs under as is.
	core.Policy

	// Pool forces a tx-object pooling discipline onto every workload
	// cell. PoolNone (the default) leaves each experiment's own choice
	// in place — it is "no override", not "strip pooling", so cells are
	// byte-identical to a spec that predates the field.
	Pool stm.Pooling

	Obs     *obs.Recorder // observability sink; nil disables
	Profile bool          // per-cell cycle-attribution profiling

	Heap        bool   // per-cell allocator-state telemetry (heapscope)
	HeapCadence uint64 // snapshot interval in virtual cycles; 0 = heapscope.DefaultCadence
}

// DefaultSeed is the suite's base seed when Spec.Seed is nil.
const DefaultSeed = 0x9a9e7

// Validate checks the spec once, up front: experiments can then trust
// every field. It fails fast with the allowed names/grammar instead of
// letting a bad contention manager or fault plan surface mid-sweep.
func (s *Spec) Validate() error {
	switch s.CM {
	case stm.CMSuicide, stm.CMBackoff, stm.CMKarma, stm.CMAggressive:
	default:
		return fmt.Errorf("harness: invalid contention manager %v (known: %v)", s.CM, stm.CMNames())
	}
	if s.Reps != nil && *s.Reps < 1 {
		return fmt.Errorf("harness: reps override must be >= 1, got %d", *s.Reps)
	}
	plan, err := fault.Parse(fault.Join(s.Fault, s.Crash), 1)
	if err != nil {
		return fmt.Errorf("harness: invalid fault plan: %w", err)
	}
	if s.Crash != "" && !plan.HasCrash() {
		return fmt.Errorf("harness: crash spec %q contains no crash clause", s.Crash)
	}
	return nil
}

// mustExecute reports whether cells must run instead of replaying from
// the cell cache. A cache hit cannot replay what an observer sees —
// events, a profile, heap telemetry, a race or conflict verdict,
// sanitizer diagnostics — and a crash verdict must come from recovery
// actually running, not from a record of an earlier run.
func (s *Spec) mustExecute() bool {
	faults, _ := fault.Parse(s.Fault, 1)
	return s.Obs != nil || s.Profile || s.Heap || s.Sanitize || s.Race || s.Conflict ||
		s.Crash != "" || faults.HasCrash()
}

// CellFunc runs one cell with its private host-side observers — a
// recorder, a profiler and a heap collector, each nil when the spec
// does not ask for it — and returns the cell's payload.
type CellFunc func(core.Instruments) (any, error)

// Harvest is what one executed cell's host-side observers collected:
// the sweep.Outcome.Harvest of every cell Spec.Cell builds. The sweep
// hands it back on the cell's first reference only, so nothing needs
// deduplicating. A per-cell artifact is one more field here.
type Harvest struct {
	Profile *prof.Profile     // cycle attribution labelled with the cell key; nil when unprofiled
	Heap    *heapscope.Series // allocator-state series labelled with the key; nil when unwatched

	rec *obs.Recorder // the sibling of Spec.Obs, until Session.RunCells folds it in
}

// Cell builds one sweep cell: key names it, spec (serialized
// canonically) plus seed identify it for caching, and run executes it.
// Cell is where every cell's host-side observers are created and
// harvested: a sibling of Spec.Obs that Session.RunCells folds back, a
// profiler labelled with the key when Profile is set, and a heap
// collector whose series is labelled with the key when Heap is set. A
// cell none of them observes returns no harvest, so it may be cached.
//
// Cell bodies run concurrently with the fold of earlier cells into
// Spec.Obs, so run must never read Spec.Obs; it records into its own
// sibling only.
func (s *Spec) Cell(key string, spec any, seed uint64, run CellFunc) sweep.Cell {
	raw, err := json.Marshal(spec)
	if err != nil {
		panic(fmt.Errorf("harness: encode spec of cell %s: %w", key, err))
	}
	parent, profiled, watched, cadence := s.Obs, s.Profile, s.Heap, s.HeapCadence
	return sweep.Cell{
		Key:  key,
		Spec: raw,
		Seed: seed,
		Run: func() (any, any, error) {
			in := core.Instruments{Obs: parent.Sibling()}
			if profiled {
				in.Prof = prof.New()
				in.Prof.SetRecorder(in.Obs)
			}
			if watched {
				in.Heap = heapscope.New(cadence)
			}
			payload, err := run(in)
			if err != nil {
				return nil, nil, err
			}
			if in == (core.Instruments{}) {
				return payload, nil, nil
			}
			h := &Harvest{rec: in.Obs}
			if in.Prof != nil {
				h.Profile = in.Prof.Profile()
				h.Profile.Label = key
			}
			if in.Heap != nil {
				h.Heap = in.Heap.Series(key)
			}
			return payload, h, nil
		},
	}
}

// reps resolves the effective repetition count.
func (s *Spec) reps(quick, full int) int {
	if s.Reps != nil {
		return *s.Reps
	}
	if s.Full {
		return full
	}
	return quick
}

// seed resolves the effective base seed.
func (s *Spec) seed() uint64 {
	if s.Seed != nil && *s.Seed != 0 {
		return *s.Seed
	}
	return DefaultSeed
}
