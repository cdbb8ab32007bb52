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
// Reps and Seed are nil for "use the per-experiment default"; the
// policy knobs are plain values whose zero means the default, as in
// core.Policy.
type Spec struct {
	Full bool    // paper-scale parameters instead of quick ones
	Reps *int    // repetitions for mean/CI; nil = per-experiment default
	Seed *uint64 // base seed; nil = the suite default

	CM       stm.CM // contention manager (typed; default CMSuicide)
	RetryCap uint64 // irrevocable-fallback threshold; 0 = STM default
	Fault    string // fault-plan spec (internal/fault grammar); "" disables
	Deadline uint64 // virtual-cycle watchdog bound per workload phase; 0 = none

	Pmem  bool   // durable heap on every workload cell: redo-logged commits, priced flush/fence
	Crash string // crash-injection clauses (fault crash grammar); "" disables; implies Pmem

	// Pool forces a tx-object pooling discipline onto every workload
	// cell. PoolNone (the default) leaves each experiment's own choice
	// in place — it is "no override", not "strip pooling", so cells are
	// byte-identical to a spec that predates the field.
	Pool stm.Pooling

	// plan is the Fault+Crash spec parsed once by Validate; each cell's
	// world builder takes a per-seed clone instead of re-parsing.
	plan *fault.Plan

	Obs     *obs.Recorder // observability sink; nil disables
	Profile bool          // per-cell cycle-attribution profiling
	Health  *Health       // aggregated run status; nil = one is created per experiment

	Heap        bool   // per-cell allocator-state telemetry (heapscope)
	HeapCadence uint64 // snapshot interval in virtual cycles; 0 = heapscope.DefaultCadence

	// Race attaches the happens-before race checker (internal/race) to
	// every workload cell. A pure observer — checked cells compute
	// byte-identical results.
	Race bool

	// Conflict attaches the abort-forensics observatory
	// (internal/conflict) to every workload cell. A pure observer —
	// observed cells compute byte-identical results.
	Conflict bool

	// Sanitize attaches the shadow-memory sanitizer to every workload
	// cell's space. A pure observer unless it fires: a heap-misuse
	// diagnostic fails the cell.
	Sanitize bool
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
	if spec := fault.Join(s.Fault, s.Crash); spec != "" {
		plan, err := fault.Parse(spec, 1)
		if err != nil {
			return fmt.Errorf("harness: invalid fault plan: %w", err)
		}
		if s.Crash != "" && !plan.HasCrash() {
			return fmt.Errorf("harness: crash spec %q contains no crash clause", s.Crash)
		}
		s.plan = plan
	}
	return nil
}

// Policy is the workload policy every cell runs under: the robustness
// knobs and the simulated-side observers, which core.NewSystem builds.
// The host-side observers (recorder, profiler, heap collector) are per
// cell; see Cell.
func (s *Spec) Policy() core.Policy {
	return core.Policy{CM: s.CM, RetryCap: s.RetryCap, Fault: s.Fault, Deadline: s.Deadline,
		Pmem: s.Pmem, Crash: s.Crash, Plan: s.plan, Sanitize: s.Sanitize, Race: s.Race, Conflict: s.Conflict}
}

// mustExecute reports whether cells must run instead of replaying from
// the cell cache. A cache hit cannot replay what an observer sees —
// events, a profile, heap telemetry, a race or conflict verdict,
// sanitizer diagnostics — and a crash verdict must come from recovery
// actually running, not from a record of an earlier run.
func (s *Spec) mustExecute() bool {
	return s.Obs != nil || s.Profile || s.Heap || s.Sanitize || s.Race || s.Conflict ||
		s.Crash != "" || s.plan.HasCrash()
}

// CellFunc runs one cell against its private recorder, profiler and
// heap collector (each nil when the spec does not ask for it) and
// returns the cell's payload.
type CellFunc func(rec *obs.Recorder, pp *prof.Profiler, hc *heapscope.Collector) (any, error)

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
			rec := parent.Sibling()
			var pp *prof.Profiler
			if profiled {
				pp = prof.New()
				pp.SetRecorder(rec)
			}
			var hc *heapscope.Collector
			if watched {
				hc = heapscope.New(cadence)
			}
			payload, err := run(rec, pp, hc)
			if err != nil {
				return nil, nil, err
			}
			if rec == nil && pp == nil && hc == nil {
				return payload, nil, nil
			}
			h := &Harvest{rec: rec}
			if pp != nil {
				h.Profile = pp.Profile()
				h.Profile.Label = key
			}
			if hc != nil {
				h.Heap = hc.Series(key)
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

// child clones the spec for one experiment, giving it a private Health
// aggregate when the caller did not supply a shared one.
func (s *Spec) child() *Spec {
	c := *s
	if c.Health == nil {
		c.Health = &Health{}
	}
	return &c
}
