package harness

import (
	"encoding/json"
	"fmt"

	"repro/internal/heapscope"
	"repro/internal/obs"
	"repro/internal/prof"
	"repro/internal/stm"
	"repro/internal/sweep"
)

// Session runs experiments through the parallel sweep scheduler: every
// requested experiment is planned into cells, the union of all cells is
// scheduled once (so configurations shared between experiments — fig4
// and tab3, fig7 and fig8 — execute once), and each experiment reduces
// its own outcomes. Results are byte-identical for any Jobs value: the
// scheduler hands outcomes back in cell order, observability deltas
// merge in first-reference order, and reducers are plain serial code.
type Session struct {
	Spec *Spec
	Jobs int // host goroutine pool width; <= 1 runs serially

	// Cache memoizes finished cells on disk. Ignored (treated as nil)
	// when the spec attaches any observer — a trace, profile, heap
	// telemetry, the race checker, the conflict observatory or the
	// sanitizer — or carries a crash clause: those describe an actual
	// execution, which a cache hit cannot replay.
	Cache *sweep.Cache
}

// ExperimentRun is one experiment's outcome within a session.
type ExperimentRun struct {
	ID         string
	Experiment *Experiment // nil when ID was unknown
	Result     *Result     // nil when Err is set
	Err        error
	Health     *Health
	Sweep      *obs.SweepInfo // cell accounting for the run record
	Profile    *prof.Profile  // merged cycle attribution; nil when unprofiled
	Heap       *heapscope.Set // per-cell telemetry series; nil when unwatched
	// Blocks fold the cells' observer blocks (obs.Blocks.Merge): the
	// worst recovery verdict, summed pool traffic, race verdicts and
	// abort forensics, each nil when no cell carried it.
	obs.Blocks
}

// jobs returns the normalized pool width.
func (s *Session) jobs() int {
	if s.Jobs < 1 {
		return 1
	}
	return s.Jobs
}

// Run plans, schedules and reduces the experiments with the given ids,
// returning one ExperimentRun per id (in order) plus the scheduler
// statistics for the whole sweep.
func (s *Session) Run(ids []string) ([]*ExperimentRun, sweep.Stats) {
	if err := s.Spec.Validate(); err != nil {
		runs := make([]*ExperimentRun, len(ids))
		for i, id := range ids {
			runs[i] = &ExperimentRun{ID: id, Err: err}
		}
		return runs, sweep.Stats{}
	}

	type planned struct {
		run    *ExperimentRun
		b      *Builder
		lo, hi int // the plan's cell range in the concatenated slice
	}
	runs := make([]*ExperimentRun, len(ids))
	var cells []sweep.Cell
	var plans []*planned
	for i, id := range ids {
		er := &ExperimentRun{ID: id}
		runs[i] = er
		spec := s.Spec.child()
		er.Health = spec.Health
		e, ok := Get(id)
		if !ok {
			er.Err = fmt.Errorf("harness: unknown experiment %q", id)
			continue
		}
		er.Experiment = e
		b := &Builder{id: id, spec: spec}
		if err := planRecovered(e, b); err != nil {
			er.Err = err
			continue
		}
		p := &planned{run: er, b: b, lo: len(cells)}
		cells = append(cells, b.cells...)
		p.hi = len(cells)
		plans = append(plans, p)
	}

	outs, stats := s.RunCells(cells)

	profiled := make(map[*prof.Profile]bool)
	watched := make(map[*heapscope.Series]bool)
	for _, p := range plans {
		p.b.outs = outs[p.lo:p.hi]
		sw := &obs.SweepInfo{CellSet: sweep.CellSetHash(p.b.cells), Cells: len(p.b.cells)}
		var firstErr error
		var profiles []*prof.Profile
		var heapSet *heapscope.Set
		for _, o := range p.b.outs {
			switch {
			case o.Err != nil:
				if firstErr == nil {
					firstErr = o.Err
				}
				continue
			case o.Cached:
				sw.Cached++
			default:
				sw.Executed++
			}
			if o.Profile != nil && !profiled[o.Profile] {
				profiled[o.Profile] = true
				profiles = append(profiles, o.Profile)
			}
			if o.Heap != nil && !watched[o.Heap] {
				// Deduplicated cells share one Outcome (and Series
				// pointer): each distinct series is collected exactly
				// once, at its first reference, in cell-index order.
				watched[o.Heap] = true
				if heapSet == nil {
					heapSet = heapscope.NewSet(p.run.ID)
				}
				heapSet.Add(o.Heap)
			}
			var v struct {
				CellHealth
				obs.Blocks
			}
			if json.Unmarshal(o.Payload, &v) == nil {
				p.run.Health.Note(v.Status, v.Failure)
				p.run.Blocks.Merge(v.Blocks)
			}
		}
		if len(profiles) > 0 {
			// Deduplicated cells share one Outcome (and Profile pointer):
			// like deltas, each distinct profile merges exactly once, at
			// its first reference, in cell-index order.
			p.run.Profile = prof.Merge(profiles...)
			p.run.Profile.Label = p.run.ID
		}
		p.run.Heap = heapSet
		p.run.Sweep = sw
		if firstErr != nil {
			p.run.Err = firstErr
			continue
		}
		p.run.Result, p.run.Err = reduceRecovered(p.b)
	}
	return runs, stats
}

// RunCells schedules cells on the sweep scheduler, replaying them from
// the cache unless the spec must execute, and folds each distinct
// recorder delta into Spec.Obs at its first reference in cell order
// (deduplicated cells share one Outcome and Delta pointer), so the
// merged trace is what a serial no-dedup run would produce up to that
// sharing.
func (s *Session) RunCells(cells []sweep.Cell) ([]sweep.Outcome, sweep.Stats) {
	cache := s.Cache
	if s.Spec.mustExecute() {
		cache = nil
	}
	outs, stats := (&sweep.Scheduler{Jobs: s.jobs(), Cache: cache}).Run(cells)
	merged := make(map[*obs.Delta]bool)
	for _, o := range outs {
		if o.Err == nil && o.Delta != nil && !merged[o.Delta] {
			merged[o.Delta] = true
			s.Spec.Obs.Apply(o.Delta)
		}
	}
	return outs, stats
}

// planRecovered runs the experiment's Plan with panic capture.
func planRecovered(e *Experiment, b *Builder) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("harness: planning %s panicked: %v", e.ID, r)
		}
	}()
	return e.Plan(b)
}

// reduceRecovered runs the plan's reducer with panic capture.
func reduceRecovered(b *Builder) (res *Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, fmt.Errorf("harness: reducing %s panicked: %v", b.id, r)
		}
	}()
	if b.fn == nil {
		return nil, fmt.Errorf("harness: experiment %s installed no reducer", b.id)
	}
	return b.fn()
}

// Record converts one experiment run into the machine-readable v2 run
// artifact, attaching whatever the session's recorder collected.
func (s *Session) Record(run *ExperimentRun) *obs.RunRecord {
	rec := obs.NewRunRecord(run.ID)
	if run.Result != nil {
		rec.Title = run.Result.Title
	} else if run.Experiment != nil {
		rec.Title = run.Experiment.Paper
	}
	rec.Status = run.Health.Status()
	rec.Failure = run.Health.Failure()

	cfg := obs.RunConfig{Full: s.Spec.Full, Seed: s.Spec.seed()}
	if s.Spec.Reps != nil {
		cfg.Reps = *s.Spec.Reps
	}
	extra := map[string]string{}
	if s.Spec.CM != stm.CMSuicide {
		extra["cm"] = s.Spec.CM.String()
	}
	if s.Spec.RetryCap != 0 {
		extra["retry_cap"] = fmt.Sprintf("%d", s.Spec.RetryCap)
	}
	if s.Spec.Fault != "" {
		extra["fault"] = s.Spec.Fault
	}
	if s.Spec.Deadline != 0 {
		extra["deadline"] = fmt.Sprintf("%d", s.Spec.Deadline)
	}
	if s.Spec.Pmem {
		extra["pmem"] = "on"
	}
	if s.Spec.Crash != "" {
		extra["crash"] = s.Spec.Crash
	}
	if s.Spec.Pool != stm.PoolNone {
		extra["pool"] = s.Spec.Pool.String()
	}
	if len(extra) > 0 {
		cfg.Extra = extra
	}
	rec.Config = cfg

	if run.Sweep != nil {
		sw := *run.Sweep
		sw.Jobs = s.jobs()
		rec.Sweep = &sw
	}
	if r := run.Result; r != nil {
		rec.Tables, rec.Series, rec.Notes = r.Tables, r.Series, r.Notes
	}
	if run.Profile != nil {
		rec.Profile = run.Profile.Info()
	}
	if run.Heap != nil {
		rec.Heap = run.Heap.Info()
	}
	rec.Blocks = run.Blocks
	rec.Attach(s.Spec.Obs)
	return rec
}

// RunExperiment runs a single experiment serially with no cache — the
// spec-level equivalent of the old monolithic Run entry point.
func RunExperiment(e *Experiment, spec *Spec) (*Result, error) {
	runs, _ := (&Session{Spec: spec}).Run([]string{e.ID})
	return runs[0].Result, runs[0].Err
}
