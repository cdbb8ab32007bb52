package harness

import (
	"encoding/json"
	"fmt"

	"repro/internal/core"
	"repro/internal/htm"
	"repro/internal/intset"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/stamp"
	"repro/internal/stm"
	"repro/internal/sweep"
	"repro/internal/threadtest"
)

// Builder is what an experiment plans against: instead of running
// workloads inline, an experiment's Plan function declares its cells —
// one per (configuration, repetition) point — receives typed handles to
// their future payloads, and installs a Reduce closure that folds the
// payloads into the printable Result. The split is what lets the sweep
// scheduler run cells in any order on any goroutine (or skip them via
// the cache) while reduction stays a straight-line serial function.
type Builder struct {
	id    string
	spec  *Spec
	cells []sweep.Cell
	outs  []sweep.Outcome // filled by the session before reduce runs
	fn    func() (*Result, error)
}

// Full reports whether the plan runs at paper scale. With Reps, it is
// all a plan reads of the spec, which every experiment of a session
// shares.
func (b *Builder) Full() bool { return b.spec.Full }

// Reps resolves the effective repetition count for this plan.
func (b *Builder) Reps(quick, full int) int { return b.spec.reps(quick, full) }

// Reduce installs the fold from cell payloads to the Result. Handles
// are only valid inside it.
func (b *Builder) Reduce(fn func() (*Result, error)) { b.fn = fn }

// Handle is a typed reference to one cell's future payload.
type Handle[T any] struct {
	b   *Builder
	idx int
}

// Get decodes the cell's payload. Valid only inside Reduce; a decode
// mismatch is a harness bug and panics (the session converts it to an
// experiment error).
func (h Handle[T]) Get() T {
	out := h.b.outs[h.idx]
	var v T
	if err := json.Unmarshal(out.Payload, &v); err != nil {
		panic(fmt.Errorf("harness: decode payload of cell %s: %w", out.Key, err))
	}
	return v
}

// CellHealth is embedded in cell payloads that carry a degradation
// status; the session folds every cell's health into the experiment
// aggregate before reducing.
type CellHealth struct {
	Status  string `json:"status,omitempty"`
	Failure string `json:"failure,omitempty"`
}

// addCell registers one cell through the spec's per-cell helper.
func addCell[T any](b *Builder, key string, spec any, seed uint64, run CellFunc) Handle[T] {
	b.cells = append(b.cells, b.spec.Cell(key, spec, seed, run))
	return Handle[T]{b: b, idx: len(b.cells) - 1}
}

// Sweep is the repetitions of one configuration, in rep order.
type Sweep[T any] []Handle[T]

// repeat declares reps repetitions through cell, which declares rep r.
func repeat[T any](reps int, cell func(r int) Handle[T]) Sweep[T] {
	s := make(Sweep[T], reps)
	for r := range s {
		s[r] = cell(r)
	}
	return s
}

// Cells decodes all repetition payloads (Reduce-time only).
func (s Sweep[T]) Cells() []T {
	out := make([]T, len(s))
	for i, h := range s {
		out[i] = h.Get()
	}
	return out
}

// Summary summarizes measure over the repetitions (Reduce-time only).
func (s Sweep[T]) Summary(measure func(T) float64) sim.Summary {
	var xs []float64
	for _, h := range s {
		xs = append(xs, measure(h.Get()))
	}
	return sim.Summarize(xs)
}

// ---- intset cells ----

// IntsetCell is the payload of one synthetic-benchmark run.
type IntsetCell struct {
	Throughput  float64 `json:"thr"`
	AbortRate   float64 `json:"abort_rate"`
	L1Miss      float64 `json:"l1_miss"`
	FalseAborts uint64  `json:"false_aborts"`
	obs.Blocks
	CellHealth
}

// intsetThr is the throughput measure of an intset Sweep's Summary.
func intsetThr(c IntsetCell) float64 { return c.Throughput }

// PoolTag names a non-default pooling discipline in a cell key. The
// PoolNone baseline contributes nothing, so legacy keys — and the seeds
// DeriveSeed mints from them — are byte-identical to pre-pooling runs.
func PoolTag(p stm.Pooling) string {
	if p == stm.PoolNone {
		return ""
	}
	return "/p" + p.String()
}

// AliasTag names the stripe-alias demo knobs in a cell key. The
// defaults contribute nothing, so legacy keys — and the seeds
// DeriveSeed mints from them — are byte-identical to pre-demo runs.
func AliasTag(cfg intset.Config) string {
	if !cfg.SeedAlias && cfg.OrtBits == 0 {
		return ""
	}
	return fmt.Sprintf("/sa%v-ob%d", cfg.SeedAlias, cfg.OrtBits)
}

func intsetKey(prefix string, cfg intset.Config, rep int) string {
	return fmt.Sprintf("%s/%s/%s/t%d/u%d/i%d/k%d/o%d/s%d/d%d/h%d/c%v%s%s/r%d",
		prefix, cfg.Kind, cfg.Allocator, cfg.Threads, cfg.UpdatePct, cfg.InitialSize,
		cfg.KeyRange, cfg.OpsPerThread, cfg.Shift, cfg.Design, cfg.HashBuckets, cfg.CacheTx,
		PoolTag(cfg.Pool), AliasTag(cfg), rep)
}

// applyIntset threads the spec's policy into a workload config. The
// workload parameters stay the experiment's business; the policy is the
// spec's.
func (b *Builder) applyIntset(cfg intset.Config) intset.Config {
	cfg.Policy = b.spec.Policy
	if b.spec.Pool != stm.PoolNone {
		cfg.Pool = b.spec.Pool
	}
	return cfg
}

// Intset declares one synthetic-benchmark cell.
func (b *Builder) Intset(cfg intset.Config, rep int) Handle[IntsetCell] {
	cfg = b.applyIntset(cfg)
	key := intsetKey("intset", cfg, rep)
	cfg.Seed = sweep.DeriveSeed(b.spec.seed(), key)
	return addCell[IntsetCell](b, key, cfg, cfg.Seed, func(in core.Instruments) (any, error) {
		c := cfg
		c.Instruments = in
		res, err := intset.Run(c)
		if err != nil {
			return nil, err
		}
		return IntsetCell{
			Throughput:  res.Throughput,
			AbortRate:   res.Tx.AbortRate(),
			L1Miss:      res.L1Miss,
			FalseAborts: res.Tx.FalseAborts,
			Blocks:      res.Blocks,
			CellHealth:  CellHealth{Status: res.Status, Failure: res.Failure},
		}, nil
	})
}

// IntsetSweep declares reps repetitions of one configuration.
func (b *Builder) IntsetSweep(cfg intset.Config, reps int) Sweep[IntsetCell] {
	return repeat(reps, func(r int) Handle[IntsetCell] { return b.Intset(cfg, r) })
}

// ---- stamp cells ----

// StampCell is the payload of one timed STAMP run.
type StampCell struct {
	Ms float64 `json:"ms"` // parallel-phase time in modelled milliseconds
	obs.Blocks
	CellHealth
}

// stampMs is the execution-time measure of a STAMP Sweep's Summary.
func stampMs(c StampCell) float64 { return c.Ms }

// StampProbe is the payload of one instrumented STAMP run (application
// characterization and allocation profile). Its blocks carry the race
// and conflict verdicts only: durability and pooling traffic are
// reported by timed cells.
type StampProbe struct {
	Tx      stm.TxStats    `json:"tx"`
	L1Miss  float64        `json:"l1_miss"`
	Profile *stamp.Profile `json:"profile,omitempty"`
	obs.Blocks
	CellHealth
}

func stampKey(cfg stamp.Config, rep int) string {
	return fmt.Sprintf("stamp/%s/%s/t%d/sc%d/v%d/s%d/c%v%s/p%v/r%d",
		cfg.App, cfg.Allocator, cfg.Threads, cfg.Scale, cfg.Variant, cfg.Shift,
		cfg.CacheTx, PoolTag(cfg.Pool), cfg.Profile, rep)
}

func (b *Builder) applyStamp(cfg stamp.Config) stamp.Config {
	cfg.Policy = b.spec.Policy
	if b.spec.Pool != stm.PoolNone {
		cfg.Pool = b.spec.Pool
	}
	return cfg
}

func (b *Builder) stampCell(cfg stamp.Config, rep int) (stamp.Config, string) {
	cfg = b.applyStamp(cfg)
	key := stampKey(cfg, rep)
	cfg.Seed = sweep.DeriveSeed(b.spec.seed(), key)
	return cfg, key
}

// Stamp declares one timed STAMP cell.
func (b *Builder) Stamp(cfg stamp.Config, rep int) Handle[StampCell] {
	cfg, key := b.stampCell(cfg, rep)
	return addCell[StampCell](b, key, cfg, cfg.Seed, func(in core.Instruments) (any, error) {
		c := cfg
		c.Instruments = in
		res, err := stamp.Run(c)
		if err != nil {
			return nil, err
		}
		return StampCell{
			Ms:         res.Seconds * 1e3,
			Blocks:     res.Blocks,
			CellHealth: CellHealth{Status: res.Status, Failure: res.Failure},
		}, nil
	})
}

// StampSweep declares reps repetitions of one configuration.
func (b *Builder) StampSweep(cfg stamp.Config, reps int) Sweep[StampCell] {
	return repeat(reps, func(r int) Handle[StampCell] { return b.Stamp(cfg, r) })
}

// StampProbeCell declares one instrumented STAMP cell. Its key carries
// a distinct prefix: a probe runs the same workload as a timed cell but
// its payload has a different shape, so the two must never deduplicate
// against each other even when their configs coincide (appchar's probes
// vs fig7's timed runs).
func (b *Builder) StampProbeCell(cfg stamp.Config) Handle[StampProbe] {
	cfg = b.applyStamp(cfg)
	key := "probe/" + stampKey(cfg, 0)
	cfg.Seed = sweep.DeriveSeed(b.spec.seed(), key)
	return addCell[StampProbe](b, key, cfg, cfg.Seed, func(in core.Instruments) (any, error) {
		c := cfg
		c.Instruments = in
		res, err := stamp.Run(c)
		if err != nil {
			return nil, err
		}
		return StampProbe{
			Tx:         res.Tx,
			L1Miss:     res.L1Miss,
			Profile:    res.Profile,
			Blocks:     obs.Blocks{Race: res.Race, Conflict: res.Conflict},
			CellHealth: CellHealth{Status: res.Status, Failure: res.Failure},
		}, nil
	})
}

// ---- threadtest cells ----

// ThreadtestCell is the payload of one allocator-microbenchmark run.
type ThreadtestCell struct {
	Throughput float64 `json:"thr"` // malloc/free pairs per modelled second
}

// Threadtest declares one allocator-microbenchmark cell. The workload
// is deterministic (no seed), but rep still names distinct cells so
// repetition counts keep their meaning.
func (b *Builder) Threadtest(cfg threadtest.Config, rep int) Handle[ThreadtestCell] {
	key := fmt.Sprintf("threadtest/%s/t%d/b%d/o%d/w%d/r%d",
		cfg.Allocator, cfg.Threads, cfg.BlockSize, cfg.OpsPerThread, cfg.TouchWords, rep)
	seed := sweep.DeriveSeed(b.spec.seed(), key)
	return addCell[ThreadtestCell](b, key, cfg, seed, func(core.Instruments) (any, error) {
		res, err := threadtest.Run(cfg)
		if err != nil {
			return nil, err
		}
		return ThreadtestCell{Throughput: res.Throughput}, nil
	})
}

// ThreadtestSweep declares reps repetitions of one configuration.
func (b *Builder) ThreadtestSweep(cfg threadtest.Config, reps int) Sweep[ThreadtestCell] {
	return repeat(reps, func(r int) Handle[ThreadtestCell] { return b.Threadtest(cfg, r) })
}

// ---- HyTM cells ----

// HyTMCell is the payload of one best-effort-HTM run.
type HyTMCell struct {
	Throughput float64   `json:"thr"`
	HTM        htm.Stats `json:"htm"`
}

// HyTM declares one hybrid-TM cell.
func (b *Builder) HyTM(cfg intset.Config, rep int) Handle[HyTMCell] {
	key := intsetKey("hytm", cfg, rep)
	cfg.Seed = sweep.DeriveSeed(b.spec.seed(), key)
	return addCell[HyTMCell](b, key, cfg, cfg.Seed, func(in core.Instruments) (any, error) {
		c := cfg
		c.Obs = in.Obs
		res, err := intset.RunHyTM(c)
		if err != nil {
			return nil, err
		}
		return HyTMCell{Throughput: res.Throughput, HTM: res.HTM}, nil
	})
}

// ---- static cells ----

// staticSpec identifies a static (computed, workload-free) cell.
type staticSpec struct {
	ID   string `json:"id"`
	Full bool   `json:"full"`
}

// Static declares a cell that computes its Result directly — for the
// paper items that are demonstrations or self-descriptions rather than
// sweeps (tab1, tab2, fig2, fig5). The whole Result is the payload.
func (b *Builder) Static(fn func() (*Result, error)) Handle[Result] {
	key := "static/" + b.id
	spec := staticSpec{ID: b.id, Full: b.spec.Full}
	seed := sweep.DeriveSeed(b.spec.seed(), key)
	return addCell[Result](b, key, spec, seed, func(core.Instruments) (any, error) {
		return fn()
	})
}
