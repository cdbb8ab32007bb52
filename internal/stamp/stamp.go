// Package stamp hosts Go ports of the STAMP benchmark suite (Minh et
// al., IISWC 2008) running over the repository's STM, allocator models
// and virtual-time machine. Each application keeps the transactional
// structure of the original — what it allocates and frees inside
// transactions versus in the parallel region, the shape of its read and
// write sets, and its phase structure — which is what the paper's
// evaluation (§6) exercises.
//
// Applications register themselves by name; the harness runs them via
// Run with a chosen allocator, thread count and scale.
package stamp

import (
	"fmt"
	"sort"

	"repro/internal/alloc"
	"repro/internal/cachesim"
	"repro/internal/conflict"
	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/prof"
	"repro/internal/stm"
	"repro/internal/vtime"
)

// Scale selects a workload size. Quick keeps unit tests fast; Ref
// approximates the paper's "large data set" shapes scaled to this
// simulator.
type Scale int

// Workload scales.
const (
	Quick Scale = iota
	Ref
)

// ParseScale maps a command-line spelling to a Scale: "quick", or "ref"
// and its alias "full".
func ParseScale(name string) (Scale, error) {
	switch name {
	case "quick":
		return Quick, nil
	case "ref", "full":
		return Ref, nil
	}
	return Quick, fmt.Errorf("stamp: unknown scale %q (allowed: quick, ref, full)", name)
}

// Variant selects between an application's recommended configurations
// where STAMP defines two (kmeans and vacation); the paper evaluates
// the high-contention one.
type Variant int

// Application variants.
const (
	HighContention Variant = iota // the paper's choice (default)
	LowContention
)

// ParseVariant maps a command-line spelling to a Variant: "high" or
// "low" contention.
func ParseVariant(name string) (Variant, error) {
	switch name {
	case "high":
		return HighContention, nil
	case "low":
		return LowContention, nil
	}
	return HighContention, fmt.Errorf("stamp: unknown variant %q (allowed: high, low)", name)
}

// Config parameterizes one application run.
type Config struct {
	App       string
	Allocator string
	Threads   int
	Scale     Scale
	Variant   Variant
	Shift     uint
	// CacheTx is the deprecated boolean spelling of Pool == PoolCache;
	// it is kept for old callers and conflicts with a non-none Pool.
	CacheTx bool
	Pool    stm.Pooling // tx-object recycling discipline (none/cache/pool/batch)
	Seed    uint64
	Profile bool // collect the Table 5 allocation profile
	// Instruments are the host-side observers the caller builds per
	// cell; core.Instruments says why they precede Policy.
	core.Instruments
	// Policy carries the robustness policy (CM, retry cap, faults,
	// deadline, durability) and the simulated-side observer switches;
	// core.NewSystem builds and attaches them.
	core.Policy
}

// Result reports one run.
type Result struct {
	Config     Config
	InitCycles uint64 // sequential-phase virtual time
	Cycles     uint64 // parallel-phase virtual time (the reported time)
	Seconds    float64
	Tx         stm.TxStats
	Alloc      alloc.Stats
	Cache      cachesim.CoreStats
	L1Miss     float64
	Profile    *Profile
	Status     string // obs.StatusOK / StatusDegraded / StatusFailed
	Failure    string // watchdog / validation / panic detail when not ok
	// Blocks carry the observer verdicts: durable-memory recovery and
	// tx-pool traffic, the race checker's verdict and the conflict
	// observatory's summary, each nil when not in use.
	obs.Blocks
	// ConflictReport is the conflict observatory's full graph, blame
	// table and exemplar reservoir; nil when it was not attached.
	ConflictReport *conflict.Report `json:"conflict_report,omitempty"`
}

// World is the environment an application runs in.
type World struct {
	Space     *mem.Space
	Engine    *vtime.Engine
	STM       *stm.STM
	Allocator alloc.Allocator // the world's allocator model, which its STM also serves from
	Threads   int
	Scale     Scale
	Variant   Variant
	Seed      uint64
	Prof      *prof.Profiler // cycle-attribution profiler; nil disables
}

// mallocRetries and mallocRetryWait bound how long a non-transactional
// allocation waits out a transient failure before declaring the system
// out of memory.
const (
	mallocRetries   = 8
	mallocRetryWait = 4096
)

// Malloc allocates outside a transaction. The allocator's failure path
// (injected OOM or an exhausted quota) is retried a bounded number of
// times in virtual time — transient faults clear, persistent ones panic
// wrapping mem.ErrNoMemory, which Run captures into a failed-status
// result instead of tearing the process down.
func (w *World) Malloc(th *vtime.Thread, size uint64) mem.Addr {
	if a := w.Allocator.Malloc(th, size); a != 0 {
		return a
	}
	for i := 0; i < mallocRetries; i++ {
		th.Tick(mallocRetryWait)
		if a := w.Allocator.Malloc(th, size); a != 0 {
			return a
		}
	}
	panic(fmt.Errorf("stamp: failed to allocate %d bytes: %w", size, mem.ErrNoMemory))
}

// Calloc allocates a zero-filled block, as the C applications do via
// calloc: allocators hand out recycled blocks with free-list links in
// their first words, so counters and tables must be cleared explicitly.
func (w *World) Calloc(th *vtime.Thread, size uint64) mem.Addr {
	a := w.Malloc(th, size)
	for off := uint64(0); off < size; off += 8 {
		th.Store(a+mem.Addr(off), 0)
	}
	return a
}

// Seq runs fn on thread 0 with the others parked (the sequential
// phase).
func (w *World) Seq(fn func(th *vtime.Thread)) {
	w.Engine.Run(func(th *vtime.Thread) {
		if th.ID() == 0 {
			fn(th)
		}
	})
}

// Atomic is shorthand for the world's STM.
func (w *World) Atomic(th *vtime.Thread, fn func(tx *stm.Tx)) {
	w.STM.Atomic(th, fn)
}

// App is one STAMP application.
type App interface {
	Name() string
	// Setup performs the sequential initialization phase.
	Setup(w *World)
	// Parallel runs the transactional parallel phase; it is invoked
	// once per thread, inside the engine.
	Parallel(w *World, th *vtime.Thread)
	// Validate checks the final state and returns an error on any
	// inconsistency (run after the parallel phase, single-threaded).
	Validate(w *World) error
}

// Factory builds a fresh App instance.
type Factory func() App

var registry = map[string]Factory{}

// Register installs an application factory.
func Register(name string, f Factory) {
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("stamp: duplicate app %q", name))
	}
	registry[name] = f
}

// Names returns the registered application names, sorted: the paper's
// order.
func Names() []string {
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// New instantiates the named application.
func New(name string) (App, error) {
	f, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("stamp: unknown app %q (known: %v)", name, Names())
	}
	return f(), nil
}

// Run executes one full application run: setup (sequential), parallel
// phase (timed), validation. Configuration errors come back as errors;
// once a run starts it always produces a Result — wound down by the
// watchdog or spoiled by injected faults means Status degraded, a
// captured panic means Status failed — so callers can emit a
// machine-readable run record whatever happened.
func Run(cfg Config) (res Result, err error) {
	app, err := New(cfg.App)
	if err != nil {
		return Result{}, err
	}
	if cfg.Threads == 0 {
		cfg.Threads = 1
	}
	if cfg.Seed == 0 {
		cfg.Seed = 0x57a3b
	}
	defer func() {
		if r := recover(); r != nil {
			res.Config = cfg
			res.Status = obs.StatusFailed
			res.Failure = fmt.Sprint(r)
			err = nil
		}
	}()
	sys, err := core.NewSystem(core.Options{
		Allocator: cfg.Allocator, Threads: cfg.Threads, Shift: cfg.Shift,
		Pool: cfg.Pool, CacheTx: cfg.CacheTx, Seed: cfg.Seed,
		Instruments: cfg.Instruments, Policy: cfg.Policy,
	})
	if err != nil {
		return Result{}, err
	}
	var pr *profiler
	if cfg.Profile {
		pr = &profiler{stm: sys.STM, live: map[mem.Addr]struct{}{}}
		sys.Space.Watch(pr)
	}
	engine := sys.Engine
	cfg.Obs.BeginPhase(fmt.Sprintf("stamp/%s/%s/t%d", cfg.App, cfg.Allocator, cfg.Threads))

	w := &World{
		Space:     sys.Space,
		Engine:    engine,
		STM:       sys.STM,
		Allocator: sys.Allocator,
		Threads:   cfg.Threads,
		Scale:     cfg.Scale,
		Variant:   cfg.Variant,
		Seed:      cfg.Seed,
		Prof:      cfg.Prof,
	}

	app.Setup(w)
	initCycles := engine.MaxClock()
	if engine.DeadlineExceeded() {
		return Result{
			Config:  cfg,
			Status:  obs.StatusDegraded,
			Failure: fmt.Sprintf("virtual-time deadline %d exceeded during setup", cfg.Deadline),
		}, nil
	}

	// Timed parallel phase.
	sys.ResetClocks()
	txBase := w.STM.Stats()
	cacheBase := sys.Cache.TotalStats()
	if pr != nil {
		pr.parallel = true
	}
	if !engine.Stopped() {
		engine.Run(func(th *vtime.Thread) { app.Parallel(w, th) })
	}
	if pr != nil {
		pr.parallel = false
	}
	cycles := sys.EndPhase()
	txAfter := w.STM.Stats()

	status, failure := obs.StatusOK, ""
	if engine.DeadlineExceeded() {
		status = obs.StatusDegraded
		failure = fmt.Sprintf("virtual-time deadline %d exceeded in the parallel phase", cfg.Deadline)
	} else if engine.Stopped() {
		// A crash clause halted the run: the application's final state is
		// torn by design, so validation is recovery's job, not the app's.
	} else if err := app.Validate(w); err != nil {
		if sys.Plan == nil {
			return Result{}, fmt.Errorf("stamp: %s validation failed: %w", cfg.App, err)
		}
		// Under an active fault plan a validation failure is an expected
		// degraded outcome (e.g. work dropped by an abort storm), not a
		// harness error: record it and keep the artifacts flowing.
		status = obs.StatusDegraded
		failure = fmt.Sprintf("validation failed under fault plan %q: %v", cfg.Fault, err)
	}

	phase := sys.Cache.TotalStats().Sub(cacheBase)
	res = Result{
		Config:     cfg,
		InitCycles: initCycles,
		Cycles:     cycles,
		Seconds:    vtime.Seconds(cycles),
		Tx:         txAfter.Sub(txBase),
		Alloc:      sys.Allocator.Stats(),
		Cache:      phase,
		L1Miss:     phase.L1MissRatio(),
		Status:     status,
		Failure:    failure,
	}
	if pr != nil {
		p := pr.p // a copy: Finish's crash recovery notes frees to pr
		res.Profile = &p
	}
	res.Status, res.Failure, res.Blocks = sys.Finish(res.Status, res.Failure)
	res.ConflictReport = sys.ConflictReport()
	return res, nil
}
