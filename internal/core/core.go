// Package core assembles the repository's subsystems into one
// ready-to-use transactional memory system with a pluggable dynamic
// memory allocator — the configuration under study in Baldassin, Borin
// and Araujo, "Performance Implications of Dynamic Memory Allocators on
// Transactional Memory Systems" (PPoPP 2015).
//
// A System owns a simulated address space, a virtual-time multicore
// engine with a cache model, one of the four allocator models (glibc,
// hoard, tbb, tcmalloc) and a TinySTM-style word-based STM whose
// ownership-record table is addressed with the paper's shift/modulo
// mapping. Swapping the allocator — the paper's LD_PRELOAD experiment —
// is changing one string in the Options.
//
//	sys, _ := core.NewSystem(core.Options{Allocator: "tcmalloc", Threads: 8})
//	counter := sys.Space.MustMap(4096, 0)
//	sys.Run(func(th *vtime.Thread) {
//	    for i := 0; i < 1000; i++ {
//	        sys.Atomic(th, func(tx *stm.Tx) {
//	            tx.Store(counter, tx.Load(counter)+1)
//	        })
//	    }
//	})
//	fmt.Println(sys.Space.Load(counter), sys.Report().Tx.Aborts)
//
// NewSystem is also the one world builder of the workload drivers
// (intset.Run, stamp.Run): it alone parses the fault plan, attaches the
// durable heap, builds and attaches every observer a Policy selects —
// sanitizer, race checker, conflict observatory — and attaches the
// Instruments its caller built (recorder, profiler, heap telemetry);
// Finish alone folds their results into the run's status and info
// blocks.
package core

import (
	"fmt"

	"repro/internal/alloc"
	"repro/internal/cachesim"
	"repro/internal/conflict"
	"repro/internal/fault"
	"repro/internal/heapscope"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/pmem"
	"repro/internal/prof"
	"repro/internal/race"
	"repro/internal/stm"
	"repro/internal/vtime"
)

// Policy is one run's robustness policy and simulated-side observer
// selection: the knobs NewSystem builds a world from. The workload
// configs (intset.Config, stamp.Config) embed it, so the fields below
// are theirs: the un-tagged ones are part of each config's JSON
// encoding and hence of its cell hash, while the observer switches are
// excluded because they never change what a cell computes. Adding a
// simulated-side observer is one field here and its attachment in
// NewSystem.
type Policy struct {
	CM       stm.CM // contention manager (default CMSuicide)
	RetryCap uint64 // irrevocable-fallback threshold (0 = default)
	Fault    string // fault-plan spec (internal/fault grammar); "" disables
	Deadline uint64 // virtual-cycle watchdog bound per phase; 0 disables
	Pmem     bool   // durable heap: redo-logged commits, priced flush/fence
	Crash    string // crash-injection clauses (fault grammar); implies Pmem
	// Sanitize attaches the shadow-memory sanitizer (mem.Shadow) to the
	// run's space: a transactional access to a freed block, a redzone
	// or a wild address, or a double free, fails the run.
	Sanitize bool `json:"-"`
	// Race attaches the happens-before checker (internal/race): its
	// verdict lands in the Race info block, and any finding fails the
	// run.
	Race bool `json:"-"`
	// Conflict attaches the abort-forensics observatory
	// (internal/conflict): every abort is classified against allocator
	// provenance and the verdict lands in the Conflict info block.
	Conflict bool `json:"-"`
}

// Instruments are the host-side observers a caller builds per cell
// (harness.Spec.Cell does) and NewSystem attaches; each is nil when
// unused. Options and the workload configs embed Instruments
// immediately before Policy, so Obs keeps its place, ahead of CM, in
// the configs' JSON encoding: a cell's spec is encoded before its
// instruments exist, so it reads "Obs":null.
type Instruments struct {
	Obs *obs.Recorder // event/metric sink; nil disables
	// Prof, when non-nil, attributes every virtual cycle of the run to
	// (thread, region-stack, allocator) buckets.
	Prof *prof.Profiler `json:"-"`
	// Heap, when non-nil, collects allocator-state telemetry on a
	// virtual-cycle cadence.
	Heap *heapscope.Collector `json:"-"`
}

// Options configures a System. The zero value of each field selects the
// paper's setup.
type Options struct {
	// Allocator is one of alloc.Names(): "glibc", "hoard", "tbb",
	// "tcmalloc". Default "glibc" (the Linux system allocator).
	Allocator string
	// Threads is the number of logical threads (default 1, max 8 to
	// match the modelled machine).
	Threads int
	// Shift is the ORT mapping shift amount (default 5: 32-byte
	// stripes, the paper's TinySTM default).
	Shift uint
	// OrtBits is log2 of the ORT size (default 20).
	OrtBits uint
	// Design selects the STM algorithm variant (default the paper's
	// encounter-time-locking write-back).
	Design stm.Design
	// Pool selects the transaction-object recycling discipline; CacheTx
	// is the workload configs' deprecated spelling of PoolCache, and
	// NewSystem rejects it beside any other non-none Pool.
	Pool    stm.Pooling
	CacheTx bool
	// Seed seeds the run's fault plan.
	Seed uint64
	Instruments
	Policy
}

// System is one assembled transactional-memory machine.
type System struct {
	Space     *mem.Space
	Engine    *vtime.Engine
	Cache     *cachesim.Hierarchy
	Allocator alloc.Allocator
	STM       *stm.STM
	Threads   int
	// Plan is the run's fault plan; nil when no fault or crash clause
	// was given.
	Plan *fault.Plan

	heap     *heapscope.Collector
	durable  *pmem.Pmem
	checker  *race.Checker
	conflict *conflict.Observatory
}

// Report bundles the statistics of a run.
type Report struct {
	Cycles  uint64  // largest thread clock (virtual execution time)
	Seconds float64 // Cycles at the modelled 2 GHz
	Tx      stm.TxStats
	Alloc   alloc.Stats
	Cache   cachesim.CoreStats
}

// testWatch, when non-nil, sees every new space after the observers are
// attached; tests set it (export_test.go) to add watchers of their own.
var testWatch func(*mem.Space)

// NewSystem builds a System: the space, the allocator, the fault plan
// and durable heap the policy asks for, the cache model, the engine, the
// STM and every selected observer. Block watchers reach the space, and
// transaction observers the STM, in a fixed order — sanitizer shadow
// map, heap telemetry, durable heap, race checker, conflict observatory
// — so an observer that unwinds a thread mid-notification (a crash at
// the malloc checkpoint) is seen the same way on every run.
func NewSystem(opts Options) (*System, error) {
	if opts.Allocator == "" {
		opts.Allocator = "glibc"
	}
	if opts.Threads == 0 {
		opts.Threads = 1
	}
	if opts.Threads < 0 || opts.Threads > cachesim.DefaultCores {
		return nil, fmt.Errorf("core: threads must be 1..%d, got %d", cachesim.DefaultCores, opts.Threads)
	}
	if opts.CacheTx {
		if opts.Pool != stm.PoolNone && opts.Pool != stm.PoolCache {
			return nil, fmt.Errorf("core: CacheTx (the %v alias) conflicts with Pool %v", stm.PoolCache, opts.Pool)
		}
		opts.Pool = stm.PoolCache
	}
	space := mem.NewSpace()
	if opts.Sanitize {
		space.EnableSanitizer()
	}
	allocator, err := alloc.New(opts.Allocator, space, opts.Threads)
	if err != nil {
		return nil, err
	}
	s := &System{
		Space:     space,
		Allocator: allocator,
		Threads:   opts.Threads,
		heap:      opts.Heap,
	}
	// Interface-typed hooks, here and below, are set only when present:
	// a typed nil pointer would read as attached.
	hooks := alloc.Hooks{Rec: opts.Obs, Prof: opts.Prof}
	if spec := fault.Join(opts.Fault, opts.Crash); spec != "" {
		if s.Plan, err = fault.Parse(spec, opts.Seed); err != nil {
			return nil, err
		}
		s.Plan.SetObserver(opts.Obs)
		s.Plan.ApplyQuota(space)
		hooks.Inj = s.Plan
	}
	if opts.Pmem || opts.Crash != "" || s.Plan.HasCrash() {
		s.durable = pmem.Attach(space, s.Plan)
		hooks.Journal = s.durable
	}
	alloc.Attach(allocator, hooks)
	s.Cache = cachesim.New(cachesim.DefaultCores)
	engineCfg := vtime.Config{Cache: s.Cache, Obs: opts.Obs, Deadline: opts.Deadline}
	if opts.Prof != nil {
		engineCfg.Prof = opts.Prof
	}
	if s.heap != nil {
		engineCfg.Heap = s.heap
	}
	if opts.Race {
		s.checker = race.New(opts.Threads)
		engineCfg.Race = s.checker
	}
	s.Engine = vtime.NewEngine(space, opts.Threads, engineCfg)
	stmCfg := stm.Config{
		OrtBits:   opts.OrtBits,
		Shift:     opts.Shift,
		Design:    opts.Design,
		Allocator: allocator,
		Pooling:   opts.Pool,
		Obs:       opts.Obs,
		CM:        opts.CM,
		RetryCap:  opts.RetryCap,
		Prof:      opts.Prof,
	}
	if s.durable != nil {
		s.durable.SetStopper(s.Engine)
		stmCfg.Durable = s.durable
	}
	if s.Plan != nil {
		stmCfg.Fault = s.Plan
	}
	s.STM = stm.New(space, stmCfg)
	// Heap telemetry and the conflict observatory take the lock map, and
	// the observatory each thread's label, from the STM itself.
	shift, entries := s.STM.LockMap()
	if s.heap != nil {
		s.heap.Attach(allocator, shift, entries)
		s.heap.SetRecorder(opts.Obs)
		space.Watch(s.heap)
	}
	if s.durable != nil {
		space.Watch(s.durable)
	}
	if s.checker != nil {
		space.Watch(s.checker)
		s.STM.Observe(s.checker)
	}
	if opts.Conflict {
		s.conflict = conflict.New(opts.Threads, shift, s.STM.Kind)
		space.Watch(s.conflict)
		s.STM.Observe(s.conflict)
	}
	if testWatch != nil {
		testWatch(space)
	}
	return s, nil
}

// MustNewSystem is NewSystem panicking on error (examples, tests).
func MustNewSystem(opts Options) *System {
	s, err := NewSystem(opts)
	if err != nil {
		panic(err)
	}
	return s
}

// Run executes fn on every logical thread under virtual-time
// scheduling and returns the per-thread finish clocks.
func (s *System) Run(fn func(th *vtime.Thread)) []uint64 {
	return s.Engine.Run(fn)
}

// Seq runs fn on thread 0 only (a sequential phase).
func (s *System) Seq(fn func(th *vtime.Thread)) {
	s.Engine.Run(func(th *vtime.Thread) {
		if th.ID() == 0 {
			fn(th)
		}
	})
}

// Atomic executes fn transactionally on th with SUICIDE retry.
func (s *System) Atomic(th *vtime.Thread, fn func(tx *stm.Tx)) {
	s.STM.Atomic(th, fn)
}

// Report collects the current statistics.
func (s *System) Report() Report {
	return Report{
		Cycles:  s.Engine.MaxClock(),
		Seconds: vtime.Seconds(s.Engine.MaxClock()),
		Tx:      s.STM.Stats(),
		Alloc:   s.Allocator.Stats(),
		Cache:   s.Cache.TotalStats(),
	}
}

// ResetClocks starts a timed phase in isolation: the durable heap
// persists everything built so far (so a crash can only tear the timed
// phase's state), heap telemetry closes the set-up phase, and the
// engine clocks are zeroed.
func (s *System) ResetClocks() {
	if s.durable != nil && !s.durable.Crashed() {
		// The checkpoint passes crash checkpoints itself, so a crash@
		// point can land inside it; the StopSignal is swallowed as the
		// engine does and Finish recovers.
		func() {
			defer swallowStop()
			s.durable.Checkpoint(vtime.Solo(s.Space, 0, nil))
		}()
	}
	if s.heap != nil {
		s.heap.Phase("run", s.Engine.MaxClock())
	}
	s.Engine.ResetClocks()
}

// EndPhase closes the timed phase: it returns the phase's virtual time
// (the largest thread clock) and ends the heap telemetry series there.
func (s *System) EndPhase() uint64 {
	cycles := s.Engine.MaxClock()
	if s.heap != nil {
		s.heap.Finish(cycles)
	}
	return cycles
}

// Finish folds the run's observer results into its status and failure
// text and returns the info blocks: pool traffic when pooled, the
// durable-memory verdict (recovering first when a crash fired), the
// race checker's verdict (any finding fails an otherwise ok run) and
// the conflict observatory's summary.
func (s *System) Finish(status, failure string) (string, string, obs.Blocks) {
	var b obs.Blocks
	if d := s.STM.Pooling(); d != stm.PoolNone {
		ps := s.STM.PoolStats()
		b.Pool = &obs.PoolInfo{
			Discipline: d.String(),
			Hits:       ps.Hits, Misses: ps.Misses, Returns: ps.Returns,
			Refills: ps.Refills, Slabs: ps.Slabs, SlabBytes: ps.SlabBytes,
			Held: ps.Held,
		}
	}
	if s.durable != nil {
		if s.durable.Crashed() {
			// The machine went down at the injected point: recover on a
			// fresh solo thread and let the invariant sweep's verdict
			// become the run's health.
			info := s.durable.Recover(vtime.Solo(s.Space, 0, nil), s.Allocator)
			b.Recovery = info
			status = info.Verdict
			if info.Verdict != obs.StatusOK {
				failure = fmt.Sprintf("crash recovery %s at cycle %d phase %s (lost=%d resurrected=%d chain_breaks=%d shadow_bad=%d)",
					info.Verdict, info.CrashCycle, info.CrashPhase,
					info.LostWrites, info.Resurrected, info.ChainBreaks, info.ShadowBad)
			}
		} else {
			b.Recovery = s.durable.Info()
		}
	}
	if s.checker != nil {
		b.Race = s.checker.Info()
		if b.Race.Findings > 0 && status == obs.StatusOK {
			status = obs.StatusFailed
			failure = "race: " + b.Race.First
		}
	}
	if s.conflict != nil {
		b.Conflict = s.conflict.Info()
	}
	return status, failure, b
}

// ConflictReport returns the conflict observatory's full graph, blame
// table and exemplar reservoir, or nil when none is attached.
func (s *System) ConflictReport() *conflict.Report {
	if s.conflict == nil {
		return nil
	}
	return s.conflict.Report()
}

// swallowStop absorbs the simulated-crash panic on a solo (engineless)
// thread, mirroring what the engine does for its workers.
func swallowStop() {
	if r := recover(); r != nil {
		if _, ok := r.(vtime.StopSignal); !ok {
			panic(r)
		}
	}
}
