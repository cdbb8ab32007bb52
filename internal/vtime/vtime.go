//go:build go1.23

// Package vtime is a deterministic virtual-time execution engine for
// simulating a small multicore machine on any host.
//
// Logical threads run as coroutines (iter.Pull) on the goroutine that
// called Run, and the engine's scheduler resumes exactly one at a time —
// always the thread with the smallest virtual clock — for a bounded
// quantum of cycles. Every simulated memory
// access a thread performs advances its clock by the latency the cache
// model assigns (L1/L2/memory/coherence), locks are acquired by spinning
// in virtual time, and "execution time" of a parallel region is the
// largest clock when the last thread finishes.
//
// Because one goroutine at a time executes a world and the scheduling
// order is a pure function of the virtual clocks, runs are
// deterministic and free of data races by construction, while the
// *virtual* interleaving is as dense as on a real multicore: two
// transactions whose virtual intervals overlap conflict exactly as they
// would on separate cores.
package vtime

import (
	"fmt"
	"iter"
	"os"
	"runtime/debug"

	"repro/internal/cachesim"
	"repro/internal/mem"
	"repro/internal/obs"
)

// DefaultQuantum bounds how far (in cycles) a running thread may
// advance past the second-least-advanced thread before yielding. It is
// the engine's interleaving granularity. Prime, and combined with a
// deterministic jitter, so that periodic workloads cannot phase-lock
// their scheduling points to one program position.
const DefaultQuantum = 199

const farFuture = ^uint64(0) >> 1

// deadlineSignal unwinds a thread killed by the engine watchdog. It is
// recognized (and swallowed) by Run; user code never sees it unless it
// recovers indiscriminately.
type deadlineSignal struct{}

func (deadlineSignal) String() string { return "vtime: virtual-time deadline exceeded" }

// StopSignal unwinds the thread that requested an engine stop (a
// simulated crash: Engine.Stop was called at a fault-plan crash point).
// Like deadlineSignal it is swallowed by Run, but it is exported so
// intermediate recover blocks (the STM's transaction wrapper) can
// recognize it and re-raise immediately: a crash halts execution
// mid-flight, so no rollback or cleanup work may run — that is the
// point of crash injection.
type StopSignal struct{}

func (StopSignal) String() string { return "vtime: engine stopped (simulated crash)" }

// Profiler receives the engine's cycle-attribution callbacks. It is
// implemented by *prof.Profiler; the engine sees only this narrow
// interface so the profiler package can build on vtime without an
// import cycle. Callbacks never advance virtual time — a profiled run
// is cycle-identical to an unprofiled one.
type Profiler interface {
	// Stall attributes one priced memory access: cost cycles satisfied
	// at the given hierarchy level plus inval coherence-invalidation
	// cycles, with now the thread clock after the access was charged.
	Stall(tid int, level cachesim.Level, cost, inval, now uint64)
	// SyncClock flushes attribution up to now (a parallel region ended).
	SyncClock(tid int, now uint64)
	// ResetClock flushes attribution up to now and rebases the thread
	// at clock zero (ResetClocks between experiment phases).
	ResetClock(tid int, now uint64)
}

// HeapSampler receives the engine's heap-telemetry callback. It is
// implemented by *heapscope.Collector; the engine sees only this narrow
// interface so heapscope can build on vtime without an import cycle.
// Sample is called from the scheduler loop — never from a simulated
// thread — and must be a pure observer: no virtual-time ticks, no
// simulated memory traffic, so a sampled run is cycle-identical to an
// unsampled one.
type HeapSampler interface {
	// Sample offers the current scheduling instant: now is the clock of
	// the min-clock runnable thread, which is monotone non-decreasing
	// within one Run, making it a deterministic sampling axis.
	Sample(now uint64)
}

// RaceObserver receives the engine's raw-access and quiesce-point
// callbacks. It is implemented by *race.Checker; the engine sees only
// this narrow interface so the race package can build on vtime without
// an import cycle. Callbacks never advance virtual time — a checked
// run is cycle-identical to an unchecked one.
type RaceObserver interface {
	// OnAccess reports one priced word access by a simulated thread
	// (write=false for Load, true for Store/CAS), with the thread
	// clock after the access was charged.
	OnAccess(tid int, a mem.Addr, write bool, clock uint64)
	// Barrier reports a full quiesce point: Run raises it once before
	// any thread starts and once after every thread has finished, so
	// the observer can order the phases around a parallel region.
	Barrier(clock uint64)
	// SyncRelease and SyncAcquire report ordering through an in-region
	// synchronization object (a *Barrier): an acquire is ordered after
	// every earlier release on the same object. Barrier.Wait releases
	// on arrival and acquires on departure, giving the all-to-all join
	// a phase barrier actually provides.
	SyncRelease(tid int, obj any)
	SyncAcquire(tid int, obj any)
}

// Engine coordinates a set of logical threads over one address space
// and one cache hierarchy. It is configured only through Config.
type Engine struct {
	quantum  uint64
	obs      *obs.Recorder
	heap     HeapSampler
	race     RaceObserver
	deadline uint64

	threads     []*Thread
	rng         uint64 // deterministic deadline jitter state
	deadlineHit bool
	stopped     bool
}

// Config carries optional Engine settings.
type Config struct {
	Cache   *cachesim.Hierarchy // may be nil: flat memory costs
	Quantum uint64              // 0 selects DefaultQuantum
	Obs     *obs.Recorder       // scheduler-quantum tracing; nil disables
	Prof    Profiler            // cycle attribution; nil disables
	Heap    HeapSampler         // heap-state telemetry; nil disables
	Race    RaceObserver        // happens-before checking; nil disables
	// Deadline, when non-zero, is the engine watchdog: a Run whose
	// least-advanced thread passes this virtual-cycle bound is wound
	// down (every thread is unwound at its next scheduling point) and
	// Run returns normally with DeadlineExceeded reporting true. It
	// turns livelocks and runaway workloads into a diagnosable,
	// artifact-producing outcome instead of a host-side hang.
	Deadline uint64
}

// NewEngine builds an engine over space for n logical threads.
func NewEngine(space *mem.Space, n int, cfg Config) *Engine {
	e := &Engine{
		rng:      0x9e3779b97f4a7c15,
		quantum:  cfg.Quantum,
		obs:      cfg.Obs,
		heap:     cfg.Heap,
		race:     cfg.Race,
		deadline: cfg.Deadline,
	}
	if e.quantum == 0 {
		e.quantum = DefaultQuantum
	}
	cost := DefaultCost
	e.threads = make([]*Thread, n)
	for i := range e.threads {
		e.threads[i] = &Thread{
			id:     i,
			engine: e,
			space:  space,
			cache:  cfg.Cache,
			cost:   &cost,
			prof:   cfg.Prof,
			race:   cfg.Race,
		}
	}
	return e
}

// Run executes fn(thread) on every thread under virtual-time scheduling
// and returns the per-thread finish clocks. It panics (after all
// threads stop) with the first panic raised inside a thread.
//
// The threads' clocks persist across Run calls, so consecutive parallel
// regions accumulate time; use ResetClocks between independent
// experiments.
func (e *Engine) Run(fn func(t *Thread)) []uint64 {
	e.deadlineHit = false
	if e.race != nil {
		// Every thread is quiesced here: whatever ran before this
		// region (setup writes, a previous region) is ordered before
		// everything inside it.
		e.race.Barrier(e.minClock())
	}
	var firstPanic any
	for _, t := range e.threads {
		t.done = false
		t.next, t.stop = iter.Pull(func(yield func(struct{}) bool) {
			t.yield = yield
			// Recover here, not in the scheduler: iter.Pull would
			// re-raise the panic from next or stop.
			defer func() {
				if r := recover(); r != nil && !isEngineSignal(r) {
					// The panic value is re-raised from Run's caller
					// context, which loses this thread's stack; surface
					// it here for debuggability.
					fmt.Fprintf(os.Stderr, "vtime: thread %d panicked: %v\n%s\n", t.id, r, debug.Stack())
					if firstPanic == nil {
						firstPanic = r
					}
				}
			}()
			fn(t)
		})
	}

	for {
		// Pick the min-clock runnable thread; ties break by id for
		// determinism.
		var cur *Thread
		for _, t := range e.threads {
			if t.done {
				continue
			}
			if cur == nil || t.clock < cur.clock {
				cur = t
			}
		}
		if cur == nil {
			break
		}
		// Heap-telemetry cadence: cur.clock is the global min runnable
		// clock, monotone within this Run, so sampling here is a pure
		// function of virtual time — independent of host scheduling and of
		// the sweep pool width. The sampler must not touch e.rng, tick
		// clocks, or access simulated memory.
		if e.heap != nil {
			e.heap.Sample(cur.clock)
		}
		// Engine watchdog (the least-advanced runnable thread is past
		// the deadline, so every thread is) or a requested stop (a crash
		// point fired): wind the region down. Each remaining thread is
		// stopped in thread order and unwinds from its scheduling point;
		// one that never ran does not start, and stopping a finished
		// one does nothing.
		if e.stopped || (e.deadline != 0 && cur.clock > e.deadline) {
			if !e.stopped {
				e.deadlineHit = true
				if e.obs != nil {
					e.obs.Watchdog("deadline", cur.id, cur.clock)
				}
			}
			for _, t := range e.threads {
				t.stop()
			}
			break
		}
		// Deadline: second-smallest clock plus a quantum.
		deadline := uint64(farFuture)
		for _, t := range e.threads {
			if t == cur || t.done {
				continue
			}
			if t.clock+e.quantum < deadline {
				deadline = t.clock + e.quantum
			}
		}
		if deadline == farFuture {
			deadline = cur.clock + 1<<32 // lone thread: rare check-ins
		} else {
			// Deterministic jitter breaks resonance between the quantum
			// and periodic workloads (which would otherwise always yield
			// at the same instruction).
			e.rng = e.rng*6364136223846793005 + 1442695040888963407
			deadline += (e.rng >> 33) % (e.quantum/2 + 1)
		}
		sliceStart := cur.clock
		cur.deadline = deadline
		_, running := cur.next()
		if e.obs != nil && cur.clock > sliceStart {
			e.obs.Quantum(cur.id, sliceStart, cur.clock)
		}
		cur.done = !running
	}
	if firstPanic != nil {
		panic(firstPanic)
	}
	if e.race != nil {
		// All threads finished: the region is ordered before whatever
		// follows (harvest and validation reads).
		e.race.Barrier(e.MaxClock())
	}
	out := make([]uint64, len(e.threads))
	for i, t := range e.threads {
		if t.prof != nil {
			// Flush trailing compute cycles so the profile partitions the
			// region's clocks exactly.
			t.prof.SyncClock(t.id, t.clock)
		}
		out[i] = t.clock
	}
	return out
}

// DeadlineExceeded reports whether the last Run was wound down by the
// engine watchdog (Config.Deadline passed before every thread finished).
func (e *Engine) DeadlineExceeded() bool { return e.deadlineHit }

// isEngineSignal reports whether a recovered panic value is one of the
// engine's own unwind signals (watchdog deadline or requested stop),
// which Run swallows rather than re-raising.
func isEngineSignal(r any) bool {
	switch r.(type) {
	case deadlineSignal, StopSignal:
		return true
	}
	return false
}

// Stop requests that the engine halt: the current Run (or the next one)
// winds every thread down at its next scheduling point and returns
// normally, and Stopped reports true from then on. It models a machine
// crash — call it from a simulated thread and then panic(StopSignal{})
// to stop that thread dead in its tracks. The flag is sticky: a stopped
// engine never runs another region, so a crashed workload cannot
// accidentally resume.
func (e *Engine) Stop() { e.stopped = true }

// Stopped reports whether Stop was called (the simulation crashed).
func (e *Engine) Stopped() bool { return e.stopped }

// minClock returns the smallest thread clock.
func (e *Engine) minClock() uint64 {
	m := uint64(farFuture)
	for _, t := range e.threads {
		if t.clock < m {
			m = t.clock
		}
	}
	return m
}

// MaxClock returns the largest thread clock — the parallel region's
// virtual execution time.
func (e *Engine) MaxClock() uint64 {
	var m uint64
	for _, t := range e.threads {
		if t.clock > m {
			m = t.clock
		}
	}
	return m
}

// ResetClocks zeroes all thread clocks (between experiments).
func (e *Engine) ResetClocks() {
	for _, t := range e.threads {
		if t.prof != nil {
			t.prof.ResetClock(t.id, t.clock)
		}
		t.clock = 0
	}
}

// Thread is one logical thread of the simulated machine. All simulated
// memory accesses and waits must go through its methods so that virtual
// time advances; code running on a Thread must not block on host
// synchronization (the engine runs one thread at a time).
type Thread struct {
	id     int
	engine *Engine // nil for a solo thread
	space  *mem.Space
	cache  *cachesim.Hierarchy
	cost   *CostModel
	prof   Profiler     // nil disables cycle attribution
	race   RaceObserver // nil disables happens-before checking

	clock    uint64
	deadline uint64

	// The thread's coroutine during Run: the scheduler resumes it with
	// next and winds it down with stop; the thread parks with yield.
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool
	done  bool
}

// Solo returns a detached thread with the given id: it accumulates
// virtual time but never yields. Use it for single-threaded phases and
// unit tests.
func Solo(space *mem.Space, id int, cache *cachesim.Hierarchy) *Thread {
	c := DefaultCost
	return &Thread{id: id, space: space, cache: cache, cost: &c, deadline: farFuture}
}

// ID returns the thread id (its core number).
func (t *Thread) ID() int { return t.id }

// Clock returns the thread's virtual clock in cycles.
func (t *Thread) Clock() uint64 { return t.clock }

// Space returns the underlying address space.
func (t *Thread) Space() *mem.Space { return t.space }

// Tick advances the thread's virtual clock, yielding to the scheduler
// if the quantum deadline passed.
func (t *Thread) Tick(cycles uint64) {
	t.clock += cycles
	if t.clock >= t.deadline && t.engine != nil {
		t.park()
	}
}

// Yield forces a scheduling point without advancing time.
func (t *Thread) Yield() {
	if t.engine != nil && t.clock >= t.deadline {
		t.park()
	}
}

// park yields to the scheduler, which resumes the thread with a new
// deadline set. If the scheduler stops the thread instead (a region
// wind-down), park unwinds it with deadlineSignal, first lifting the
// deadline so that the unwind's own ticks (an STM rollback, deferred
// cleanup) run to their end instead of parking again. It stays out of
// line so that Tick and Yield, which run on every priced access, inline.
//
//go:noinline
func (t *Thread) park() {
	if !t.yield(struct{}{}) {
		t.deadline = ^uint64(0)
		panic(deadlineSignal{})
	}
}

// access classifies and prices one memory access.
func (t *Thread) access(a mem.Addr, write bool) {
	var c, inval uint64
	lvl := cachesim.L1Hit
	if t.cache != nil {
		res := t.cache.Access(t.id, a, write)
		lvl = res.Level
		c = t.cost.accessCost(res.Level, write)
		if res.Invalidated {
			// Ownership upgrade: the write had to invalidate sharers.
			inval = t.cost.Inval
		}
	} else {
		c = t.cost.L1Hit
	}
	t.Tick(c + inval)
	if t.prof != nil {
		t.prof.Stall(t.id, lvl, c, inval, t.clock)
	}
}

// Load reads the word at a, charging its latency.
func (t *Thread) Load(a mem.Addr) uint64 {
	t.access(a, false)
	if t.race != nil {
		t.race.OnAccess(t.id, a, false, t.clock)
	}
	return t.space.Load(a)
}

// LoadRelaxed reads the word at a, charging exactly Load's latency,
// but declares the read racy: the caller tolerates a stale value and
// revalidates transactionally before acting on it, so the race checker
// does not treat it as a privatization hazard. The runtime analogue of
// a //tmvet:allow annotation — labyrinth's grid-snapshot copy is the
// canonical user (STAMP's documented benign race). Use Load everywhere
// a stale read would be acted on unvalidated.
func (t *Thread) LoadRelaxed(a mem.Addr) uint64 {
	t.access(a, false)
	return t.space.Load(a)
}

// Store writes the word at a, charging its latency.
func (t *Thread) Store(a mem.Addr, v uint64) {
	t.access(a, true)
	if t.race != nil {
		t.race.OnAccess(t.id, a, true, t.clock)
	}
	t.space.Store(a, v)
}

// CAS performs a compare-and-swap at a, charging a locked-RMW latency.
func (t *Thread) CAS(a mem.Addr, old, new uint64) bool {
	t.access(a, true)
	t.Tick(t.cost.LockOp)
	if t.race != nil {
		t.race.OnAccess(t.id, a, true, t.clock)
	}
	return t.space.CompareAndSwap(a, old, new)
}

// Work charges n abstract compute units.
func (t *Thread) Work(n uint64) { t.Tick(n * t.cost.Work) }

// Cost exposes the engine's cost model.
func (t *Thread) Cost() *CostModel { return t.cost }

// String implements fmt.Stringer for diagnostics.
func (t *Thread) String() string {
	return fmt.Sprintf("thread %d @ %d cycles", t.id, t.clock)
}
