// Package vtime is a deterministic virtual-time execution engine for
// simulating a small multicore machine on any host.
//
// Logical threads run as goroutines, but the engine's scheduler admits
// exactly one at a time — always the thread with the smallest virtual
// clock — for a bounded quantum of cycles. Every simulated memory
// access a thread performs advances its clock by the latency the cache
// model assigns (L1/L2/memory/coherence), locks are acquired by spinning
// in virtual time, and "execution time" of a parallel region is the
// largest clock when the last thread finishes.
//
// Because at most one thread executes at any real instant and the
// scheduling order is a pure function of the virtual clocks, runs are
// deterministic and free of data races by construction, while the
// *virtual* interleaving is as dense as on a real multicore: two
// transactions whose virtual intervals overlap conflict exactly as they
// would on separate cores.
package vtime

import (
	"fmt"
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

// killDeadline is the poison resume value the scheduler sends to wind a
// thread down when the engine's virtual-time deadline passes: the next
// scheduling point inside the thread converts it into a deadlineSignal
// panic, unwound and captured by the thread wrapper.
const killDeadline = ^uint64(0)

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
// and one cache hierarchy.
type Engine struct {
	Space   *mem.Space
	Cache   *cachesim.Hierarchy // may be nil: flat memory costs
	Quantum uint64
	Obs     *obs.Recorder // scheduler-quantum tracing; nil disables
	Prof    Profiler      // cycle attribution; nil disables
	Heap    HeapSampler   // heap-state telemetry; nil disables
	Race    RaceObserver  // happens-before checking; nil disables
	// Deadline, when non-zero, is the engine watchdog: a Run whose
	// least-advanced thread passes this virtual-cycle bound is wound
	// down (every thread is unwound at its next scheduling point) and
	// Run returns normally with DeadlineExceeded reporting true. It
	// turns livelocks and runaway workloads into a diagnosable,
	// artifact-producing outcome instead of a host-side hang.
	Deadline uint64

	threads     []*Thread
	rng         uint64 // deterministic deadline jitter state
	deadlineHit bool
	stopped     bool
}

// Config carries optional Engine settings.
type Config struct {
	Cache    *cachesim.Hierarchy
	Quantum  uint64
	Obs      *obs.Recorder
	Prof     Profiler     // cycle attribution; nil disables
	Heap     HeapSampler  // heap-state telemetry; nil disables
	Race     RaceObserver // happens-before checking; nil disables
	Deadline uint64       // virtual-cycle watchdog bound; 0 disables
}

// NewEngine builds an engine over space for n logical threads.
func NewEngine(space *mem.Space, n int, cfg Config) *Engine {
	e := &Engine{
		rng:      0x9e3779b97f4a7c15,
		Space:    space,
		Cache:    cfg.Cache,
		Quantum:  cfg.Quantum,
		Obs:      cfg.Obs,
		Prof:     cfg.Prof,
		Heap:     cfg.Heap,
		Race:     cfg.Race,
		Deadline: cfg.Deadline,
	}
	if e.Quantum == 0 {
		e.Quantum = DefaultQuantum
	}
	cost := DefaultCost
	e.threads = make([]*Thread, n)
	for i := range e.threads {
		e.threads[i] = &Thread{
			id:     i,
			engine: e,
			space:  space,
			cache:  e.Cache,
			cost:   &cost,
			prof:   cfg.Prof,
			race:   cfg.Race,
			resume: make(chan uint64),
			pause:  make(chan threadEvent),
		}
	}
	return e
}

// Threads returns the engine's threads (index == thread id).
func (e *Engine) Threads() []*Thread { return e.threads }

type threadEvent struct {
	done  bool
	panic any
}

// Run executes fn(thread) on every thread under virtual-time scheduling
// and returns the per-thread finish clocks. It panics (after all
// threads stop) with the first panic raised inside a thread.
//
// The threads' clocks persist across Run calls, so consecutive parallel
// regions accumulate time; use ResetClocks between independent
// experiments.
func (e *Engine) Run(fn func(t *Thread)) []uint64 {
	n := len(e.threads)
	e.deadlineHit = false
	if e.Race != nil {
		// Every thread is quiesced here: whatever ran before this
		// region (setup writes, a previous region) is ordered before
		// everything inside it.
		e.Race.Barrier(e.minClock())
	}
	for _, t := range e.threads {
		t.done = false
		go func(t *Thread) {
			defer func() {
				ev := threadEvent{done: true}
				if r := recover(); r != nil {
					ev.panic = r
					if !isEngineSignal(r) {
						// The panic value is re-raised from Run's caller
						// context, which loses this goroutine's stack;
						// surface it here for debuggability.
						fmt.Fprintf(os.Stderr, "vtime: thread %d panicked: %v\n%s\n", t.id, r, debug.Stack())
					}
				}
				t.pause <- ev
			}()
			t.deadline = <-t.resume
			if t.deadline == killDeadline {
				panic(deadlineSignal{})
			}
			fn(t)
		}(t)
	}

	var firstPanic any
	running := n
	for running > 0 {
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
		// Heap-telemetry cadence: cur.clock is the global min runnable
		// clock, monotone within this Run, so sampling here is a pure
		// function of virtual time — independent of host scheduling and of
		// the sweep pool width. The sampler must not touch e.rng, tick
		// clocks, or access simulated memory.
		if e.Heap != nil {
			e.Heap.Sample(cur.clock)
		}
		// Engine watchdog (the least-advanced runnable thread is past
		// the deadline, so every thread is) or a requested stop (a crash
		// point fired): wind the region down. Each remaining thread is
		// resumed with the poison deadline and unwinds at its next
		// scheduling point.
		if e.stopped || (e.Deadline != 0 && cur.clock > e.Deadline) {
			if !e.stopped {
				e.deadlineHit = true
				if e.Obs != nil {
					e.Obs.Watchdog("deadline", cur.id, cur.clock)
				}
			}
			for running > 0 {
				var victim *Thread
				for _, t := range e.threads {
					if !t.done {
						victim = t
						break
					}
				}
				victim.resume <- killDeadline
				ev := <-victim.pause
				victim.done = true
				running--
				if ev.panic != nil && firstPanic == nil && !isEngineSignal(ev.panic) {
					firstPanic = ev.panic
				}
			}
			break
		}
		// Deadline: second-smallest clock plus a quantum.
		deadline := uint64(farFuture)
		for _, t := range e.threads {
			if t == cur || t.done {
				continue
			}
			if t.clock+e.Quantum < deadline {
				deadline = t.clock + e.Quantum
			}
		}
		if deadline == farFuture {
			deadline = cur.clock + 1<<32 // lone thread: rare check-ins
		} else {
			// Deterministic jitter breaks resonance between the quantum
			// and periodic workloads (which would otherwise always yield
			// at the same instruction).
			e.rng = e.rng*6364136223846793005 + 1442695040888963407
			deadline += (e.rng >> 33) % (e.Quantum/2 + 1)
		}
		sliceStart := cur.clock
		cur.resume <- deadline
		ev := <-cur.pause
		if e.Obs != nil && cur.clock > sliceStart {
			e.Obs.Quantum(cur.id, sliceStart, cur.clock)
		}
		if ev.done {
			cur.done = true
			running--
			if ev.panic != nil && firstPanic == nil && !isEngineSignal(ev.panic) {
				firstPanic = ev.panic
			}
		}
	}
	if firstPanic != nil {
		panic(firstPanic)
	}
	if e.Race != nil {
		// All threads finished: the region is ordered before whatever
		// follows (harvest and validation reads).
		e.Race.Barrier(e.MaxClock())
	}
	out := make([]uint64, n)
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
// engine watchdog (Deadline passed before every thread finished).
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

	resume chan uint64
	pause  chan threadEvent
	done   bool
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
		t.pause <- threadEvent{}
		t.deadline = <-t.resume
		if t.deadline == killDeadline {
			panic(deadlineSignal{})
		}
	}
}

// Yield forces a scheduling point without advancing time.
func (t *Thread) Yield() {
	if t.engine != nil && t.clock >= t.deadline {
		t.pause <- threadEvent{}
		t.deadline = <-t.resume
		if t.deadline == killDeadline {
			panic(deadlineSignal{})
		}
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
