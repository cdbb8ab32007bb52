package alloc

import (
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/prof"
	"repro/internal/vtime"
)

// Model is the algorithm half of an allocator: where blocks go and how
// they come back. Every model runs behind a Front, which owns
// everything the four models used to repeat — the per-thread counters,
// the attached observers and fault injector, and the public
// Malloc/Free shell — so a model implements only this interface and a
// new hook is written once, in the front end.
type Model interface {
	// Name returns the allocator's short name ("glibc", "hoard", ...).
	Name() string
	// Malloc places a block of at least size bytes and returns its
	// address and usable (size-class) bytes, or 0 when memory is
	// exhausted. The front end has already counted the call, charged
	// the AllocOp cost and run the fault gate, and does the success or
	// failure accounting after it returns.
	Malloc(th *vtime.Thread, st *ThreadStats, size uint64) (mem.Addr, uint64)
	// Free releases the block at addr (never 0) and returns its usable
	// bytes, or 0 when the model's metadata checks rejected the free
	// (counted through st.FreeFaulted). The front end has charged the
	// AllocOp cost and counts a released block after it returns.
	Free(th *vtime.Thread, st *ThreadStats, addr mem.Addr) uint64
	// BlockSize returns the usable size of the block at addr.
	BlockSize(th *vtime.Thread, addr mem.Addr) uint64
	// Describe returns the allocator's Table 1 self-description.
	Describe() Description
	// InspectHeap and RecoverHeap are the Allocator methods of the same
	// names; the front end passes both straight through.
	InspectHeap() HeapState
	RecoverHeap(th *vtime.Thread, st *RecoverState) RecoverReport
}

// Injector decides, per allocation, whether to inject a fault.
// internal/fault implements it; the interface lives here (and is
// satisfied structurally) so allocator models never import the fault
// package.
type Injector interface {
	// MallocFault is consulted once at the top of every Malloc. fail
	// forces the call to return 0; delay is extra latency in virtual
	// cycles charged to the thread either way (a malloc latency spike).
	MallocFault(tid int, size uint64) (fail bool, delay uint64)
}

// Hooks are the allocator-side observers and injector one run attaches
// through Attach. A nil field is detached; interface fields must be
// left unset rather than hold a typed nil pointer.
type Hooks struct {
	Rec     *obs.Recorder  // allocator events: alloc/free latency, lock waits, transfers, faults
	Inj     Injector       // malloc fault gate
	Prof    *prof.Profiler // <name>/malloc|free regions and the models' phase regions
	Journal MetaJournal    // structural-metadata records for the durable heap
}

// ThreadStats is one logical thread's counter block plus the attached
// hooks. The front end keeps one per thread and hands it to every model
// call, so the models' locks (CountingMutex), phase regions
// (st.Prof), transfer events (st.Rec) and structural records
// (st.JournalMeta) reach the hooks without model fields of their own.
type ThreadStats struct {
	Stats
	Hooks
}

// FreeFaulted does the accounting for an invalid Free the model's
// metadata checks caught. The model returns without touching any
// free-list state.
func (st *ThreadStats) FreeFaulted(th *vtime.Thread, f FreeFault, addr mem.Addr) {
	if f == DoubleFree {
		st.DoubleFrees++
	} else {
		st.BadFrees++
	}
	if st.Rec != nil {
		st.Rec.Fault(f.String(), th.ID(), th.Clock(), uint64(addr))
	}
}

// JournalMeta appends one structural record when a journal is attached.
func (st *ThreadStats) JournalMeta(th *vtime.Thread, kind string, base mem.Addr, a, b uint64) {
	if st.Journal != nil {
		st.Journal.JournalMeta(th, kind, base, a, b)
	}
}

// injectFault runs the fault gate at the top of a Malloc: it charges
// any injected latency and reports whether the call must fail.
func (st *ThreadStats) injectFault(th *vtime.Thread, size uint64) bool {
	if st.Inj == nil {
		return false
	}
	fail, delay := st.Inj.MallocFault(th.ID(), size)
	if delay > 0 {
		if st.Rec != nil {
			st.Rec.Fault("malloc_latency", th.ID(), th.Clock(), delay)
		}
		th.Tick(delay)
	}
	return fail
}

// MetaBackfiller is implemented by models that build structure before a
// journal can attach (glibc maps its main arena at construction);
// Attach hands them the journal once to record it.
type MetaBackfiller interface {
	BackfillMeta(j MetaJournal)
}

// Front is the one allocator front end. It embeds its Model, so Name,
// BlockSize, Describe, InspectHeap and RecoverHeap are the model's own;
// Malloc, Free and Stats are the front end's.
type Front struct {
	Model
	space *mem.Space
	name  string
	// mallocRegion and freeRegion are "<name>/malloc" and "<name>/free",
	// built once when a profiler attaches: no per-call strings, and none
	// at all for an unprofiled world.
	mallocRegion, freeRegion string
	stats                    []ThreadStats
}

// NewFront puts model m, built over space for up to threads logical
// threads, behind a front end. alloc.New does this for every registered
// model.
func NewFront(m Model, space *mem.Space, threads int) *Front {
	return &Front{Model: m, space: space, name: m.Name(), stats: make([]ThreadStats, threads)}
}

// Attach is the one entry point for allocator-side hooks: it replaces
// every hook on a's front end with h and reports whether a has a front
// end (wrappers such as a timing decorator do not). Call it once, before
// a serves any thread.
func Attach(a Allocator, h Hooks) bool {
	f, ok := a.(*Front)
	if !ok {
		return false
	}
	for i := range f.stats {
		f.stats[i].Hooks = h
	}
	if h.Prof != nil {
		f.mallocRegion, f.freeRegion = f.name+"/malloc", f.name+"/free"
	}
	if b, ok := f.Model.(MetaBackfiller); ok && h.Journal != nil {
		b.BackfillMeta(h.Journal)
	}
	return true
}

// Malloc implements Allocator: the <name>/malloc region around the
// whole call, the call counters, the AllocOp cost and the fault gate,
// then the model's placement, then the success or failure accounting,
// the alloc event and the block watchers (with the usable size the
// model reported, so observing costs no virtual time).
func (f *Front) Malloc(th *vtime.Thread, size uint64) mem.Addr {
	st := &f.stats[th.ID()]
	if p := st.Prof; p != nil {
		p.Begin(th, f.mallocRegion)
		defer p.End(th)
	}
	start := th.Clock()
	st.Mallocs++
	st.BytesRequested += size
	th.Tick(th.Cost().AllocOp)
	var a mem.Addr
	var usable uint64
	if !st.injectFault(th, size) {
		a, usable = f.Model.Malloc(th, st, size)
	}
	if a == 0 {
		st.FailedMallocs++
		if st.Rec != nil {
			st.Rec.Fault("oom", th.ID(), th.Clock(), size)
		}
	} else {
		st.BytesAllocated += usable
		st.LiveBytes += int64(usable)
	}
	if st.Rec != nil {
		st.Rec.Alloc(f.name, th.ID(), start, th.Clock(), size, uint64(a))
	}
	if a != 0 && f.space.Observed() {
		f.space.NoteAlloc(f.name, a, size, usable, th.ID(), th.Clock())
	}
	return a
}

// Free implements Allocator: free(NULL) is a no-op; otherwise the
// <name>/free region, the block watchers (notified before the model
// validates the pointer), the AllocOp cost, the model's release, its
// accounting and the free event.
func (f *Front) Free(th *vtime.Thread, addr mem.Addr) {
	if addr == 0 {
		return
	}
	st := &f.stats[th.ID()]
	if p := st.Prof; p != nil {
		p.Begin(th, f.freeRegion)
		defer p.End(th)
	}
	if f.space.Observed() {
		f.space.NoteFree(addr, th.ID(), th.Clock())
	}
	start := th.Clock()
	th.Tick(th.Cost().AllocOp)
	if usable := f.Model.Free(th, st, addr); usable != 0 {
		st.Frees++
		st.LiveBytes -= int64(usable)
	}
	if st.Rec != nil {
		st.Rec.Free(f.name, th.ID(), start, th.Clock(), uint64(addr))
	}
}

// Stats implements Allocator.
func (f *Front) Stats() Stats {
	var out Stats
	for i := range f.stats {
		out.Add(f.stats[i].Stats)
	}
	return out
}
