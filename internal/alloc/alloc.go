// Package alloc defines the dynamic memory allocator interface over the
// simulated address space, the front end every allocator model runs
// behind (front.go), and shared building blocks (size classes,
// intrusive free lists, contention-counting locks).
//
// Four allocator models live in subpackages — glibc (ptmalloc), hoard,
// tbb (TBBMalloc) and tcmalloc — each reproducing the placement and
// synchronization behaviour its original is known for, which is what the
// paper's study couples to the STM's lock-mapping function. A model
// supplies only that algorithm (the Model interface); the front end owns
// the per-thread statistics, the attached observers and fault injector,
// and the public Malloc/Free around the model's placement and release.
//
// All allocator entry points take a *vtime.Thread: the calling logical
// thread. Every word the allocator touches (boundary tags, free-list
// links) is priced through the thread's cache model, and every lock is a
// virtual-time lock, so allocator code-path length and contention show
// up in the experiment clocks exactly as the paper measured them.
package alloc

import (
	"fmt"
	"sort"

	"repro/internal/mem"
	"repro/internal/vtime"
)

// Allocator is the malloc/free interface every allocator model
// implements. The thread handle identifies the logical thread (its ID
// keys per-thread arenas/heaps/caches, as the C originals key theirs by
// OS thread) and is charged the virtual-time cost of the operation.
type Allocator interface {
	// Name returns the allocator's short name ("glibc", "hoard", ...).
	Name() string
	// Malloc returns the simulated address of a block of at least size
	// bytes, or 0 when memory is exhausted (address-space quota hit or a
	// fault injector forced the failure) — the simulated malloc(3)
	// returning NULL. Size zero is allowed and returns a minimum-size
	// block, mirroring malloc(0).
	Malloc(th *vtime.Thread, size uint64) mem.Addr
	// Free releases the block at addr, which must have been returned by
	// Malloc on this allocator. An invalid addr (double free, pointer the
	// allocator never handed out) is detected via the model's metadata,
	// counted in Stats, and otherwise ignored — the free-list state is
	// never corrupted by bad input.
	Free(th *vtime.Thread, addr mem.Addr)
	// BlockSize returns the usable size of the block at addr (the size
	// class it was served from).
	BlockSize(th *vtime.Thread, addr mem.Addr) uint64
	// Stats returns aggregate counters across all threads.
	Stats() Stats
	// Describe returns the allocator's Table 1 self-description.
	Describe() Description
	// InspectHeap reports the allocator's internal state; the heapscope
	// collector snapshots through it on its virtual-cycle cadence.
	InspectHeap() HeapState
	// RecoverHeap verifies and repairs the allocator's durable metadata
	// after a crash. It relies only on st and compile-time layout
	// constants — never on the instance's host-side maps, which did not
	// survive the crash — and prices its scan/repair traffic on th.
	RecoverHeap(th *vtime.Thread, st *RecoverState) RecoverReport
}

// Factory constructs an allocator model over a space for a maximum
// number of logical threads.
type Factory func(space *mem.Space, threads int) Model

// Description mirrors one row of the paper's Table 1.
type Description struct {
	Name        string
	Metadata    string // where block metadata lives
	MinSize     uint64 // minimum allocated block, bytes
	FastPath    string // block sizes with a synchronization-free fast path
	Granularity string // chunk size acquired from the global store / OS
	Sync        string // synchronization strategy summary
}

// Stats aggregates allocator activity. All counters are totals since
// construction.
type Stats struct {
	Mallocs        uint64
	Frees          uint64
	BytesRequested uint64 // sum of requested sizes
	BytesAllocated uint64 // sum of block (size-class) sizes handed out
	LockAcquires   uint64 // lock acquisitions on any allocator lock
	LockContended  uint64 // acquisitions that found the lock held
	RemoteFrees    uint64 // frees routed to another thread's heap/superblock
	SlowRefills    uint64 // fast-path misses that went to a shared store
	OSMaps         uint64 // regions requested from the simulated OS
	LiveBytes      int64  // block bytes currently allocated (gauge)
	FailedMallocs  uint64 // Mallocs that returned 0 (OOM or injected fault)
	DoubleFrees    uint64 // frees of a block already free
	BadFrees       uint64 // frees of a pointer the allocator never issued
}

// Add accumulates other into s.
func (s *Stats) Add(o Stats) {
	s.Mallocs += o.Mallocs
	s.Frees += o.Frees
	s.BytesRequested += o.BytesRequested
	s.BytesAllocated += o.BytesAllocated
	s.LockAcquires += o.LockAcquires
	s.LockContended += o.LockContended
	s.RemoteFrees += o.RemoteFrees
	s.SlowRefills += o.SlowRefills
	s.OSMaps += o.OSMaps
	s.LiveBytes += o.LiveBytes
	s.FailedMallocs += o.FailedMallocs
	s.DoubleFrees += o.DoubleFrees
	s.BadFrees += o.BadFrees
}

// FreeFault classifies an invalid Free caught by an allocator's
// metadata checks (boundary tags, span/superblock lookup).
type FreeFault int

const (
	// DoubleFree: the block's metadata says it is already free.
	DoubleFree FreeFault = iota
	// BadPointer: the address maps to no block this allocator issued.
	BadPointer
)

// String returns the fault's event label.
func (f FreeFault) String() string {
	if f == DoubleFree {
		return "double_free"
	}
	return "bad_free"
}

// HeapClass is one size-class row of a HeapState snapshot.
type HeapClass struct {
	Size   uint64 // block bytes served by this class
	Free   uint64 // blocks idle on shared structures (central/global lists, arena bins, superblock free lists)
	Cached uint64 // blocks idle in synchronization-free thread-local caches
}

// HeapState is a point-in-time view of an allocator's internal
// structure, produced by InspectHeap. Everything is derived from the
// allocator's own Go-side metadata — no simulated memory is touched and
// no virtual time is charged, so inspection is invisible to the run.
// Implementations must produce deterministic field values and Classes
// ordering (class-table index order, or sorted sizes for dynamic bins).
type HeapState struct {
	// Reserved is the allocator's own footprint: bytes it has mapped from
	// the space for heap use (arenas, superblocks, spans, big-object
	// mmaps). It deliberately excludes non-heap regions (the STM's ORT,
	// application statics), so blowup = Reserved / live bytes measures the
	// allocator, not the harness.
	Reserved uint64
	Classes  []HeapClass

	CacheBytes   uint64 // bytes idle in thread-local caches (Σ Cached·Size)
	CentralBytes uint64 // bytes idle on shared lists (Σ Free·Size)

	Superblocks      uint64 // superblocks/spans currently carved (0 if the model has none)
	EmptySuperblocks uint64 // fully empty, unassigned or spare
	SBUsedBlocks     uint64 // in-use blocks across class-assigned superblocks
	SBCapacity       uint64 // block capacity across class-assigned superblocks
	Migrations       uint64 // cumulative emptiness-threshold ownership migrations
	Arenas           uint64 // glibc arena count (0 for other models)

	// Static geometry, stable for the allocator's lifetime; tmlayout
	// -heap-geometry emits these without running a workload.
	SuperblockBytes uint64 // superblock/span/chunk granularity, bytes
	MinBlock        uint64 // smallest block handed out
	MaxBlock        uint64 // largest class-served request (larger goes to mmap)
}

// FreeBlocks returns the total idle blocks across classes (shared +
// cached).
func (h *HeapState) FreeBlocks() uint64 {
	var n uint64
	for _, c := range h.Classes {
		n += c.Free + c.Cached
	}
	return n
}

// CountingMutex is a virtual-time mutex that records acquisitions and
// contention into a ThreadStats block chosen per call. All allocator
// locks use it so that the lock-contention effects the paper profiles
// (Hoard on Intruder, Glibc arenas on Yada) are observable.
type CountingMutex struct {
	l vtime.Lock
}

// Lock acquires the mutex, counting the acquisition and whether it was
// contended into st (which may be nil). Contended waits are reported to
// st.Rec with their virtual-cycle duration.
func (m *CountingMutex) Lock(th *vtime.Thread, st *ThreadStats) {
	if m.l.TryLock(th) {
		if st != nil {
			st.LockAcquires++
		}
		return
	}
	if st != nil {
		st.LockAcquires++
		st.LockContended++
		if st.Rec != nil {
			start := th.Clock()
			m.l.Lock(th)
			st.Rec.LockWait(th.ID(), start, th.Clock())
			return
		}
	}
	m.l.Lock(th)
}

// TryLock attempts the lock without waiting, counting the acquisition
// on success.
func (m *CountingMutex) TryLock(th *vtime.Thread, st *ThreadStats) bool {
	if m.l.TryLock(th) {
		if st != nil {
			st.LockAcquires++
		}
		return true
	}
	return false
}

// Unlock releases the mutex.
func (m *CountingMutex) Unlock(th *vtime.Thread) { m.l.Unlock(th) }

// FreeList is an intrusive LIFO free list whose links live in the first
// word of each free block in simulated memory, as in the C allocators —
// so walking it has the cache behaviour of the real thing. Callers hold
// the owning lock or own the list.
type FreeList struct {
	head mem.Addr
	n    int
}

// Push prepends block a.
func (f *FreeList) Push(th *vtime.Thread, a mem.Addr) {
	th.Store(a, uint64(f.head))
	f.head = a
	f.n++
}

// Pop removes and returns the most recently pushed block, or 0 if empty.
func (f *FreeList) Pop(th *vtime.Thread) mem.Addr {
	if f.head == 0 {
		return 0
	}
	a := f.head
	f.head = mem.Addr(th.Load(a))
	f.n--
	return a
}

// Len returns the number of blocks on the list.
func (f *FreeList) Len() int { return f.n }

// Empty reports whether the list has no blocks.
func (f *FreeList) Empty() bool { return f.head == 0 }

// TakeAll removes the whole chain from f and returns its head and
// length; the links remain threaded through simulated memory.
func (f *FreeList) TakeAll() (head mem.Addr, n int) {
	head, n = f.head, f.n
	f.head, f.n = 0, 0
	return head, n
}

// PushChain prepends a chain of n blocks whose head is head and whose
// links are already threaded through simulated memory. tail must be the
// chain's last block.
func (f *FreeList) PushChain(th *vtime.Thread, head, tail mem.Addr, n int) {
	if n == 0 {
		return
	}
	th.Store(tail, uint64(f.head))
	f.head = head
	f.n += n
}

// SizeClasses maps request sizes to a fixed ordered set of block sizes.
type SizeClasses struct {
	sizes []uint64
}

// NewSizeClasses builds a class table from an ordered list of block
// sizes.
func NewSizeClasses(sizes []uint64) *SizeClasses {
	out := make([]uint64, len(sizes))
	copy(out, sizes)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return &SizeClasses{sizes: out}
}

// Index returns the index of the smallest class holding size, or -1 if
// size exceeds the largest class.
func (c *SizeClasses) Index(size uint64) int {
	i := sort.Search(len(c.sizes), func(i int) bool { return c.sizes[i] >= size })
	if i == len(c.sizes) {
		return -1
	}
	return i
}

// Size returns the block size of class i.
func (c *SizeClasses) Size(i int) uint64 { return c.sizes[i] }

// Count returns the number of classes.
func (c *SizeClasses) Count() int { return len(c.sizes) }

// Max returns the largest class size.
func (c *SizeClasses) Max() uint64 { return c.sizes[len(c.sizes)-1] }

// Registry maps allocator names to factories.
var registry = map[string]Factory{}

// Register installs a factory under name; allocator subpackages call it
// from init.
func Register(name string, f Factory) {
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("alloc: duplicate allocator %q", name))
	}
	registry[name] = f
}

// New constructs the named allocator: its model behind a front end.
func New(name string, space *mem.Space, threads int) (Allocator, error) {
	f, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("alloc: unknown allocator %q (known: %v)", name, Names())
	}
	return NewFront(f(space, threads), space, threads), nil
}

// MustNew is New but panics on an unknown name.
func MustNew(name string, space *mem.Space, threads int) Allocator {
	a, err := New(name, space, threads)
	if err != nil {
		panic(err)
	}
	return a
}

// Names returns the registered allocator names, sorted: the paper's
// order, glibc, hoard, tbb, tcmalloc.
func Names() []string {
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
