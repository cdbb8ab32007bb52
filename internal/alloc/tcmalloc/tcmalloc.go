// Package tcmalloc implements the Thread-Caching Malloc model
// (gperftools): synchronization-free per-thread caches with one free
// list per size class, a spinlock-protected central cache per class, and
// a central page heap that carves spans out of OS memory. Two behaviours
// that drive the paper's observations are modelled precisely:
//
//   - incremental batch transfer: the n-th time a thread cache refills a
//     given class from the central cache it asks for n blocks (slow
//     start). Early on, *adjacent* blocks of a fresh span are handed to
//     *different* threads one at a time — the Fig. 2 false-sharing
//     scenario, and the cause of TCMalloc's poor 16-byte threadtest
//     throughput;
//   - frees go to the *current* thread's cache, not the allocating
//     thread's (unlike Hoard and TBB), with a garbage-collection trim
//     back to the central cache past a length threshold.
//
// Spans are 8 KiB-page aligned and the page map records each page's
// class, so blocks carry no per-block tag (8-byte effective minimum).
package tcmalloc

import (
	"fmt"

	"repro/internal/alloc"
	"repro/internal/mem"
	"repro/internal/vtime"
)

// Model constants; see the package comment.
const (
	// PageShift/PageSize model TCMalloc's 8 KiB pages.
	PageShift = 13
	PageSize  = 1 << PageShift

	// MinBlock is the smallest class; SmallMax the largest thread-cached
	// request ("<= 256KB" per the paper's Table 1).
	MinBlock = 8
	SmallMax = 256 << 10

	// batchCap bounds the incremental transfer count (slow start grows
	// 1,2,3,... up to this).
	batchCap = 64

	// cacheTrim is the thread-cache list length that triggers the
	// garbage collector, which returns half the list to the central
	// cache.
	cacheTrim = 256

	// chunkSize is the unit the page heap requests from the OS.
	chunkSize = 1 << 20
)

// classes returns the size-class table: step 8 to 64 (includes an exact
// 48-byte class), step 16 to 256, then ~1.25x geometric to SmallMax.
func classes() []uint64 {
	var out []uint64
	for sz := uint64(8); sz <= 64; sz += 8 {
		out = append(out, sz)
	}
	for sz := uint64(80); sz <= 256; sz += 16 {
		out = append(out, sz)
	}
	sz := uint64(256)
	for sz < SmallMax {
		sz = mem.AlignUp(sz+sz/4, 128)
		if sz > SmallMax {
			sz = SmallMax
		}
		out = append(out, sz)
	}
	return out
}

// span is a run of pages dedicated to one size class (or to a single
// large allocation when class < 0).
type span struct {
	base  mem.Addr
	bytes uint64
	class int
}

type centralList struct {
	lock alloc.CountingMutex
	free alloc.FreeList
}

type threadCache struct {
	lists []alloc.FreeList
	fetch []int // slow-start batch size per class
}

// TCMalloc is the thread-caching allocator model.
type TCMalloc struct {
	space   *mem.Space
	classes *alloc.SizeClasses
	caches  []threadCache
	central []centralList

	pageMap map[uint64]*span // page id -> span

	heapLock alloc.CountingMutex
	chunkCur mem.Addr
	chunkEnd mem.Addr
}

// New constructs a TCMalloc allocator for up to threads logical threads.
func New(space *mem.Space, threads int) *TCMalloc {
	sc := alloc.NewSizeClasses(classes())
	t := &TCMalloc{
		space:   space,
		classes: sc,
		caches:  make([]threadCache, threads),
		central: make([]centralList, sc.Count()),
		pageMap: make(map[uint64]*span),
	}
	for i := range t.caches {
		t.caches[i].lists = make([]alloc.FreeList, sc.Count())
		t.caches[i].fetch = make([]int, sc.Count())
	}
	return t
}

func init() {
	alloc.Register("tcmalloc", func(space *mem.Space, threads int) alloc.Model {
		return New(space, threads)
	})
}

// Name implements alloc.Model.
func (t *TCMalloc) Name() string { return "tcmalloc" }

// Malloc implements alloc.Model.
func (t *TCMalloc) Malloc(th *vtime.Thread, st *alloc.ThreadStats, size uint64) (mem.Addr, uint64) {
	if size > SmallMax {
		return t.mapLarge(th, st, size)
	}
	ci := t.classes.Index(max(size, MinBlock))

	tc := &t.caches[th.ID()]
	a := tc.lists[ci].Pop(th)
	if a == 0 {
		st.SlowRefills++
		if a = t.refill(th, st, ci); a == 0 {
			return 0, 0
		}
	}
	return a, t.classes.Size(ci)
}

// refill performs the incremental batch transfer from the central cache:
// the n-th refill of a class moves n blocks (capped). The first block is
// returned; the rest land in the thread cache.
func (t *TCMalloc) refill(th *vtime.Thread, st *alloc.ThreadStats, ci int) mem.Addr {
	if p := st.Prof; p != nil {
		p.Begin(th, "tcmalloc/central")
		defer p.End(th)
	}
	tc := &t.caches[th.ID()]
	tc.fetch[ci]++
	if tc.fetch[ci] > batchCap {
		tc.fetch[ci] = batchCap
	}
	want := tc.fetch[ci]
	st.Rec.Transfer("tcmalloc:central-refill", th.ID(), th.Clock(), uint64(want))

	c := &t.central[ci]
	c.lock.Lock(th, st)
	var first mem.Addr
	got := 0
	for got < want {
		a := c.free.Pop(th)
		if a == 0 {
			if !t.growCentral(th, st, ci) {
				break // OS out of memory: settle for what we got
			}
			continue
		}
		if first == 0 {
			first = a
		} else {
			tc.lists[ci].Push(th, a)
		}
		got++
	}
	c.lock.Unlock(th)
	return first
}

// growCentral fetches a span from the page heap and threads its blocks
// onto the central free list in ascending address order (so consecutive
// pops hand out consecutive addresses — Fig. 2). Caller holds the
// central list's lock. Reports false when the simulated OS is out of
// memory.
func (t *TCMalloc) growCentral(th *vtime.Thread, st *alloc.ThreadStats, ci int) bool {
	blockSz := t.classes.Size(ci)
	// Span large enough for ~64 objects, at least one page — mirroring
	// TCMalloc's class-to-pages sizing.
	bytes := mem.AlignUp(blockSz*64, PageSize)
	if bytes > 256*PageSize {
		bytes = mem.AlignUp(blockSz, PageSize)
	}
	sp := t.newSpan(th, st, bytes, ci)
	if sp == nil {
		return false
	}
	n := sp.bytes / blockSz
	// Push highest address first: LIFO pops then ascend.
	for i := int64(n) - 1; i >= 0; i-- {
		t.central[ci].free.Push(th, sp.base+mem.Addr(uint64(i)*blockSz))
	}
	return true
}

// newSpan carves a page-aligned span from the current OS chunk and
// registers its pages in the page map; nil when the simulated OS is
// out of memory.
func (t *TCMalloc) newSpan(th *vtime.Thread, st *alloc.ThreadStats, bytes uint64, class int) *span {
	if p := st.Prof; p != nil {
		p.Begin(th, "tcmalloc/pageheap")
		defer p.End(th)
	}
	t.heapLock.Lock(th, st)
	if t.chunkCur+mem.Addr(bytes) > t.chunkEnd {
		sz := uint64(chunkSize)
		if bytes > sz {
			sz = mem.AlignUp(bytes, chunkSize)
		}
		base, err := t.space.Map(sz, PageSize)
		if err != nil {
			t.heapLock.Unlock(th)
			return nil
		}
		st.OSMaps++
		th.Tick(th.Cost().OSMap)
		t.chunkCur, t.chunkEnd = base, base+mem.Addr(sz)
	}
	base := t.chunkCur
	t.chunkCur += mem.Addr(bytes)
	t.heapLock.Unlock(th)

	sp := &span{base: base, bytes: bytes, class: class}
	for p := base; p < base+mem.Addr(bytes); p += PageSize {
		t.pageMap[uint64(p)>>PageShift] = sp
	}
	// class is -1 for a large span; journal it off-by-one so the
	// record stays unsigned (0 = large).
	st.JournalMeta(th, "span", base, bytes, uint64(class+1))
	return sp
}

// Free implements alloc.Model: small blocks go to the *current*
// thread's cache; an over-long cache list is trimmed back to the central
// cache (the garbage collector).
func (t *TCMalloc) Free(th *vtime.Thread, st *alloc.ThreadStats, addr mem.Addr) uint64 {
	// Page-map lookup doubles as pointer validation: the page must
	// belong to a live span and the address must sit on a block boundary
	// within it. (A large span freed twice fails the page lookup, since
	// the first free unregistered its pages.)
	sp := t.pageMap[uint64(addr)>>PageShift]
	if sp == nil {
		st.FreeFaulted(th, alloc.BadPointer, addr)
		return 0
	}
	if sp.class < 0 {
		if addr != sp.base {
			st.FreeFaulted(th, alloc.BadPointer, addr)
			return 0
		}
		t.freeLarge(th, sp)
		return sp.bytes
	}
	blockSz := t.classes.Size(sp.class)
	if uint64(addr-sp.base)%blockSz != 0 {
		st.FreeFaulted(th, alloc.BadPointer, addr)
		return 0
	}
	tc := &t.caches[th.ID()]
	tc.lists[sp.class].Push(th, addr)
	if tc.lists[sp.class].Len() > cacheTrim {
		t.trim(th, st, sp.class)
	}
	return blockSz
}

// trim returns half of an over-long thread-cache list to the central
// cache.
func (t *TCMalloc) trim(th *vtime.Thread, st *alloc.ThreadStats, ci int) {
	if p := st.Prof; p != nil {
		p.Begin(th, "tcmalloc/central")
		defer p.End(th)
	}
	tc := &t.caches[th.ID()]
	c := &t.central[ci]
	st.Rec.Transfer("tcmalloc:cache-trim", th.ID(), th.Clock(), uint64(tc.lists[ci].Len()-cacheTrim/2))
	c.lock.Lock(th, st)
	for tc.lists[ci].Len() > cacheTrim/2 {
		c.free.Push(th, tc.lists[ci].Pop(th))
	}
	c.lock.Unlock(th)
	// Slow-start over: next refill restarts smaller, as TCMalloc's GC
	// shrinks max_length.
	if tc.fetch[ci] > 1 {
		tc.fetch[ci] /= 2
	}
}

func (t *TCMalloc) mapLarge(th *vtime.Thread, st *alloc.ThreadStats, size uint64) (mem.Addr, uint64) {
	bytes := mem.AlignUp(size, PageSize)
	t.heapLock.Lock(th, st)
	base, err := t.space.Map(bytes, PageSize)
	if err != nil {
		t.heapLock.Unlock(th)
		return 0, 0
	}
	st.OSMaps++
	th.Tick(th.Cost().OSMap)
	t.heapLock.Unlock(th)
	sp := &span{base: base, bytes: bytes, class: -1}
	for p := base; p < base+mem.Addr(bytes); p += PageSize {
		t.pageMap[uint64(p)>>PageShift] = sp
	}
	return base, bytes
}

func (t *TCMalloc) freeLarge(th *vtime.Thread, sp *span) {
	for p := sp.base; p < sp.base+mem.Addr(sp.bytes); p += PageSize {
		delete(t.pageMap, uint64(p)>>PageShift)
	}
	th.Tick(th.Cost().OSMap)
	if err := t.space.Unmap(sp.base); err != nil {
		panic(err)
	}
}

// BlockSize implements alloc.Model.
func (t *TCMalloc) BlockSize(_ *vtime.Thread, addr mem.Addr) uint64 {
	sp := t.pageMap[uint64(addr)>>PageShift]
	if sp == nil {
		panic(fmt.Sprintf("tcmalloc: BlockSize of unknown address %#x", uint64(addr)))
	}
	if sp.class < 0 {
		return sp.bytes
	}
	return t.classes.Size(sp.class)
}

// InspectHeap implements alloc.Model. Per class, Cached counts
// blocks idle in thread caches and Free blocks on the central list —
// the thread-cache vs central-list byte balance. Spans are registered
// per page in the page map, so reserved bytes dedup span pointers; the
// uncarved tail of the current OS chunk rides along. Pure Go-side
// metadata: map iteration only feeds order-independent sums, no
// simulated memory access, no ticks.
func (t *TCMalloc) InspectHeap() alloc.HeapState {
	st := alloc.HeapState{
		Reserved:        uint64(t.chunkEnd - t.chunkCur),
		SuperblockBytes: PageSize,
		MinBlock:        MinBlock,
		MaxBlock:        SmallMax,
	}
	seen := make(map[*span]bool)
	for _, sp := range t.pageMap {
		if !seen[sp] {
			seen[sp] = true
			st.Reserved += sp.bytes
			st.Superblocks++
		}
	}
	for ci := 0; ci < t.classes.Count(); ci++ {
		var cached uint64
		for i := range t.caches {
			cached += uint64(t.caches[i].lists[ci].Len())
		}
		central := uint64(t.central[ci].free.Len())
		sz := t.classes.Size(ci)
		st.Classes = append(st.Classes, alloc.HeapClass{Size: sz, Free: central, Cached: cached})
		st.CentralBytes += central * sz
		st.CacheBytes += cached * sz
	}
	return st
}

// Describe implements alloc.Model.
func (t *TCMalloc) Describe() alloc.Description {
	return alloc.Description{
		Name:        "TCMalloc",
		Metadata:    "Per size class",
		MinSize:     8,
		FastPath:    "<= 256KB",
		Granularity: "incremental",
		Sync:        "Each free list in the central cache is protected by a spinlock. A spinlock is also used to protect the central page heap.",
	}
}
