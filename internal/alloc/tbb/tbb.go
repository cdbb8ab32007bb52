// Package tbb implements the Intel TBBMalloc (scalable_allocator) model:
// strictly thread-private heaps with per-size-class 16 KiB superblocks
// carved from 1 MiB OS chunks, a private free list per superblock that
// needs no synchronization, a spinlock-protected public free list that
// receives frees from other threads, and a global heap that recycles
// empty superblocks. Requests approaching 8 KiB bypass the heaps and go
// to the OS directly.
//
// Behaviour the study depends on:
//
//   - blocks carry no per-block tag and classes are fine-grained
//     (including an exact 48-byte class for the red-black tree node);
//   - 16-byte blocks sit 16 bytes apart (Fig. 5b stripe sharing);
//   - superblocks are 16 KiB-aligned, avoiding Glibc-style ORT aliasing;
//   - the fast path (private free list / superblock bump) performs no
//     synchronization at all, which is where TBB's flat threadtest curve
//     up to ~8 KiB comes from, with the cliff above LargeMax where every
//     operation becomes an OS call.
package tbb

import (
	"fmt"

	"repro/internal/alloc"
	"repro/internal/mem"
	"repro/internal/vtime"
)

// Model constants; see the package comment.
const (
	// SuperblockSize and SuperblockAlign model TBB's 16 KiB slabs.
	SuperblockSize  = 16 << 10
	SuperblockAlign = 16 << 10
	sbMask          = mem.Addr(SuperblockAlign - 1)

	// ChunkSize is the unit requested from the OS and split into
	// superblocks.
	ChunkSize = 1 << 20

	// headerReserve models the in-band superblock header.
	headerReserve = 64

	// MinBlock is the smallest class; LargeMax is the largest request
	// served from superblocks ("slightly less than 8KB" in the paper).
	MinBlock = 8
	LargeMax = 8064
)

// classes returns TBB's fine-grained size-class table: step 8 to 64,
// step 16 to 128, step 32 to 256, then ~1.25x geometric growth.
func classes() []uint64 {
	var out []uint64
	for sz := uint64(8); sz <= 64; sz += 8 {
		out = append(out, sz)
	}
	for sz := uint64(80); sz <= 128; sz += 16 {
		out = append(out, sz)
	}
	for sz := uint64(160); sz <= 256; sz += 32 {
		out = append(out, sz)
	}
	sz := uint64(256)
	for sz < LargeMax {
		sz = mem.AlignUp(sz+sz/4, 64)
		if sz > LargeMax {
			sz = LargeMax
		}
		out = append(out, sz)
	}
	return out
}

type superblock struct {
	base     mem.Addr
	class    int
	blockSz  uint64
	bump     mem.Addr
	private  alloc.FreeList // owner-only, no synchronization
	used     int
	capacity int
	owner    int // owning tid; -1 when on the global heap

	publicLock alloc.CountingMutex
	public     alloc.FreeList // receives remote frees
	publicTail mem.Addr       // last block of the public chain
}

type heap struct {
	// bins[class] holds this thread's superblocks of that class; the
	// active one (last) is tried first. Thread-private: no lock.
	bins [][]*superblock
}

// TBB is the TBBMalloc model. The embedded alloc.Superblocks serves
// requests above LargeMax and recovers the heap after a crash.
type TBB struct {
	alloc.Superblocks
	space   *mem.Space
	classes *alloc.SizeClasses
	heaps   []*heap

	sbMap map[mem.Addr]*superblock

	globalLock alloc.CountingMutex
	spare      []*superblock // empty superblocks awaiting reuse

	chunkLock alloc.CountingMutex
	chunkCur  mem.Addr
	chunkEnd  mem.Addr

	migrations uint64 // retired superblocks returned to the global heap
}

// New constructs a TBB allocator for up to threads logical threads.
func New(space *mem.Space, threads int) *TBB {
	sc := alloc.NewSizeClasses(classes())
	t := &TBB{
		Superblocks: alloc.NewSuperblocks(space, SuperblockAlign),
		space:       space,
		classes:     sc,
		heaps:       make([]*heap, threads),
		sbMap:       make(map[mem.Addr]*superblock),
	}
	for i := range t.heaps {
		t.heaps[i] = &heap{bins: make([][]*superblock, sc.Count())}
	}
	return t
}

func init() {
	alloc.Register("tbb", func(space *mem.Space, threads int) alloc.Model {
		return New(space, threads)
	})
}

// Name implements alloc.Model.
func (t *TBB) Name() string { return "tbb" }

// Malloc implements alloc.Model.
func (t *TBB) Malloc(th *vtime.Thread, st *alloc.ThreadStats, size uint64) (mem.Addr, uint64) {
	if size > LargeMax {
		return t.MapBig(th, st, size)
	}
	ci := t.classes.Index(max(size, MinBlock))
	blockSz := t.classes.Size(ci)

	hp := t.heaps[th.ID()]
	a := mem.Addr(0)
	// Fast path over this thread's superblocks: private list, then
	// fresh carve, newest superblock first.
	for i := len(hp.bins[ci]) - 1; i >= 0 && a == 0; i-- {
		a = t.takePrivate(th, hp.bins[ci][i])
	}
	if a == 0 {
		// Next: steal the public free lists (synchronized, one lock per
		// superblock).
		for i := len(hp.bins[ci]) - 1; i >= 0 && a == 0; i-- {
			sb := hp.bins[ci][i]
			if t.drainPublic(th, st, sb) {
				a = t.takePrivate(th, sb)
			}
		}
	}
	if a == 0 {
		// Slow path: a new superblock from the global heap or a 1 MiB chunk.
		st.SlowRefills++
		st.Rec.Transfer("tbb:sb-refill", th.ID(), th.Clock(), blockSz)
		sb := t.newSuperblock(th, st, ci)
		if sb == nil {
			return 0, 0
		}
		hp.bins[ci] = append(hp.bins[ci], sb)
		a = t.takePrivate(th, sb)
	}
	return a, blockSz
}

// takePrivate pops from the private list or carves a fresh block.
// Owner-only; no synchronization.
func (t *TBB) takePrivate(th *vtime.Thread, sb *superblock) mem.Addr {
	if a := sb.private.Pop(th); a != 0 {
		sb.used++
		return a
	}
	if sb.bump+mem.Addr(sb.blockSz) <= sb.base+SuperblockSize {
		a := sb.bump
		sb.bump += mem.Addr(sb.blockSz)
		sb.used++
		return a
	}
	return 0
}

// drainPublic moves the whole public chain into the private list under
// the superblock's spinlock, reporting whether anything moved.
func (t *TBB) drainPublic(th *vtime.Thread, st *alloc.ThreadStats, sb *superblock) bool {
	if sb.public.Empty() {
		return false
	}
	sb.publicLock.Lock(th, st)
	head, n := sb.public.TakeAll()
	tail := sb.publicTail
	sb.publicTail = 0
	sb.publicLock.Unlock(th)
	if n == 0 {
		return false
	}
	sb.private.PushChain(th, head, tail, n)
	return true
}

// newSuperblock obtains an empty superblock from the global heap or
// carves one from the current 1 MiB chunk; nil when the simulated OS
// is out of memory.
func (t *TBB) newSuperblock(th *vtime.Thread, st *alloc.ThreadStats, ci int) *superblock {
	if p := st.Prof; p != nil {
		p.Begin(th, "tbb/superblock")
		defer p.End(th)
	}
	t.globalLock.Lock(th, st)
	if n := len(t.spare); n > 0 {
		sb := t.spare[n-1]
		t.spare = t.spare[:n-1]
		t.globalLock.Unlock(th)
		t.assign(sb, th.ID(), ci)
		st.JournalMeta(th, "sb-class", sb.base, sb.blockSz, uint64(ci))
		return sb
	}
	t.globalLock.Unlock(th)

	t.chunkLock.Lock(th, st)
	if t.chunkCur+SuperblockSize > t.chunkEnd {
		base, err := t.space.Map(ChunkSize, SuperblockAlign)
		if err != nil {
			t.chunkLock.Unlock(th)
			return nil
		}
		st.OSMaps++
		th.Tick(th.Cost().OSMap)
		t.chunkCur, t.chunkEnd = base, base+ChunkSize
	}
	base := t.chunkCur
	t.chunkCur += SuperblockSize
	t.chunkLock.Unlock(th)

	sb := &superblock{base: base}
	t.assign(sb, th.ID(), ci)
	t.sbMap[base] = sb
	st.JournalMeta(th, "superblock", base, sb.blockSz, uint64(ci))
	return sb
}

func (t *TBB) assign(sb *superblock, tid, ci int) {
	sb.class = ci
	sb.blockSz = t.classes.Size(ci)
	sb.bump = sb.base + headerReserve
	sb.private = alloc.FreeList{}
	sb.capacity = int((SuperblockSize - headerReserve) / sb.blockSz)
	sb.used = 0
	sb.owner = tid
}

// Free implements alloc.Model. A block freed by its owning thread goes
// to the private list without synchronization; a block freed by another
// thread goes to the owning superblock's public list under its
// spinlock.
func (t *TBB) Free(th *vtime.Thread, st *alloc.ThreadStats, addr mem.Addr) uint64 {
	if sz := t.FreeBig(th, addr); sz != 0 {
		return sz
	}
	// Size-class lookup doubles as pointer validation: the address must
	// resolve to a superblock we carved, sit on a block boundary inside
	// its bumped range, and the superblock must have live blocks.
	sb := t.superblockOf(addr)
	if sb == nil {
		st.FreeFaulted(th, alloc.BadPointer, addr)
		return 0
	}
	if addr < sb.base+headerReserve || addr >= sb.bump ||
		uint64(addr-(sb.base+headerReserve))%sb.blockSz != 0 {
		st.FreeFaulted(th, alloc.BadPointer, addr)
		return 0
	}
	if sb.used == 0 {
		st.FreeFaulted(th, alloc.DoubleFree, addr)
		return 0
	}
	blockSz := sb.blockSz // read first: a retired superblock may take a new class
	if sb.owner == th.ID() {
		sb.private.Push(th, addr)
		sb.used--
		if sb.used == 0 {
			t.retire(th, st, sb)
		}
		return blockSz
	}
	st.RemoteFrees++
	st.Rec.Transfer("tbb:remote-free", th.ID(), th.Clock(), blockSz)
	sb.publicLock.Lock(th, st)
	if sb.public.Empty() {
		sb.publicTail = addr
	}
	sb.public.Push(th, addr)
	sb.publicLock.Unlock(th)
	sb.used--
	return blockSz
}

// retire returns a fully empty superblock from the owner's heap to the
// global heap. Only the owner calls it, from its own free path.
func (t *TBB) retire(th *vtime.Thread, st *alloc.ThreadStats, sb *superblock) {
	hp := t.heaps[sb.owner]
	bin := hp.bins[sb.class]
	// Keep the last superblock of a class resident to avoid thrashing.
	if len(bin) <= 1 {
		return
	}
	found := false
	for i, s := range bin {
		if s == sb {
			hp.bins[sb.class] = append(bin[:i], bin[i+1:]...)
			found = true
			break
		}
	}
	if !found {
		return
	}
	t.drainPublic(th, st, sb)
	sb.private = alloc.FreeList{}
	sb.owner = -1
	t.migrations++
	t.globalLock.Lock(th, st)
	t.spare = append(t.spare, sb)
	t.globalLock.Unlock(th)
}

func (t *TBB) superblockOf(addr mem.Addr) *superblock {
	return t.sbMap[addr&^sbMask]
}

// BlockSize implements alloc.Model.
func (t *TBB) BlockSize(_ *vtime.Thread, addr mem.Addr) uint64 {
	if sz := t.BigSize(addr); sz != 0 {
		return sz
	}
	if sb := t.superblockOf(addr); sb != nil {
		return sb.blockSz
	}
	panic(fmt.Sprintf("tbb: BlockSize of unknown address %#x", uint64(addr)))
}

// InspectHeap implements alloc.Model. Per class, Cached counts
// blocks on synchronization-free private lists plus never-carved bump
// space (the owner-only fast path) and Free blocks on the spinlocked
// public lists; retired superblocks on the global spare list count as
// empty. Pure Go-side metadata: map iteration only feeds
// order-independent sums, no simulated memory access, no ticks.
func (t *TBB) InspectHeap() alloc.HeapState {
	st := alloc.HeapState{
		Reserved:        uint64(t.chunkEnd - t.chunkCur),
		Superblocks:     uint64(len(t.sbMap)),
		Migrations:      t.migrations,
		SuperblockBytes: SuperblockSize,
		MinBlock:        MinBlock,
		MaxBlock:        LargeMax,
	}
	st.Reserved += uint64(len(t.sbMap)) * SuperblockSize
	st.Reserved += t.BigReserved()
	private := make([]uint64, t.classes.Count())
	public := make([]uint64, t.classes.Count())
	for _, sb := range t.sbMap {
		if sb.owner < 0 || sb.used == 0 {
			st.EmptySuperblocks++
		}
		if sb.owner < 0 {
			continue
		}
		bumpLeft := uint64(sb.base+SuperblockSize-sb.bump) / sb.blockSz
		private[sb.class] += uint64(sb.private.Len()) + bumpLeft
		public[sb.class] += uint64(sb.public.Len())
		st.SBUsedBlocks += uint64(sb.used)
		st.SBCapacity += uint64(sb.capacity)
	}
	for ci := 0; ci < t.classes.Count(); ci++ {
		sz := t.classes.Size(ci)
		st.Classes = append(st.Classes, alloc.HeapClass{Size: sz, Free: public[ci], Cached: private[ci]})
		st.CentralBytes += public[ci] * sz
		st.CacheBytes += private[ci] * sz
	}
	return st
}

// Describe implements alloc.Model.
func (t *TBB) Describe() alloc.Description {
	return alloc.Description{
		Name:        "TBBMalloc",
		Metadata:    "Per size class",
		MinSize:     8,
		FastPath:    "< 8KB",
		Granularity: "16KB per size class",
		Sync:        "The public free lists of a private heap are each protected by a distinct spinlock. Each free list in the global heap is also protected by a separate spinlock. Accessing the private free lists is synchronization-free.",
	}
}
