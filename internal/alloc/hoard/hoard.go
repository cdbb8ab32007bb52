// Package hoard implements the Hoard allocator model (Berger et al.,
// ASPLOS 2000, as of the 3.x series): per-thread heaps assigned by a
// hash of the thread id plus one global heap, 64 KiB superblocks that
// each serve a single power-of-two size class, blocks freed back to the
// superblock they were carved from (false-sharing avoidance), empty
// superblocks returned to the global heap (bounded fragmentation), and
// thread-private local caches for small blocks (<= 256 bytes) that make
// the common path synchronization-free.
//
// Behaviour the study depends on:
//
//   - blocks carry no per-block tag, so consecutive 16-byte allocations
//     are 16 bytes apart (two to a 32-byte ORT stripe — the Fig. 5b
//     false-abort scenario);
//   - there is no exact 48-byte class (powers of two only), so the
//     red-black tree's 48-byte nodes are served from the 64-byte class;
//   - superblocks are 64 KiB-aligned, so unlike Glibc's 64 MiB arenas
//     they do not alias distant blocks onto one ORT entry;
//   - allocation and deallocation beyond the local cache take the heap
//     lock and then the superblock lock, Hoard's documented two-level
//     locking, which is where its contention on Intruder comes from.
package hoard

import (
	"fmt"

	"repro/internal/alloc"
	"repro/internal/mem"
	"repro/internal/vtime"
)

// Model constants; see the package comment.
const (
	// SuperblockSize and SuperblockAlign model Hoard's 64 KiB
	// superblocks.
	SuperblockSize  = 64 << 10
	SuperblockAlign = 64 << 10
	sbMask          = mem.Addr(SuperblockAlign - 1)

	// headerReserve keeps the superblock's (conceptual) in-band header
	// clear at the start of the region, as in the C implementation.
	headerReserve = 64

	// MinBlock is the smallest class; MaxBlock is the largest block
	// served from a superblock (half a superblock, as in Hoard).
	MinBlock = 16
	MaxBlock = SuperblockSize / 2

	// LocalCacheMax is the largest block size handled by the
	// synchronization-free per-thread cache.
	LocalCacheMax = 256
	// cacheRefill is how many blocks one slow-path trip moves into the
	// local cache; cacheCap bounds the cache before excess blocks are
	// flushed back to their superblocks.
	cacheRefill = 8
	cacheCap    = 24
)

// classes returns Hoard's power-of-two size classes.
func classes() []uint64 {
	var out []uint64
	for sz := uint64(MinBlock); sz <= MaxBlock; sz *= 2 {
		out = append(out, sz)
	}
	return out
}

type superblock struct {
	lock     alloc.CountingMutex
	base     mem.Addr
	class    int // index into size classes; -1 when empty & unassigned
	blockSz  uint64
	bump     mem.Addr // next never-allocated block
	free     alloc.FreeList
	used     int
	capacity int
	owner    *heap
}

func (sb *superblock) empty() bool { return sb.used == 0 }

type heap struct {
	lock   alloc.CountingMutex
	global bool
	// bins[class] lists superblocks of that class with free space;
	// spare holds fully empty, unassigned superblocks (global heap).
	bins  [][]*superblock
	spare []*superblock
	// Emptiness-invariant accounting (Berger et al.): blocks in use and
	// block capacity across this heap's superblocks.
	used     int
	capacity int
}

type localCache struct {
	lists []alloc.FreeList
}

// Hoard is the Hoard allocator model. The embedded alloc.Superblocks
// serves requests above MaxBlock and recovers the heap after a crash.
type Hoard struct {
	alloc.Superblocks
	space   *mem.Space
	classes *alloc.SizeClasses
	heaps   []*heap
	global  *heap
	caches  []localCache

	sbMap map[mem.Addr]*superblock // superblock base -> superblock

	migrations uint64 // emptiness-threshold superblock returns to the global heap
}

// New constructs a Hoard allocator for up to threads logical threads.
func New(space *mem.Space, threads int) *Hoard {
	sc := alloc.NewSizeClasses(classes())
	h := &Hoard{
		Superblocks: alloc.NewSuperblocks(space, SuperblockAlign),
		space:       space,
		classes:     sc,
		heaps:       make([]*heap, threads),
		caches:      make([]localCache, threads),
		sbMap:       make(map[mem.Addr]*superblock),
	}
	h.global = &heap{global: true, bins: make([][]*superblock, sc.Count())}
	for i := range h.heaps {
		h.heaps[i] = &heap{bins: make([][]*superblock, sc.Count())}
	}
	for i := range h.caches {
		h.caches[i].lists = make([]alloc.FreeList, sc.Count())
	}
	return h
}

func init() {
	alloc.Register("hoard", func(space *mem.Space, threads int) alloc.Model {
		return New(space, threads)
	})
}

// Name implements alloc.Model.
func (h *Hoard) Name() string { return "hoard" }

// heapFor hashes the thread id to its heap (identity hash over a dense
// tid space, as effective as Hoard's modulo hash).
func (h *Hoard) heapFor(tid int) *heap { return h.heaps[tid%len(h.heaps)] }

// Malloc implements alloc.Model.
func (h *Hoard) Malloc(th *vtime.Thread, st *alloc.ThreadStats, size uint64) (mem.Addr, uint64) {
	if size > MaxBlock {
		return h.MapBig(th, st, size)
	}
	ci := h.classes.Index(max(size, MinBlock))
	blockSz := h.classes.Size(ci)

	var a mem.Addr
	if blockSz <= LocalCacheMax {
		c := &h.caches[th.ID()]
		if a = c.lists[ci].Pop(th); a == 0 {
			st.SlowRefills++
			h.refillCache(th, st, ci)
			a = c.lists[ci].Pop(th)
		}
	} else {
		st.SlowRefills++
		a = h.slowMalloc(th, st, ci)
	}
	if a == 0 {
		return 0, 0
	}
	return a, blockSz
}

// refillCache moves up to cacheRefill blocks of class ci from the
// thread's heap into its local cache under one heap-lock acquisition.
func (h *Hoard) refillCache(th *vtime.Thread, st *alloc.ThreadStats, ci int) {
	if p := st.Prof; p != nil {
		p.Begin(th, "hoard/superblock")
		defer p.End(th)
	}
	hp := h.heapFor(th.ID())
	cache := &h.caches[th.ID()].lists[ci]
	hp.lock.Lock(th, st)
	for got := 0; got < cacheRefill; {
		sb := h.usableSuperblock(th, hp, st, ci)
		if sb == nil {
			break // simulated OS is out of memory; keep what we got
		}
		sb.lock.Lock(th, st)
		for got < cacheRefill {
			a := h.takeBlock(th, sb)
			if a == 0 {
				break
			}
			hp.used++
			cache.Push(th, a)
			got++
		}
		sb.lock.Unlock(th)
	}
	hp.lock.Unlock(th)
}

func (h *Hoard) slowMalloc(th *vtime.Thread, st *alloc.ThreadStats, ci int) mem.Addr {
	if p := st.Prof; p != nil {
		p.Begin(th, "hoard/superblock")
		defer p.End(th)
	}
	hp := h.heapFor(th.ID())
	hp.lock.Lock(th, st)
	sb := h.usableSuperblock(th, hp, st, ci)
	if sb == nil {
		hp.lock.Unlock(th)
		return 0
	}
	sb.lock.Lock(th, st)
	a := h.takeBlock(th, sb)
	sb.lock.Unlock(th)
	if a != 0 {
		hp.used++
	}
	hp.lock.Unlock(th)
	return a
}

// usableSuperblock returns a superblock of class ci with free space on
// heap hp (whose lock the caller holds), pulling one from the global
// heap or the OS if needed.
func (h *Hoard) usableSuperblock(th *vtime.Thread, hp *heap, st *alloc.ThreadStats, ci int) *superblock {
	bin := hp.bins[ci]
	for i := len(bin) - 1; i >= 0; i-- {
		sb := bin[i]
		if sb.used < sb.capacity {
			return sb
		}
	}
	sb := h.fetchFromGlobal(th, hp, st, ci)
	if sb == nil {
		sb = h.newSuperblock(th, hp, st, ci)
	}
	if sb == nil {
		return nil
	}
	hp.bins[ci] = append(hp.bins[ci], sb)
	hp.used += sb.used
	hp.capacity += sb.capacity
	return sb
}

// fetchFromGlobal transfers a superblock of class ci (or a recycled
// empty one) from the global heap to hp. Ownership changes while the
// global lock is held: a concurrent free routed to the global heap must
// either see the superblock still owned by it (and find it in its bins)
// or already owned by hp — never in transit.
func (h *Hoard) fetchFromGlobal(th *vtime.Thread, hp *heap, st *alloc.ThreadStats, ci int) *superblock {
	g := h.global
	g.lock.Lock(th, st)
	defer g.lock.Unlock(th)
	if bin := g.bins[ci]; len(bin) > 0 {
		sb := bin[len(bin)-1]
		g.bins[ci] = bin[:len(bin)-1]
		g.used -= sb.used
		g.capacity -= sb.capacity
		sb.owner = hp
		st.Rec.Transfer("hoard:sb-from-global", th.ID(), th.Clock(), sb.blockSz)
		return sb
	}
	if len(g.spare) > 0 {
		sb := g.spare[len(g.spare)-1]
		g.spare = g.spare[:len(g.spare)-1]
		h.assignClass(sb, ci)
		st.JournalMeta(th, "sb-class", sb.base, sb.blockSz, uint64(ci))
		sb.owner = hp
		st.Rec.Transfer("hoard:sb-from-global", th.ID(), th.Clock(), sb.blockSz)
		return sb
	}
	return nil
}

// newSuperblock maps a fresh superblock, or returns nil when the
// simulated OS is out of memory.
func (h *Hoard) newSuperblock(th *vtime.Thread, hp *heap, st *alloc.ThreadStats, ci int) *superblock {
	base, err := h.space.Map(SuperblockSize, SuperblockAlign)
	if err != nil {
		return nil
	}
	st.OSMaps++
	th.Tick(th.Cost().OSMap)
	sb := &superblock{base: base, owner: hp}
	h.assignClass(sb, ci)
	h.sbMap[base] = sb
	st.JournalMeta(th, "superblock", base, sb.blockSz, uint64(ci))
	return sb
}

func (h *Hoard) assignClass(sb *superblock, ci int) {
	sb.class = ci
	sb.blockSz = h.classes.Size(ci)
	sb.bump = sb.base + headerReserve
	sb.free = alloc.FreeList{}
	sb.used = 0
	sb.capacity = int((SuperblockSize - headerReserve) / sb.blockSz)
}

// takeBlock carves or reuses one block; caller holds sb.lock.
func (h *Hoard) takeBlock(th *vtime.Thread, sb *superblock) mem.Addr {
	if a := sb.free.Pop(th); a != 0 {
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

// Free implements alloc.Model.
func (h *Hoard) Free(th *vtime.Thread, st *alloc.ThreadStats, addr mem.Addr) uint64 {
	if sz := h.FreeBig(th, addr); sz != 0 {
		return sz
	}
	// Size-class lookup doubles as pointer validation: the address must
	// resolve to a superblock we mapped, sit on a block boundary inside
	// its carved range, and the superblock must still be class-assigned
	// (a spare means every block was already freed).
	sb := h.superblockOf(addr)
	if sb == nil {
		st.FreeFaulted(th, alloc.BadPointer, addr)
		return 0
	}
	if sb.class < 0 {
		st.FreeFaulted(th, alloc.DoubleFree, addr)
		return 0
	}
	if addr < sb.base+headerReserve || addr >= sb.bump ||
		uint64(addr-(sb.base+headerReserve))%sb.blockSz != 0 {
		st.FreeFaulted(th, alloc.BadPointer, addr)
		return 0
	}
	blockSz := sb.blockSz // read first: an emptied superblock may take a new class
	if blockSz <= LocalCacheMax {
		cache := &h.caches[th.ID()].lists[sb.class]
		cache.Push(th, addr)
		if cache.Len() > cacheCap {
			h.flushCache(th, st, sb.class)
		}
		return blockSz
	}
	h.freeToSuperblock(th, st, sb, addr)
	return blockSz
}

// flushCache returns half of an over-full local cache list to the
// superblocks the blocks were carved from.
func (h *Hoard) flushCache(th *vtime.Thread, st *alloc.ThreadStats, ci int) {
	if p := st.Prof; p != nil {
		p.Begin(th, "hoard/superblock")
		defer p.End(th)
	}
	cache := &h.caches[th.ID()].lists[ci]
	for cache.Len() > cacheCap/2 {
		a := cache.Pop(th)
		sb := h.superblockOf(a)
		h.freeToSuperblock(th, st, sb, a)
	}
}

// freeToSuperblock returns a block to its superblock under the owner
// heap's lock and the superblock lock; a superblock that becomes empty
// migrates to the global heap (the emptiness invariant, with the
// threshold at fully-empty).
func (h *Hoard) freeToSuperblock(th *vtime.Thread, st *alloc.ThreadStats, sb *superblock, a mem.Addr) {
	for {
		hp := sb.owner
		hp.lock.Lock(th, st)
		if sb.owner != hp {
			// The superblock migrated while we were acquiring; retry
			// against its new owner (as Hoard's free does).
			hp.lock.Unlock(th)
			continue
		}
		if !hp.global && hp != h.heapFor(th.ID()) {
			st.RemoteFrees++
			st.Rec.Transfer("hoard:remote-free", th.ID(), th.Clock(), sb.blockSz)
		}
		sb.lock.Lock(th, st)
		if sb.used == 0 {
			// Every block is already free: this is the second free of a
			// block that went through the local cache both times.
			sb.lock.Unlock(th)
			hp.lock.Unlock(th)
			st.FreeFaulted(th, alloc.DoubleFree, a)
			return
		}
		sb.free.Push(th, a)
		sb.used--
		sb.lock.Unlock(th)
		hp.used--
		// A global-heap superblock that empties out becomes a
		// class-free spare, reusable by any size class.
		if hp.global && sb.used == 0 && sb.class >= 0 {
			h.detach(hp, sb)
			hp.capacity -= sb.capacity
			sb.class = -1
			hp.spare = append(hp.spare, sb)
			hp.lock.Unlock(th)
			return
		}
		// Emptiness invariant (f = 1/4): when more than a quarter of the
		// heap's capacity is free and this superblock is at most half
		// full, return it to the global heap — fully empty ones become
		// class-free spares, partial ones stay in their class bin.
		if !hp.global && hp.used < hp.capacity-hp.capacity/4 && sb.used*2 <= sb.capacity {
			h.detach(hp, sb)
			hp.used -= sb.used
			hp.capacity -= sb.capacity
			h.migrations++
			st.Rec.Transfer("hoard:sb-to-global", th.ID(), th.Clock(), sb.blockSz)
			g := h.global
			g.lock.Lock(th, st)
			sb.owner = g
			if sb.used == 0 {
				sb.class = -1
				g.spare = append(g.spare, sb)
			} else {
				g.bins[sb.class] = append(g.bins[sb.class], sb)
				g.used += sb.used
				g.capacity += sb.capacity
			}
			g.lock.Unlock(th)
		}
		hp.lock.Unlock(th)
		return
	}
}

// detach removes sb from its owner heap's bin; caller holds the heap
// lock.
func (h *Hoard) detach(hp *heap, sb *superblock) {
	bin := hp.bins[sb.class]
	for i, s := range bin {
		if s == sb {
			hp.bins[sb.class] = append(bin[:i], bin[i+1:]...)
			return
		}
	}
}

func (h *Hoard) superblockOf(addr mem.Addr) *superblock {
	return h.sbMap[addr&^sbMask]
}

// BlockSize implements alloc.Model.
func (h *Hoard) BlockSize(_ *vtime.Thread, addr mem.Addr) uint64 {
	if sz := h.BigSize(addr); sz != 0 {
		return sz
	}
	if sb := h.superblockOf(addr); sb != nil {
		return sb.blockSz
	}
	panic(fmt.Sprintf("hoard: BlockSize of unknown address %#x", uint64(addr)))
}

// InspectHeap implements alloc.Model. Per class, Free counts
// idle blocks inside class-assigned superblocks (capacity − used,
// covering both free-list entries and never-carved bump space) and
// Cached the blocks parked in per-thread local caches; superblock
// occupancy and the migration counter feed the emptiness-invariant
// telemetry. Pure Go-side metadata: map iteration only feeds
// order-independent sums, no simulated memory access, no ticks.
func (h *Hoard) InspectHeap() alloc.HeapState {
	st := alloc.HeapState{
		Reserved:        uint64(len(h.sbMap)) * SuperblockSize,
		Superblocks:     uint64(len(h.sbMap)),
		Migrations:      h.migrations,
		SuperblockBytes: SuperblockSize,
		MinBlock:        MinBlock,
		MaxBlock:        MaxBlock,
	}
	st.Reserved += h.BigReserved()
	free := make([]uint64, h.classes.Count())
	for _, sb := range h.sbMap {
		if sb.class < 0 || sb.used == 0 {
			st.EmptySuperblocks++
		}
		if sb.class < 0 {
			continue
		}
		free[sb.class] += uint64(sb.capacity - sb.used)
		st.SBUsedBlocks += uint64(sb.used)
		st.SBCapacity += uint64(sb.capacity)
	}
	for ci := 0; ci < h.classes.Count(); ci++ {
		var cached uint64
		for t := range h.caches {
			cached += uint64(h.caches[t].lists[ci].Len())
		}
		sz := h.classes.Size(ci)
		st.Classes = append(st.Classes, alloc.HeapClass{Size: sz, Free: free[ci], Cached: cached})
		st.CentralBytes += free[ci] * sz
		st.CacheBytes += cached * sz
	}
	return st
}

// Describe implements alloc.Model.
func (h *Hoard) Describe() alloc.Description {
	return alloc.Description{
		Name:        "Hoard",
		Metadata:    "Per superblock",
		MinSize:     16,
		FastPath:    "<= 256 bytes",
		Granularity: "64KB per superblock",
		Sync:        "Each heap is protected by a lock as is the global heap. A cache is maintained for small block sizes and is accessed without synchronization.",
	}
}
