// Package glibc implements the GNU C library allocator model
// (dlmalloc/ptmalloc lineage): per-thread arenas protected by one lock
// each with trylock-and-rotate selection, per-block boundary tags, a
// 32-byte minimum chunk, fast bins for small chunks, and direct OS
// mapping for large requests.
//
// The properties the study depends on are reproduced exactly:
//
//   - every block carries a 16-byte boundary tag, so consecutive 16-byte
//     allocations are 32 bytes apart (halved cache density, but each node
//     lands in its own 32-byte ORT stripe under the STM's shift-5 map);
//   - arenas are aligned on 64 MiB boundaries, so blocks at equal arena
//     offsets in different threads' arenas alias to the same ORT entry;
//   - every malloc and free acquires an arena lock; if a thread finds
//     its arena locked it rotates through the arena ring with trylock
//     and creates a brand-new arena when all are busy.
//
// Simplifications (documented in DESIGN.md): chunks are served from
// exact-fit per-size bins plus a bump pointer over the arena; splitting
// and coalescing of the general bins are omitted. For the fixed-size-
// class workloads of the study this changes nothing: a freed chunk is
// only ever reused for the size class it was carved for, exactly as a
// fastbin would.
package glibc

import (
	"sort"

	"repro/internal/alloc"
	"repro/internal/mem"
	"repro/internal/vtime"
)

// Model constants; see the package comment.
const (
	// ArenaSize and ArenaAlign model the 64 MiB secondary-arena mapping
	// of ptmalloc on 64-bit Linux (HEAP_MAX_SIZE).
	ArenaSize  = 64 << 20
	ArenaAlign = 64 << 20
	arenaMask  = mem.Addr(ArenaAlign - 1)

	// HeaderSize is the boundary tag: prev-size and size words.
	HeaderSize = 16
	// MinChunk is the minimum chunk size on 64-bit systems; malloc(0)
	// still consumes one of these.
	MinChunk = 32
	// MmapThreshold is the request size above which the allocator maps
	// a region directly from the OS.
	MmapThreshold = 128 << 10

	sizeWordOff = 8     // offset of the size word within the chunk header
	inUseBit    = 1     // size-word flag: chunk is allocated
	mmappedBit  = 2     // size-word flag: chunk is directly mapped
	arenaFirst  = 64    // first chunk starts past a pseudo heap_info header
	chunkAlign  = 16    // chunks are 16-byte aligned
	maxBinChunk = 64720 // bins cover chunks up to this; larger reuse is skipped
)

type arena struct {
	lock  alloc.CountingMutex
	base  mem.Addr
	top   mem.Addr // bump pointer for fresh chunks
	end   mem.Addr
	bins  map[uint64]*alloc.FreeList // chunk size -> free chunks
	index int
}

// Glibc is the ptmalloc-style allocator model.
type Glibc struct {
	space   *mem.Space
	threads int

	arenas   []*arena
	attached []*arena // per-thread last-used arena

	mmaps map[mem.Addr]uint64 // user addr -> region size (direct maps)
}

// New constructs a Glibc allocator over space for up to threads logical
// threads; the main arena is created eagerly, as libc does at startup.
func New(space *mem.Space, threads int) *Glibc {
	g := &Glibc{
		space:    space,
		threads:  threads,
		attached: make([]*arena, threads),
		mmaps:    make(map[mem.Addr]uint64),
	}
	main := g.newArena(nil, nil)
	if main == nil {
		panic("glibc: cannot map the main arena")
	}
	for i := range g.attached {
		g.attached[i] = main
	}
	return g
}

func init() {
	alloc.Register("glibc", func(space *mem.Space, threads int) alloc.Model {
		return New(space, threads)
	})
}

// Name implements alloc.Model.
func (g *Glibc) Name() string { return "glibc" }

// BackfillMeta implements alloc.MetaBackfiller. The main arena already
// exists when a durable layer attaches, so journal it retroactively.
func (g *Glibc) BackfillMeta(j alloc.MetaJournal) {
	for _, a := range g.arenas {
		j.JournalMeta(nil, "arena", a.base, ArenaSize, uint64(a.index))
	}
}

// newArena maps a fresh arena, or returns nil when the simulated OS is
// out of memory. th is nil only at construction time.
func (g *Glibc) newArena(th *vtime.Thread, st *alloc.ThreadStats) *arena {
	base, err := g.space.Map(ArenaSize, ArenaAlign)
	if err != nil {
		return nil
	}
	a := &arena{
		base:  base,
		top:   base + arenaFirst,
		end:   base + ArenaSize,
		bins:  make(map[uint64]*alloc.FreeList),
		index: len(g.arenas),
	}
	g.arenas = append(g.arenas, a)
	if st != nil {
		st.OSMaps++
		st.JournalMeta(th, "arena", a.base, ArenaSize, uint64(a.index))
	}
	return a
}

// chunkSize returns the total chunk size for a user request.
func chunkSize(req uint64) uint64 {
	sz := mem.AlignUp(req+HeaderSize, chunkAlign)
	if sz < MinChunk {
		sz = MinChunk
	}
	return sz
}

// lockArena returns a locked arena for the thread, rotating through the
// arena ring with trylock and creating a new arena if every arena is
// busy — ptmalloc's arena_get contention policy. Past the arena cap
// (8 x threads, as on 64-bit Linux) the thread blocks on the next arena
// instead of creating more.
func (g *Glibc) lockArena(th *vtime.Thread, st *alloc.ThreadStats) *arena {
	if p := st.Prof; p != nil {
		p.Begin(th, "glibc/arena")
		defer p.End(th)
	}
	tid := th.ID()
	a := g.attached[tid]
	if a.lock.TryLock(th, st) {
		return a
	}
	st.LockContended++ // preferred arena was busy
	start := a.index
	for i := 1; i <= len(g.arenas); i++ {
		cand := g.arenas[(start+i)%len(g.arenas)]
		if cand.lock.TryLock(th, st) {
			g.attached[tid] = cand
			return cand
		}
	}
	fresh := (*arena)(nil)
	if len(g.arenas) < 8*g.threads {
		fresh = g.newArena(th, st)
	}
	if fresh == nil {
		// Arena cap hit, or the simulated OS refused the mapping: block
		// on the next arena rather than growing.
		next := g.arenas[(start+1)%len(g.arenas)]
		next.lock.Lock(th, st)
		g.attached[tid] = next
		return next
	}
	th.Tick(th.Cost().OSMap)
	st.Rec.Transfer("glibc:new-arena", th.ID(), th.Clock(), uint64(fresh.index))
	fresh.lock.Lock(th, st)
	g.attached[tid] = fresh
	return fresh
}

// Malloc implements alloc.Model.
func (g *Glibc) Malloc(th *vtime.Thread, st *alloc.ThreadStats, size uint64) (mem.Addr, uint64) {
	if size+HeaderSize > MmapThreshold {
		return g.mmapChunk(th, st, size)
	}
	csz := chunkSize(size)

	a := g.lockArena(th, st)
	var c mem.Addr
	if fl := a.bins[csz]; fl != nil {
		c = fl.Pop(th)
	}
	if c == 0 {
		if a.top+mem.Addr(csz) > a.end {
			// Arena exhausted: fall over to a brand-new arena.
			a.lock.Unlock(th)
			a = g.newArena(th, st)
			if a == nil {
				return 0, 0
			}
			th.Tick(th.Cost().OSMap)
			st.Rec.Transfer("glibc:new-arena", th.ID(), th.Clock(), uint64(a.index))
			a.lock.Lock(th, st)
			g.attached[th.ID()] = a
		}
		c = a.top
		a.top += mem.Addr(csz)
	}
	th.Store(c+sizeWordOff, csz|inUseBit)
	a.lock.Unlock(th)
	return c + HeaderSize, csz - HeaderSize
}

func (g *Glibc) mmapChunk(th *vtime.Thread, st *alloc.ThreadStats, size uint64) (mem.Addr, uint64) {
	region := mem.AlignUp(size+HeaderSize, mem.PageSize)
	base, err := g.space.Map(region, mem.PageSize)
	if err != nil {
		return 0, 0
	}
	st.OSMaps++
	th.Tick(th.Cost().OSMap)
	th.Store(base+sizeWordOff, region|inUseBit|mmappedBit)
	user := base + HeaderSize
	g.mmaps[user] = region
	return user, region - HeaderSize
}

// Free implements alloc.Model. The chunk returns to the arena it was
// carved from (identified by the 64 MiB alignment of arena bases).
func (g *Glibc) Free(th *vtime.Thread, st *alloc.ThreadStats, addr mem.Addr) uint64 {
	// Validate the pointer before loading its boundary tag or touching
	// any accounting: a wild pointer may not even be mapped.
	a := g.arenaOf(addr)
	_, mmapped := g.mmaps[addr]
	if a == nil && !mmapped {
		st.FreeFaulted(th, alloc.BadPointer, addr)
		return 0
	}
	c := addr - HeaderSize
	word := th.Load(c + sizeWordOff)
	if word&inUseBit == 0 {
		st.FreeFaulted(th, alloc.DoubleFree, addr)
		return 0
	}
	csz := word &^ uint64(inUseBit|mmappedBit)
	if word&mmappedBit != 0 {
		delete(g.mmaps, addr)
		th.Tick(th.Cost().OSMap)
		if err := g.space.Unmap(c); err != nil {
			panic(err)
		}
		return csz - HeaderSize
	}
	if g.attached[th.ID()] != a {
		st.RemoteFrees++
		st.Rec.Transfer("glibc:remote-free", th.ID(), th.Clock(), uint64(a.index))
	}
	a.lock.Lock(th, st)
	th.Store(c+sizeWordOff, csz) // clear in-use
	if csz <= maxBinChunk {
		fl := a.bins[csz]
		if fl == nil {
			fl = &alloc.FreeList{}
			a.bins[csz] = fl
		}
		fl.Push(th, c)
	}
	a.lock.Unlock(th)
	return csz - HeaderSize
}

func (g *Glibc) arenaOf(addr mem.Addr) *arena {
	base := addr &^ arenaMask
	for _, a := range g.arenas {
		if a.base == base {
			return a
		}
	}
	return nil
}

// BlockSize implements alloc.Model.
func (g *Glibc) BlockSize(th *vtime.Thread, addr mem.Addr) uint64 {
	word := th.Load(addr - HeaderSize + sizeWordOff)
	return (word &^ uint64(inUseBit|mmappedBit)) - HeaderSize
}

// ArenaCount returns how many arenas exist (contention creates them).
func (g *Glibc) ArenaCount() int { return len(g.arenas) }

// InspectHeap implements alloc.Model. Bins are dynamic (keyed by
// chunk size), so the class rows are the union of all arenas' bin sizes
// in sorted order; Reserved counts the full 64 MiB of every arena plus
// direct maps — the address-space footprint the paper's blowup story is
// about. Pure Go-side metadata: no simulated memory access, no ticks.
func (g *Glibc) InspectHeap() alloc.HeapState {
	free := make(map[uint64]uint64) // usable size -> idle chunks
	for _, a := range g.arenas {
		for csz, fl := range a.bins {
			free[csz-HeaderSize] += uint64(fl.Len())
		}
	}
	sizes := make([]uint64, 0, len(free))
	for sz := range free {
		sizes = append(sizes, sz)
	}
	sort.Slice(sizes, func(i, j int) bool { return sizes[i] < sizes[j] })

	st := alloc.HeapState{
		Reserved:        uint64(len(g.arenas)) * ArenaSize,
		Arenas:          uint64(len(g.arenas)),
		SuperblockBytes: ArenaSize,
		MinBlock:        MinChunk - HeaderSize,
		MaxBlock:        MmapThreshold - HeaderSize,
	}
	for _, region := range g.mmaps {
		st.Reserved += region
	}
	for _, sz := range sizes {
		st.Classes = append(st.Classes, alloc.HeapClass{Size: sz, Free: free[sz]})
		st.CentralBytes += free[sz] * sz
	}
	return st
}

// Describe implements alloc.Model.
func (g *Glibc) Describe() alloc.Description {
	return alloc.Description{
		Name:        "Glibc",
		Metadata:    "Per block",
		MinSize:     32,
		FastPath:    "<= 128 bytes",
		Granularity: "132KB-64MB per arena",
		Sync:        "A lock per arena. If a thread fails to grab the lock for any of the active arenas, a new one is created.",
	}
}
