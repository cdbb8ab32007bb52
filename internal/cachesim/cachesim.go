// Package cachesim models the memory hierarchy of the paper's machine
// (Table 2): one 32 KiB, 8-way, 64-byte-line L1 data cache per core and
// two 6 MiB, 24-way unified L2 caches, each shared by one four-core
// socket, with an invalidation-based coherence protocol between the L1s.
//
// The model is consulted online by the virtual-time engine: every
// simulated memory access is classified (L1 hit, L2 hit, other-socket
// L2, memory; plus coherence invalidations) and the classification both
// increments the PAPI-style counters the paper reports and determines
// the access's latency contribution to the accessing thread's virtual
// clock.
//
// The simulator is single-threaded by construction: the virtual-time
// engine serializes all execution, so no internal locking is needed and
// results are deterministic.
package cachesim

import "repro/internal/mem"

// LineShift/LineSize define the 64-byte cache line.
const (
	LineShift = 6
	LineSize  = 1 << LineShift
)

// Geometry of the paper's Xeon E5405 (Table 2).
const (
	l1Sets       = 64 // 32 KiB / 64 B / 8 ways
	l1Ways       = 8
	l2Sets       = 4096 // 6 MiB / 64 B / 24 ways
	l2Ways       = 24
	CoresPerL2   = 4
	DefaultCores = 8
)

// Level classifies where an access was satisfied.
type Level int

// Access outcome levels.
const (
	L1Hit Level = iota
	L2Hit
	RemoteL2Hit // satisfied by the other socket's L2 (or its dirty line)
	MemoryHit   // satisfied by main memory
)

// CoreStats are the per-core PAPI-style counters.
type CoreStats struct {
	Accesses   uint64
	L1Misses   uint64
	L2Misses   uint64 // misses in this core's socket L2
	InvalsSent uint64 // lines this core's writes invalidated elsewhere
	CohMisses  uint64 // L1 misses caused by a prior remote invalidation
	FalseShare uint64 // CohMisses where the remote write touched a
	// different word of the line (classic false sharing)
}

// Sub returns c minus o field-wise, for isolating one measurement
// phase's statistics.
func (c CoreStats) Sub(o CoreStats) CoreStats {
	return CoreStats{
		Accesses:   c.Accesses - o.Accesses,
		L1Misses:   c.L1Misses - o.L1Misses,
		L2Misses:   c.L2Misses - o.L2Misses,
		InvalsSent: c.InvalsSent - o.InvalsSent,
		CohMisses:  c.CohMisses - o.CohMisses,
		FalseShare: c.FalseShare - o.FalseShare,
	}
}

// L1MissRatio returns L1 misses over accesses.
func (c CoreStats) L1MissRatio() float64 {
	if c.Accesses == 0 {
		return 0
	}
	return float64(c.L1Misses) / float64(c.Accesses)
}

type way struct {
	tag uint64 // line address, valid if != 0 (line 0 is never used:
	// the simulated address space starts at 256 MiB)
	lru uint64
}

// cache stores all sets in one flat way array (set s occupies
// ways[s*nways : (s+1)*nways]) so building a hierarchy costs a handful
// of allocations instead of one slice per set. Ways are named by their
// index in that array.
type cache struct {
	ways    []way
	nways   int
	setMask uint64
	tick    uint64
}

func newCache(nsets, nways int) *cache {
	return &cache{
		ways:    make([]way, nsets*nways),
		nways:   nways,
		setMask: uint64(nsets - 1),
	}
}

// find returns the way holding line, or -1.
func (c *cache) find(line uint64) int {
	base := int(line&c.setMask) * c.nways
	for i, w := range c.ways[base : base+c.nways] {
		if w.tag == line {
			return base + i
		}
	}
	return -1
}

// lookup probes for line; on hit it refreshes LRU and returns the way,
// else -1.
func (c *cache) lookup(line uint64) int {
	c.tick++
	i := c.find(line)
	if i >= 0 {
		c.ways[i].lru = c.tick
	}
	return i
}

// insert places line, evicting the LRU way. Returns the way it now
// occupies and the evicted line (0 if the way was empty).
func (c *cache) insert(line uint64) (int, uint64) {
	c.tick++
	base := int(line&c.setMask) * c.nways
	s := c.ways[base : base+c.nways]
	victim := 0
	for i := range s {
		if s[i].tag == 0 {
			victim = i
			break
		}
		if s[i].lru < s[victim].lru {
			victim = i
		}
	}
	old := s[victim].tag
	s[victim] = way{tag: line, lru: c.tick}
	return base + victim, old
}

// invalidate removes line if present.
func (c *cache) invalidate(line uint64) {
	if i := c.find(line); i >= 0 {
		c.ways[i].tag = 0
	}
}

// lineState tracks coherence metadata per line: which cores hold it and
// what invalidated whom.
type lineState struct {
	holders     uint32 // bitmask of cores with the line in L1
	invalidated uint32 // cores whose copy was invalidated since last hold
	lastWriter  int8
	lastWordOff int8 // word offset (0..7) of the most recent write
}

// Hierarchy is the full multicore cache model. Coherence metadata lives
// in a growable lineState arena, so steady-state accesses never allocate
// per line. Each L1 way records the arena index of the line it holds
// (l1Line), so an L1 hit reaches its record by array index; the lineIdx
// map from line to arena index is consulted only after an L1 miss and
// for the inclusive drop on an L2 eviction.
type Hierarchy struct {
	cores     int
	l1        []cache
	l1Line    []int32 // per L1 way, core c's at [c*l1Size, (c+1)*l1Size)
	l2        []cache // one per socket
	lineIdx   map[uint64]int32
	lineArena []lineState
	stats     []CoreStats
}

// l1Size is the number of ways in one L1.
const l1Size = l1Sets * l1Ways

// New builds a hierarchy for the given core count (sockets of
// CoresPerL2 cores each; the last socket may be partial).
func New(cores int) *Hierarchy {
	if cores <= 0 {
		cores = DefaultCores
	}
	sockets := (cores + CoresPerL2 - 1) / CoresPerL2
	h := &Hierarchy{
		cores:     cores,
		l1:        make([]cache, cores),
		l1Line:    make([]int32, cores*l1Size),
		l2:        make([]cache, sockets),
		lineIdx:   make(map[uint64]int32),
		lineArena: make([]lineState, 0, 1<<16),
		stats:     make([]CoreStats, cores),
	}
	for i := range h.l1 {
		h.l1[i] = *newCache(l1Sets, l1Ways)
	}
	for i := range h.l2 {
		h.l2[i] = *newCache(l2Sets, l2Ways)
	}
	return h
}

// lineOf returns the arena index of line's coherence record, creating
// the record on first touch.
func (h *Hierarchy) lineOf(line uint64) int32 {
	if i, ok := h.lineIdx[line]; ok {
		return i
	}
	i := int32(len(h.lineArena))
	h.lineArena = append(h.lineArena, lineState{lastWriter: -1})
	h.lineIdx[line] = i
	return i
}

func socketOf(core int) int { return core / CoresPerL2 }

// Result describes one simulated access.
type Result struct {
	Level       Level
	Coherence   bool // the L1 miss was caused by a remote invalidation
	Invalidated bool // this write invalidated the line in other L1s
}

// Access simulates one data access by core to addr.
func (h *Hierarchy) Access(core int, addr mem.Addr, write bool) Result {
	line := uint64(addr) >> LineShift
	st := &h.stats[core]
	st.Accesses++

	var res Result
	l1Line := h.l1Line[core*l1Size:]
	if w := h.l1[core].lookup(line); w >= 0 {
		if write {
			res.Invalidated = h.invalidateOthers(core, &h.lineArena[l1Line[w]], line, addr)
		}
		return res
	}

	// L1 miss: only now is the line map consulted (first touch creates
	// the record).
	st.L1Misses++
	li := h.lineOf(line)
	ls := &h.lineArena[li] // the arena does not grow again in this access
	bit := uint32(1) << uint(core)
	if ls.invalidated&bit != 0 {
		res.Coherence = true
		st.CohMisses++
		// False sharing: the write that invalidated us touched a
		// different word of the line.
		if ls.lastWriter >= 0 && ls.lastWordOff != int8((uint64(addr)>>3)&7) {
			st.FalseShare++
		}
		ls.invalidated &^= bit
	}

	sock := socketOf(core)
	if h.l2[sock].lookup(line) >= 0 {
		res.Level = L2Hit
	} else {
		st.L2Misses++
		// A dirty or shared copy in another socket's cache services the
		// request faster than memory.
		if ls.holders&^h.socketMask(sock) != 0 {
			res.Level = RemoteL2Hit
		} else {
			res.Level = MemoryHit
		}
		if _, evicted := h.l2[sock].insert(line); evicted != 0 {
			// Inclusive model: L2 eviction drops the line from this
			// socket's L1s.
			h.dropFromSocketL1s(sock, evicted)
		}
	}

	w, evicted := h.l1[core].insert(line)
	if evicted != 0 {
		// The way still names the evicted line's record.
		h.lineArena[l1Line[w]].holders &^= bit
	}
	l1Line[w] = li
	ls.holders |= bit
	if write {
		res.Invalidated = h.invalidateOthers(core, ls, line, addr)
	}
	return res
}

func (h *Hierarchy) socketMask(sock int) uint32 {
	var m uint32
	for c := 0; c < h.cores; c++ {
		if socketOf(c) == sock {
			m |= 1 << uint(c)
		}
	}
	return m
}

func (h *Hierarchy) invalidateOthers(core int, ls *lineState, line uint64, addr mem.Addr) bool {
	bit := uint32(1) << uint(core)
	others := ls.holders &^ bit
	sent := others != 0
	if others != 0 {
		for c := 0; c < h.cores; c++ {
			if others&(1<<uint(c)) != 0 {
				h.l1[c].invalidate(line)
			}
		}
		ls.invalidated |= others
		ls.holders &= bit
		h.stats[core].InvalsSent++
	}
	ls.lastWriter = int8(core)
	ls.lastWordOff = int8((uint64(addr) >> 3) & 7)
	return sent
}

func (h *Hierarchy) dropFromSocketL1s(sock int, line uint64) {
	i, ok := h.lineIdx[line]
	if !ok {
		return
	}
	ls := &h.lineArena[i]
	m := h.socketMask(sock)
	if ls.holders&m == 0 {
		return
	}
	for c := 0; c < h.cores; c++ {
		if socketOf(c) == sock && ls.holders&(1<<uint(c)) != 0 {
			h.l1[c].invalidate(line)
			ls.holders &^= 1 << uint(c)
		}
	}
}

// Stats returns a copy of core c's counters.
func (h *Hierarchy) Stats(core int) CoreStats { return h.stats[core] }

// TotalStats sums counters over all cores.
func (h *Hierarchy) TotalStats() CoreStats {
	var out CoreStats
	for _, s := range h.stats {
		out.Accesses += s.Accesses
		out.L1Misses += s.L1Misses
		out.L2Misses += s.L2Misses
		out.InvalsSent += s.InvalsSent
		out.CohMisses += s.CohMisses
		out.FalseShare += s.FalseShare
	}
	return out
}
