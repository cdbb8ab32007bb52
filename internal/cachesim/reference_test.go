package cachesim

import "repro/internal/mem"

// refHierarchy is the test oracle for Hierarchy: the map-based model it
// replaced, which resolves every access's coherence record through the
// line map before probing the L1. It keeps its own copies of the cache
// and line-state types so a change to Hierarchy's cannot move it, and
// counts the events the differential test must reach.
type refHierarchy struct {
	cores     int
	l1        []refCache
	l2        []refCache // one per socket
	lineIdx   map[uint64]int32
	lineArena []refLineState
	stats     []CoreStats

	l1Evictions, l2Evictions, inclusiveDrops uint64
}

type refWay struct {
	tag uint64 // line address, valid if != 0
	lru uint64
}

type refCache struct {
	ways    []refWay
	nways   int
	setMask uint64
	tick    uint64
}

func newRefCache(nsets, nways int) refCache {
	return refCache{
		ways:    make([]refWay, nsets*nways),
		nways:   nways,
		setMask: uint64(nsets - 1),
	}
}

func (c *refCache) set(line uint64) []refWay {
	base := int(line&c.setMask) * c.nways
	return c.ways[base : base+c.nways]
}

// lookup probes for line; on hit it refreshes LRU.
func (c *refCache) lookup(line uint64) bool {
	c.tick++
	s := c.set(line)
	for i := range s {
		if s[i].tag == line {
			s[i].lru = c.tick
			return true
		}
	}
	return false
}

// insert places line, evicting the LRU way. Returns the evicted line (0
// if the way was empty).
func (c *refCache) insert(line uint64) uint64 {
	c.tick++
	s := c.set(line)
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
	s[victim] = refWay{tag: line, lru: c.tick}
	return old
}

// invalidate removes line if present, reporting whether it was.
func (c *refCache) invalidate(line uint64) bool {
	s := c.set(line)
	for i := range s {
		if s[i].tag == line {
			s[i].tag = 0
			return true
		}
	}
	return false
}

type refLineState struct {
	holders     uint32 // bitmask of cores with the line in L1
	invalidated uint32 // cores whose copy was invalidated since last hold
	lastWriter  int8
	lastWordOff int8 // word offset (0..7) of the most recent write
}

func newRef(cores int) *refHierarchy {
	sockets := (cores + CoresPerL2 - 1) / CoresPerL2
	h := &refHierarchy{
		cores:   cores,
		l1:      make([]refCache, cores),
		l2:      make([]refCache, sockets),
		lineIdx: map[uint64]int32{},
		stats:   make([]CoreStats, cores),
	}
	for i := range h.l1 {
		h.l1[i] = newRefCache(l1Sets, l1Ways)
	}
	for i := range h.l2 {
		h.l2[i] = newRefCache(l2Sets, l2Ways)
	}
	return h
}

// lineOf returns the coherence record for line, creating it on first
// touch. The pointer is valid until the next lineOf call.
func (h *refHierarchy) lineOf(line uint64) *refLineState {
	if i, ok := h.lineIdx[line]; ok {
		return &h.lineArena[i]
	}
	h.lineArena = append(h.lineArena, refLineState{lastWriter: -1})
	i := int32(len(h.lineArena) - 1)
	h.lineIdx[line] = i
	return &h.lineArena[i]
}

// peekLine returns the coherence record for line, or nil if the line
// was never touched.
func (h *refHierarchy) peekLine(line uint64) *refLineState {
	if i, ok := h.lineIdx[line]; ok {
		return &h.lineArena[i]
	}
	return nil
}

func (h *refHierarchy) Access(core int, addr mem.Addr, write bool) Result {
	line := uint64(addr) >> LineShift
	st := &h.stats[core]
	st.Accesses++

	ls := h.lineOf(line)

	var res Result
	bit := uint32(1) << uint(core)
	if h.l1[core].lookup(line) {
		if write {
			res.Invalidated = h.invalidateOthers(core, ls, line, addr)
		}
		return res
	}

	st.L1Misses++
	if ls.invalidated&bit != 0 {
		res.Coherence = true
		st.CohMisses++
		if ls.lastWriter >= 0 && ls.lastWordOff != int8((uint64(addr)>>3)&7) {
			st.FalseShare++
		}
		ls.invalidated &^= bit
	}

	sock := socketOf(core)
	if h.l2[sock].lookup(line) {
		res.Level = L2Hit
	} else {
		st.L2Misses++
		if ls.holders&^h.socketMask(sock) != 0 {
			res.Level = RemoteL2Hit
		} else {
			res.Level = MemoryHit
		}
		if evicted := h.l2[sock].insert(line); evicted != 0 {
			h.l2Evictions++
			h.dropFromSocketL1s(sock, evicted)
		}
	}

	if evicted := h.l1[core].insert(line); evicted != 0 {
		h.l1Evictions++
		if els := h.peekLine(evicted); els != nil {
			els.holders &^= bit
		}
	}
	ls.holders |= bit
	if write {
		res.Invalidated = h.invalidateOthers(core, ls, line, addr)
	}
	return res
}

func (h *refHierarchy) socketMask(sock int) uint32 {
	var m uint32
	for c := 0; c < h.cores; c++ {
		if socketOf(c) == sock {
			m |= 1 << uint(c)
		}
	}
	return m
}

func (h *refHierarchy) invalidateOthers(core int, ls *refLineState, line uint64, addr mem.Addr) bool {
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

func (h *refHierarchy) dropFromSocketL1s(sock int, line uint64) {
	ls := h.peekLine(line)
	if ls == nil {
		return
	}
	m := h.socketMask(sock)
	if ls.holders&m == 0 {
		return
	}
	for c := 0; c < h.cores; c++ {
		if socketOf(c) == sock && ls.holders&(1<<uint(c)) != 0 {
			h.l1[c].invalidate(line)
			ls.holders &^= 1 << uint(c)
			h.inclusiveDrops++
		}
	}
}
