package mem

import "fmt"

// Sanitizer mode: an ASan-style shadow map over the simulated address
// space. Every allocator block is registered on malloc and poisoned on
// free, and the size-class slack past the rounded-up request becomes a
// redzone, so transactional accesses to freed words, redzone words, or
// wild addresses produce a diagnostic naming the owning allocator and
// block with alloc/free virtual-time provenance.
//
// The shadow map is pure metadata: it never writes data words, never
// advances virtual time, and never alters allocator placement, so a
// sanitized run is byte-identical to an unsanitized one unless a
// diagnostic fires (TestObserverPurity in internal/harness holds this).

// ShadowState classifies one simulated word.
type ShadowState uint8

const (
	// ShadowNone: not part of any tracked allocator block. Words inside a
	// mapped region are addressable (allocator metadata, app statics);
	// words outside any region are wild.
	ShadowNone ShadowState = iota
	// ShadowAllocated: inside the requested bytes of a live block.
	ShadowAllocated
	// ShadowFreed: inside a freed block (quarantined or recycled).
	ShadowFreed
	// ShadowRedzone: size-class slack past the request; touching it is a
	// heap overflow.
	ShadowRedzone
)

func (st ShadowState) String() string {
	switch st {
	case ShadowAllocated:
		return "allocated"
	case ShadowFreed:
		return "freed"
	case ShadowRedzone:
		return "redzone"
	default:
		return "none"
	}
}

// ShadowBlock is the provenance record for one allocator block.
type ShadowBlock struct {
	Base       Addr   // address returned by malloc
	Req        uint64 // requested bytes
	Usable     uint64 // usable bytes (size-class block size)
	Allocator  string // owning allocator model ("glibc", "hoard", ...)
	AllocTid   int
	AllocClock uint64 // virtual time of the allocation
	Freed      bool
	FreeTid    int
	FreeClock  uint64 // virtual time of the (first) free
}

// shadowPage mirrors one 64 KiB page at word granularity.
type shadowPage struct {
	state [PageWords]ShadowState
	block [PageWords]uint32 // 1-based index into Shadow.blocks; 0 = none
}

// Shadow is the per-Space sanitizer state. Like the allocator models it
// shadows, it is driven only from simulated threads, which the virtual
// time engine serializes, so it uses plain maps without locking.
type Shadow struct {
	space  *Space
	pages  map[uint64]*shadowPage
	blocks []ShadowBlock
	byBase map[Addr]uint32 // block base -> 1-based id of latest block there
}

func newShadow(s *Space) *Shadow {
	return &Shadow{
		space:  s,
		pages:  map[uint64]*shadowPage{},
		byBase: map[Addr]uint32{},
	}
}

func (sh *Shadow) pageAt(a Addr, create bool) (*shadowPage, uint64) {
	pn := uint64(a) >> PageShift
	p := sh.pages[pn]
	if p == nil && create {
		p = new(shadowPage)
		sh.pages[pn] = p
	}
	return p, (uint64(a) & pageMask) >> 3
}

func (sh *Shadow) setRange(base Addr, n uint64, st ShadowState, id uint32) {
	for off := uint64(0); off < n; off += WordSize {
		p, w := sh.pageAt(base+Addr(off), true)
		p.state[w] = st
		p.block[w] = id
	}
}

// OnHeapAlloc registers a block returned by an allocator's malloc: the
// requested words become allocated, and the slack up to usable becomes a
// redzone. A later block at the same base overwrites the earlier record,
// keeping the block table bounded under heavy recycling.
func (sh *Shadow) OnHeapAlloc(allocator string, base Addr, req, usable uint64, tid int, clock uint64) {
	if base == 0 {
		return
	}
	blk := ShadowBlock{
		Base: base, Req: req, Usable: usable,
		Allocator: allocator, AllocTid: tid, AllocClock: clock,
	}
	id, ok := sh.byBase[base]
	if ok {
		sh.blocks[id-1] = blk
	} else {
		sh.blocks = append(sh.blocks, blk)
		id = uint32(len(sh.blocks))
		sh.byBase[base] = id
	}
	reqW := AlignUp(req, WordSize)
	if reqW > usable {
		reqW = usable
	}
	sh.setRange(base, reqW, ShadowAllocated, id)
	sh.setRange(base+Addr(reqW), usable-reqW, ShadowRedzone, id)
}

// OnHeapFree poisons a block: every word (request and redzone alike) turns
// freed, and the free's virtual-time provenance is recorded. Unknown
// bases and blocks already freed are ignored, so the allocator-level
// free issued when quarantine releases a transactionally freed block
// does not clobber the original free site.
func (sh *Shadow) OnHeapFree(base Addr, tid int, clock uint64) {
	id := sh.byBase[base]
	if id == 0 {
		return
	}
	blk := &sh.blocks[id-1]
	if blk.Freed {
		return
	}
	blk.Freed = true
	blk.FreeTid = tid
	blk.FreeClock = clock
	sh.setRange(base, blk.Usable, ShadowFreed, id)
}

// OnHeapReuse re-arms a block handed back from a transaction-local free
// cache: the allocator never saw the free/malloc pair, so the shadow
// state is rebuilt from the stored geometry.
func (sh *Shadow) OnHeapReuse(base Addr, tid int, clock uint64) {
	id := sh.byBase[base]
	if id == 0 {
		return
	}
	blk := &sh.blocks[id-1]
	blk.Freed = false
	blk.AllocTid = tid
	blk.AllocClock = clock
	reqW := AlignUp(blk.Req, WordSize)
	if reqW > blk.Usable {
		reqW = blk.Usable
	}
	sh.setRange(base, reqW, ShadowAllocated, id)
	sh.setRange(base+Addr(reqW), blk.Usable-reqW, ShadowRedzone, id)
}

// DiagKind names a class of sanitizer finding.
type DiagKind string

const (
	DiagUseAfterFree DiagKind = "use-after-free"
	DiagOverflow     DiagKind = "heap-buffer-overflow"
	DiagWildAddr     DiagKind = "wild-address"
	DiagDoubleFree   DiagKind = "double-free"
)

// Diag is one sanitizer finding. It is raised as a panic value by the
// STM layer so the faulting transaction fails like any other fatal
// application error.
type Diag struct {
	Kind  DiagKind
	Addr  Addr
	Write bool
	Tid   int
	Clock uint64
	Block *ShadowBlock // owning block, when one is known
}

func (d *Diag) Error() string {
	op := "read"
	if d.Write {
		op = "write"
	}
	msg := fmt.Sprintf("mem: sanitizer: %s: %s of %#x by thread %d at vtime %d",
		d.Kind, op, uint64(d.Addr), d.Tid, d.Clock)
	if b := d.Block; b != nil {
		msg += fmt.Sprintf("\n  block %#x (req %d, usable %d bytes) owned by allocator %q",
			uint64(b.Base), b.Req, b.Usable, b.Allocator)
		msg += fmt.Sprintf("\n  allocated by thread %d at vtime %d", b.AllocTid, b.AllocClock)
		if b.Freed {
			msg += fmt.Sprintf("\n  freed by thread %d at vtime %d", b.FreeTid, b.FreeClock)
		}
	}
	return msg
}

// Check classifies a transactional access to address a, returning a
// diagnostic when the access hits freed memory, a redzone, or a wild
// address, and nil for clean accesses.
func (sh *Shadow) Check(a Addr, write bool, tid int, clock uint64) *Diag {
	p, w := sh.pageAt(a, false)
	if p != nil {
		switch p.state[w] {
		case ShadowAllocated:
			return nil
		case ShadowFreed:
			return sh.diag(DiagUseAfterFree, a, write, tid, clock, p.block[w])
		case ShadowRedzone:
			return sh.diag(DiagOverflow, a, write, tid, clock, p.block[w])
		}
		// ShadowNone on a page the sanitizer tracks: the page holds
		// allocator blocks, so a word belonging to none of them is
		// allocator metadata or never-allocated carve space — wild from
		// the application's point of view.
		return sh.diag(DiagWildAddr, a, write, tid, clock, 0)
	}
	// Untracked page: fine if mapped (application statics, harness
	// regions), wild otherwise.
	if _, ok := sh.space.RegionOf(a); ok {
		return nil
	}
	return sh.diag(DiagWildAddr, a, write, tid, clock, 0)
}

// CheckFree classifies a transactional free of block base: freeing an
// already-freed block is a double free. Unknown bases are left for the
// allocator's own validation (glibc's boundary-tag checks).
func (sh *Shadow) CheckFree(base Addr, tid int, clock uint64) *Diag {
	id := sh.byBase[base]
	if id == 0 {
		return nil
	}
	if sh.blocks[id-1].Freed {
		return sh.diag(DiagDoubleFree, base, true, tid, clock, id)
	}
	return nil
}

func (sh *Shadow) diag(kind DiagKind, a Addr, write bool, tid int, clock uint64, id uint32) *Diag {
	d := &Diag{Kind: kind, Addr: a, Write: write, Tid: tid, Clock: clock}
	if id != 0 {
		blk := sh.blocks[id-1]
		d.Block = &blk
	}
	return d
}

// StateAt returns the shadow state of address a (for tests and tools).
func (sh *Shadow) StateAt(a Addr) ShadowState {
	p, w := sh.pageAt(a, false)
	if p == nil {
		return ShadowNone
	}
	return p.state[w]
}

// BlockAt returns the provenance record owning address a, if any.
func (sh *Shadow) BlockAt(a Addr) (ShadowBlock, bool) {
	p, w := sh.pageAt(a, false)
	if p == nil || p.block[w] == 0 {
		return ShadowBlock{}, false
	}
	return sh.blocks[p.block[w]-1], true
}

// EnableSanitizer attaches a shadow map to the space (idempotent) and
// returns it. The map learns blocks as they are allocated, so attach
// it before the space's first allocation: core.NewSystem does, first
// among the watchers, when its Policy selects Sanitize.
func (s *Space) EnableSanitizer() *Shadow {
	if s.shadow == nil {
		s.shadow = newShadow(s)
		s.watchers = append(s.watchers, s.shadow)
	}
	return s.shadow
}

// Sanitizer returns the space's shadow map, or nil when sanitizer mode
// is off.
func (s *Space) Sanitizer() *Shadow { return s.shadow }
