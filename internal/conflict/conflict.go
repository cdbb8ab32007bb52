// Package conflict implements the abort-forensics observatory: a
// deterministic pure observer that consumes the STM's transaction
// events (stm.Observer: aborts with their killers, commits) and the
// allocator block lifecycle from the address space (mem.HeapWatcher),
// reads each thread's transaction label from the STM, and answers the
// question the aggregate counters cannot — *why did this transaction
// die, and which allocation decision is to blame?*
//
// Every abort is classified against allocator provenance into one of
// four placement classes (plus a residue):
//
//   - true-sharing: victim and killer collided on the same word — a
//     real data conflict no allocator placement could avoid.
//   - false-sharing: different addresses inside one 2^shift-byte
//     stripe. The ORT's lock granule made two logically independent
//     accesses conflict; the allocator chose the placement that put
//     them there (intra-block in the paper's sense — one lock block).
//   - stripe-alias: different stripes folded onto one ORT entry by the
//     modulo — the paper's 64 MiB-apart aliasing pathology.
//   - metadata: a conflicting address lies outside every live
//     allocator block — in-band heap metadata (boundary tags,
//     free-list links) or a reclaimed block, sharing a stripe with
//     application data.
//   - other: aborts with no attributable stripe (commit-time
//     validation, explicit restarts, OOM, kills).
//
// The event stream is aggregated four ways: a killer×victim conflict
// graph over transaction kinds and threads with wasted-cycle edge
// weights, a per-allocation-site blame table, abort-chain detection
// (longest kill cascades, repeat-offender addresses), and a bounded
// reservoir of exemplar events.
//
// Like internal/race, the observatory is pure: it never touches
// simulated memory, never ticks virtual time, and never changes a
// protocol decision, so an observed run is byte-identical to a plain
// run. All its state is host-side and driven from simulated threads,
// which the engine serializes, so it needs no locking.
package conflict

import (
	"fmt"

	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/stm"
)

// Class is one placement class of the abort taxonomy.
type Class int

// Placement classes.
const (
	ClassTrue  Class = iota // same word: a real data conflict
	ClassFalse              // same stripe, different addresses, live blocks
	ClassAlias              // different stripes aliased onto one ORT entry
	ClassMeta               // a conflicting address in allocator metadata / a reclaimed block
	ClassOther              // no attributable stripe
	classCount
)

func (c Class) String() string {
	switch c {
	case ClassTrue:
		return "true-sharing"
	case ClassFalse:
		return "false-sharing"
	case ClassAlias:
		return "stripe-alias"
	case ClassMeta:
		return "metadata"
	case ClassOther:
		return "other"
	}
	return fmt.Sprintf("class(%d)", int(c))
}

const (
	maxExemplars = 32   // bounded reservoir of rendered events
	maxOffenders = 4096 // bounded repeat-offender address map
	lineSize     = 64   // cache-line granularity for the same-line enrichment
)

// unlabeled is the kind shown for transactions that never called
// SetKind, and the site of blocks allocated outside any labeled
// transaction.
const unlabeled = "tx"

// block is the observatory's record of one allocator block.
type block struct {
	base, end mem.Addr
	allocator string
	site      string // kind label in force on the allocating thread
	live      bool
}

// edgeStat is one killer-kind → victim-kind edge of the conflict graph.
type edgeStat struct {
	aborts int
	false_ int // placement-caused share (everything but true-sharing/other)
	wasted uint64
}

// siteStat is one allocation site's blame-table row.
type siteStat struct {
	aborts int
	wasted uint64
}

// Observatory consumes transaction events and block lifecycle events.
// It implements stm.Observer and mem.HeapWatcher.
type Observatory struct {
	shift uint                 // placement key = addr >> shift (the STM's Shift)
	kind  func(tid int) string // thread tid's current label ("" if unlabeled)
	chain []int                // per-tid current abort-cascade depth

	blocks    map[mem.Addr]*block // by user base
	wordOwner map[mem.Addr]*block // word address -> owning block

	counts [classCount]int
	wasted [classCount]uint64

	sameLine   int // false-sharing pairs within one cache line
	crossBlock int // false-sharing pairs spanning two allocator blocks

	edges    map[[2]string]*edgeStat // (killer kind, victim kind)
	thrEdges map[[2]int]int          // (killer tid, victim tid) abort counts

	sites map[string]*siteStat

	longestChain int
	offenders    map[mem.Addr]int
	offDropped   int // events whose offender address missed the bounded map

	events    int
	exemplars []Exemplar
}

// New returns an observatory for an STM whose lock map discards shift
// low address bits ((*stm.STM).LockMap) and whose threads' labels kind
// returns ((*stm.STM).Kind). threads sizes the per-thread table; it
// grows on demand if a larger tid appears.
func New(threads int, shift uint, kind func(tid int) string) *Observatory {
	if threads < 1 {
		threads = 1
	}
	return &Observatory{
		shift:     shift,
		kind:      kind,
		chain:     make([]int, threads),
		blocks:    make(map[mem.Addr]*block),
		wordOwner: make(map[mem.Addr]*block),
		edges:     make(map[[2]string]*edgeStat),
		thrEdges:  make(map[[2]int]int),
		sites:     make(map[string]*siteStat),
		offenders: make(map[mem.Addr]int),
	}
}

func (o *Observatory) grow(tid int) {
	for tid >= len(o.chain) {
		o.chain = append(o.chain, 0)
	}
}

func (o *Observatory) kindOf(tid int) string {
	if k := o.kind(tid); k != "" {
		return k
	}
	return unlabeled
}

// OnTx implements stm.Observer. An abort arrives with its killer named
// by the STM, and a commit ends the thread's abort cascade.
func (o *Observatory) OnTx(ev stm.Event) {
	switch ev.Kind {
	case stm.EvAbort:
		o.abort(ev)
	case stm.EvCommit:
		o.grow(ev.Tid)
		o.chain[ev.Tid] = 0
	}
}

// OnHeapAlloc implements mem.HeapWatcher: track the block with its
// allocator and the kind label in force on the allocating thread (its
// allocation site).
func (o *Observatory) OnHeapAlloc(allocator string, base mem.Addr, req, usable uint64, tid int, clock uint64) {
	if usable < req {
		usable = req
	}
	b := &block{
		base:      base,
		end:       base + mem.Addr(usable),
		allocator: allocator,
		site:      o.kindOf(tid),
		live:      true,
	}
	o.blocks[base] = b
	for a := base &^ (mem.WordSize - 1); a < b.end; a += mem.WordSize {
		o.wordOwner[a] = b
	}
}

// OnHeapFree implements mem.HeapWatcher. The words stay mapped to the
// dead block until an allocation overwrites them: an address resolving
// to a non-live block is exactly the metadata/reclaimed-words signal
// the classifier wants.
func (o *Observatory) OnHeapFree(base mem.Addr, tid int, clock uint64) {
	if b, ok := o.blocks[base]; ok {
		b.live = false
	}
}

// OnHeapReuse implements mem.HeapWatcher: a pooling discipline revived
// the block without an allocator round trip.
func (o *Observatory) OnHeapReuse(base mem.Addr, tid int, clock uint64) {
	if b, ok := o.blocks[base]; ok {
		b.live = true
	}
}

// find resolves an address to its owning block, or nil.
func (o *Observatory) find(a mem.Addr) *block {
	b := o.wordOwner[a&^(mem.WordSize-1)]
	if b == nil || a < b.base || a >= b.end {
		return nil
	}
	return b
}

// Classify maps one event onto the taxonomy, with the same-cache-line
// and cross-block enrichment bits (meaningful for ClassFalse only).
func (o *Observatory) Classify(ev stm.Event) (class Class, sameLine, crossBlock bool) {
	if ev.Stripe == obs.NoStripe || ev.Owner == 0 {
		return ClassOther, false, false
	}
	if ev.Addr == ev.Owner {
		return ClassTrue, true, false
	}
	if uint64(ev.Addr)>>o.shift != uint64(ev.Owner)>>o.shift {
		return ClassAlias, false, false
	}
	vb, ob := o.find(ev.Addr), o.find(ev.Owner)
	if vb == nil || ob == nil || !vb.live || !ob.live {
		return ClassMeta, false, false
	}
	sameLine = uint64(ev.Addr)/lineSize == uint64(ev.Owner)/lineSize
	return ClassFalse, sameLine, vb != ob
}

// abort consumes one abort event: the victim is ev.Tid, the killer
// ev.Killer.
func (o *Observatory) abort(ev stm.Event) {
	o.grow(ev.Tid)
	if ev.Killer >= 0 {
		o.grow(ev.Killer)
	}
	o.events++

	class, sameLine, crossBlock := o.Classify(ev)
	o.counts[class]++
	o.wasted[class] += ev.Wasted
	if class == ClassFalse {
		if sameLine {
			o.sameLine++
		}
		if crossBlock {
			o.crossBlock++
		}
	}

	// Conflict graph: kind-level edge with wasted-cycle weight, plus the
	// thread-level matrix. An unattributed killer is the "?" node.
	vKind := o.kindOf(ev.Tid)
	kKind := "?"
	if ev.Killer >= 0 {
		kKind = o.kindOf(ev.Killer)
	}
	ek := [2]string{kKind, vKind}
	e := o.edges[ek]
	if e == nil {
		e = &edgeStat{}
		o.edges[ek] = e
	}
	e.aborts++
	e.wasted += ev.Wasted
	placement := class == ClassFalse || class == ClassAlias || class == ClassMeta
	if placement {
		e.false_++
	}
	o.thrEdges[[2]int{ev.Killer, ev.Tid}]++

	// Blame table: placement-caused events charge the sites of the
	// blocks owning the conflicting addresses (both sides when they
	// differ — the pair's placement is to blame, not one call site).
	if placement {
		o.blame(ev.Addr, ev.Wasted)
		if o.find(ev.Owner) != o.find(ev.Addr) {
			o.blame(ev.Owner, ev.Wasted)
		}
		// Repeat offenders: the stripe-owning address that keeps killing.
		if _, ok := o.offenders[ev.Owner]; ok || len(o.offenders) < maxOffenders {
			o.offenders[ev.Owner]++
		} else {
			o.offDropped++
		}
	}

	// Abort cascade: the victim's chain extends the killer's.
	depth := 1
	if ev.Killer >= 0 {
		depth = o.chain[ev.Killer] + 1
	}
	o.chain[ev.Tid] = depth
	if depth > o.longestChain {
		o.longestChain = depth
	}

	if len(o.exemplars) < maxExemplars {
		o.exemplars = append(o.exemplars, Exemplar{
			Class:      class.String(),
			Reason:     ev.Reason.String(),
			Victim:     ev.Tid,
			VictimKind: vKind,
			Killer:     ev.Killer,
			KillerKind: kKind,
			Attempt:    ev.Attempt,
			Stripe:     ev.Stripe,
			VictimAddr: uint64(ev.Addr),
			OwnerAddr:  uint64(ev.Owner),
			Wasted:     ev.Wasted,
			Rendered:   o.render(class, ev, vKind, kKind),
		})
	}
}

// blame charges an event's wasted cycles to the site of the block
// owning addr. Addresses outside any block (raw metadata) charge the
// pseudo-site "metadata".
func (o *Observatory) blame(addr mem.Addr, wasted uint64) {
	site := "metadata"
	if b := o.wordOwner[addr&^(mem.WordSize-1)]; b != nil {
		site = b.site
		if !b.live {
			site += " (freed)"
		}
	}
	st := o.sites[site]
	if st == nil {
		st = &siteStat{}
		o.sites[site] = st
	}
	st.aborts++
	st.wasted += wasted
}

func (o *Observatory) render(class Class, ev stm.Event, vKind, kKind string) string {
	killer := "?"
	if ev.Killer >= 0 {
		killer = fmt.Sprintf("t%d %s", ev.Killer, kKind)
	}
	if ev.Stripe == obs.NoStripe {
		return fmt.Sprintf("%s: t%d %s #%d killed by %s (%s), wasted %d",
			class, ev.Tid, vKind, ev.Attempt, killer, ev.Reason, ev.Wasted)
	}
	return fmt.Sprintf("%s: t%d %s #%d killed by %s (%s) at stripe %#x, %#x vs %#x, wasted %d",
		class, ev.Tid, vKind, ev.Attempt, killer, ev.Reason,
		ev.Stripe, uint64(ev.Addr), uint64(ev.Owner), ev.Wasted)
}

// Events returns the number of abort events consumed.
func (o *Observatory) Events() int { return o.events }

// Count returns the abort count of one class.
func (o *Observatory) Count(c Class) int { return o.counts[c] }

// WastedTotal returns the wasted virtual cycles across all classes.
func (o *Observatory) WastedTotal() uint64 {
	var t uint64
	for _, w := range o.wasted {
		t += w
	}
	return t
}

// Info condenses the observatory into the flat record block.
func (o *Observatory) Info() *obs.ConflictInfo {
	info := &obs.ConflictInfo{
		Observed:     true,
		Events:       o.events,
		TrueSharing:  o.counts[ClassTrue],
		FalseSharing: o.counts[ClassFalse],
		StripeAlias:  o.counts[ClassAlias],
		Metadata:     o.counts[ClassMeta],
		Other:        o.counts[ClassOther],
		WastedCycles: o.WastedTotal(),
		WastedTrue:   o.wasted[ClassTrue],
		WastedFalse:  o.wasted[ClassFalse],
		WastedAlias:  o.wasted[ClassAlias],
		WastedMeta:   o.wasted[ClassMeta],
		WastedOther:  o.wasted[ClassOther],
		SameLine:     o.sameLine,
		CrossBlock:   o.crossBlock,
		Edges:        len(o.edges),
		LongestChain: o.longestChain,
	}
	if len(o.exemplars) > 0 {
		info.First = o.exemplars[0].Rendered
	}
	for _, s := range o.topSites() {
		info.TopSite, info.TopSiteWasted = s.Site, s.Wasted
		break
	}
	for _, f := range o.topOffenders() {
		info.TopOffender, info.TopOffenderHits = fmt.Sprintf("%#x", f.Addr), f.Hits
		break
	}
	return info
}
