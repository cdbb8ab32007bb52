// Package pmem models the simulated address space as persistent memory
// and makes transactions durable.
//
// The model follows the x86 persistence domain: a store becomes durable
// only after its cache line is written back (clwb, priced as
// CostModel.Flush) and the writeback is ordered by a fence (sfence,
// priced FenceBase plus FenceLine per draining line). pmem tracks every
// 64-byte line of the space through mem.PersistTracker: a store dirties
// its line, a flush moves the line into the draining set, and a fence
// captures the line's content into a host-side durable image. A
// deterministic crash (internal/fault crash clauses) discards
// everything volatile — the recovered heap is rebuilt from the durable
// image alone.
//
// Three durable structures ride on top of the line model:
//
//   - a per-thread redo log, appended during STM commit (populate →
//     fence → commit marker → fence → write back → flush → fence →
//     truncate). A log without its marker is torn and is discarded by
//     recovery; a marked log whose truncate record is missing is
//     replayed. The stm package drives it through its DurableLog
//     interface, which Pmem satisfies structurally.
//   - a block journal fed by the allocator-lifecycle fan-out
//     (OnHeapAlloc/OnHeapFree/OnHeapReuse): a malloc'd block is pending
//     until the allocating transaction's log commits, then live; a free
//     that commits marks it freed. Recovery frees pending blocks — their
//     transaction never committed.
//   - an allocator metadata journal (alloc.MetaJournal): one record per
//     structural event (arena/superblock/span creation, class
//     assignment), the out-of-band truth RecoverHeap rebuilds free lists
//     from.
//
// Fence semantics are deliberately generous in the safe direction: the
// fence persists the *fence-time* content of every line flushed since
// the previous fence, so a store that lands between a line's flush and
// the fence is captured rather than torn. Only flushed lines persist —
// a line that is never flushed (allocator boundary tags, free-list
// links) keeps only its content as of the last checkpoint, which is
// exactly the torn-metadata surface the recovery pass repairs.
//
// All pmem bookkeeping is host-side metadata driven from simulated
// threads, which the virtual-time engine serializes; pricing happens
// only at the explicit Flush/Fence/log call sites, so a run with a
// tracker attached but no durable traffic is cycle-identical to an
// untracked one.
package pmem

import (
	"sort"

	"repro/internal/alloc"
	"repro/internal/fault"
	"repro/internal/mem"
	"repro/internal/vtime"
)

// Line geometry: 64-byte persistence lines, eight 64-bit words.
const (
	LineShift = 6
	LineSize  = 1 << LineShift
	LineWords = LineSize / 8
)

func lineOf(a mem.Addr) mem.Addr { return a &^ (LineSize - 1) }

// line is the durable image of one cache line.
type line [LineWords]uint64

// blockState tracks one journaled heap block through its durable
// lifecycle.
type blockState uint8

const (
	blockPending blockState = iota // malloc'd, allocating tx not yet committed
	blockLive                      // alloc committed (or checkpointed)
	blockFreed                     // free committed, rolled back, or reclaimed
)

// blockRec is one entry of the durable block journal.
type blockRec struct {
	base   mem.Addr
	req    uint64
	usable uint64
	state  blockState
}

// Stats counts the durable traffic a run generated.
type Stats struct {
	Flushes    uint64 // line writebacks issued (clwb)
	Fences     uint64 // ordering fences issued (sfence)
	Lines      uint64 // lines persisted by fences
	LogAppends uint64 // redo-log records appended (incl. begin/commit/truncate markers)
	MetaRecs   uint64 // allocator structural-journal records
}

// Pmem is the durable-memory layer over one address space. Attach it
// before the space is shared across simulated threads; one Pmem serves
// one run.
type Pmem struct {
	space *mem.Space
	plan  *fault.Plan // crash clauses; nil means no crash injection

	// stopper halts the virtual-time engine when a crash fires
	// (vtime.Engine satisfies it).
	stopper interface{ Stop() }

	// Line tracking. durable holds the persisted image of every line a
	// fence has captured; dirty the lines stored since their last flush;
	// pending the lines flushed and draining toward the next fence;
	// touched every line ever stored (the revert set for ApplyCrash).
	durable map[mem.Addr]*line
	dirty   map[mem.Addr]struct{}
	pending map[mem.Addr]struct{}
	touched map[mem.Addr]struct{}

	// Redo log: active logs are populated but unmarked (torn if the
	// machine dies now); committed logs carry their marker and await
	// truncation; applying maps a thread to the committed log it is
	// writing back.
	active    map[int]*txLog
	committed []*txLog
	applying  map[int]*txLog
	seq       uint64

	// oracle records the last durably-committed value of every
	// transactionally written word — the ground truth the post-recovery
	// lost-write sweep checks the heap against.
	oracle map[mem.Addr]uint64

	// Block and structural-metadata journals.
	blocks    map[mem.Addr]*blockRec
	meta      []alloc.MetaRec
	allocName string

	crashed    bool
	recovering bool
	crashCycle uint64
	crashPhase string
	tornLogs   int

	stats Stats
}

// Attach builds a Pmem over space and registers it as the space's
// persist tracker (stores and unmaps). Its block journal also needs the
// allocator-block lifecycle: watch p on the space (mem.Space.Watch)
// before any simulated thread allocates. plan supplies crash clauses
// and may be nil.
func Attach(space *mem.Space, plan *fault.Plan) *Pmem {
	p := &Pmem{
		space:    space,
		plan:     plan,
		durable:  map[mem.Addr]*line{},
		dirty:    map[mem.Addr]struct{}{},
		pending:  map[mem.Addr]struct{}{},
		touched:  map[mem.Addr]struct{}{},
		active:   map[int]*txLog{},
		applying: map[int]*txLog{},
		oracle:   map[mem.Addr]uint64{},
		blocks:   map[mem.Addr]*blockRec{},
	}
	space.SetPersistTracker(p)
	return p
}

// SetStopper registers the engine to halt when a crash clause fires
// (pass the run's *vtime.Engine).
func (p *Pmem) SetStopper(s interface{ Stop() }) { p.stopper = s }

// Crashed reports whether a crash clause fired.
func (p *Pmem) Crashed() bool { return p.crashed }

// Stats returns the durable-traffic counters.
func (p *Pmem) Stats() Stats { return p.stats }

// frozen reports whether the machine is down: after the crash every
// pmem operation is inert (threads winding down must not mutate durable
// state) until Recover flips the layer into recovery mode.
func (p *Pmem) frozen() bool { return p.crashed && !p.recovering }

// crashPoint consults the fault plan at one durable operation. When a
// crash clause fires the engine is stopped and the calling thread
// unwound with vtime.StopSignal — the operation the checkpoint guards
// does NOT take effect (the flush never landed, the marker was never
// written).
func (p *Pmem) crashPoint(th *vtime.Thread, phase string) {
	p.crashAt(th.ID(), th.Clock(), phase)
}

func (p *Pmem) crashAt(tid int, clock uint64, phase string) {
	if p.crashed || p.recovering || p.plan == nil {
		return
	}
	if !p.plan.Crash(tid, clock, phase) {
		return
	}
	p.crashed = true
	p.crashCycle = clock
	p.crashPhase = phase
	p.tornLogs = len(p.active)
	if p.stopper != nil {
		p.stopper.Stop()
	}
	panic(vtime.StopSignal{})
}

// persistLine captures the current volatile content of the line at l
// into the durable image.
func (p *Pmem) persistLine(l mem.Addr) {
	img := p.durable[l]
	if img == nil {
		img = new(line)
		p.durable[l] = img
	}
	for i := 0; i < LineWords; i++ {
		img[i] = p.space.Load(l + mem.Addr(i*8))
	}
}

// Flush issues a line writeback (clwb) for the line containing a: the
// line leaves the dirty set and drains toward the next fence.
func (p *Pmem) Flush(th *vtime.Thread, a mem.Addr) {
	if p.frozen() {
		return
	}
	th.Tick(th.Cost().Flush)
	p.stats.Flushes++
	p.crashPoint(th, "flush")
	l := lineOf(a)
	if _, ok := p.dirty[l]; ok {
		delete(p.dirty, l)
		p.pending[l] = struct{}{}
	}
}

// Fence issues an ordering fence (sfence): every draining line's
// fence-time content becomes durable.
func (p *Pmem) Fence(th *vtime.Thread) {
	if p.frozen() {
		return
	}
	n := uint64(len(p.pending))
	th.Tick(th.Cost().FenceBase + n*th.Cost().FenceLine)
	p.stats.Fences++
	p.crashPoint(th, "fence")
	if n == 0 {
		return
	}
	lines := make([]mem.Addr, 0, n)
	for l := range p.pending {
		lines = append(lines, l)
	}
	sort.Slice(lines, func(i, j int) bool { return lines[i] < lines[j] })
	for _, l := range lines {
		p.persistLine(l)
		delete(p.pending, l)
		delete(p.dirty, l) // fence captured any post-flush store too
	}
	p.stats.Lines += n
}

// Checkpoint makes the whole volatile state durable — every dirty line
// flushed and fenced, every pending block promoted to live — the
// equivalent of an fsync'd pool at a phase boundary. Workloads call it
// after building their initial data set so a measurement-phase crash
// recovers against a sound baseline.
func (p *Pmem) Checkpoint(th *vtime.Thread) {
	if p.frozen() {
		return
	}
	lines := make([]mem.Addr, 0, len(p.dirty))
	for l := range p.dirty {
		lines = append(lines, l)
	}
	sort.Slice(lines, func(i, j int) bool { return lines[i] < lines[j] })
	for _, l := range lines {
		p.Flush(th, l)
	}
	p.Fence(th)
	for _, b := range p.blocks {
		if b.state == blockPending {
			b.state = blockLive
		}
	}
}

// ---- mem.PersistTracker ----

// OnStore marks the stored line dirty.
func (p *Pmem) OnStore(a mem.Addr) {
	if p.frozen() {
		return
	}
	l := lineOf(a)
	p.dirty[l] = struct{}{}
	p.touched[l] = struct{}{}
}

// OnUnmap drops all durable state covering a region returned to the
// simulated OS: its lines, its journaled blocks, its oracle entries and
// its structural records. Recovery must never touch unmapped memory.
func (p *Pmem) OnUnmap(base mem.Addr, size uint64) {
	if p.frozen() {
		return
	}
	end := base + mem.Addr(size)
	in := func(a mem.Addr) bool { return a >= base && a < end }
	for l := range p.touched {
		if in(l) {
			delete(p.touched, l)
			delete(p.durable, l)
			delete(p.dirty, l)
			delete(p.pending, l)
		}
	}
	for a := range p.oracle {
		if in(a) {
			delete(p.oracle, a)
		}
	}
	for b := range p.blocks {
		if in(b) {
			delete(p.blocks, b)
		}
	}
	keep := p.meta[:0]
	for _, m := range p.meta {
		if !in(m.Base) {
			keep = append(keep, m)
		}
	}
	p.meta = keep
}

// OnHeapAlloc journals a malloc as pending (live once the allocating
// transaction's redo log commits, or at the next checkpoint) and offers
// the fault plan its "malloc" crash checkpoint. The journal append
// rides the malloc's own AllocOp cost.
func (p *Pmem) OnHeapAlloc(allocator string, base mem.Addr, req, usable uint64, tid int, clock uint64) {
	if p.frozen() {
		return
	}
	p.allocName = allocator
	p.blocks[base] = &blockRec{base: base, req: req, usable: usable, state: blockPending}
	p.crashAt(tid, clock, "malloc")
}

// OnHeapFree journals a free. Every free channel lands here — commit-
// time quarantine entry, rollback of a pending alloc, quarantine
// reclaim — and the first one wins; recovery resync frees are
// idempotent repeats. Committed stores into the block are no longer
// ground truth.
func (p *Pmem) OnHeapFree(base mem.Addr, tid int, clock uint64) {
	if p.frozen() {
		return
	}
	b := p.blocks[base]
	if b == nil || b.state == blockFreed {
		return
	}
	b.state = blockFreed
	p.dropOracleRange(base, b.usable)
}

// OnHeapReuse revives a block from a transaction-local cache. Durable
// mode rejects the §6.2 cache, so this only fires for non-durable runs
// that happen to share the space; journal it anyway for symmetry.
func (p *Pmem) OnHeapReuse(base mem.Addr, tid int, clock uint64) {
	if p.frozen() {
		return
	}
	if b := p.blocks[base]; b != nil {
		b.state = blockLive
	}
}

func (p *Pmem) dropOracleRange(base mem.Addr, size uint64) {
	for off := uint64(0); off < size; off += 8 {
		delete(p.oracle, base+mem.Addr(off))
	}
}

// ---- alloc.MetaJournal ----

// JournalMeta appends one allocator structural record (out-of-band, so
// it survives any crash at a later checkpoint) and prices the append.
// th is nil for construction-time events (glibc maps its main arena
// before any simulated thread exists); those are free and crash-exempt.
func (p *Pmem) JournalMeta(th *vtime.Thread, kind string, base mem.Addr, a, b uint64) {
	if p.frozen() {
		return
	}
	p.meta = append(p.meta, alloc.MetaRec{Kind: kind, Base: base, A: a, B: b})
	p.stats.MetaRecs++
	if th != nil {
		th.Tick(th.Cost().LogAppend)
		p.crashPoint(th, "meta")
	}
}
