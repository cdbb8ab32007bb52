// Package race implements a FastTrack-style vector-clock
// happens-before checker for the simulated transactional-memory
// system.
//
// The checker consumes three event streams, all raised from simulated
// threads that the virtual-time engine serializes (so it needs no
// locking and its output is deterministic for a fixed seed):
//
//   - scheduler/memory events from internal/vtime (raw word loads and
//     stores outside any transaction, plus the run barrier at the start
//     and end of every Engine.Run),
//   - STM events through the stm.Observer stream (begin/extend with
//     the snapshot version, speculative accesses, commit with the
//     publish version, rollback, committed frees, quarantine release,
//     and the durable redo-log milestones), and
//   - allocator block-lifecycle events through the mem.HeapWatcher
//     seam (malloc, free, transaction-cache reuse).
//
// Synchronization model. Each simulated thread carries a vector clock
// over logical per-thread counters (not virtual time — virtual clocks
// advance independently per thread and carry no ordering). A thread's
// own counter increments at transaction begin, transaction end, and at
// run barriers; raw accesses stamp the current counter without
// incrementing. Happens-before edges are created by:
//
//   - commit/begin: a committing transaction publishes its vector
//     clock under its commit version; a later transaction joins the
//     cumulative published clock of every commit at or below its
//     snapshot (snapshot validation makes this a real ordering).
//     Snapshot extension re-joins at the new snapshot.
//   - quarantine release: the reclaiming thread joins every thread's
//     last transaction-end clock before handing quarantined blocks
//     back to the allocator (reclaim requires every active snapshot to
//     have advanced past the free).
//   - free→malloc: reusing a block's address joins the freeing
//     thread's clock at free time into the allocating thread.
//   - run barrier: Engine.Run starts and ends with all threads
//     quiesced; every thread joins every other.
//   - phase barrier: vtime.Barrier.Wait releases the arriving thread's
//     clock into the barrier and acquires every arrival's clock on
//     departure — the all-to-all edge the phased STAMP ports (kmeans,
//     ssca2, genome) order their raw phases with.
//
// Transactional accesses are buffered on the transaction and flushed
// into the per-word state only at commit, with the committer's clock;
// an abort discards them. Zombie and aborted transactions therefore
// never produce findings. Only mixed-class pairs are checked — a
// transactional access against a raw access — because the STM already
// serializes transactions against each other and raw/raw ordering is
// out of scope. Raw accesses performed while the thread is inside a
// transaction (ORT probes, version-clock reads, write-back, allocator
// metadata updates from a transactional malloc) are not raw in this
// sense and are ignored; the buffered transactional accesses represent
// them.
//
// Word state is tracked only for words inside allocator-block user
// extents, so allocator metadata held outside the user area (glibc's
// in-band chunk headers and free-list links live at user_base-16 and
// below) never generates word noise. Metadata hazards are instead
// detected at block granularity: a committing transaction that touched
// a block the allocator has reclaimed — where the free is not ordered
// before the transaction — is exactly the paper's in-band-header race,
// reported as a metadata finding without needing the corruption to
// manifest.
//
// Violation taxonomy (one Finding per detection, counted per class):
//
//   - publication: a raw write unordered with a transactional read of
//     the same word (the object was published into transactions
//     without a barrier).
//   - privatization: a transactional write unordered with a raw access
//     of the same word (the object was privatized out of transactions
//     while still transactionally live).
//   - mixed: unordered transactional/raw write-write on one word.
//   - metadata: a committed transactional access to a block the
//     allocator had reclaimed, unordered with the free.
//   - quarantine-bypass: a block reissued by the allocator while still
//     quarantined (freed transactionally but not yet released).
//   - durable-ordering: a durable store made visible before its redo
//     log committed (store-before-fence).
//
// The checker is a pure observer: it never touches simulated memory,
// never advances virtual time, and never changes scheduling, so a
// checked run is byte-identical to an unchecked one apart from the
// race block in its run record.
package race

import (
	"fmt"

	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/stm"
)

// Violation classes, in the order they appear in obs.RaceInfo.
const (
	KindPublication      = "publication"
	KindPrivatization    = "privatization"
	KindMixed            = "mixed"
	KindMetadata         = "metadata"
	KindQuarantineBypass = "quarantine-bypass"
	KindDurableOrdering  = "durable-ordering"
)

// maxFindings bounds the retained exemplars; per-class counters keep
// counting past it.
const maxFindings = 32

// compactAt bounds the published-release list: past this length,
// entries below every live snapshot fold into a single floor entry.
const compactAt = 4096

// Finding is one detected violation.
type Finding struct {
	Kind  string   // one of the Kind constants
	Addr  mem.Addr // word (word-level classes) or block base (block-level)
	Tid   int      // thread whose event completed the race
	Other int      // thread on the earlier side, -1 if unattributed
	What  string   // rendered detail
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: %#x: %s", f.Kind, uint64(f.Addr), f.What)
}

// epoch is one component of a vector clock: thread tid at count clk.
// clk==0 means unset.
type epoch struct {
	tid int
	clk uint64
}

func (e epoch) set() bool { return e.clk != 0 }

// readset is a FastTrack read record: a single epoch while reads stay
// totally ordered, promoted to a full vector on the first concurrent
// pair.
type readset struct {
	e  epoch
	vc []uint64
}

func (r *readset) add(tid int, clk uint64, cur []uint64) {
	if r.vc != nil {
		if clk > r.vc[tid] {
			r.vc[tid] = clk
		}
		return
	}
	if !r.e.set() || r.e.tid == tid || r.e.clk <= cur[r.e.tid] {
		r.e = epoch{tid: tid, clk: clk}
		return
	}
	r.vc = make([]uint64, len(cur))
	r.vc[r.e.tid] = r.e.clk
	r.vc[tid] = clk
}

// before reports whether every recorded read is ordered before cur;
// when not, it returns one offending thread.
func (r *readset) before(cur []uint64) (bool, int) {
	if r.vc != nil {
		for i, c := range r.vc {
			if c > cur[i] {
				return false, i
			}
		}
		return true, -1
	}
	if r.e.set() && r.e.clk > cur[r.e.tid] {
		return false, r.e.tid
	}
	return true, -1
}

// word is the per-word access history: last committed transactional
// write, last raw write, and read records per class.
type word struct {
	txW  epoch
	rawW epoch
	txR  readset
	rawR readset
}

// Block lifecycle states.
const (
	blockLive       = iota // handed out, owned by the application
	blockTxFreed           // freed by a committed transaction, quarantined
	blockAllocFreed        // returned to the allocator (raw free or reclaim)
)

// block tracks one allocator block's extent and lifecycle.
type block struct {
	base, end  mem.Addr
	state      int
	expectNote bool     // a committed-free notification is still due
	freeTid    int      // thread that returned it to the allocator
	freeClk    uint64   // that thread's counter at the free (0: pre-history)
	freeVC     []uint64 // freeing thread's clock, for the free→malloc join
}

// release is one published commit: version and the cumulative joined
// clock of every commit up to it.
type release struct {
	ver uint64
	cum []uint64
}

// pendAccess is one buffered transactional access.
type pendAccess struct {
	addr  mem.Addr
	write bool
}

// Checker is the happens-before checker. Construct with New, drive it
// from one simulated run, then read Findings/Info. It implements
// vtime.RaceObserver, stm.Observer and mem.HeapWatcher.
type Checker struct {
	n  int        // thread count
	vc [][]uint64 // per-thread vector clock

	inTx         []bool
	snap         []uint64 // current snapshot while in a transaction
	pending      [][]pendAccess
	lastEnd      [][]uint64 // clock published at each transaction end / barrier
	logCommitted []bool     // durable redo log committed for the open transaction

	releases []release
	syncs    map[any][]uint64 // per sync object: join of every released clock

	wordOwner map[mem.Addr]*block
	words     map[mem.Addr]*word
	blocks    map[mem.Addr]*block

	findings []Finding
	counts   map[string]int
	total    int
	events   uint64
	nWords   uint64   // cumulative words mapped into tracking
	nBlocks  uint64   // cumulative blocks tracked
	metaSeen []*block // per-commit metadata dedup scratch
}

// New returns a checker for an engine with n simulated threads.
func New(n int) *Checker {
	if n < 1 {
		n = 1
	}
	c := &Checker{
		n:            n,
		vc:           make([][]uint64, n),
		inTx:         make([]bool, n),
		snap:         make([]uint64, n),
		pending:      make([][]pendAccess, n),
		lastEnd:      make([][]uint64, n),
		logCommitted: make([]bool, n),
		syncs:        map[any][]uint64{},
		wordOwner:    map[mem.Addr]*block{},
		words:        map[mem.Addr]*word{},
		blocks:       map[mem.Addr]*block{},
		counts:       map[string]int{},
	}
	for i := range c.vc {
		c.vc[i] = make([]uint64, n)
		c.vc[i][i] = 1
		c.lastEnd[i] = make([]uint64, n)
	}
	return c
}

func (c *Checker) valid(tid int) bool { return tid >= 0 && tid < c.n }

func (c *Checker) report(kind string, addr mem.Addr, tid, other int, format string, args ...any) {
	c.counts[kind]++
	c.total++
	if len(c.findings) < maxFindings {
		c.findings = append(c.findings, Finding{
			Kind: kind, Addr: addr, Tid: tid, Other: other,
			What: fmt.Sprintf(format, args...),
		})
	}
}

func join(dst, src []uint64) {
	for i, v := range src {
		if v > dst[i] {
			dst[i] = v
		}
	}
}

// acquire joins the cumulative release clock of the largest published
// version at or below snapshot.
func (c *Checker) acquire(tid int, snapshot uint64) {
	lo, hi := 0, len(c.releases)
	for lo < hi {
		mid := (lo + hi) / 2
		if c.releases[mid].ver <= snapshot {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo > 0 {
		join(c.vc[tid], c.releases[lo-1].cum)
	}
}

// publish appends a release entry (cumulative clocks are monotone, so
// each entry's clock subsumes every earlier one), keeping versions
// strictly increasing and folding entries no live snapshot can reach.
func (c *Checker) publish(ver uint64, vcommit []uint64) {
	if n := len(c.releases); n > 0 && c.releases[n-1].ver >= ver {
		// A committer ticks between its clock bump and its EvPublish
		// (validation, write-back, lock release), so a later version
		// can publish first; folding into the newest entry only
		// coarsens (adds real edges).
		join(c.releases[n-1].cum, vcommit)
		return
	}
	cum := make([]uint64, c.n)
	if n := len(c.releases); n > 0 {
		copy(cum, c.releases[n-1].cum)
	}
	join(cum, vcommit)
	c.releases = append(c.releases, release{ver: ver, cum: cum})
	if len(c.releases) >= compactAt {
		c.compactReleases()
	}
}

func (c *Checker) compactReleases() {
	min := ^uint64(0)
	for t := 0; t < c.n; t++ {
		if c.inTx[t] && c.snap[t] < min {
			min = c.snap[t]
		}
	}
	// Keep the floor entry (largest ver <= every live snapshot) and
	// everything after it; all live and future acquires resolve
	// identically against the shortened list.
	keep := 0
	for keep+1 < len(c.releases) && c.releases[keep+1].ver <= min {
		keep++
	}
	if keep > 0 {
		c.releases = append(c.releases[:0], c.releases[keep:]...)
	}
}

// ---- vtime.RaceObserver ----

// OnAccess records a raw (non-transactional) word access. Accesses by
// a thread that is inside a transaction belong to the STM machinery
// and are ignored; the buffered transactional accesses stand for them.
func (c *Checker) OnAccess(tid int, a mem.Addr, write bool, clock uint64) {
	if !c.valid(tid) || c.inTx[tid] {
		return
	}
	c.events++
	a &^= mem.WordSize - 1
	if c.wordOwner[a] == nil {
		return
	}
	w := c.words[a]
	if w == nil {
		w = &word{}
		c.words[a] = w
	}
	myvc := c.vc[tid]
	if write {
		if w.txW.set() && w.txW.clk > myvc[w.txW.tid] {
			c.report(KindMixed, a, tid, w.txW.tid,
				"raw write by t%d unordered with tx write by t%d", tid, w.txW.tid)
		}
		if ok, other := w.txR.before(myvc); !ok {
			c.report(KindPublication, a, tid, other,
				"raw write by t%d unordered with tx read by t%d", tid, other)
		}
		w.rawW = epoch{tid: tid, clk: myvc[tid]}
	} else {
		if w.txW.set() && w.txW.clk > myvc[w.txW.tid] {
			c.report(KindPrivatization, a, tid, w.txW.tid,
				"raw read by t%d unordered with tx write by t%d", tid, w.txW.tid)
		}
		w.rawR.add(tid, myvc[tid], myvc)
	}
}

// Barrier records a full quiesce point: every thread joins every
// other. The engine raises it when a Run starts and again when it
// returns.
func (c *Checker) Barrier(clock uint64) {
	c.events++
	all := make([]uint64, c.n)
	for t := 0; t < c.n; t++ {
		join(all, c.vc[t])
	}
	for t := 0; t < c.n; t++ {
		copy(c.vc[t], all)
		c.vc[t][t]++
		copy(c.lastEnd[t], all)
	}
}

// SyncRelease folds the thread's clock into a synchronization object
// (a phase barrier): anything a later acquirer does is ordered after
// everything the releaser did up to here. The releaser's counter bumps
// so its *subsequent* work stays outside the released clock.
func (c *Checker) SyncRelease(tid int, obj any) {
	if !c.valid(tid) {
		return
	}
	c.events++
	s := c.syncs[obj]
	if s == nil {
		s = make([]uint64, c.n)
		c.syncs[obj] = s
	}
	join(s, c.vc[tid])
	copy(c.lastEnd[tid], c.vc[tid])
	c.vc[tid][tid]++
}

// SyncAcquire joins the accumulated released clocks of a
// synchronization object into the thread.
func (c *Checker) SyncAcquire(tid int, obj any) {
	if !c.valid(tid) {
		return
	}
	c.events++
	if s := c.syncs[obj]; s != nil {
		join(c.vc[tid], s)
	}
}

// ---- stm.Observer ----

// OnTx implements stm.Observer with the per-event methods below; labels,
// acquires and the forensic abort and commit events carry no ordering.
func (c *Checker) OnTx(ev stm.Event) {
	switch ev.Kind {
	case stm.EvBegin:
		c.txBegin(ev.Tid, ev.Snapshot)
	case stm.EvExtend:
		c.txExtend(ev.Tid, ev.Snapshot)
	case stm.EvLoad, stm.EvStore:
		c.txAccess(ev.Tid, ev.Addr, ev.Kind == stm.EvStore)
	case stm.EvPublish:
		c.txCommit(ev.Tid, ev.Version)
	case stm.EvRollback:
		c.txAbort(ev.Tid)
	case stm.EvFreeCommitted:
		c.txFreeCommitted(ev.Tid, ev.Addr)
	case stm.EvQuarantineRelease:
		c.quarantineRelease(ev.Tid)
	case stm.EvDurLogCommitted:
		c.durLogCommitted(ev.Tid)
	case stm.EvDurStore:
		c.durStore(ev.Tid, ev.Addr)
	case stm.EvDurApply:
		c.durApply(ev.Tid)
	}
}

// txBegin opens a transaction at the given snapshot version.
func (c *Checker) txBegin(tid int, snapshot uint64) {
	if !c.valid(tid) {
		return
	}
	c.events++
	c.acquire(tid, snapshot)
	c.vc[tid][tid]++
	c.inTx[tid] = true
	c.snap[tid] = snapshot
	c.pending[tid] = c.pending[tid][:0]
	c.logCommitted[tid] = false
}

// txExtend re-joins after a successful snapshot extension.
func (c *Checker) txExtend(tid int, snapshot uint64) {
	if !c.valid(tid) || !c.inTx[tid] {
		return
	}
	c.events++
	c.acquire(tid, snapshot)
	c.snap[tid] = snapshot
}

// txAccess buffers one speculative access; it reaches the word state
// only if the transaction commits.
func (c *Checker) txAccess(tid int, a mem.Addr, write bool) {
	if !c.valid(tid) || !c.inTx[tid] {
		return
	}
	c.events++
	c.pending[tid] = append(c.pending[tid], pendAccess{addr: a &^ (mem.WordSize - 1), write: write})
}

// txCommit flushes the transaction's buffered accesses with the
// committer's clock, publishes the clock under ver (0 for read-only
// commits, which publish nothing), and closes the epoch.
func (c *Checker) txCommit(tid int, ver uint64) {
	if !c.valid(tid) || !c.inTx[tid] {
		return
	}
	c.events++
	myvc := c.vc[tid]
	c.metaSeen = c.metaSeen[:0]
	for _, p := range c.pending[tid] {
		b := c.wordOwner[p.addr]
		if b == nil {
			continue
		}
		if b.state == blockAllocFreed && b.freeClk > myvc[b.freeTid] {
			dup := false
			for _, s := range c.metaSeen {
				if s == b {
					dup = true
					break
				}
			}
			if !dup {
				c.metaSeen = append(c.metaSeen, b)
				c.report(KindMetadata, b.base, tid, b.freeTid,
					"tx by t%d touched block %#x after the allocator reclaimed it (free by t%d unordered); in-band metadata race",
					tid, uint64(b.base), b.freeTid)
			}
		}
		w := c.words[p.addr]
		if w == nil {
			w = &word{}
			c.words[p.addr] = w
		}
		if p.write {
			if w.rawW.set() && w.rawW.clk > myvc[w.rawW.tid] {
				c.report(KindMixed, p.addr, tid, w.rawW.tid,
					"tx write by t%d unordered with raw write by t%d", tid, w.rawW.tid)
			}
			if ok, other := w.rawR.before(myvc); !ok {
				c.report(KindPrivatization, p.addr, tid, other,
					"tx write by t%d unordered with raw read by t%d", tid, other)
			}
			w.txW = epoch{tid: tid, clk: myvc[tid]}
		} else {
			if w.rawW.set() && w.rawW.clk > myvc[w.rawW.tid] {
				c.report(KindPublication, p.addr, tid, w.rawW.tid,
					"tx read by t%d unordered with raw write by t%d", tid, w.rawW.tid)
			}
			w.txR.add(tid, myvc[tid], myvc)
		}
	}
	c.pending[tid] = c.pending[tid][:0]
	if ver != 0 {
		c.publish(ver, myvc)
	}
	copy(c.lastEnd[tid], myvc)
	c.vc[tid][tid]++
	c.inTx[tid] = false
	c.logCommitted[tid] = false
}

// txAbort discards the transaction's buffered accesses.
func (c *Checker) txAbort(tid int) {
	if !c.valid(tid) {
		return
	}
	c.events++
	c.pending[tid] = c.pending[tid][:0]
	c.inTx[tid] = false
	c.logCommitted[tid] = false
}

// txFreeCommitted marks a block freed by a committed transaction: it
// enters quarantine, and the allocator-level free notification that
// accompanies the commit is expected and consumed silently.
func (c *Checker) txFreeCommitted(tid int, base mem.Addr) {
	c.events++
	b := c.blocks[base]
	if b == nil || b.state != blockLive {
		return
	}
	b.state = blockTxFreed
	b.expectNote = true
}

// quarantineRelease records the reclaim ordering edge: releasing
// quarantined blocks requires every snapshot to have advanced past the
// frees, so the reclaimer joins every thread's last transaction end.
func (c *Checker) quarantineRelease(tid int) {
	if !c.valid(tid) {
		return
	}
	c.events++
	for t := 0; t < c.n; t++ {
		join(c.vc[tid], c.lastEnd[t])
	}
}

// durLogCommitted marks the open transaction's redo log durable.
func (c *Checker) durLogCommitted(tid int) {
	if !c.valid(tid) {
		return
	}
	c.events++
	c.logCommitted[tid] = true
}

// durStore checks the durable-ordering invariant: no store may become
// visible in the home locations before the redo log that re-creates it
// is durable.
func (c *Checker) durStore(tid int, a mem.Addr) {
	if !c.valid(tid) {
		return
	}
	c.events++
	if !c.logCommitted[tid] {
		c.report(KindDurableOrdering, a, tid, -1,
			"durable store by t%d visible before its redo log committed", tid)
	}
}

// durApply marks the log applied and truncated.
func (c *Checker) durApply(tid int) {
	if !c.valid(tid) {
		return
	}
	c.events++
	c.logCommitted[tid] = false
}

// ---- mem.HeapWatcher ----

// OnHeapAlloc tracks a handed-out block: its user extent becomes the
// tracked word set, any stale history under it is wiped, and reusing a
// freed address joins the free's clock (the allocator's free-list is a
// real ordering edge).
func (c *Checker) OnHeapAlloc(allocator string, base mem.Addr, req, usable uint64, tid int, clock uint64) {
	c.events++
	if old := c.blocks[base]; old != nil {
		switch old.state {
		case blockTxFreed:
			c.report(KindQuarantineBypass, base, tid, old.freeTid,
				"block %#x reissued by %s while still quarantined", uint64(base), allocator)
		case blockAllocFreed:
			if c.valid(tid) && old.freeVC != nil {
				join(c.vc[tid], old.freeVC)
			}
		}
	}
	b := &block{base: base, end: base + mem.Addr(usable), state: blockLive, freeTid: -1}
	for a := base &^ (mem.WordSize - 1); a < b.end; a += mem.WordSize {
		if c.wordOwner[a] == nil {
			c.nWords++
		}
		c.wordOwner[a] = b
		delete(c.words, a)
	}
	c.blocks[base] = b
	c.nBlocks++
}

// OnHeapFree tracks a block's return to the allocator. The free that
// accompanies a committed transactional free is consumed silently (the
// block stays quarantined); the later quarantine-release free — or a
// raw free that never went through the STM — moves the block to
// allocator-owned and records the freeing clock.
func (c *Checker) OnHeapFree(base mem.Addr, tid int, clock uint64) {
	c.events++
	b := c.blocks[base]
	if b == nil {
		return
	}
	if b.expectNote {
		b.expectNote = false
		return
	}
	if b.state == blockAllocFreed {
		return
	}
	b.state = blockAllocFreed
	if c.valid(tid) {
		b.freeTid = tid
		b.freeClk = c.vc[tid][tid]
		b.freeVC = append([]uint64(nil), c.vc[tid]...)
	} else {
		b.freeTid = 0
		b.freeClk = 0 // pre-history: ordered before everything
	}
}

// OnHeapReuse tracks a block revived from a transaction-local cache:
// same extent, live again, fresh history.
func (c *Checker) OnHeapReuse(base mem.Addr, tid int, clock uint64) {
	c.events++
	b := c.blocks[base]
	if b == nil {
		return
	}
	b.state = blockLive
	for a := b.base &^ (mem.WordSize - 1); a < b.end; a += mem.WordSize {
		delete(c.words, a)
	}
}

// ---- results ----

// Findings returns the retained exemplars in detection order.
func (c *Checker) Findings() []Finding { return c.findings }

// Count returns the total number of violations detected (all classes,
// past the retention cap).
func (c *Checker) Count() int { return c.total }

// Info renders the checker's verdict as a run-record block.
func (c *Checker) Info() *obs.RaceInfo {
	info := &obs.RaceInfo{
		Checked:          true,
		Findings:         c.total,
		Publication:      c.counts[KindPublication],
		Privatization:    c.counts[KindPrivatization],
		Mixed:            c.counts[KindMixed],
		Metadata:         c.counts[KindMetadata],
		QuarantineBypass: c.counts[KindQuarantineBypass],
		DurableOrdering:  c.counts[KindDurableOrdering],
		Words:            c.nWords,
		Blocks:           c.nBlocks,
		Events:           c.events,
	}
	if len(c.findings) > 0 {
		info.First = c.findings[0].String()
	}
	return info
}
