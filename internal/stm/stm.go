// Package stm implements a blocking, word-based software transactional
// memory in the mould of TinySTM 1.0.4's default configuration:
// encounter-time locking (ETL), write-back, a global version clock with
// snapshot extension, and the SUICIDE contention-management strategy
// (the transaction that detects the conflict aborts itself and restarts
// immediately).
//
// Conflicts are tracked through an ownership-record table (ORT) of
// versioned locks. A memory address maps to an entry by discarding its
// Shift low bits and taking the rest modulo the table size:
//
//	entry = (addr >> Shift) % 2^OrtBits
//
// With the default Shift of 5, every 32 consecutive bytes share one
// versioned lock, and — the paper's central observation — the
// *allocator's* placement decisions determine which objects share a
// stripe or alias to the same entry. Both the ORT and the global clock
// live in simulated memory, so their cache behaviour (shift-amount
// footprint, clock-line ping-pong) is priced by the machine model like
// any other access.
//
// The versioned-lock word format follows TinySTM: bit 0 is the lock
// bit; an unlocked word carries a version in the upper bits, a locked
// word carries the owner's thread id.
package stm

import (
	"fmt"
	"slices"

	"repro/internal/alloc"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/prof"
	"repro/internal/vtime"
)

// Defaults matching the paper's TinySTM configuration (§4).
const (
	DefaultOrtBits = 20
	DefaultShift   = 5
)

// Design selects the STM algorithm variant. The paper studies the
// TinySTM default (encounter-time locking with write-back); the other
// two are TinySTM's WRITE_THROUGH build and a TL2-style commit-time
// locking scheme, provided for the paper's future-work question of
// whether the allocator effects carry over to other STM classes.
type Design int

// STM designs.
const (
	// ETLWriteBack: encounter-time locking, values buffered until
	// commit (TinySTM default; the paper's configuration).
	ETLWriteBack Design = iota
	// ETLWriteThrough: encounter-time locking, in-place writes with an
	// undo log replayed on abort.
	ETLWriteThrough
	// CTL: commit-time locking; writes buffer without locking and all
	// stripes are acquired at commit (TL2-style).
	CTL
)

func (d Design) String() string {
	switch d {
	case ETLWriteBack:
		return "etl-wb"
	case ETLWriteThrough:
		return "etl-wt"
	case CTL:
		return "ctl"
	}
	return "design?"
}

// Config parameterizes an STM instance.
type Config struct {
	OrtBits uint   // log2 of the ORT entry count (default 20)
	Shift   uint   // low address bits discarded by the lock map (default 5)
	Design  Design // algorithm variant (default ETLWriteBack)
	// Allocator serves transactional Malloc/Free; may be nil if the
	// workload never allocates inside transactions.
	Allocator alloc.Allocator
	// Pooling selects the transaction-object recycling discipline
	// served by each thread's TxPool (default PoolNone: per-tx system
	// malloc/free, the paper's baseline). See the Pooling constants.
	Pooling Pooling
	// Obs, when non-nil, receives per-transaction events (commit/abort
	// with cause and aliasing ORT stripe) and metrics. The disabled
	// path costs one nil-check per transaction boundary.
	Obs *obs.Recorder
	// Prof, when non-nil, attributes STM phase cycles (load, store,
	// validate, commit, abort, backoff, quarantine) to profiler
	// regions. Attribution never advances virtual time.
	Prof *prof.Profiler
	// CM selects the contention manager (default CMSuicide, the
	// paper's setting).
	CM CM
	// RetryCap is the consecutive-abort count at which a transaction
	// falls back to irrevocable execution under the global fallback
	// lock. Zero selects DefaultRetryCap; a cap of 2^64-1 is never
	// reached, so it turns the ladder off.
	RetryCap uint64
	// Fault, when non-nil, is consulted at every transaction begin for
	// injected stalls and abort storms (internal/fault.Plan implements
	// it).
	Fault FaultHook
	// Durable, when non-nil, makes transactions durable: the commit path
	// writes a redo log through it before any write-back touches memory
	// (internal/pmem.Pmem implements it). Durable mode requires a
	// write-back design — ETLWriteThrough stores uncommitted values
	// directly, where a neighboring commit's line flush could persist
	// them with no undo log to remove them — and is incompatible with
	// transaction-object pooling, whose recycled blocks bypass the
	// block journal. New panics on either combination.
	Durable DurableLog
}

// DurableLog is the redo-log seam of a durable-memory layer. The commit
// path calls it in a fixed order: LogBegin, one LogStore per buffered
// write, one LogAlloc/LogFree per transactional allocation and deferred
// free, LogCommit (the log becomes durable), then — after write-back
// released the stripes — LogApply (the data becomes durable, the log is
// truncated). LogAbort discards a populated log when a foreign panic
// unwinds the transaction in between. internal/pmem satisfies it
// structurally, so stm stays free of a pmem dependency.
type DurableLog interface {
	LogBegin(th *vtime.Thread)
	LogStore(th *vtime.Thread, a mem.Addr, v uint64)
	LogAlloc(th *vtime.Thread, a mem.Addr, size uint64)
	LogFree(th *vtime.Thread, a mem.Addr, size uint64)
	LogCommit(th *vtime.Thread)
	LogApply(th *vtime.Thread)
	LogAbort(th *vtime.Thread)
}

// AbortReason classifies why a transaction aborted.
type AbortReason int

// Abort reasons.
const (
	AbortLockedByOther AbortReason = iota // stripe locked by another tx
	AbortVersionAhead                     // stripe version newer than snapshot, extension failed
	AbortValidation                       // read-set validation failed at commit
	AbortExplicit                         // user-requested restart
	AbortOOM                              // transactional allocation failed
	AbortKilled                           // killed by an aggressive rival or an abort storm
	abortReasonCount
)

// AbortReasonCount is the number of distinct abort reasons (the length
// of TxStats.ByReason).
const AbortReasonCount = int(abortReasonCount)

func (r AbortReason) String() string {
	switch r {
	case AbortLockedByOther:
		return "locked-by-other"
	case AbortVersionAhead:
		return "version-ahead"
	case AbortValidation:
		return "validation"
	case AbortExplicit:
		return "explicit"
	case AbortOOM:
		return "oom"
	case AbortKilled:
		return "killed"
	}
	return fmt.Sprintf("reason(%d)", int(r))
}

// TxStats counts per-thread transaction outcomes.
type TxStats struct {
	Starts      uint64
	Commits     uint64
	Aborts      uint64
	ByReason    [abortReasonCount]uint64
	FalseAborts uint64 // aborts where the conflicting access was to a
	// different address that merely shares (or aliases to) the ORT entry
	MaxRetries   uint64 // worst retry count of any single transaction
	MaxReadSet   uint64 // largest read set of any committed transaction
	MaxWriteSet  uint64 // largest write set of any committed transaction
	LoadsTotal   uint64
	StoresTotal  uint64
	AllocsInTx   uint64
	FreesInTx    uint64
	CacheHits    uint64 // transactional allocations served by the TxPool
	CacheReturns uint64 // blocks parked in the TxPool

	// Robustness / contention-management counters.
	MaxConsecAborts uint64 // longest consecutive-abort streak of one transaction
	CommitGapMax    uint64 // longest virtual-cycle gap between a thread's commits
	Irrevocables    uint64 // transactions that fell back to irrevocable execution
	BackoffCycles   uint64 // virtual cycles spent in contention-management backoff
}

// Sub returns s minus o field-wise (MaxRetries is kept from s), for
// isolating one measurement phase's statistics.
func (s TxStats) Sub(o TxStats) TxStats {
	out := s
	out.Starts -= o.Starts
	out.Commits -= o.Commits
	out.Aborts -= o.Aborts
	for i := range out.ByReason {
		out.ByReason[i] -= o.ByReason[i]
	}
	out.FalseAborts -= o.FalseAborts
	out.LoadsTotal -= o.LoadsTotal
	out.StoresTotal -= o.StoresTotal
	out.AllocsInTx -= o.AllocsInTx
	out.FreesInTx -= o.FreesInTx
	out.CacheHits -= o.CacheHits
	out.CacheReturns -= o.CacheReturns
	out.Irrevocables -= o.Irrevocables
	out.BackoffCycles -= o.BackoffCycles
	return out
}

// AbortRate returns aborts / starts.
func (s TxStats) AbortRate() float64 {
	if s.Starts == 0 {
		return 0
	}
	return float64(s.Aborts) / float64(s.Starts)
}

// STM is one transactional-memory instance over an address space.
type STM struct {
	space   *mem.Space
	ortBase mem.Addr
	ortSize uint64
	shift   uint
	clockA  mem.Addr // global version clock, in simulated memory

	allocator alloc.Allocator
	pooling   Pooling
	design    Design
	rec       *obs.Recorder
	prof      *prof.Profiler
	cm        CM
	retryCap  uint64
	fault     FaultHook
	durable   DurableLog
	observers []Observer // transaction-event stream, in attach order (observe.go)
	fallback  vtime.Lock // serializes irrevocable fallback transactions

	// acquired records each ORT entry's last acquisition, for
	// false-conflict classification and a stripe abort's killer
	// (diagnostic only), in pages allocated on first acquire: a run
	// pays only for the stripe ranges it locks.
	acquired []*[acquiredPage]acquisition

	txs map[int]*Tx

	// quarantine holds transactionally freed blocks awaiting
	// reclamation. The allocator writes free-list metadata into a
	// block's words without bumping ORT versions, so handing a block
	// back while a transaction that began before the free is still
	// running would let it read heap metadata as application data with
	// a fully consistent read set (TinySTM solves this with mod_mem's
	// epoch GC). Blocks are released once every active transaction's
	// snapshot has reached the freeing commit.
	quarantine []quarRec
	reclaiming bool      // reclaim in progress; bars reentry across yields
	relScratch []quarRec // reclaim's releasable-block scratch, reused across calls
}

// acquiredPage is the number of ORT entries per page of STM.acquired.
const acquiredPage = 1024

// acquisition is an ORT entry's last acquisition: the address it was
// locked for and the locking thread's id plus one (zero: never locked).
type acquisition struct {
	addr mem.Addr
	tid  int32
}

// quarRec is one block awaiting safe reclamation.
type quarRec struct {
	addr mem.Addr
	size uint64
	ver  int64 // clock value at which the free committed
}

// New builds an STM over space.
func New(space *mem.Space, cfg Config) *STM {
	if cfg.Durable != nil {
		if cfg.Design == ETLWriteThrough {
			panic("stm: durable mode requires a write-back design (etl-wt stores uncommitted values the redo log cannot undo)")
		}
		if cfg.Pooling != PoolNone {
			panic("stm: durable mode is incompatible with transaction-object pooling (recycled blocks bypass the block journal)")
		}
	}
	bits := cfg.OrtBits
	if bits == 0 {
		bits = DefaultOrtBits
	}
	shift := cfg.Shift
	if shift == 0 {
		shift = DefaultShift
	}
	size := uint64(1) << bits
	// One region holds the clock page and the ORT.
	base := space.MustMap(mem.PageSize+size*8, mem.PageSize)
	s := &STM{
		space:     space,
		ortBase:   base + mem.PageSize,
		ortSize:   size,
		shift:     shift,
		clockA:    base,
		allocator: cfg.Allocator,
		pooling:   cfg.Pooling,
		design:    cfg.Design,
		rec:       cfg.Obs,
		prof:      cfg.Prof,
		cm:        cfg.CM,
		retryCap:  cfg.RetryCap,
		fault:     cfg.Fault,
		durable:   cfg.Durable,
		acquired:  make([]*[acquiredPage]acquisition, (size+acquiredPage-1)/acquiredPage),
		txs:       make(map[int]*Tx),
	}
	if s.retryCap == 0 {
		s.retryCap = DefaultRetryCap
	}
	return s
}

// OrtIndex returns the ORT entry index for an address — the paper's
// mapping function: shift right, then modulo the table size.
func (s *STM) OrtIndex(a mem.Addr) uint64 {
	return (uint64(a) >> s.shift) % s.ortSize
}

// LockMap returns the ORT mapping's shift and entry count, the
// defaults filled in: the lock map heap telemetry and the conflict
// observatory must share.
func (s *STM) LockMap() (shift uint, entries uint64) { return s.shift, s.ortSize }

// ortAddr returns the simulated address of ORT entry i.
func (s *STM) ortAddr(i uint64) mem.Addr { return s.ortBase + mem.Addr(i*8) }

// lastAcquired returns ORT entry i's last acquisition (zero if it was
// never acquired).
func (s *STM) lastAcquired(i uint64) acquisition {
	if p := s.acquired[i/acquiredPage]; p != nil {
		return p[i%acquiredPage]
	}
	return acquisition{}
}

// setAcquired records that thread tid locked ORT entry i for address a.
func (s *STM) setAcquired(i uint64, a mem.Addr, tid int) {
	p := s.acquired[i/acquiredPage]
	if p == nil {
		p = new([acquiredPage]acquisition)
		s.acquired[i/acquiredPage] = p
	}
	p[i%acquiredPage] = acquisition{addr: a, tid: int32(tid) + 1}
}

// Pooling returns the transaction-object recycling discipline.
func (s *STM) Pooling() Pooling { return s.pooling }

// PoolStats sums pool traffic across all threads' TxPools.
func (s *STM) PoolStats() PoolStats {
	var out PoolStats
	for _, tx := range s.txs {
		if tx.pool != nil {
			out.Add(tx.pool.stats)
		}
	}
	return out
}

// clockRead returns the current global version.
func (s *STM) clockRead(th *vtime.Thread) int64 {
	return versionOf(th.Load(s.clockA))
}

// clockBump allocates a commit version: the global clock plus one,
// installed by compare-and-swap.
func (s *STM) clockBump(th *vtime.Thread) int64 {
	for {
		cur := versionOf(th.Load(s.clockA))
		next := cur + 1
		if th.CAS(s.clockA, versionWord(cur), versionWord(next)) {
			return next
		}
	}
}

const lockBit = uint64(1)

func isLocked(word uint64) bool   { return word&lockBit != 0 }
func ownerOf(word uint64) int     { return int(word >> 1) }
func lockWord(tid int) uint64     { return uint64(tid)<<1 | lockBit }
func versionOf(word uint64) int64 { return int64(word >> 1) }
func versionWord(v int64) uint64  { return uint64(v) << 1 }

// TxFor returns (creating on first use) the reusable transaction
// descriptor for a thread.
func (s *STM) TxFor(th *vtime.Thread) *Tx {
	if tx, ok := s.txs[th.ID()]; ok {
		if tx.th != th {
			tx.th = th
		}
		return tx
	}
	tx := &Tx{
		stm:  s,
		th:   th,
		pool: NewTxPool(s.pooling),
		rng:  uint64(th.ID())*0x9e3779b97f4a7c15 + 0x2545f4914f6cdd1d,
	}
	s.txs[th.ID()] = tx
	return tx
}

// Stats sums transaction statistics across all threads.
func (s *STM) Stats() TxStats {
	var out TxStats
	for _, tx := range s.txs {
		addStats(&out, &tx.stats)
	}
	return out
}

// InTx reports whether the thread's transaction descriptor is active
// (used by region-attribution instrumentation).
func (s *STM) InTx(tid int) bool {
	tx, ok := s.txs[tid]
	return ok && tx.active
}

func addStats(dst, src *TxStats) {
	dst.Starts += src.Starts
	dst.Commits += src.Commits
	dst.Aborts += src.Aborts
	for i := range dst.ByReason {
		dst.ByReason[i] += src.ByReason[i]
	}
	dst.FalseAborts += src.FalseAborts
	if src.MaxRetries > dst.MaxRetries {
		dst.MaxRetries = src.MaxRetries
	}
	if src.MaxReadSet > dst.MaxReadSet {
		dst.MaxReadSet = src.MaxReadSet
	}
	if src.MaxWriteSet > dst.MaxWriteSet {
		dst.MaxWriteSet = src.MaxWriteSet
	}
	dst.LoadsTotal += src.LoadsTotal
	dst.StoresTotal += src.StoresTotal
	dst.AllocsInTx += src.AllocsInTx
	dst.FreesInTx += src.FreesInTx
	dst.CacheHits += src.CacheHits
	dst.CacheReturns += src.CacheReturns
	if src.MaxConsecAborts > dst.MaxConsecAborts {
		dst.MaxConsecAborts = src.MaxConsecAborts
	}
	if src.CommitGapMax > dst.CommitGapMax {
		dst.CommitGapMax = src.CommitGapMax
	}
	dst.Irrevocables += src.Irrevocables
	dst.BackoffCycles += src.BackoffCycles
}

// Atomic runs fn as a transaction on th, retrying on abort under the
// configured contention manager. fn must be a pure function of
// transactional state: any side effects outside tx operations may be
// repeated. After RetryCap consecutive aborts the transaction descends
// the degradation ladder: it acquires the global fallback lock, drains
// every other transaction, and runs irrevocably — guaranteed to
// commit, whatever the conflict pattern.
func (s *STM) Atomic(th *vtime.Thread, fn func(tx *Tx)) {
	tx := s.TxFor(th)
	if tx.active {
		panic("stm: nested Atomic on the same thread")
	}
	retries := uint64(0)
	for {
		// Park while an irrevocable transaction runs elsewhere: we hold
		// nothing, so waiting here cannot deadlock, and staying out
		// keeps the fallback transaction alone.
		s.waitFallback(tx)
		tx.begin()
		if s.fault != nil {
			stall, storm := s.fault.TxBegin(th.ID(), th.Clock())
			if stall > 0 {
				th.Tick(stall)
			}
			if storm {
				// Abort-storm kill: roll back (nothing is locked yet)
				// and fall through to the retry bookkeeping.
				tx.abandon(AbortKilled, obs.NoStripe, 0)
			}
		}
		if tx.active && tx.tryRun(fn) {
			tx.noteOutcome(retries, true)
			s.reclaim(th)
			return
		}
		retries++
		if retries > tx.stats.MaxRetries {
			tx.stats.MaxRetries = retries
		}
		tx.noteOutcome(retries, false)
		if retries >= s.retryCap {
			s.runIrrevocable(tx, fn, retries)
			tx.noteOutcome(retries, true)
			s.reclaim(th)
			return
		}
		if s.cm == CMBackoff {
			tx.backoff(retries)
		}
	}
}

type abortSignal struct{ reason AbortReason }

// tryRun executes fn inside the active transaction, converting abort
// panics into a false return.
func (tx *Tx) tryRun(fn func(tx *Tx)) (committed bool) {
	defer func() {
		if r := recover(); r != nil {
			if _, isStop := r.(vtime.StopSignal); isStop {
				// Simulated crash: the machine died at a durable-operation
				// checkpoint. Leave every structure exactly as the crash
				// found it — a rollback here would mutate state recovery
				// must observe torn — and unwind to the engine.
				panic(r)
			}
			if _, ok := r.(abortSignal); ok {
				committed = false
				return
			}
			// A memory fault in a revocable transaction whose read set no
			// longer validates is a zombie read: the stale snapshot let the
			// application follow a recycled pointer off the map. On real
			// hardware the load would return garbage and the transaction
			// would die at validation; model that by aborting it here. A
			// fault with a consistent read set is a genuine bug and still
			// propagates.
			if _, isFault := r.(mem.Fault); isFault && tx.active &&
				!tx.irrevocable && !tx.validate() {
				tx.abandon(AbortValidation, obs.NoStripe, 0)
				committed = false
				return
			}
			// Foreign panic: clean up the transaction, then propagate.
			tx.rollback(AbortExplicit)
			panic(r)
		}
	}()
	fn(tx)
	return tx.commit()
}

type writeEntry struct {
	addr  mem.Addr
	value uint64
}

type readEntry struct {
	idx     uint64
	version uint64 // the raw (unlocked) word observed
}

type allocRec struct {
	addr mem.Addr
	size uint64
}

type lockRec struct {
	idx  uint64
	prev uint64 // pre-lock ORT word, restored on abort
}

// ctlReq is one stripe a CTL commit must acquire (with the first write
// address that mapped to it, for conflict attribution).
type ctlReq struct {
	idx  uint64
	addr mem.Addr
}

// Tx is a per-thread transaction descriptor, reused across transactions
// (as TinySTM reuses its descriptor).
type Tx struct {
	stm    *STM
	th     *vtime.Thread
	active bool

	snapshot  int64
	readSet   []readEntry
	writeSet  []writeEntry
	writeIdx  u64Table  // addr -> index into writeSet (write-through: undo)
	locked    []lockRec // stripes this tx holds, in acquisition order
	lockedSet u64Table  // membership set of held ORT indices

	undo []writeEntry // write-through: first-write old values

	beginClock uint64 // virtual clock at begin, for attempt latency

	allocs []allocRec // blocks malloc'd by this tx (undone on abort)
	frees  []allocRec // frees deferred to commit

	pool *TxPool // transaction-object recycler (nil for PoolNone)

	// CTL commit scratch, reused across commits.
	ctlReqs []ctlReq
	ctlSeen u64Table

	// Forensics state (observe.go): the workload label, which
	// (*STM).Kind reads, and the 1-based attempt number of the current
	// Atomic (reset on commit), which EvAbort carries. Maintained
	// unconditionally — two scalar updates — so the observed and
	// unobserved paths run the same code.
	kind    string
	attempt uint64

	// Contention-management state.
	karma       uint64 // accumulated work (loads+stores), CMKarma priority
	killed      bool   // an aggressive rival demands this tx abort
	killedBy    int32  // thread that set killed (conflict attribution)
	waitBudget  uint64 // remaining conflict-wait polls this attempt
	irrevocable bool   // running alone under the fallback lock
	rng         uint64 // deterministic backoff jitter state
	lastCommit  uint64 // virtual clock of this thread's previous commit

	stats TxStats
}

// Thread returns the executing thread.
func (tx *Tx) Thread() *vtime.Thread { return tx.th }

func (tx *Tx) begin() {
	tx.active = true
	tx.killed = false
	tx.killedBy = -1
	tx.attempt++
	tx.waitBudget = conflictWaitBudget
	tx.beginClock = tx.th.Clock()
	tx.snapshot = tx.stm.clockRead(tx.th)
	tx.readSet = tx.readSet[:0]
	tx.writeSet = tx.writeSet[:0]
	tx.writeIdx.reset()
	tx.locked = tx.locked[:0]
	tx.lockedSet.reset()
	tx.undo = tx.undo[:0]
	tx.allocs = tx.allocs[:0]
	tx.frees = tx.frees[:0]
	tx.stats.Starts++
	tx.th.Tick(tx.th.Cost().TxBase)
	tx.note(EvBegin, 0)
}

// abort rolls the transaction back, reports the conflict on ORT entry
// idx at address a (abandon) and unwinds fn via panic.
func (tx *Tx) abort(reason AbortReason, idx uint64, a mem.Addr) {
	tx.abandon(reason, idx, a)
	panic(abortSignal{reason})
}

// abortNoStripe aborts without a single attributable ORT entry
// (explicit restarts, OOM, kills) and unwinds fn via panic.
func (tx *Tx) abortNoStripe(reason AbortReason) { tx.abort(reason, obs.NoStripe, 0) }

// abandon rolls the transaction back and reports the abort to the
// statistics, the recorder and the observers. idx is the ORT entry
// whose conflict killed the attempt (obs.NoStripe for none) and a the
// address this transaction was accessing. The entry's last acquisition
// is read once, before the rollback, whose ticks let rivals acquire the
// entry: it names both the owner address and the killer, and the
// conflict is false when it was for a *different* address (stripe
// sharing or aliasing — the allocator-placement effect under study).
func (tx *Tx) abandon(reason AbortReason, idx uint64, a mem.Addr) {
	s := tx.stm
	var last acquisition
	falseConflict := false
	if idx != obs.NoStripe {
		last = s.lastAcquired(idx)
		if falseConflict = last.addr != a; falseConflict {
			tx.stats.FalseAborts++
		}
	}
	tx.rollback(reason)
	if s.rec != nil {
		s.rec.TxAbort(tx.th.ID(), tx.beginClock, tx.th.Clock(), reason.String(),
			idx, falseConflict, uint64(last.addr)>>s.shift, uint64(a)>>s.shift)
	}
	tx.noteAbort(reason, idx, a, last)
}

// rollback releases locks, undoes transactional allocations and drops
// deferred frees. Under write-through, memory is restored from the undo
// log before the locks go.
func (tx *Tx) rollback(reason AbortReason) {
	if p := tx.stm.prof; p != nil {
		p.Begin(tx.th, "stm/abort")
		defer p.End(tx.th)
	}
	if d := tx.stm.durable; d != nil {
		d.LogAbort(tx.th) // drop a populated log if a foreign panic unwound commit
	}
	for i := len(tx.undo) - 1; i >= 0; i-- {
		tx.th.Store(tx.undo[i].addr, tx.undo[i].value)
	}
	for _, l := range tx.locked {
		tx.th.Store(tx.stm.ortAddr(l.idx), l.prev)
	}
	// Undo transactional allocations: a pooling discipline parks them
	// in the thread-local pool instead of calling the system free.
	for _, rec := range tx.allocs {
		if tx.pool != nil {
			tx.pool.Put(tx, rec.addr, rec.size)
		} else {
			tx.stm.allocator.Free(tx.th, rec.addr)
		}
	}
	tx.note(EvRollback, 0)
	tx.active = false
	tx.stats.Aborts++
	tx.stats.ByReason[reason]++
	tx.th.Tick(tx.th.Cost().TxBase)
}

// Restart aborts the transaction and retries it (explicit user abort).
func (tx *Tx) Restart() {
	tx.abortNoStripe(AbortExplicit)
}

// validate re-checks every read-set entry against the current ORT.
func (tx *Tx) validate() bool {
	if p := tx.stm.prof; p != nil {
		p.Begin(tx.th, "stm/validate")
		defer p.End(tx.th)
	}
	for _, r := range tx.readSet {
		w := tx.th.Load(tx.stm.ortAddr(r.idx))
		if isLocked(w) {
			if ownerOf(w) != tx.th.ID() {
				return false
			}
			continue // we hold it
		}
		if w != r.version {
			return false
		}
	}
	return true
}

// extend tries to advance the snapshot to the current clock after
// validating the read set (TinySTM's timestamp extension).
func (tx *Tx) extend() bool {
	now := tx.stm.clockRead(tx.th)
	if !tx.validate() {
		return false
	}
	tx.snapshot = now
	tx.note(EvExtend, 0)
	return true
}

// Load performs a transactional read of the word at a.
func (tx *Tx) Load(a mem.Addr) uint64 {
	tx.checkKilled()
	tx.stats.LoadsTotal++
	tx.karma++
	if p := tx.stm.prof; p != nil {
		// Deferred so an abort panic unwinds the region balanced.
		p.Begin(tx.th, "stm/load")
		defer p.End(tx.th)
	}
	tx.th.Tick(tx.th.Cost().TxAccess)
	tx.sanCheck(a, false)
	v := tx.loadWord(a)
	tx.note(EvLoad, a)
	return v
}

// LoadGuard performs a transactional read of a guard word in a
// validated-handle protocol: a liveness flag or epoch counter that is
// deliberately read on a block which may have been freed — even
// recycled — since the handle was captured (yada's stale-queue-entry
// filter is the canonical user). The read is identical to Load in
// every protocol and timing respect, with two waivers, both because
// the caller's epoch check subsumes them: the sanitizer's
// use-after-free classification (wild-address and redzone diagnostics
// still fire), and the EvLoad event, so the race checker and every
// other Observer never see a guard read.
func (tx *Tx) LoadGuard(a mem.Addr) uint64 {
	tx.checkKilled()
	tx.stats.LoadsTotal++
	tx.karma++
	if p := tx.stm.prof; p != nil {
		p.Begin(tx.th, "stm/load")
		defer p.End(tx.th)
	}
	tx.th.Tick(tx.th.Cost().TxAccess)
	tx.sanCheckGuard(a)
	return tx.loadWord(a)
}

// loadWord is the protocol core shared by Load and LoadGuard.
func (tx *Tx) loadWord(a mem.Addr) uint64 {
	if tx.stm.design != ETLWriteThrough {
		if i, ok := tx.writeIdx.get(uint64(a)); ok {
			return tx.writeSet[i].value
		}
	}
	s := tx.stm
	idx := s.OrtIndex(a)
	ortA := s.ortAddr(idx)
	for {
		w := tx.th.Load(ortA)
		if isLocked(w) {
			if ownerOf(w) == tx.th.ID() {
				// We hold the stripe: under write-back memory is clean
				// for other addresses; under write-through it holds our
				// own current values. Either way, read memory.
				return tx.th.Load(a)
			}
			if tx.cmWait(ownerOf(w)) {
				continue // the conflict may have cleared; re-read
			}
			tx.abort(AbortLockedByOther, idx, a)
		}
		if versionOf(w) > tx.snapshot {
			if !tx.extend() {
				tx.abort(AbortVersionAhead, idx, a)
			}
		}
		v := tx.th.Load(a)
		// Re-check: the stripe must not have changed while reading.
		if w2 := tx.th.Load(ortA); w2 != w {
			continue
		}
		tx.readSet = append(tx.readSet, readEntry{idx: idx, version: w})
		return v
	}
}

// Store performs a transactional write of v to the word at a. Under the
// ETL designs the stripe lock is acquired now; write-back buffers the
// value while write-through logs the old value and writes in place. CTL
// only buffers — locks are taken at commit.
func (tx *Tx) Store(a mem.Addr, v uint64) {
	tx.checkKilled()
	tx.stats.StoresTotal++
	tx.karma++
	if p := tx.stm.prof; p != nil {
		p.Begin(tx.th, "stm/store")
		defer p.End(tx.th)
	}
	tx.th.Tick(tx.th.Cost().TxAccess)
	tx.sanCheck(a, true)
	tx.note(EvStore, a)
	switch tx.stm.design {
	case ETLWriteThrough:
		idx := tx.stm.OrtIndex(a)
		if _, mine := tx.lockedSet.get(idx); !mine {
			tx.acquire(idx, a)
		}
		if _, logged := tx.writeIdx.get(uint64(a)); !logged {
			tx.writeIdx.put(uint64(a), int32(len(tx.undo)))
			tx.undo = append(tx.undo, writeEntry{addr: a, value: tx.th.Load(a)})
		}
		tx.th.Store(a, v)
		return
	case CTL:
		if i, ok := tx.writeIdx.get(uint64(a)); ok {
			tx.writeSet[i].value = v
			return
		}
		tx.writeIdx.put(uint64(a), int32(len(tx.writeSet)))
		tx.writeSet = append(tx.writeSet, writeEntry{addr: a, value: v})
		return
	}
	// ETL write-back (the paper's configuration).
	if i, ok := tx.writeIdx.get(uint64(a)); ok {
		tx.writeSet[i].value = v
		return
	}
	idx := tx.stm.OrtIndex(a)
	if _, mine := tx.lockedSet.get(idx); !mine {
		tx.acquire(idx, a)
	}
	tx.writeIdx.put(uint64(a), int32(len(tx.writeSet)))
	tx.writeSet = append(tx.writeSet, writeEntry{addr: a, value: v})
}

// acquire locks ORT entry idx for this transaction (ETL encounter-time
// or CTL commit-time), aborting on conflict.
func (tx *Tx) acquire(idx uint64, a mem.Addr) {
	s := tx.stm
	ortA := s.ortAddr(idx)
	for {
		w := tx.th.Load(ortA)
		if isLocked(w) {
			if ownerOf(w) == tx.th.ID() {
				panic("stm: ORT entry locked by this thread but not in its lock map")
			}
			if tx.cmWait(ownerOf(w)) {
				continue // the conflict may have cleared; re-read
			}
			tx.abort(AbortLockedByOther, idx, a)
		}
		if versionOf(w) > tx.snapshot {
			if !tx.extend() {
				tx.abort(AbortVersionAhead, idx, a)
			}
		}
		if tx.th.CAS(ortA, w, lockWord(tx.th.ID())) {
			tx.lockedSet.put(idx, int32(len(tx.locked)))
			tx.locked = append(tx.locked, lockRec{idx: idx, prev: w})
			s.setAcquired(idx, a, tx.th.ID())
			break
		}
	}
}

// commit attempts to finish the transaction; false means it aborted.
func (tx *Tx) commit() bool {
	tx.checkKilled()
	s := tx.stm
	if p := s.prof; p != nil {
		p.Begin(tx.th, "stm/commit")
		defer p.End(tx.th)
	}
	if len(tx.writeSet) == 0 && len(tx.locked) == 0 {
		// Read-only: the snapshot is consistent by construction. With a
		// durable log, transactional allocations still need their records
		// committed (frees imply stores, so they cannot reach here).
		if s.durable != nil && len(tx.allocs)+len(tx.frees) > 0 {
			tx.logPopulate()
			s.durable.LogApply(tx.th)
			tx.note(EvDurApply, 0)
		}
		tx.notePublish(0) // read-only: no version published
		tx.finishCommit()
		return true
	}
	if s.design == CTL {
		// Commit-time locking: acquire every written stripe now, in
		// index order for determinism. acquire aborts via panic on
		// conflict; convert that to a rollback return.
		if !tx.ctlAcquireAll() {
			return false
		}
	}
	// Fetch-and-increment the global clock (CAS loop inside clockBump:
	// another thread may slip in between the load and the swap across
	// a yield).
	next := s.clockBump(tx.th)
	if next > tx.snapshot+1 {
		if !tx.validate() {
			tx.abandon(AbortValidation, obs.NoStripe, 0)
			return false
		}
	}
	// Point of no return: nothing can abort the transaction past the
	// validation above, so the redo log written now is torn only by a
	// crash (populate → fence → commit marker → fence).
	if s.durable != nil {
		tx.logPopulate()
	}
	// Write back buffered values (write-through already wrote them),
	// then release locks with the new version.
	for _, w := range tx.writeSet {
		if s.durable != nil {
			tx.note(EvDurStore, w.addr)
		}
		tx.th.Store(w.addr, w.value)
	}
	release := versionWord(next)
	for _, l := range tx.locked {
		tx.th.Store(s.ortAddr(l.idx), release)
	}
	// Persist the written-back values and truncate the redo log (flush
	// each stored line, fence, truncate) now that the stripes are free.
	if s.durable != nil {
		s.durable.LogApply(tx.th)
		tx.note(EvDurApply, 0)
	}
	tx.notePublish(uint64(next))
	tx.finishCommit()
	return true
}

// logPopulate writes the transaction's redo log through the durable
// layer and makes it durable: one record per buffered write,
// transactional allocation and deferred free, then the commit marker.
func (tx *Tx) logPopulate() {
	d := tx.stm.durable
	d.LogBegin(tx.th)
	for _, w := range tx.writeSet {
		d.LogStore(tx.th, w.addr, w.value)
	}
	for _, rec := range tx.allocs {
		d.LogAlloc(tx.th, rec.addr, rec.size)
	}
	for _, rec := range tx.frees {
		d.LogFree(tx.th, rec.addr, rec.size)
	}
	d.LogCommit(tx.th)
	tx.note(EvDurLogCommitted, 0)
}

// ctlAcquireAll locks every stripe the write set touches, in index
// order for determinism, returning false (after rollback) on conflict.
func (tx *Tx) ctlAcquireAll() (ok bool) {
	defer func() {
		if r := recover(); r != nil {
			if _, isAbort := r.(abortSignal); isAbort {
				ok = false
				return
			}
			panic(r)
		}
	}()
	tx.ctlReqs = tx.ctlReqs[:0]
	tx.ctlSeen.reset()
	for _, w := range tx.writeSet {
		idx := tx.stm.OrtIndex(w.addr)
		if _, dup := tx.ctlSeen.get(idx); !dup {
			tx.ctlSeen.put(idx, int32(len(tx.ctlReqs)))
			tx.ctlReqs = append(tx.ctlReqs, ctlReq{idx: idx, addr: w.addr})
		}
	}
	slices.SortFunc(tx.ctlReqs, func(a, b ctlReq) int {
		switch {
		case a.idx < b.idx:
			return -1
		case a.idx > b.idx:
			return 1
		}
		return 0
	})
	for _, r := range tx.ctlReqs {
		tx.acquire(r.idx, r.addr)
	}
	return true
}

func (tx *Tx) finishCommit() {
	if n := uint64(len(tx.readSet)); n > tx.stats.MaxReadSet {
		tx.stats.MaxReadSet = n
	}
	ws := uint64(len(tx.writeSet))
	if tx.stm.design == ETLWriteThrough {
		ws = uint64(len(tx.undo))
	}
	if ws > tx.stats.MaxWriteSet {
		tx.stats.MaxWriteSet = ws
	}
	// Deferred frees land in quarantine now (reclaimed by the next
	// Atomic once no straggler transaction can still reach them); a
	// pooling discipline parks them in the thread-local pool instead.
	if len(tx.frees) > 0 {
		ver := tx.stm.clockRead(tx.th)
		for _, rec := range tx.frees {
			if tx.pool != nil {
				tx.pool.Put(tx, rec.addr, rec.size)
				continue
			}
			tx.note(EvFreeCommitted, rec.addr)
			tx.sanMarkFreed(rec.addr)
			tx.stm.quarantine = append(tx.stm.quarantine,
				quarRec{addr: rec.addr, size: rec.size, ver: ver})
		}
	}
	tx.active = false
	tx.karma = 0 // priority is spent on commit (karma CM)
	tx.attempt = 0
	tx.stats.Commits++
	tx.th.Tick(tx.th.Cost().TxBase)
	if s := tx.stm; s.rec != nil {
		s.rec.TxCommit(tx.th.ID(), tx.beginClock, tx.th.Clock(), len(tx.readSet), int(ws))
	}
	tx.note(EvCommit, 0)
}

// reclaim hands quarantined blocks back to the allocator once they are
// unreachable: a block freed at clock ver is safe when every active
// transaction's snapshot is at least ver, because such transactions
// only see the post-free mesh (consistent reads validate against
// versions the freeing commit bumped) and so cannot follow a stale
// pointer into the block. With no transactions active everything
// drains, so a finished run leaves the quarantine empty.
func (s *STM) reclaim(th *vtime.Thread) {
	// Free calls tick virtual time and can yield to other threads whose
	// own reclaim would walk the same list, so bar reentry and detach
	// the releasable blocks before touching the allocator.
	if len(s.quarantine) == 0 || s.reclaiming {
		return
	}
	s.reclaiming = true
	defer func() { s.reclaiming = false }()
	if p := s.prof; p != nil {
		p.Begin(th, "stm/quarantine")
		defer p.End(th)
	}
	// Loop: frees yield, so commits elsewhere may quarantine more blocks
	// (and their barred reclaims count on this one picking them up).
	for {
		minSnap := int64(1)<<62 - 1
		for _, d := range s.txs {
			if d.active && d.snapshot < minSnap {
				minSnap = d.snapshot
			}
		}
		release := s.relScratch[:0]
		keep := s.quarantine[:0]
		for _, q := range s.quarantine {
			if q.ver <= minSnap {
				release = append(release, q)
			} else {
				keep = append(keep, q)
			}
		}
		s.quarantine = keep
		s.relScratch = release
		if len(release) == 0 {
			return
		}
		// The epoch guarantee just established (every active snapshot
		// has passed the freeing commits) is a happens-before edge.
		if len(s.observers) != 0 {
			s.emit(Event{Kind: EvQuarantineRelease, Tid: th.ID()})
		}
		for _, q := range release {
			s.allocator.Free(th, q.addr)
		}
	}
}

// Malloc allocates inside the transaction; the block is reclaimed if
// the transaction aborts. With a pooling discipline the request is
// first served from the thread-local TxPool. A failed allocation
// (simulated OOM) aborts the transaction cleanly — stripes released,
// earlier allocations undone — so the retry, or ultimately the
// irrevocable fallback, sees a consistent heap; it never returns 0.
func (tx *Tx) Malloc(size uint64) mem.Addr {
	tx.stats.AllocsInTx++
	var a mem.Addr
	if tx.pool != nil {
		a = tx.pool.Get(tx, size)
	}
	if a == 0 {
		a = tx.stm.allocator.Malloc(tx.th, size)
	}
	if a == 0 {
		a = tx.txMallocOOM(size) // aborts, or retries irrevocably
	}
	tx.allocs = append(tx.allocs, allocRec{addr: a, size: size})
	return a
}

// Free defers the release of the block at a (of the given request size)
// to commit time, and transactionally locks the block's words so that
// concurrent readers of the dying object conflict with this
// transaction, as TinySTM's stm_free does.
func (tx *Tx) Free(a mem.Addr, size uint64) {
	tx.stats.FreesInTx++
	tx.sanFree(a)
	for off := uint64(0); off < size; off += 8 {
		tx.Store(a+mem.Addr(off), 0)
	}
	tx.frees = append(tx.frees, allocRec{addr: a, size: size})
}
