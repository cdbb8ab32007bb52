package stm

import "repro/internal/mem"

// Transaction-event stream: the race checker (internal/race) and the
// conflict observatory (internal/conflict) watch the same transaction
// lifecycle, so the STM keeps one ordered observer list and emit is its
// one fan-out point, as mem.Space.Watch is for block watchers. An
// observer is pure metadata: it never touches simulated memory through
// a thread handle, never advances virtual time and never changes a
// protocol decision, so an observed run is byte-identical to an
// unobserved one. Each event point's check inlines, so with no observer
// attached it costs one length check; the event is built out of line.

// EventKind names one point of the transaction lifecycle.
type EventKind uint8

// Event kinds, with the fields each sets besides the context every
// event carries (Tid, Snapshot).
const (
	EvBegin  EventKind = iota // an attempt began at Snapshot
	EvExtend                  // the read set validated and Snapshot advanced
	EvLoad                    // a speculative Load of Addr
	EvStore                   // a speculative Store to Addr
	// EvPublish: the commit published Version, the release point a later
	// attempt whose snapshot covers it acquires at EvBegin or EvExtend; 0
	// for a read-only commit. It flushes the attempt's loads and stores
	// and precedes its EvFreeCommitted events.
	EvPublish
	EvRollback // the attempt rolled back, on every path; its loads and stores never happened
	// EvAbort: the abort as forensics see it, after the rollback: Reason,
	// Stripe, Addr, Owner, Killer, Attempt and Wasted.
	EvAbort
	EvCommit        // the commit finished, ending any abort chain rooted at the thread
	EvFreeCommitted // the block at Addr entered quarantine or a pool's recycle list; its watchers' free note follows
	// EvQuarantineRelease: thread Tid is about to hand quarantined blocks
	// back to the allocator, every active snapshot having passed their
	// frees. It carries no transaction context.
	EvQuarantineRelease
	// EvDurLogCommitted, EvDurStore (Addr) and EvDurApply bracket the
	// durable commit: a store between the log commit and the apply is
	// ordered, anywhere else it is visible before its redo log.
	EvDurLogCommitted
	EvDurStore
	EvDurApply
)

// NoKiller is the Event.Killer value of an abort with no attributable
// rival thread.
const NoKiller = -1

// Event is one transaction-lifecycle event. It is passed by value, so
// no observer can change what the next one sees.
type Event struct {
	Kind EventKind
	// Context: the thread and the transaction's snapshot version. The
	// thread's workload label is (*STM).Kind.
	Tid      int
	Snapshot uint64
	// Addr is the loaded, stored or freed address; for EvAbort the
	// address the victim was accessing. Stripe is the ORT entry an abort
	// is attributed to (obs.NoStripe when none is; Addr and Owner are
	// then zero).
	Addr    mem.Addr
	Stripe  uint64
	Version uint64 // EvPublish: the published commit version
	// EvAbort: why the attempt died, the address and the thread of
	// Stripe's last acquisition before the rollback (Owner and Killer;
	// an AbortKilled's Killer is the aggressive rival that flagged it,
	// and Killer is NoKiller when there is none or it is the victim), the
	// 1-based attempt number within its Atomic, and the virtual cycles
	// from begin to abort on the victim's clock.
	Reason  AbortReason
	Owner   mem.Addr
	Killer  int
	Attempt uint64
	Wasted  uint64
}

// Observer consumes the transaction-event stream. It is driven only
// from simulated threads, which the engine serializes, so it needs no
// locking.
type Observer interface {
	OnTx(ev Event)
}

// Observe appends o to the STM's observers; every later event reaches
// them in attach order. Attach before the STM runs a transaction.
func (s *STM) Observe(o Observer) { s.observers = append(s.observers, o) }

func (s *STM) emit(ev Event) {
	for _, o := range s.observers {
		o.OnTx(ev)
	}
}

// emit builds a k event with the transaction's context and fans it out.
func (tx *Tx) emit(k EventKind, a mem.Addr, stripe, ver uint64) {
	tx.stm.emit(Event{Kind: k, Tid: tx.th.ID(), Snapshot: uint64(tx.snapshot),
		Addr: a, Stripe: stripe, Version: ver})
}

// note emits a k event, with a for the kinds that carry an address.
func (tx *Tx) note(k EventKind, a mem.Addr) {
	if len(tx.stm.observers) != 0 {
		tx.emit(k, a, 0, 0)
	}
}

func (tx *Tx) notePublish(ver uint64) {
	if len(tx.stm.observers) != 0 {
		tx.emit(EvPublish, 0, 0, ver)
	}
}

// noteAbort reports an abort attributed to ORT entry idx (obs.NoStripe
// for none): a is the victim's address, last the entry's last
// acquisition as read before the rollback (zero for none).
func (tx *Tx) noteAbort(reason AbortReason, idx uint64, a mem.Addr, last acquisition) {
	if len(tx.stm.observers) != 0 {
		tx.emitAbort(reason, idx, a, last)
	}
}

// emitAbort names the killer from the same acquisition as the owner: a
// stripe abort's is that acquisition's thread, a kill's the aggressive
// rival that flagged it.
func (tx *Tx) emitAbort(reason AbortReason, idx uint64, a mem.Addr, last acquisition) {
	killer := int(last.tid) - 1 // NoKiller if never acquired
	if reason == AbortKilled {
		killer = int(tx.killedBy)
	}
	if killer == tx.th.ID() {
		killer = NoKiller
	}
	tx.stm.emit(Event{Kind: EvAbort, Tid: tx.th.ID(), Snapshot: uint64(tx.snapshot),
		Reason: reason, Stripe: idx, Addr: a, Owner: last.addr,
		Killer: killer, Attempt: tx.attempt, Wasted: tx.th.Clock() - tx.beginClock})
}

// SetKind labels the transactions this descriptor runs from now on
// (workloads call it first thing inside the atomic function, so every
// attempt re-asserts it). The label feeds conflict forensics — killer
// and victim transactions are reported by kind — and allocator blame:
// blocks allocated while the label is in force carry it as their
// allocation site.
func (tx *Tx) SetKind(kind string) { tx.kind = kind }

// Kind returns thread tid's label: its descriptor's last SetKind, or ""
// when it has none.
func (s *STM) Kind(tid int) string {
	if tx := s.txs[tid]; tx != nil {
		return tx.kind
	}
	return ""
}
