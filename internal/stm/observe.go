package stm

import (
	"repro/internal/mem"
	"repro/internal/obs"
)

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
// event carries (Tid, Snapshot, Label).
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
	EvLabel         // SetKind set Label
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
	// Context: the thread, the transaction's snapshot version and its
	// workload label (SetKind; "" if unlabeled).
	Tid      int
	Snapshot uint64
	Label    string
	// Addr is the loaded, stored or freed address; for EvAbort the
	// address the victim was accessing. Stripe is the ORT entry an abort
	// is attributed to (obs.NoStripe when none is; Addr and Owner are
	// then zero).
	Addr    mem.Addr
	Stripe  uint64
	Version uint64 // EvPublish: the published commit version
	// EvAbort: why the attempt died, the address that last acquired
	// Stripe, the thread that killed the victim (Stripe's last acquirer,
	// or the aggressive rival of an AbortKilled; NoKiller when there is
	// none or it is the victim), the 1-based attempt number within its
	// Atomic, and the virtual cycles from begin to abort on the victim's
	// clock.
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
	tx.stm.emit(Event{Kind: k, Tid: tx.th.ID(), Snapshot: uint64(tx.snapshot), Label: tx.kind,
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
// for none): a is the victim's address, owner the entry's last
// acquirer's.
func (tx *Tx) noteAbort(reason AbortReason, idx uint64, a, owner mem.Addr) {
	if len(tx.stm.observers) != 0 {
		tx.emitAbort(reason, idx, a, owner)
	}
}

// emitAbort names the killer as the abort is reported, after the
// rollback: a stripe abort's is the entry's last acquirer then (the
// rollback ticks, so rivals may have acquired it meanwhile), a kill's
// the aggressive rival that flagged it.
func (tx *Tx) emitAbort(reason AbortReason, idx uint64, a, owner mem.Addr) {
	killer := NoKiller
	switch {
	case idx != obs.NoStripe:
		killer = int(tx.stm.lastAcquired(idx).tid) - 1 // NoKiller if never acquired
	case reason == AbortKilled:
		killer = int(tx.killedBy)
	}
	if killer == tx.th.ID() {
		killer = NoKiller
	}
	tx.stm.emit(Event{Kind: EvAbort, Tid: tx.th.ID(), Snapshot: uint64(tx.snapshot), Label: tx.kind,
		Reason: reason, Stripe: idx, Addr: a, Owner: owner,
		Killer: killer, Attempt: tx.attempt, Wasted: tx.th.Clock() - tx.beginClock})
}

// SetKind labels the transactions this descriptor runs from now on
// (workloads call it first thing inside the atomic function, so every
// attempt re-asserts it). The label feeds conflict forensics — killer
// and victim transactions are reported by kind — and allocator blame:
// blocks allocated while the label is in force carry it as their
// allocation site.
func (tx *Tx) SetKind(kind string) {
	tx.kind = kind
	tx.note(EvLabel, 0)
}
