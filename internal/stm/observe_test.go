package stm

import (
	"testing"

	"repro/internal/alloc"
	"repro/internal/mem"
	"repro/internal/vtime"
)

// abortLog keeps the EvAbort events it observes.
type abortLog []Event

func (l *abortLog) OnTx(ev Event) {
	if ev.Kind == EvAbort {
		*l = append(*l, ev)
	}
}

// freeHook runs its one-shot hook inside Free, which a rollback calls
// for the attempt's allocations: the point where the victim's rollback
// ticks and its thread may park while rivals run.
type freeHook struct {
	alloc.Allocator
	hook func()
}

func (f *freeHook) Free(th *vtime.Thread, a mem.Addr) {
	if h := f.hook; h != nil {
		f.hook = nil
		h()
	}
	f.Allocator.Free(th, a)
}

// TestStripeKillerIsLastAcquirer pins how the STM names an abort's
// killer. A stripe abort names the entry's last acquirer as read when
// the abort is reported, after the rollback: a rival that acquires the
// entry while the rollback runs is the killer, though the owner address
// was read before. The victim's own acquisition names no killer, and
// neither does an entry nobody acquired. An abort with no stripe names
// the aggressive rival of a kill only: a restart names none even when
// a rival had flagged the transaction.
func TestStripeKillerIsLastAcquirer(t *testing.T) {
	space := SanitizedSpace()
	frees := &freeHook{Allocator: alloc.MustNew("tbb", space, 1)}
	s := New(space, Config{Allocator: frees})
	var got abortLog
	s.Observe(&got)
	th := vtime.Solo(space, 0, nil)
	words := space.MustMap(mem.PageSize, 0)
	stripe := mem.Addr(1) << DefaultShift

	// stripeAbort locks the stripe of victim for thread 1, as if for
	// owner, and runs a transaction that allocates and then stores to
	// victim, so its first attempt aborts on the stripe. During that
	// attempt's rollback the stripe is released and, unless rival is
	// NoKiller, acquired by rival for a third address.
	stripeAbort := func(victim, owner mem.Addr, rival int) {
		idx := s.OrtIndex(victim)
		th.Store(s.ortAddr(idx), lockWord(1))
		if owner != 0 {
			s.setAcquired(idx, owner, 1)
		}
		frees.hook = func() {
			th.Store(s.ortAddr(idx), versionWord(0))
			if rival != NoKiller {
				s.setAcquired(idx, victim+16, rival)
			}
		}
		s.Atomic(th, func(tx *Tx) {
			tx.Malloc(16)
			tx.Store(victim, 1)
		})
	}
	stripeAbort(words, words+8, 2)               // t2 acquired the entry during the rollback
	stripeAbort(words+stripe, words+stripe+8, 0) // the victim's own acquisition
	stripeAbort(words+2*stripe, 0, NoKiller)     // never acquired
	noStripe := func(body func(tx *Tx)) {
		first := true
		s.Atomic(th, func(tx *Tx) {
			if first {
				first = false
				body(tx)
			}
		})
	}
	noStripe(func(tx *Tx) { // killed by t2, as an aggressive rival's cmWait flags it
		tx.killed, tx.killedBy = true, 2
		tx.Load(words)
	})
	noStripe(func(tx *Tx) { // flagged by t2, but restarted before it noticed
		tx.killedBy = 2
		tx.Restart()
	})

	want := []struct {
		reason AbortReason
		owner  mem.Addr
		killer int
	}{
		{AbortLockedByOther, words + 8, 2},
		{AbortLockedByOther, words + stripe + 8, NoKiller},
		{AbortLockedByOther, 0, NoKiller},
		{AbortKilled, 0, 2},
		{AbortExplicit, 0, NoKiller},
	}
	if len(got) != len(want) {
		t.Fatalf("%d aborts, want %d: %+v", len(got), len(want), got)
	}
	for i, w := range want {
		if ev := got[i]; ev.Reason != w.reason || ev.Owner != w.owner || ev.Killer != w.killer {
			t.Errorf("abort %d: reason %v, owner %#x, killer %d; want %v, %#x, %d",
				i, ev.Reason, ev.Owner, ev.Killer, w.reason, w.owner, w.killer)
		}
	}
}
