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
// owner and killer. A stripe abort reads the entry's last acquisition
// once, before the rollback: its address is the owner and its thread
// the killer, so a rival that acquires the entry while the rollback runs
// is neither. The victim's own acquisition names no killer, and neither
// does an entry nobody acquired. An abort with no stripe names the
// aggressive rival of a kill only: a restart names none even when a
// rival had flagged the transaction.
func TestStripeKillerIsLastAcquirer(t *testing.T) {
	space := SanitizedSpace()
	frees := &freeHook{Allocator: alloc.MustNew("tbb", space, 1)}
	s := New(space, Config{Allocator: frees})
	var got abortLog
	s.Observe(&got)
	th := vtime.Solo(space, 0, nil)
	words := space.MustMap(mem.PageSize, 0)
	stripe := mem.Addr(1) << DefaultShift
	const rival = 2

	// stripeAbort locks the stripe of victim for thread 1, as if for
	// owner by thread tid (never acquired when owner is 0), and runs a
	// transaction that allocates and then stores to victim, so its first
	// attempt aborts on the stripe. During that attempt's rollback the
	// stripe is released and acquired by the rival for a third address.
	stripeAbort := func(victim, owner mem.Addr, tid int) {
		idx := s.OrtIndex(victim)
		th.Store(s.ortAddr(idx), lockWord(1))
		if owner != 0 {
			s.setAcquired(idx, owner, tid)
		}
		frees.hook = func() {
			th.Store(s.ortAddr(idx), versionWord(0))
			s.setAcquired(idx, victim+16, rival)
		}
		s.Atomic(th, func(tx *Tx) {
			tx.Malloc(16)
			tx.Store(victim, 1)
		})
		if frees.hook != nil {
			t.Fatalf("the abort on %#x rolled back no allocation", victim)
		}
	}
	stripeAbort(words, words+8, 1)                     // t1's acquisition
	stripeAbort(words+stripe, words+stripe+8, th.ID()) // the victim's own acquisition
	stripeAbort(words+2*stripe, 0, NoKiller)           // never acquired
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
		tx.killed, tx.killedBy = true, rival
		tx.Load(words)
	})
	noStripe(func(tx *Tx) { // flagged by t2, but restarted before it noticed
		tx.killedBy = rival
		tx.Restart()
	})

	want := []struct {
		reason AbortReason
		owner  mem.Addr
		killer int
	}{
		{AbortLockedByOther, words + 8, 1},
		{AbortLockedByOther, words + stripe + 8, NoKiller},
		{AbortLockedByOther, 0, NoKiller},
		{AbortKilled, 0, rival},
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
	// Each stripe abort's owner differs from its victim's address.
	if n := s.Stats().FalseAborts; n != 3 {
		t.Errorf("%d false aborts, want 3", n)
	}
}

// TestKindIsTheLastSetKind pins the label lookup the conflict
// observatory reads: a thread's last SetKind, across transactions, and
// "" for a thread that never ran one.
func TestKindIsTheLastSetKind(t *testing.T) {
	space := mem.NewSpace()
	s := New(space, Config{})
	th := vtime.Solo(space, 3, nil)
	for _, kinds := range [][]string{{"insert"}, {"remove", "lookup"}, {""}} {
		s.Atomic(th, func(tx *Tx) {
			for _, k := range kinds {
				tx.SetKind(k)
			}
		})
		if got, want := s.Kind(3), kinds[len(kinds)-1]; got != want {
			t.Errorf("after SetKind %q: Kind(3) = %q, want %q", kinds, got, want)
		}
	}
	if got := s.Kind(0); got != "" {
		t.Errorf("Kind(0) = %q for a thread with no descriptor, want \"\"", got)
	}
}
