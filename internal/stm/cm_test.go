package stm

import (
	"math"
	"testing"

	"repro/internal/mem"
	"repro/internal/vtime"
)

func TestParseCM(t *testing.T) {
	for _, name := range CMNames() {
		cm, err := ParseCM(name)
		if err != nil {
			t.Fatalf("ParseCM(%q): %v", name, err)
		}
		if cm.String() != name {
			t.Errorf("ParseCM(%q).String() = %q", name, cm.String())
		}
	}
	if cm, err := ParseCM(""); err != nil || cm != CMSuicide {
		t.Errorf("ParseCM(\"\") = %v, %v; want suicide", cm, err)
	}
	if _, err := ParseCM("polite"); err == nil {
		t.Error("ParseCM of an unknown name succeeded")
	}
}

// TestLadderEngagesAtRetryCap checks the degradation ladder: a
// transaction that refuses to commit revocably is run irrevocably after
// exactly RetryCap consecutive aborts, and the starvation watermark
// records the streak.
func TestLadderEngagesAtRetryCap(t *testing.T) {
	space, _ := newWorld(1)
	s := New(space, Config{RetryCap: 4})
	th := vtime.Solo(space, 0, nil)
	attempts := 0
	s.Atomic(th, func(tx *Tx) {
		attempts++
		if !tx.Irrevocable() {
			tx.Restart()
		}
	})
	if attempts != 5 {
		t.Errorf("attempts = %d, want 5 (4 revocable + 1 irrevocable)", attempts)
	}
	st := s.Stats()
	if st.Irrevocables != 1 {
		t.Errorf("Irrevocables = %d, want 1", st.Irrevocables)
	}
	if st.Commits != 1 {
		t.Errorf("Commits = %d, want 1", st.Commits)
	}
	if st.MaxConsecAborts != 4 {
		t.Errorf("MaxConsecAborts = %d, want 4", st.MaxConsecAborts)
	}
	if locked := s.LockedStripes(); len(locked) != 0 {
		t.Errorf("ORT entries still locked after irrevocable commit: %v", locked)
	}
}

// TestMaxRetryCapDisablesLadder checks that a cap of 2^64-1 removes
// the fallback: the transaction retries as often as the workload
// demands and never turns irrevocable.
func TestMaxRetryCapDisablesLadder(t *testing.T) {
	space, _ := newWorld(1)
	s := New(space, Config{RetryCap: math.MaxUint64})
	th := vtime.Solo(space, 0, nil)
	attempts := 0
	s.Atomic(th, func(tx *Tx) {
		attempts++
		if attempts <= 50 {
			tx.Restart()
		}
	})
	if attempts != 51 {
		t.Errorf("attempts = %d, want 51", attempts)
	}
	st := s.Stats()
	if st.Irrevocables != 0 {
		t.Errorf("Irrevocables = %d, want 0 with the maximum cap", st.Irrevocables)
	}
	if st.MaxConsecAborts != 50 {
		t.Errorf("MaxConsecAborts = %d, want 50", st.MaxConsecAborts)
	}
}

// duel runs the forced-livelock microbenchmark: two threads repeatedly
// transact over two stripes in opposite orders with a long computation
// between the accesses, so each attempt holds its first stripe for
// almost the whole window in which the rival wants it.
func duel(t *testing.T, cm CM, retryCap, deadline uint64) (*STM, *vtime.Engine) {
	t.Helper()
	space := SanitizedSpace()
	e := vtime.NewEngine(space, 2, vtime.Config{Deadline: deadline})
	s := New(space, Config{OrtBits: 10, CM: cm, RetryCap: retryCap})
	base := space.MustMap(mem.PageSize, 0)
	lo, hi := base, base+64 // distinct stripes at shift 5
	const perThread = 5
	const workCycles = 2000 // cycles holding the first stripe
	e.Run(func(th *vtime.Thread) {
		first, second := lo, hi
		if th.ID() == 1 {
			first, second = hi, lo
		}
		for i := 0; i < perThread; i++ {
			s.Atomic(th, func(tx *Tx) {
				tx.Store(first, tx.Load(first)+1)
				tx.Thread().Work(workCycles)
				tx.Store(second, tx.Load(second)+1)
			})
		}
	})
	return s, e
}

// TestForcedLivelockSuicideVsLadder pins the headline robustness
// property: on the dueling-stripes workload SUICIDE (the paper's CM)
// with the ladder disabled livelocks — it blows through the
// max-consecutive-abort bound and only the engine watchdog ends the
// run — while backoff with a retry cap completes the same workload,
// with the ladder bounding every streak at the cap.
func TestForcedLivelockSuicideVsLadder(t *testing.T) {
	const bound = 64
	const deadline = 4_000_000

	s, e := duel(t, CMSuicide, math.MaxUint64, deadline)
	if !e.DeadlineExceeded() {
		t.Fatal("suicide without a retry cap completed the duel; the livelock workload is not adversarial enough")
	}
	if st := s.Stats(); st.MaxConsecAborts <= bound {
		t.Errorf("suicide MaxConsecAborts = %d, want > %d", st.MaxConsecAborts, bound)
	}

	s, e = duel(t, CMBackoff, bound, deadline)
	if e.DeadlineExceeded() {
		t.Fatal("backoff + ladder hit the watchdog on the duel")
	}
	st := s.Stats()
	if st.Commits != 10 {
		t.Errorf("backoff + ladder commits = %d, want 10", st.Commits)
	}
	if st.MaxConsecAborts > bound {
		t.Errorf("MaxConsecAborts = %d exceeds the retry cap %d", st.MaxConsecAborts, bound)
	}
	if locked := s.LockedStripes(); len(locked) != 0 {
		t.Errorf("ORT entries still locked after the duel: %v", locked)
	}
}

// TestDuelCompletesUnderEveryCM checks that each contention manager,
// backed by the ladder, finishes the duel and leaves the ORT clean.
func TestDuelCompletesUnderEveryCM(t *testing.T) {
	for _, cm := range []CM{CMSuicide, CMBackoff, CMKarma, CMAggressive} {
		t.Run(cm.String(), func(t *testing.T) {
			s, e := duel(t, cm, 32, 8_000_000)
			if e.DeadlineExceeded() {
				t.Fatalf("%s + ladder hit the watchdog", cm)
			}
			if st := s.Stats(); st.Commits != 10 {
				t.Errorf("commits = %d, want 10", st.Commits)
			}
			if locked := s.LockedStripes(); len(locked) != 0 {
				t.Errorf("ORT entries still locked: %v", locked)
			}
		})
	}
}

// TestAggressiveKillsOwner checks the aggressive CM's kill path: the
// blocked transaction flags the stripe owner, which aborts with
// AbortKilled at its next transactional operation. The ladder stays on
// — on a symmetric duel two aggressive transactions kill each other in
// lockstep, so aggressive alone is just as livelock-prone as suicide.
func TestAggressiveKillsOwner(t *testing.T) {
	s, e := duel(t, CMAggressive, 32, 8_000_000)
	if e.DeadlineExceeded() {
		t.Fatal("aggressive CM + ladder hit the watchdog")
	}
	st := s.Stats()
	if st.Commits != 10 {
		t.Errorf("commits = %d, want 10", st.Commits)
	}
	if st.ByReason[AbortKilled] == 0 {
		t.Error("no AbortKilled aborts under the aggressive CM on a dueling workload")
	}
}

// TestCMsPreserveCorrectness runs the contended-counter workload under
// every CM and checks the count — whatever the conflict policy, committed
// effects must be exactly once.
func TestCMsPreserveCorrectness(t *testing.T) {
	for _, cm := range []CM{CMSuicide, CMBackoff, CMKarma, CMAggressive} {
		t.Run(cm.String(), func(t *testing.T) {
			space, e := newWorld(4)
			s := New(space, Config{CM: cm, RetryCap: 128})
			counter := space.MustMap(mem.PageSize, 0)
			const perThread = 300
			e.Run(func(th *vtime.Thread) {
				for i := 0; i < perThread; i++ {
					s.Atomic(th, func(tx *Tx) {
						tx.Store(counter, tx.Load(counter)+1)
					})
				}
			})
			if got := space.Load(counter); got != 4*perThread {
				t.Errorf("counter = %d, want %d", got, 4*perThread)
			}
			if locked := s.LockedStripes(); len(locked) != 0 {
				t.Errorf("ORT entries still locked: %v", locked)
			}
		})
	}
}
