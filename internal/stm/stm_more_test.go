package stm

import (
	"testing"
	"testing/quick"

	"repro/internal/alloc"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/vtime"
)

func TestLockWordFormat(t *testing.T) {
	w := lockWord(5)
	if !isLocked(w) || ownerOf(w) != 5 {
		t.Errorf("lockWord(5) = %#x: locked=%v owner=%d", w, isLocked(w), ownerOf(w))
	}
	v := versionWord(1234)
	if isLocked(v) || versionOf(v) != 1234 {
		t.Errorf("versionWord(1234) = %#x: locked=%v version=%d", v, isLocked(v), versionOf(v))
	}
}

func TestInTx(t *testing.T) {
	space, _ := newWorld(1)
	s := New(space, Config{})
	th := vtime.Solo(space, 0, nil)
	if s.InTx(0) {
		t.Error("InTx true before any transaction")
	}
	a := space.MustMap(mem.PageSize, 0)
	s.Atomic(th, func(tx *Tx) {
		if !s.InTx(0) {
			t.Error("InTx false inside a transaction")
		}
		tx.Store(a, 1)
	})
	if s.InTx(0) {
		t.Error("InTx true after commit")
	}
}

func TestStatsSub(t *testing.T) {
	a := TxStats{Starts: 10, Commits: 8, Aborts: 2, LoadsTotal: 100}
	b := TxStats{Starts: 4, Commits: 3, Aborts: 1, LoadsTotal: 40}
	d := a.Sub(b)
	if d.Starts != 6 || d.Commits != 5 || d.Aborts != 1 || d.LoadsTotal != 60 {
		t.Errorf("Sub = %+v", d)
	}
}

func TestAbortReasonStrings(t *testing.T) {
	for r := AbortLockedByOther; r < abortReasonCount; r++ {
		if r.String() == "" || r.String()[0] == 'r' && r != AbortLockedByOther {
			t.Errorf("reason %d has poor name %q", r, r.String())
		}
	}
	if AbortReason(99).String() != "reason(99)" {
		t.Error("unknown reason formatting broken")
	}
}

func TestTwoSTMInstancesShareSpaceIndependently(t *testing.T) {
	space := SanitizedSpace()
	s1 := New(space, Config{Shift: 5})
	s2 := New(space, Config{Shift: 4})
	a := space.MustMap(mem.PageSize, 0)
	th := vtime.Solo(space, 0, nil)
	s1.Atomic(th, func(tx *Tx) { tx.Store(a, 1) })
	s2.Atomic(th, func(tx *Tx) { tx.Store(a, tx.Load(a)+1) })
	if space.Load(a) != 2 {
		t.Errorf("value = %d, want 2", space.Load(a))
	}
}

func TestOrtBitsConfigurable(t *testing.T) {
	space := SanitizedSpace()
	s := New(space, Config{OrtBits: 10}) // 1024 entries
	base := mem.Addr(1 << 28)
	// Aliasing period = 1024 * 32 bytes = 32 KiB.
	if s.OrtIndex(base) != s.OrtIndex(base+32<<10) {
		t.Error("1024-entry ORT does not alias at 32KB")
	}
	if s.OrtIndex(base) == s.OrtIndex(base+16<<10) {
		t.Error("1024-entry ORT aliases at 16KB")
	}
}

// Property: for any interleaving seed, concurrent increments of
// disjoint counters never abort and always sum correctly.
func TestQuickDisjointCountersNeverConflict(t *testing.T) {
	check := func(seed uint64) bool {
		space := SanitizedSpace()
		e := vtime.NewEngine(space, 4, vtime.Config{})
		s := New(space, Config{})
		base := space.MustMap(mem.PageSize, 0)
		e.Run(func(th *vtime.Thread) {
			addr := base + mem.Addr(th.ID()*256) // distinct stripes
			r := sim.NewRand(seed + uint64(th.ID()))
			for i := 0; i < 100; i++ {
				s.Atomic(th, func(tx *Tx) {
					tx.Store(addr, tx.Load(addr)+1)
				})
				th.Work(uint64(r.Intn(50)))
			}
		})
		if s.Stats().Aborts != 0 {
			return false
		}
		for tid := 0; tid < 4; tid++ {
			if space.Load(base+mem.Addr(tid*256)) != 100 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

// Property: counters sharing one stripe conflict but still total
// correctly for any timing seed.
func TestQuickSharedStripeStillCorrect(t *testing.T) {
	check := func(seed uint64) bool {
		space := SanitizedSpace()
		e := vtime.NewEngine(space, 4, vtime.Config{})
		s := New(space, Config{})
		base := space.MustMap(mem.PageSize, 0)
		e.Run(func(th *vtime.Thread) {
			addr := base + mem.Addr(th.ID()*8) // all in one 32-byte stripe
			r := sim.NewRand(seed + uint64(th.ID()))
			for i := 0; i < 100; i++ {
				s.Atomic(th, func(tx *Tx) {
					tx.Store(addr, tx.Load(addr)+1)
				})
				th.Work(uint64(r.Intn(50)))
			}
		})
		var total uint64
		for tid := 0; tid < 4; tid++ {
			total += space.Load(base + mem.Addr(tid*8))
		}
		return total == 400
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

func TestMaxRetriesTracked(t *testing.T) {
	space, e := newWorld(4)
	s := New(space, Config{})
	a := space.MustMap(mem.PageSize, 0)
	e.Run(func(th *vtime.Thread) {
		for i := 0; i < 200; i++ {
			s.Atomic(th, func(tx *Tx) {
				v := tx.Load(a)
				th.Work(30)
				tx.Store(a, v+1)
			})
		}
	})
	st := s.Stats()
	if st.Aborts > 0 && st.MaxRetries == 0 {
		t.Errorf("aborts %d but MaxRetries 0", st.Aborts)
	}
}

func TestTxFreeThenAllocatorReuse(t *testing.T) {
	// After a committed tx.Free, the allocator may recycle the block and
	// the STM must cope (new stripe versions, no stale locks).
	space, _ := newWorld(1)
	al := alloc.MustNew("tcmalloc", space, 1)
	s := New(space, Config{Allocator: al})
	th := vtime.Solo(space, 0, nil)
	var first mem.Addr
	s.Atomic(th, func(tx *Tx) { first = tx.Malloc(64) })
	s.Atomic(th, func(tx *Tx) { tx.Free(first, 64) })
	var second mem.Addr
	s.Atomic(th, func(tx *Tx) {
		second = tx.Malloc(64)
		tx.Store(second, 42)
	})
	if second != first {
		t.Logf("allocator did not recycle (%#x vs %#x); still fine", uint64(second), uint64(first))
	}
	if space.Load(second) != 42 {
		t.Error("write to recycled block lost")
	}
}

func TestSetSizeStats(t *testing.T) {
	space, _ := newWorld(1)
	s := New(space, Config{})
	base := space.MustMap(mem.PageSize, 0)
	th := vtime.Solo(space, 0, nil)
	s.Atomic(th, func(tx *Tx) {
		for i := 0; i < 10; i++ {
			tx.Load(base + mem.Addr(i*64))
		}
		for i := 0; i < 3; i++ {
			tx.Store(base+mem.Addr(i*64), 1)
		}
	})
	st := s.Stats()
	if st.MaxReadSet < 7 { // stores subsume some reads' stripes, but >= 7 loads remain tracked
		t.Errorf("MaxReadSet = %d, want >= 7", st.MaxReadSet)
	}
	if st.MaxWriteSet != 3 {
		t.Errorf("MaxWriteSet = %d, want 3", st.MaxWriteSet)
	}
}
