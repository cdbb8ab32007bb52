package stm

import (
	"testing"

	_ "repro/internal/alloc/glibc"
	_ "repro/internal/alloc/hoard"
	_ "repro/internal/alloc/tbb"
	_ "repro/internal/alloc/tcmalloc"

	"repro/internal/alloc"
	"repro/internal/mem"
	"repro/internal/vtime"
)

// SanitizedSpace returns a fresh space with the shadow-memory sanitizer
// attached. The package's tests and examples build their spaces here,
// so the STM suite runs with access checking on; a sanitized run is
// byte-identical to an unsanitized one unless a diagnostic fires
// (TestObserverPurity in internal/harness).
func SanitizedSpace() *mem.Space {
	space := mem.NewSpace()
	space.EnableSanitizer()
	return space
}

func newWorld(threads int) (*mem.Space, *vtime.Engine) {
	space := SanitizedSpace()
	return space, vtime.NewEngine(space, threads, vtime.Config{})
}

func TestCounterUnderContention(t *testing.T) {
	space, e := newWorld(8)
	s := New(space, Config{})
	counter := space.MustMap(mem.PageSize, 0)
	const perThread = 500
	e.Run(func(th *vtime.Thread) {
		for i := 0; i < perThread; i++ {
			s.Atomic(th, func(tx *Tx) {
				tx.Store(counter, tx.Load(counter)+1)
			})
		}
	})
	if got := space.Load(counter); got != 8*perThread {
		t.Errorf("counter = %d, want %d", got, 8*perThread)
	}
	st := s.Stats()
	if st.Commits != 8*perThread {
		t.Errorf("commits = %d, want %d", st.Commits, 8*perThread)
	}
	if st.Aborts == 0 {
		t.Error("no aborts under 8-thread single-word contention; interleaving broken")
	}
}

func TestMoneyConservation(t *testing.T) {
	space, e := newWorld(8)
	s := New(space, Config{})
	const accounts = 64
	base := space.MustMap(mem.PageSize, 0)
	for i := 0; i < accounts; i++ {
		space.Store(base+mem.Addr(i*8), 1000)
	}
	e.Run(func(th *vtime.Thread) {
		rng := uint64(th.ID())*2654435761 + 1
		for i := 0; i < 400; i++ {
			rng = rng*6364136223846793005 + 1442695040888963407
			from := mem.Addr((rng>>33)%accounts) * 8
			to := mem.Addr((rng>>17)%accounts) * 8
			if from == to {
				continue
			}
			s.Atomic(th, func(tx *Tx) {
				a := tx.Load(base + from)
				b := tx.Load(base + to)
				if a >= 10 {
					tx.Store(base+from, a-10)
					tx.Store(base+to, b+10)
				}
			})
		}
	})
	var total uint64
	for i := 0; i < accounts; i++ {
		total += space.Load(base + mem.Addr(i*8))
	}
	if total != accounts*1000 {
		t.Errorf("total = %d, want %d (isolation violated)", total, accounts*1000)
	}
}

func TestReadsOwnWrites(t *testing.T) {
	space, _ := newWorld(1)
	s := New(space, Config{})
	a := space.MustMap(mem.PageSize, 0)
	th := vtime.Solo(space, 0, nil)
	s.Atomic(th, func(tx *Tx) {
		tx.Store(a, 42)
		if got := tx.Load(a); got != 42 {
			t.Errorf("Load after Store = %d, want 42 (write-back lost)", got)
		}
		tx.Store(a, 43)
		if got := tx.Load(a); got != 43 {
			t.Errorf("Load after second Store = %d, want 43", got)
		}
	})
	if got := space.Load(a); got != 43 {
		t.Errorf("after commit: %d, want 43", got)
	}
}

func TestWriteBackInvisibleBeforeCommit(t *testing.T) {
	space, _ := newWorld(1)
	s := New(space, Config{})
	a := space.MustMap(mem.PageSize, 0)
	space.Store(a, 7)
	th := vtime.Solo(space, 0, nil)
	s.Atomic(th, func(tx *Tx) {
		tx.Store(a, 99)
		// Write-back: memory must still hold the old value here.
		if got := space.Load(a); got != 7 {
			t.Errorf("memory shows %d before commit, want 7", got)
		}
	})
	if got := space.Load(a); got != 99 {
		t.Errorf("memory shows %d after commit, want 99", got)
	}
}

func TestAbortRestoresState(t *testing.T) {
	space, _ := newWorld(1)
	s := New(space, Config{})
	a := space.MustMap(mem.PageSize, 0)
	space.Store(a, 7)
	th := vtime.Solo(space, 0, nil)
	tries := 0
	s.Atomic(th, func(tx *Tx) {
		tries++
		tx.Store(a, 99)
		if tries == 1 {
			tx.Restart()
		}
	})
	if tries != 2 {
		t.Errorf("tries = %d, want 2", tries)
	}
	if got := space.Load(a); got != 99 {
		t.Errorf("final value = %d, want 99", got)
	}
	st := s.Stats()
	if st.Aborts != 1 || st.ByReason[AbortExplicit] != 1 {
		t.Errorf("stats = %+v, want 1 explicit abort", st)
	}
}

func TestOrtLockReleasedAfterAbort(t *testing.T) {
	space, _ := newWorld(1)
	s := New(space, Config{})
	a := space.MustMap(mem.PageSize, 0)
	th := vtime.Solo(space, 0, nil)
	first := true
	s.Atomic(th, func(tx *Tx) {
		tx.Store(a, 1)
		if first {
			first = false
			tx.Restart()
		}
	})
	// The ORT entry must be unlocked now.
	w := space.Load(s.ortAddr(s.OrtIndex(a)))
	if isLocked(w) {
		t.Errorf("ORT entry still locked after commit: %#x", w)
	}
}

func TestSameStripeDifferentWordsConflict(t *testing.T) {
	// Two addresses 16 bytes apart share a 32-byte stripe under shift 5:
	// a writer of one must abort a reader/writer of the other (a FALSE
	// conflict — different addresses).
	space, e := newWorld(2)
	s := New(space, Config{})
	base := space.MustMap(mem.PageSize, 0)
	x, y := base, base+16
	if s.OrtIndex(x) != s.OrtIndex(y) {
		t.Fatalf("test setup: %#x and %#x do not share a stripe", uint64(x), uint64(y))
	}
	e.Run(func(th *vtime.Thread) {
		addr := x
		if th.ID() == 1 {
			addr = y
		}
		for i := 0; i < 300; i++ {
			s.Atomic(th, func(tx *Tx) {
				v := tx.Load(addr)
				th.Work(50)
				tx.Store(addr, v+1)
			})
		}
	})
	st := s.Stats()
	if st.Aborts == 0 {
		t.Error("no aborts despite stripe sharing")
	}
	if st.FalseAborts == 0 {
		t.Error("stripe-sharing aborts not classified as false aborts")
	}
	if got := space.Load(x) + space.Load(y); got != 600 {
		t.Errorf("sum = %d, want 600", got)
	}
}

func TestDifferentStripesNoFalseAborts(t *testing.T) {
	// Addresses 32 bytes apart land in different stripes: two threads
	// updating them must never conflict.
	space, e := newWorld(2)
	s := New(space, Config{})
	base := space.MustMap(mem.PageSize, 0)
	x, y := base, base+32
	if s.OrtIndex(x) == s.OrtIndex(y) {
		t.Fatalf("test setup: %#x and %#x share a stripe", uint64(x), uint64(y))
	}
	e.Run(func(th *vtime.Thread) {
		addr := x
		if th.ID() == 1 {
			addr = y
		}
		for i := 0; i < 300; i++ {
			s.Atomic(th, func(tx *Tx) {
				tx.Store(addr, tx.Load(addr)+1)
			})
		}
	})
	if st := s.Stats(); st.Aborts != 0 {
		t.Errorf("aborts = %d, want 0 for disjoint stripes", st.Aborts)
	}
}

func TestOrtAliasing64MB(t *testing.T) {
	// The Glibc arena scenario (§5.2): the ORT covers 2^20 entries of 32
	// bytes = 32 MiB before wrapping, so blocks at equal offsets in
	// 64 MiB-aligned arenas alias to the same entry.
	space, _ := newWorld(1)
	s := New(space, Config{})
	a := mem.Addr(1 << 28)
	if s.OrtIndex(a) != s.OrtIndex(a+64<<20) {
		t.Errorf("addresses 64MB apart do not alias: %d vs %d", s.OrtIndex(a), s.OrtIndex(a+64<<20))
	}
	if s.OrtIndex(a) == s.OrtIndex(a+16<<20) {
		t.Error("addresses 16MB apart alias; ORT smaller than expected")
	}
}

func TestSnapshotExtension(t *testing.T) {
	// A reader that starts before a disjoint writer commits must be able
	// to extend its snapshot rather than abort.
	space, e := newWorld(2)
	s := New(space, Config{})
	base := space.MustMap(mem.PageSize, 0)
	// Reader reads r1..r8 slowly; writer bumps w (different stripes).
	rbase, w := base, base+4096
	e.Run(func(th *vtime.Thread) {
		if th.ID() == 0 {
			for i := 0; i < 50; i++ {
				s.Atomic(th, func(tx *Tx) {
					for j := 0; j < 8; j++ {
						tx.Load(rbase + mem.Addr(j*64))
						th.Work(200)
					}
				})
			}
		} else {
			for i := 0; i < 400; i++ {
				s.Atomic(th, func(tx *Tx) {
					tx.Store(w, tx.Load(w)+1)
				})
			}
		}
	})
	st := s.Stats()
	if st.Aborts != 0 {
		t.Errorf("disjoint reader/writer aborted %d times; snapshot extension broken", st.Aborts)
	}
}

func TestTxMallocUndoneOnAbort(t *testing.T) {
	for _, name := range alloc.Names() {
		t.Run(name, func(t *testing.T) {
			space, _ := newWorld(1)
			a := alloc.MustNew(name, space, 1)
			s := New(space, Config{Allocator: a})
			th := vtime.Solo(space, 0, nil)
			tries := 0
			s.Atomic(th, func(tx *Tx) {
				tries++
				tx.Malloc(16)
				if tries == 1 {
					tx.Restart()
				}
			})
			st := a.Stats()
			if st.Mallocs != 2 || st.Frees != 1 {
				t.Errorf("allocator saw %d mallocs / %d frees, want 2/1 (abort must free)", st.Mallocs, st.Frees)
			}
		})
	}
}

func TestTxFreeDeferredToCommit(t *testing.T) {
	space, _ := newWorld(1)
	a := alloc.MustNew("tbb", space, 1)
	s := New(space, Config{Allocator: a})
	th := vtime.Solo(space, 0, nil)
	blk := a.Malloc(th, 16)
	tries := 0
	s.Atomic(th, func(tx *Tx) {
		tries++
		tx.Free(blk, 16)
		if tries == 1 {
			tx.Restart() // aborted tx must NOT free the block
		}
	})
	st := a.Stats()
	if st.Frees != 1 {
		t.Errorf("frees = %d, want exactly 1 (deferred to the committing execution)", st.Frees)
	}
}

func TestTxFreeConflictsWithReaders(t *testing.T) {
	// Freeing writes the dying object's words, so a concurrent reader
	// of the object conflicts instead of observing recycled memory.
	space, _ := newWorld(1)
	a := alloc.MustNew("tbb", space, 1)
	s := New(space, Config{Allocator: a})
	th := vtime.Solo(space, 0, nil)
	blk := a.Malloc(th, 16)
	s.Atomic(th, func(tx *Tx) { tx.Free(blk, 16) })
	w := space.Load(s.ortAddr(s.OrtIndex(blk)))
	if isLocked(w) {
		t.Fatal("ORT entry left locked after committed free")
	}
	if versionOf(w) == 0 {
		t.Error("freed block's stripe version not bumped; readers would miss the free")
	}
}

func TestCacheTxObjectsReuse(t *testing.T) {
	space, _ := newWorld(1)
	a := alloc.MustNew("glibc", space, 1)
	s := New(space, Config{Allocator: a, Pooling: PoolCache})
	th := vtime.Solo(space, 0, nil)

	// A committed free parks the block in the cache...
	var blk mem.Addr
	s.Atomic(th, func(tx *Tx) { blk = tx.Malloc(16) })
	s.Atomic(th, func(tx *Tx) { tx.Free(blk, 16) })
	// ... and the next allocation of that size reuses it.
	var got mem.Addr
	s.Atomic(th, func(tx *Tx) { got = tx.Malloc(16) })
	if got != blk {
		t.Errorf("cached block not reused: got %#x, want %#x", uint64(got), uint64(blk))
	}
	st := s.Stats()
	if st.CacheHits != 1 || st.CacheReturns != 1 {
		t.Errorf("cache stats = hits %d returns %d, want 1/1", st.CacheHits, st.CacheReturns)
	}
	if as := a.Stats(); as.Frees != 0 {
		t.Errorf("system allocator saw %d frees, want 0 with caching on", as.Frees)
	}
}

func TestReadOnlyTxDoesNotBumpClock(t *testing.T) {
	space, _ := newWorld(1)
	s := New(space, Config{})
	a := space.MustMap(mem.PageSize, 0)
	th := vtime.Solo(space, 0, nil)
	s.Atomic(th, func(tx *Tx) { tx.Store(a, 1) })
	before := s.clockRead(th)
	for i := 0; i < 5; i++ {
		s.Atomic(th, func(tx *Tx) { tx.Load(a) })
	}
	if got := s.clockRead(th); got != before {
		t.Errorf("read-only transactions bumped the clock: %d -> %d", before, got)
	}
}

func TestForeignPanicPropagatesAndCleansUp(t *testing.T) {
	space, _ := newWorld(1)
	s := New(space, Config{})
	a := space.MustMap(mem.PageSize, 0)
	th := vtime.Solo(space, 0, nil)
	func() {
		defer func() {
			if r := recover(); r != "app bug" {
				t.Errorf("recovered %v, want app bug", r)
			}
		}()
		s.Atomic(th, func(tx *Tx) {
			tx.Store(a, 5)
			panic("app bug")
		})
	}()
	if isLocked(space.Load(s.ortAddr(s.OrtIndex(a)))) {
		t.Error("ORT entry leaked locked after foreign panic")
	}
	// The STM must remain usable.
	s.Atomic(th, func(tx *Tx) { tx.Store(a, 6) })
	if space.Load(a) != 6 {
		t.Error("STM unusable after foreign panic")
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	run := func() (uint64, uint64) {
		space, e := newWorld(4)
		s := New(space, Config{})
		base := space.MustMap(mem.PageSize, 0)
		e.Run(func(th *vtime.Thread) {
			for i := 0; i < 200; i++ {
				s.Atomic(th, func(tx *Tx) {
					tx.Store(base, tx.Load(base)+1)
				})
			}
		})
		return s.Stats().Aborts, e.MaxClock()
	}
	a1, c1 := run()
	a2, c2 := run()
	if a1 != a2 || c1 != c2 {
		t.Errorf("nondeterministic: aborts %d vs %d, clock %d vs %d", a1, a2, c1, c2)
	}
}

func TestShiftControlsStripeWidth(t *testing.T) {
	space, _ := newWorld(1)
	s4 := New(space, Config{Shift: 4})
	base := mem.Addr(1 << 28)
	if s4.OrtIndex(base) == s4.OrtIndex(base+16) {
		t.Error("shift 4: addresses 16 apart share a stripe, want distinct")
	}
	s5 := New(space, Config{Shift: 5})
	if s5.OrtIndex(base) != s5.OrtIndex(base+16) {
		t.Error("shift 5: addresses 16 apart in distinct stripes, want shared")
	}
}
