package vtime

import (
	"testing"

	"repro/internal/cachesim"
	"repro/internal/mem"
)

func TestRunDeterminism(t *testing.T) {
	trace := func() []int {
		space := mem.NewSpace()
		e := NewEngine(space, 4, Config{})
		var order []int
		var lk Lock
		e.Run(func(th *Thread) {
			for i := 0; i < 50; i++ {
				lk.Lock(th)
				order = append(order, th.ID())
				lk.Unlock(th)
				th.Tick(uint64(10 * (th.ID() + 1)))
			}
		})
		return order
	}
	a, b := trace(), trace()
	if len(a) != 200 || len(b) != 200 {
		t.Fatalf("trace lengths %d, %d; want 200", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverge at step %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestInterleavingIsDense(t *testing.T) {
	// With equal per-step costs, threads must alternate at quantum
	// granularity, not run to completion one after another.
	space := mem.NewSpace()
	e := NewEngine(space, 2, Config{Quantum: 100})
	var order []int
	e.Run(func(th *Thread) {
		for i := 0; i < 100; i++ {
			order = append(order, th.ID())
			th.Tick(50)
		}
	})
	switches := 0
	for i := 1; i < len(order); i++ {
		if order[i] != order[i-1] {
			switches++
		}
	}
	if switches < 20 {
		t.Errorf("only %d context switches over 200 steps; interleaving too coarse", switches)
	}
}

func TestClockAdvancesWithMemoryCosts(t *testing.T) {
	space := mem.NewSpace()
	base := space.MustMap(mem.PageSize, 0)
	cache := cachesim.New(1)
	th := Solo(space, 0, cache)
	th.Store(base, 1)
	afterMiss := th.Clock()
	th.Load(base)
	hitCost := th.Clock() - afterMiss
	if afterMiss < DefaultCost.Memory {
		t.Errorf("cold store cost %d < memory latency %d", afterMiss, DefaultCost.Memory)
	}
	if hitCost != DefaultCost.L1Hit {
		t.Errorf("warm load cost %d, want %d", hitCost, DefaultCost.L1Hit)
	}
}

func TestLockMutualExclusionVirtualTime(t *testing.T) {
	space := mem.NewSpace()
	e := NewEngine(space, 4, Config{})
	var lk Lock
	counter := 0
	e.Run(func(th *Thread) {
		for i := 0; i < 1000; i++ {
			lk.Lock(th)
			counter++
			th.Tick(5)
			lk.Unlock(th)
		}
	})
	if counter != 4000 {
		t.Errorf("counter = %d, want 4000", counter)
	}
	if lk.Acquires != 4000 {
		t.Errorf("acquires = %d, want 4000", lk.Acquires)
	}
	if lk.Contended == 0 {
		t.Error("no contention recorded despite 4 threads hammering one lock")
	}
}

func TestContentionStretchesVirtualTime(t *testing.T) {
	// The same total work under one lock must take longer (per thread)
	// with 4 threads than with 1 — virtual-time lock contention.
	perThread := func(n int) uint64 {
		space := mem.NewSpace()
		e := NewEngine(space, n, Config{})
		var lk Lock
		e.Run(func(th *Thread) {
			for i := 0; i < 500; i++ {
				lk.Lock(th)
				th.Tick(100) // critical section
				lk.Unlock(th)
			}
		})
		return e.MaxClock()
	}
	t1, t4 := perThread(1), perThread(4)
	if t4 < t1*2 {
		t.Errorf("4-thread lock-bound run (%d cycles) not slower than 1-thread (%d)", t4, t1)
	}
}

func TestBarrier(t *testing.T) {
	space := mem.NewSpace()
	e := NewEngine(space, 4, Config{})
	b := NewBarrier(4)
	phase := make([]int, 4)
	maxPhase0 := uint64(0)
	e.Run(func(th *Thread) {
		th.Tick(uint64(1000 * (th.ID() + 1))) // unequal phase lengths
		if c := th.Clock(); c > maxPhase0 {
			maxPhase0 = c
		}
		b.Wait(th)
		// After the barrier every thread's clock must be >= the slowest
		// thread's phase-0 time.
		if th.Clock() < 4000 {
			t.Errorf("thread %d passed barrier at %d cycles, before slowest arrival", th.ID(), th.Clock())
		}
		phase[th.ID()] = 1
	})
	for i, p := range phase {
		if p != 1 {
			t.Errorf("thread %d did not finish", i)
		}
	}
}

func TestRunPropagatesPanic(t *testing.T) {
	space := mem.NewSpace()
	e := NewEngine(space, 2, Config{})
	defer func() {
		if r := recover(); r != "boom" {
			t.Errorf("recovered %v, want boom", r)
		}
	}()
	e.Run(func(th *Thread) {
		if th.ID() == 1 {
			panic("boom")
		}
		th.Tick(10)
	})
}

func TestUnlockByNonHolderPanics(t *testing.T) {
	space := mem.NewSpace()
	th := Solo(space, 0, nil)
	var lk Lock
	defer func() {
		if recover() == nil {
			t.Error("unlock of free lock did not panic")
		}
	}()
	lk.Unlock(th)
}

func TestResetClocks(t *testing.T) {
	space := mem.NewSpace()
	e := NewEngine(space, 2, Config{})
	e.Run(func(th *Thread) { th.Tick(100) })
	if e.MaxClock() == 0 {
		t.Fatal("clock did not advance")
	}
	e.ResetClocks()
	if e.MaxClock() != 0 {
		t.Error("ResetClocks left nonzero clocks")
	}
}

func TestEngineReusableAcrossRuns(t *testing.T) {
	space := mem.NewSpace()
	e := NewEngine(space, 2, Config{})
	e.Run(func(th *Thread) { th.Tick(10) })
	clocks := e.Run(func(th *Thread) { th.Tick(10) })
	for i, c := range clocks {
		if c != 20 {
			t.Errorf("thread %d clock = %d after two runs, want 20", i, c)
		}
	}
}

func TestCASCharged(t *testing.T) {
	space := mem.NewSpace()
	base := space.MustMap(mem.PageSize, 0)
	th := Solo(space, 0, nil)
	before := th.Clock()
	if !th.CAS(base, 0, 7) {
		t.Fatal("CAS failed")
	}
	if th.Clock() == before {
		t.Error("CAS advanced no virtual time")
	}
	if space.Load(base) != 7 {
		t.Error("CAS did not store")
	}
}

// TestRunAllocBudget bounds the host allocations of one parallel
// region: an 8-thread Run whose threads each cross several quanta.
// Each thread costs a coroutine's set-up, so the budget is per thread.
func TestRunAllocBudget(t *testing.T) {
	const threads, perThread = 8, 13
	e := NewEngine(mem.NewSpace(), threads, Config{})
	body := func(th *Thread) {
		for i := 0; i < 20; i++ {
			th.Work(50)
		}
	}
	e.Run(body)
	if got := testing.AllocsPerRun(20, func() { e.Run(body) }); got > threads*perThread {
		t.Errorf("Run allocated %.0f times, budget %d (%d per thread)", got, threads*perThread, perThread)
	}
}
