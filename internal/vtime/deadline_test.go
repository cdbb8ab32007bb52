package vtime

import (
	"testing"

	"repro/internal/mem"
)

// TestDeadlineWatchdog checks that a region whose threads never finish
// is wound down at the virtual-time deadline instead of hanging.
func TestDeadlineWatchdog(t *testing.T) {
	s := mem.NewSpace()
	e := NewEngine(s, 4, Config{Deadline: 100_000})
	finished := make([]bool, 4)
	e.Run(func(th *Thread) {
		for { // spin forever in virtual time
			th.Work(10)
		}
	})
	if !e.DeadlineExceeded() {
		t.Fatal("DeadlineExceeded() = false after a livelocked region")
	}
	for id, f := range finished {
		if f {
			t.Errorf("thread %d reported finished, want killed", id)
		}
	}
	// The engine must still be usable: a normal region afterwards runs
	// to completion and clears the flag.
	e.ResetClocks()
	e.deadline = 0
	done := make([]bool, 4)
	e.Run(func(th *Thread) {
		th.Work(100)
		done[th.ID()] = true
	})
	if e.DeadlineExceeded() {
		t.Error("DeadlineExceeded() = true after a clean region")
	}
	for id, f := range done {
		if !f {
			t.Errorf("thread %d did not finish the clean region", id)
		}
	}
}

// TestDeadlineSparesFastThreads checks that threads finishing before
// the deadline complete normally while the stragglers are killed.
func TestDeadlineSparesFastThreads(t *testing.T) {
	s := mem.NewSpace()
	e := NewEngine(s, 2, Config{Deadline: 50_000})
	done := make([]bool, 2)
	e.Run(func(th *Thread) {
		if th.ID() == 0 {
			th.Work(10)
			done[0] = true
			return
		}
		for {
			th.Work(10)
		}
	})
	if !e.DeadlineExceeded() {
		t.Fatal("watchdog did not trip")
	}
	if !done[0] {
		t.Error("fast thread was killed before finishing")
	}
	if done[1] {
		t.Error("spinning thread reported done")
	}
}

// TestDeadlinePreservesRealPanics checks that a genuine thread panic
// raised before the watchdog trips still propagates out of Run.
func TestDeadlinePreservesRealPanics(t *testing.T) {
	s := mem.NewSpace()
	e := NewEngine(s, 1, Config{})
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("real panic was swallowed")
		}
	}()
	e.Run(func(th *Thread) {
		th.Work(1)
		panic("boom")
	})
}

// TestDeadlineUnwindRunsToEnd checks that a thread the watchdog kills
// runs its deferred cleanup to the end: once a thread unwinds, its
// ticks no longer reach the scheduler, so the cleanup is not cut short
// at its first tick.
func TestDeadlineUnwindRunsToEnd(t *testing.T) {
	s := mem.NewSpace()
	e := NewEngine(s, 4, Config{Deadline: 50_000})
	ticks := make([]int, 4)
	e.Run(func(th *Thread) {
		defer func() {
			for i := 0; i < 10; i++ {
				th.Tick(1000)
				ticks[th.ID()]++
			}
		}()
		for {
			th.Work(10)
		}
	})
	if !e.DeadlineExceeded() {
		t.Fatal("watchdog did not trip")
	}
	for id, n := range ticks {
		if n != 10 {
			t.Errorf("thread %d ran %d of its 10 cleanup ticks", id, n)
		}
	}
}
