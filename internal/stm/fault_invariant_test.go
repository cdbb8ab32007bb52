package stm

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/alloc"
	"repro/internal/fault"
	"repro/internal/mem"
	"repro/internal/vtime"
)

// TestFaultInvariants drives every allocator model under every STM
// design through a transactional malloc/free workload with injected
// allocator OOM, latency spikes, a transaction stall and an abort
// storm, then checks the two recovery invariants: no ORT entry stays
// locked, and the allocator's live bytes return to their baseline —
// injected faults must not leak stripe locks or heap blocks.
func TestFaultInvariants(t *testing.T) {
	for _, name := range alloc.Names() {
		for _, d := range []Design{ETLWriteBack, ETLWriteThrough, CTL} {
			t.Run(fmt.Sprintf("%s/%s", name, d), func(t *testing.T) {
				const threads = 4
				space := SanitizedSpace()
				e := vtime.NewEngine(space, threads, vtime.Config{Deadline: 100_000_000})
				a := alloc.MustNew(name, space, threads)
				plan := fault.MustParse(
					"oom@20x3,oom%2,lat%5:300,stall@t1:5000:2000,storm@40000:48000", 42)
				alloc.Attach(a, alloc.Hooks{Inj: plan})
				s := New(space, Config{
					Allocator: a,
					Design:    d,
					CM:        CMBackoff,
					RetryCap:  32,
					Fault:     plan,
				})
				baseline := a.Stats().LiveBytes
				shared := space.MustMap(mem.PageSize, 0)

				const perThread = 40
				blocks := make([][]mem.Addr, threads)
				e.Run(func(th *vtime.Thread) {
					id := th.ID()
					for i := 0; i < perThread; i++ {
						var blk mem.Addr
						s.Atomic(th, func(tx *Tx) {
							b := tx.Malloc(32)
							tx.Store(b, uint64(id)<<32|uint64(i))
							tx.Store(shared, tx.Load(shared)+1)
							blk = b
						})
						blocks[id] = append(blocks[id], blk)
					}
					for _, blk := range blocks[id] {
						s.Atomic(th, func(tx *Tx) {
							tx.Free(blk, 32)
							tx.Store(shared, tx.Load(shared)+1)
						})
					}
				})

				if e.DeadlineExceeded() {
					t.Fatal("fault workload hit the engine watchdog")
				}
				if got := space.Load(shared); got != 2*threads*perThread {
					t.Errorf("shared counter = %d, want %d", got, 2*threads*perThread)
				}
				if locked := s.LockedStripes(); len(locked) != 0 {
					t.Errorf("ORT entries still locked after faults: %v", locked)
				}
				if live := a.Stats().LiveBytes; live != baseline {
					t.Errorf("allocator live bytes = %d, want baseline %d (leak across faults)",
						live, baseline)
				}
				ast := a.Stats()
				if ast.FailedMallocs < 3 {
					t.Errorf("FailedMallocs = %d, want >= 3 (oom@20x3 must fire)", ast.FailedMallocs)
				}
				st := s.Stats()
				if st.ByReason[AbortOOM] == 0 {
					t.Error("no AbortOOM aborts: injected OOMs never reached a transaction")
				}
				if st.Commits != 2*threads*perThread {
					t.Errorf("commits = %d, want %d", st.Commits, 2*threads*perThread)
				}
			})
		}
	}
}

// TestPersistentOOMPanicsWithErrNoMemory checks the ladder's last
// resort: when every allocation fails (a persistent OOM, not a
// transient glitch), the transaction descends to the irrevocable
// fallback, retries a bounded number of times, and then panics with an
// error wrapping mem.ErrNoMemory — the harness converts that into a
// degraded run record instead of hanging.
func TestPersistentOOMPanicsWithErrNoMemory(t *testing.T) {
	space, _ := newWorld(1)
	a := alloc.MustNew("tbb", space, 1)
	plan := fault.MustParse("oom%100", 1) // every malloc fails
	alloc.Attach(a, alloc.Hooks{Inj: plan})
	s := New(space, Config{Allocator: a, RetryCap: 2})
	th := vtime.Solo(space, 0, nil)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("persistent OOM did not panic")
		}
		err, ok := r.(error)
		if !ok || !errors.Is(err, mem.ErrNoMemory) {
			t.Fatalf("panic value %v does not wrap mem.ErrNoMemory", r)
		}
		if locked := s.LockedStripes(); len(locked) != 0 {
			t.Errorf("ORT entries still locked after OOM panic: %v", locked)
		}
	}()
	s.Atomic(th, func(tx *Tx) {
		tx.Malloc(64)
	})
}
