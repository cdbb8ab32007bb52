package stm

import (
	"runtime"
	"testing"

	"repro/internal/alloc"
	"repro/internal/mem"
	"repro/internal/vtime"
)

// TestSteadyStateAllocBudget pins the host allocations of the STM hot
// path: once a thread's transaction descriptor has warmed up (read/
// write/undo slices, open-addressing tables, lock records all at
// capacity), a begin/load/store/commit cycle must not allocate on the
// host at all. Any regression here multiplies across every simulated
// transaction of every sweep cell.
func TestSteadyStateAllocBudget(t *testing.T) {
	space := SanitizedSpace()
	s := New(space, Config{})
	th := vtime.Solo(space, 0, nil)
	words := space.MustMap(mem.PageSize, 0)

	body := func(tx *Tx) {
		for i := 0; i < 16; i++ {
			a := words + mem.Addr(i*8)
			tx.Store(a, tx.Load(a)+1)
		}
	}
	// Warm up: grow the descriptor's slices and tables to capacity.
	for i := 0; i < 32; i++ {
		s.Atomic(th, body)
	}
	if avg := testing.AllocsPerRun(100, func() { s.Atomic(th, body) }); avg > 0 {
		t.Errorf("steady-state begin/load/store/commit allocates %.1f objects/tx, want 0", avg)
	}
}

// TestNewAllocBudget bounds the host heap one STM costs to build: the
// record of each ORT entry's last acquisition is paged in on first
// acquire, so a default 2^20-entry table starts as a page directory.
func TestNewAllocBudget(t *testing.T) {
	space := mem.NewSpace()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	New(space, Config{})
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > 64<<10 {
		t.Errorf("stm.New allocated %d bytes, want at most 64 KiB", got)
	}
}

// eventCounts tallies the transaction events it observes, by kind.
type eventCounts [EvDurApply + 1]int

func (c *eventCounts) OnTx(ev Event) { c[ev.Kind]++ }

// TestSteadyStateAllocBudgetObserved is TestSteadyStateAllocBudget with
// an observer attached: events travel by value through the observer
// list, so the observed cycle must not allocate on the host either. It
// also pins what one such transaction emits.
func TestSteadyStateAllocBudgetObserved(t *testing.T) {
	space := SanitizedSpace()
	s := New(space, Config{})
	var got eventCounts
	s.Observe(&got)
	th := vtime.Solo(space, 0, nil)
	words := space.MustMap(mem.PageSize, 0)

	body := func(tx *Tx) {
		for i := 0; i < 16; i++ {
			a := words + mem.Addr(i*8)
			tx.Store(a, tx.Load(a)+1)
		}
	}
	for i := 0; i < 32; i++ {
		s.Atomic(th, body)
	}
	if avg := testing.AllocsPerRun(100, func() { s.Atomic(th, body) }); avg > 0 {
		t.Errorf("observed steady-state begin/load/store/commit allocates %.1f objects/tx, want 0", avg)
	}

	got = eventCounts{}
	s.Atomic(th, body)
	var want eventCounts
	want[EvBegin] = 1
	want[EvLoad] = 16
	want[EvStore] = 16
	want[EvPublish] = 1
	want[EvCommit] = 1
	if got != want {
		t.Errorf("events per transaction = %v, want %v", got, want)
	}
}

// TestSteadyStateAllocBudgetWithMalloc extends the budget to the
// transactional allocation path (Malloc + Free + quarantine): the
// simulated allocator may tick virtual time, but the host side must
// stay allocation-free once warm.
func TestSteadyStateAllocBudgetWithMalloc(t *testing.T) {
	for _, pooling := range []Pooling{PoolNone, PoolCache, PoolReuse, PoolBatch} {
		t.Run(pooling.String(), func(t *testing.T) {
			space := SanitizedSpace()
			a := alloc.MustNew("tbb", space, 1)
			s := New(space, Config{Allocator: a, Pooling: pooling})
			th := vtime.Solo(space, 0, nil)

			body := func(tx *Tx) {
				a := tx.Malloc(48)
				tx.Store(a, 7)
				tx.Free(a, 48)
			}
			for i := 0; i < 64; i++ {
				s.Atomic(th, body)
			}
			// The epoch quarantine batches frees; allow the amortized
			// slice churn of its drain but nothing per-transaction.
			if avg := testing.AllocsPerRun(100, func() { s.Atomic(th, body) }); avg > 0.5 {
				t.Errorf("steady-state malloc/free tx allocates %.2f objects/tx, want ~0", avg)
			}
		})
	}
}
