package core

import (
	"reflect"
	"strings"
	"sync"
	"testing"

	_ "repro/internal/alloc/glibc"
	_ "repro/internal/alloc/hoard"
	_ "repro/internal/alloc/tbb"
	_ "repro/internal/alloc/tcmalloc"

	"repro/internal/fault"
	"repro/internal/heapscope"
	"repro/internal/mem"
	"repro/internal/stm"
	"repro/internal/vtime"
)

func TestQuickstartCounter(t *testing.T) {
	for _, name := range []string{"glibc", "hoard", "tbb", "tcmalloc"} {
		sys := MustNewSystem(Options{Allocator: name, Threads: 4})
		counter := sys.Space.MustMap(4096, 0)
		sys.Run(func(th *vtime.Thread) {
			for i := 0; i < 100; i++ {
				sys.Atomic(th, func(tx *stm.Tx) {
					tx.Store(counter, tx.Load(counter)+1)
				})
			}
		})
		if got := sys.Space.Load(counter); got != 400 {
			t.Errorf("%s: counter = %d, want 400", name, got)
		}
		r := sys.Report()
		if r.Cycles == 0 || r.Tx.Commits != 400 {
			t.Errorf("%s: report %+v", name, r)
		}
	}
}

func TestOptionsValidation(t *testing.T) {
	if _, err := NewSystem(Options{Allocator: "bogus"}); err == nil {
		t.Error("unknown allocator accepted")
	}
	if _, err := NewSystem(Options{Threads: 99}); err == nil {
		t.Error("99 threads accepted")
	}
	if sys, err := NewSystem(Options{}); err != nil || sys.Allocator.Name() != "glibc" {
		t.Errorf("defaults broken: %v", err)
	}
	// CacheTx is the deprecated spelling of PoolCache: it agrees with
	// PoolCache and contradicts every other pooled discipline.
	for _, pool := range []stm.Pooling{stm.PoolNone, stm.PoolCache} {
		if sys, err := NewSystem(Options{CacheTx: true, Pool: pool}); err != nil || sys.STM.Pooling() != stm.PoolCache {
			t.Errorf("CacheTx with Pool %v: %v", pool, err)
		}
	}
	for _, pool := range []stm.Pooling{stm.PoolReuse, stm.PoolBatch} {
		_, err := NewSystem(Options{CacheTx: true, Pool: pool})
		if err == nil || !strings.Contains(err.Error(), "CacheTx") || !strings.Contains(err.Error(), pool.String()) {
			t.Errorf("CacheTx with Pool %v: err = %v, want a conflict naming both", pool, err)
		}
	}
}

func TestTransactionalMallocThroughSystem(t *testing.T) {
	sys := MustNewSystem(Options{Allocator: "tcmalloc", Threads: 2})
	head := sys.Space.MustMap(4096, 0)
	sys.Run(func(th *vtime.Thread) {
		for i := 0; i < 50; i++ {
			sys.Atomic(th, func(tx *stm.Tx) {
				n := tx.Malloc(16)
				tx.Store(n, uint64(th.ID())<<32|uint64(i))
				tx.Store(n+8, tx.Load(head))
				tx.Store(head, uint64(n))
			})
		}
	})
	// Walk the list.
	count := 0
	for cur := mem.Addr(sys.Space.Load(head)); cur != 0; cur = mem.Addr(sys.Space.Load(cur + 8)) {
		count++
	}
	if count != 100 {
		t.Errorf("list has %d nodes, want 100", count)
	}
	if st := sys.Allocator.Stats(); st.Mallocs < 100 {
		t.Errorf("allocator saw %d mallocs", st.Mallocs)
	}
}

// TestHeapStripesFollowTheLockMap builds worlds at three lock-map
// geometries with heap telemetry on and allocates 48-byte blocks, which
// share 32-byte stripes but not 16-byte ones and alias on a small table.
// The collector's stripe occupancy must count them through the world's
// own lock map (the STM's OrtIndex), not the default one.
func TestHeapStripesFollowTheLockMap(t *testing.T) {
	for _, g := range []struct{ shift, ortBits uint }{{0, 0}, {4, 0}, {5, 6}} {
		heap := heapscope.New(0)
		sys := MustNewSystem(Options{Allocator: "tcmalloc", Shift: g.shift, OrtBits: g.ortBits,
			Instruments: Instruments{Heap: heap}})
		shift := g.shift
		if shift == 0 {
			shift = stm.DefaultShift
		}
		blocks := map[uint64]uint64{} // ORT entry -> live blocks on it
		sys.Seq(func(th *vtime.Thread) {
			for i := 0; i < 64; i++ {
				a := sys.Allocator.Malloc(th, 48)
				end := a + mem.Addr(sys.Allocator.BlockSize(th, a)) - 1
				for k := uint64(a) >> shift; k <= uint64(end)>>shift; k++ {
					blocks[sys.STM.OrtIndex(mem.Addr(k<<shift))]++
				}
			}
		})
		var wantMax uint64
		wantHist := make([]uint64, 4)
		for _, n := range blocks {
			wantMax = max(wantMax, n)
			wantHist[min(n, 4)-1]++
		}
		heap.Finish(sys.Engine.MaxClock())
		samples := heap.Series("").Samples
		got := samples[len(samples)-1]
		if got.MaxStripe != wantMax || !reflect.DeepEqual(got.StripeHist, wantHist) {
			t.Errorf("shift %d, ort bits %d: max stripe %d, hist %v; the lock map gives %d, %v",
				g.shift, g.ortBits, got.MaxStripe, got.StripeHist, wantMax, wantHist)
		}
	}
}

// TestWorldsShareNothing runs one world per allocator twice, one after
// another and then all four at once on their own goroutines, from one
// fault spec with every observer on. A world's space, fault plan and
// observers belong to the goroutine that runs it, so the runs must
// agree, and under -race any state two worlds share is reported.
func TestWorldsShareNothing(t *testing.T) {
	type result struct {
		report Report
		faults fault.Stats
	}
	run := func(allocator string) result {
		sys := MustNewSystem(Options{Allocator: allocator, Threads: 4, Policy: Policy{
			Fault: "oom%1,lat%2:200,storm@20000:24000", RetryCap: 64,
			Sanitize: true, Race: true, Conflict: true, Pmem: true,
		}})
		if sys.Space.Sanitizer() == nil {
			t.Errorf("%s: Sanitize attached no shadow map", allocator)
		}
		head := sys.Space.MustMap(4096, 0)
		sys.Run(func(th *vtime.Thread) {
			for i := 0; i < 50; i++ {
				sys.Atomic(th, func(tx *stm.Tx) {
					n := tx.Malloc(16)
					tx.Store(n, uint64(th.ID())<<32|uint64(i))
					tx.Store(n+8, tx.Load(head))
					tx.Store(head, uint64(n))
				})
			}
		})
		return result{sys.Report(), sys.Plan.Stats()}
	}

	names := []string{"glibc", "hoard", "tbb", "tcmalloc"}
	serial := make([]result, len(names))
	for i, name := range names {
		serial[i] = run(name)
	}
	parallel := make([]result, len(names))
	var wg sync.WaitGroup
	for i, name := range names {
		wg.Add(1)
		go func(i int, name string) {
			defer wg.Done()
			parallel[i] = run(name)
		}(i, name)
	}
	wg.Wait()

	for i, name := range names {
		if f := serial[i].faults; f.OOMs+f.Spikes+f.Aborted == 0 {
			t.Errorf("%s: the fault plan never fired: %+v", name, f)
		}
		if !reflect.DeepEqual(serial[i], parallel[i]) {
			t.Errorf("%s: concurrent world differs from the serial one\nserial:   %+v\nparallel: %+v", name, serial[i], parallel[i])
		}
	}
}
