package tcmalloc

import (
	"testing"

	"repro/internal/alloc"
	"repro/internal/alloc/alloctest"
	"repro/internal/mem"
	"repro/internal/vtime"
)

func solo(s *mem.Space) *vtime.Thread { return vtime.Solo(s, 0, nil) }
func duo(s *mem.Space) (*vtime.Thread, *vtime.Thread) {
	return vtime.Solo(s, 0, nil), vtime.Solo(s, 1, nil)
}

func TestConformance(t *testing.T) {
	alloctest.Run(t, "tcmalloc")
}

func TestExact48ByteClass(t *testing.T) {
	s := mem.NewSpace()
	a := alloc.MustNew("tcmalloc", s, 1)
	th := solo(s)
	if got := a.BlockSize(th, a.Malloc(th, 48)); got != 48 {
		t.Errorf("BlockSize(Malloc(48)) = %d, want 48", got)
	}
}

// The paper's Figure 2 scenario: with empty caches, two threads
// alternately requesting 16-byte blocks receive *adjacent* addresses
// from the central cache (16 bytes apart, same 64-byte cache line and
// same 32-byte ORT stripe), and the transfer batch grows 1,2,3,...
func TestFig2AdjacentHandoutAcrossThreads(t *testing.T) {
	s := mem.NewSpace()
	a := alloc.MustNew("tcmalloc", s, 2)
	th0, th1 := duo(s)
	x := a.Malloc(th0, 16) // thread 1 in the paper's figure
	v := a.Malloc(th1, 16) // thread 2
	if v-x != 16 {
		t.Fatalf("cross-thread first blocks %d apart, want 16 (x=%#x v=%#x)", v-x, uint64(x), uint64(v))
	}
	if uint64(x)/64 != uint64(v)/64 {
		t.Errorf("blocks do not share a cache line: %#x vs %#x", uint64(x), uint64(v))
	}
	// Second round: thread 0 gets 2 blocks (the next two addresses), so
	// its second allocation is the block right after v.
	y := a.Malloc(th0, 16)
	if y != v+16 {
		t.Errorf("thread 0 second block = %#x, want %#x (incremental batch of 2)", uint64(y), uint64(v+16))
	}
	// and its third allocation comes from its cache: the following one.
	y2 := a.Malloc(th0, 16)
	if y2 != y+16 {
		t.Errorf("thread 0 third block = %#x, want %#x (cached from batch)", uint64(y2), uint64(y+16))
	}
	// Thread 1's second request likewise fetches a batch of 2.
	w := a.Malloc(th1, 16)
	if w != y2+16 {
		t.Errorf("thread 1 second block = %#x, want %#x", uint64(w), uint64(y2+16))
	}
}

// Frees go to the current thread's cache, not the allocating thread's:
// after thread 1 frees a block thread 0 allocated, thread 1's next
// malloc returns that block.
func TestFreeGoesToCurrentThreadCache(t *testing.T) {
	s := mem.NewSpace()
	a := alloc.MustNew("tcmalloc", s, 2)
	th0, th1 := duo(s)
	x := a.Malloc(th0, 16)
	a.Free(th1, x)
	if got := a.Malloc(th1, 16); got != x {
		t.Errorf("thread 1 malloc after its free = %#x, want the freed block %#x", uint64(got), uint64(x))
	}
}

// Warm thread-cache operations perform no locking.
func TestFastPathIsLockFree(t *testing.T) {
	s := mem.NewSpace()
	a := alloc.MustNew("tcmalloc", s, 1)
	th := solo(s)
	x := a.Malloc(th, 64)
	a.Free(th, x)
	before := a.Stats().LockAcquires
	for i := 0; i < 100; i++ {
		a.Free(th, a.Malloc(th, 64))
	}
	if got := a.Stats().LockAcquires; got != before {
		t.Errorf("fast path took %d lock acquisitions, want 0", got-before)
	}
}

// An over-long thread-cache list is trimmed back to the central cache,
// bounding the cache (the GC the paper mentions).
func TestCacheTrim(t *testing.T) {
	s := mem.NewSpace()
	a := alloc.MustNew("tcmalloc", s, 2)
	th0, th1 := duo(s)
	// Thread 1 frees far more blocks than cacheTrim; the trim must kick
	// in and later allow thread 0 to reuse them via the central cache.
	var addrs []mem.Addr
	for i := 0; i < 3*cacheTrim; i++ {
		addrs = append(addrs, a.Malloc(th0, 32))
	}
	for _, x := range addrs {
		a.Free(th1, x)
	}
	maps := s.Stats().MapCalls
	for i := 0; i < 2*cacheTrim; i++ {
		a.Malloc(th0, 32)
	}
	if got := s.Stats().MapCalls; got != maps {
		t.Errorf("central cache did not recycle trimmed blocks: %d new maps", got-maps)
	}
}

func TestLargeAllocation(t *testing.T) {
	s := mem.NewSpace()
	a := alloc.MustNew("tcmalloc", s, 1)
	th := solo(s)
	x := a.Malloc(th, 512<<10)
	if got := a.BlockSize(th, x); got < 512<<10 {
		t.Errorf("BlockSize = %d", got)
	}
	a.Free(th, x)
	if s.Stats().UnmapCalls == 0 {
		t.Error("large block not unmapped")
	}
}

func TestPropertyRandomTraces(t *testing.T) {
	alloctest.RunProperty(t, "tcmalloc")
}

func TestFootprintGauge(t *testing.T) {
	alloctest.RunFootprint(t, "tcmalloc")
}
