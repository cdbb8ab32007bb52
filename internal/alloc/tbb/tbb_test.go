package tbb

import (
	"testing"

	"repro/internal/alloc"
	"repro/internal/alloc/alloctest"
	"repro/internal/mem"
	"repro/internal/vtime"
)

func solo(s *mem.Space) *vtime.Thread { return vtime.Solo(s, 0, nil) }

func TestConformance(t *testing.T) {
	alloctest.Run(t, "tbb")
}

// 16-byte blocks are 16 apart (Fig. 5b stripe sharing).
func TestSixteenByteBlocksAre16Apart(t *testing.T) {
	s := mem.NewSpace()
	a := alloc.MustNew("tbb", s, 1)
	th := solo(s)
	prev := a.Malloc(th, 16)
	for i := 0; i < 100; i++ {
		next := a.Malloc(th, 16)
		if next-prev != 16 {
			t.Fatalf("allocation %d: spacing %d, want 16", i, next-prev)
		}
		prev = next
	}
}

// TBB has an exact 48-byte class (paper §5.3: only Glibc and Hoard lack
// one).
func TestExact48ByteClass(t *testing.T) {
	s := mem.NewSpace()
	a := alloc.MustNew("tbb", s, 1)
	th := solo(s)
	if got := a.BlockSize(th, a.Malloc(th, 48)); got != 48 {
		t.Errorf("BlockSize(Malloc(48)) = %d, want 48", got)
	}
}

// The minimum class is 8 bytes.
func TestMinClassIs8(t *testing.T) {
	s := mem.NewSpace()
	a := alloc.MustNew("tbb", s, 1)
	th := solo(s)
	if got := a.BlockSize(th, a.Malloc(th, 1)); got != 8 {
		t.Errorf("BlockSize(Malloc(1)) = %d, want 8", got)
	}
}

// Superblocks are 16 KiB-aligned and carved from 1 MiB chunks: 64
// different size classes fit in one OS map.
func TestSuperblocksShareOneChunk(t *testing.T) {
	s := mem.NewSpace()
	m := New(s, 1)
	a := alloc.NewFront(m, s, 1)
	th := solo(s)
	before := s.Stats().MapCalls
	for _, sz := range []uint64{8, 16, 48, 128, 256, 1024} {
		addr := a.Malloc(th, sz)
		if sb := m.superblockOf(addr); sb == nil || uint64(sb.base)%SuperblockAlign != 0 {
			t.Errorf("block %#x not in a 16KB-aligned superblock", uint64(addr))
		}
	}
	if got := s.Stats().MapCalls - before; got != 1 {
		t.Errorf("6 classes used %d OS maps, want 1 (shared 1MB chunk)", got)
	}
}

// Owner-thread malloc/free never synchronizes (private free list).
func TestPrivateFastPathIsLockFree(t *testing.T) {
	s := mem.NewSpace()
	a := alloc.MustNew("tbb", s, 1)
	th := solo(s)
	x := a.Malloc(th, 64)
	a.Free(th, x)
	before := a.Stats().LockAcquires
	for i := 0; i < 100; i++ {
		a.Free(th, a.Malloc(th, 64))
	}
	if got := a.Stats().LockAcquires; got != before {
		t.Errorf("private fast path took %d lock acquisitions, want 0", got-before)
	}
}

// A remote free lands on the public list and the owner recovers the
// block by draining it.
func TestPublicFreeListDrain(t *testing.T) {
	s := mem.NewSpace()
	a := alloc.MustNew("tbb", s, 2)
	e := vtime.NewEngine(s, 2, vtime.Config{})
	// Thread 0 exhausts one superblock's worth of 1KB blocks so its next
	// malloc cannot come from the bump pointer.
	n := (SuperblockSize - headerReserve) / 1024
	addrs := make([]mem.Addr, n)
	e.Run(func(th *vtime.Thread) {
		if th.ID() != 0 {
			return
		}
		for i := range addrs {
			addrs[i] = a.Malloc(th, 1000)
		}
	})
	// Thread 1 frees them all remotely.
	e.Run(func(th *vtime.Thread) {
		if th.ID() != 1 {
			return
		}
		for _, x := range addrs {
			a.Free(th, x)
		}
	})
	if st := a.Stats(); st.RemoteFrees != uint64(n) {
		t.Fatalf("remote frees = %d, want %d", st.RemoteFrees, n)
	}
	maps := s.Stats().MapCalls
	// Thread 0's next allocations must drain the public list rather
	// than mapping new memory.
	e.Run(func(th *vtime.Thread) {
		if th.ID() != 0 {
			return
		}
		for i := 0; i < n; i++ {
			a.Malloc(th, 1000)
		}
	})
	if got := s.Stats().MapCalls; got != maps {
		t.Errorf("owner did not reuse publicly freed blocks: %d new maps", got-maps)
	}
}

// Above LargeMax every request is a direct OS map ("slightly less than
// 8KB" threshold, the Fig. 3 cliff).
func TestLargeThreshold(t *testing.T) {
	s := mem.NewSpace()
	a := alloc.MustNew("tbb", s, 1)
	th := solo(s)
	a.Malloc(th, 8000) // below: superblock
	before := s.Stats().MapCalls
	x := a.Malloc(th, 8192) // above: direct map
	if s.Stats().MapCalls != before+1 {
		t.Error("8192-byte request did not go straight to the OS")
	}
	a.Free(th, x)
	if s.Stats().UnmapCalls == 0 {
		t.Error("freeing a large block did not unmap it")
	}
}

func TestPropertyRandomTraces(t *testing.T) {
	alloctest.RunProperty(t, "tbb")
}

func TestFootprintGauge(t *testing.T) {
	alloctest.RunFootprint(t, "tbb")
}
