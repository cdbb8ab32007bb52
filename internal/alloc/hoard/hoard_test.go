package hoard

import (
	"testing"

	"repro/internal/alloc"
	"repro/internal/alloc/alloctest"
	"repro/internal/mem"
	"repro/internal/vtime"
)

func TestConformance(t *testing.T) {
	alloctest.Run(t, "hoard")
}

func solo(s *mem.Space) *vtime.Thread { return vtime.Solo(s, 0, nil) }

// Consecutive 16-byte allocations occupy adjacent 16-byte slots (no
// boundary tag): two nodes per 32-byte ORT stripe, the paper's Fig. 5b
// scenario. The local cache may reorder a batch, so assert adjacency of
// the address set rather than a monotone sequence.
func TestSixteenByteBlocksAreDense(t *testing.T) {
	s := mem.NewSpace()
	h := alloc.MustNew("hoard", s, 1)
	th := solo(s)
	const n = 64
	addrs := make(map[mem.Addr]bool, n)
	var lo, hi mem.Addr
	for i := 0; i < n; i++ {
		a := h.Malloc(th, 16)
		addrs[a] = true
		if lo == 0 || a < lo {
			lo = a
		}
		if a > hi {
			hi = a
		}
	}
	if hi-lo != (n-1)*16 {
		t.Fatalf("64 allocations span %d bytes, want %d (16-byte spacing)", hi-lo, (n-1)*16)
	}
	for a := lo; a <= hi; a += 16 {
		if !addrs[a] {
			t.Fatalf("hole at %#x: blocks not densely packed", uint64(a))
		}
	}
}

// 48-byte requests land in the 64-byte class (power-of-two classes, no
// exact 48 — paper §5.3).
func TestFortyEightByteUses64ByteClass(t *testing.T) {
	s := mem.NewSpace()
	h := alloc.MustNew("hoard", s, 1)
	th := solo(s)
	a := h.Malloc(th, 48)
	if got := h.BlockSize(th, a); got != 64 {
		t.Errorf("BlockSize(Malloc(48)) = %d, want 64", got)
	}
}

// Superblocks are 64 KiB-aligned.
func TestSuperblockAlignment(t *testing.T) {
	s := mem.NewSpace()
	m := New(s, 1)
	h := alloc.NewFront(m, s, 1)
	a := h.Malloc(solo(s), 16)
	if sb := m.superblockOf(a); sb == nil || uint64(sb.base)%SuperblockAlign != 0 {
		t.Errorf("block %#x not in a 64KB-aligned superblock", uint64(a))
	}
}

// Blocks above the local-cache bound take heap locks.
func TestLargeClassTakesLocks(t *testing.T) {
	s := mem.NewSpace()
	h := alloc.MustNew("hoard", s, 1)
	th := solo(s)
	before := h.Stats().LockAcquires
	a := h.Malloc(th, 1024)
	h.Free(th, a)
	if h.Stats().LockAcquires == before {
		t.Error("1KB malloc/free performed no lock acquisitions")
	}
}

// Small malloc/free pairs after warmup run lock-free via the local
// cache (the paper's <=256-byte fast path).
func TestSmallFastPathIsLockFree(t *testing.T) {
	s := mem.NewSpace()
	h := alloc.MustNew("hoard", s, 1)
	th := solo(s)
	a := h.Malloc(th, 64) // warm the cache
	h.Free(th, a)
	before := h.Stats().LockAcquires
	for i := 0; i < 10; i++ {
		h.Free(th, h.Malloc(th, 64))
	}
	if got := h.Stats().LockAcquires; got != before {
		t.Errorf("fast path took %d lock acquisitions, want 0", got-before)
	}
}

// A superblock whose blocks are all freed migrates to the global heap
// and is recycled for a different size class.
func TestEmptySuperblockRecycledAcrossClasses(t *testing.T) {
	s := mem.NewSpace()
	h := alloc.MustNew("hoard", s, 1)
	th := solo(s)
	n := (SuperblockSize - headerReserve) / 1024
	addrs := make([]mem.Addr, n)
	for i := range addrs {
		addrs[i] = h.Malloc(th, 1024)
	}
	mapsBefore := s.Stats().MapCalls
	for _, a := range addrs {
		h.Free(th, a)
	}
	// Allocating a full superblock of another large class must reuse
	// the retired superblock instead of mapping a new one.
	h.Malloc(th, 2048)
	if got := s.Stats().MapCalls; got != mapsBefore {
		t.Errorf("recycling failed: %d new OS maps", got-mapsBefore)
	}
}

// A free from a non-owning thread routes to the owner's heap and is
// counted as remote.
func TestStatsCountRemoteFrees(t *testing.T) {
	s := mem.NewSpace()
	h := alloc.MustNew("hoard", s, 2)
	e := vtime.NewEngine(s, 2, vtime.Config{})
	var addr mem.Addr
	e.Run(func(th *vtime.Thread) {
		if th.ID() == 0 {
			addr = h.Malloc(th, 1024) // big class: bypasses local cache
		}
	})
	e.Run(func(th *vtime.Thread) {
		if th.ID() == 1 {
			h.Free(th, addr)
		}
	})
	if st := h.Stats(); st.RemoteFrees == 0 {
		t.Errorf("remote free not counted: %+v", st)
	}
}

func TestPropertyRandomTraces(t *testing.T) {
	alloctest.RunProperty(t, "hoard")
}

func TestFootprintGauge(t *testing.T) {
	alloctest.RunFootprint(t, "hoard")
}
