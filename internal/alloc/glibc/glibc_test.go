package glibc

import (
	"testing"

	"repro/internal/alloc"
	"repro/internal/alloc/alloctest"
	"repro/internal/mem"
	"repro/internal/vtime"
)

func TestConformance(t *testing.T) {
	alloctest.Run(t, "glibc")
}

func solo(s *mem.Space) *vtime.Thread { return vtime.Solo(s, 0, nil) }

// Sequential 16-byte allocations must come back 32 bytes apart: the
// boundary tag plus the 32-byte minimum chunk (paper §5.1, Fig. 5a).
func TestSixteenByteBlocksAre32Apart(t *testing.T) {
	s := mem.NewSpace()
	g := alloc.MustNew("glibc", s, 1)
	th := solo(s)
	prev := g.Malloc(th, 16)
	for i := 0; i < 100; i++ {
		next := g.Malloc(th, 16)
		if next-prev != 32 {
			t.Fatalf("allocation %d: spacing %d, want 32", i, next-prev)
		}
		prev = next
	}
}

// malloc(0) consumes a 32-byte chunk (16 usable): the paper's "even a
// malloc(0) returns a pointer to a 32-byte block".
func TestMallocZeroUses32ByteChunk(t *testing.T) {
	s := mem.NewSpace()
	g := alloc.MustNew("glibc", s, 1)
	th := solo(s)
	a := g.Malloc(th, 0)
	b := g.Malloc(th, 0)
	if b-a != 32 {
		t.Errorf("malloc(0) spacing = %d, want 32", b-a)
	}
}

// A 48-byte request has no exact class: it consumes a 64-byte chunk.
func TestFortyEightByteUses64ByteChunk(t *testing.T) {
	s := mem.NewSpace()
	g := alloc.MustNew("glibc", s, 1)
	th := solo(s)
	a := g.Malloc(th, 48)
	b := g.Malloc(th, 48)
	if b-a != 64 {
		t.Errorf("malloc(48) spacing = %d, want 64", b-a)
	}
	if g.BlockSize(th, a) != 48 {
		t.Errorf("BlockSize = %d, want 48", g.BlockSize(th, a))
	}
}

// Arenas are aligned on 64 MiB boundaries, the source of the paper's
// hashset ORT aliasing (§5.2): blocks at equal offsets in different
// arenas map to the same versioned lock.
func TestArenaAlignment(t *testing.T) {
	s := mem.NewSpace()
	g := alloc.MustNew("glibc", s, 4)
	addr := g.Malloc(solo(s), 16)
	base := addr &^ mem.Addr(ArenaAlign-1)
	if _, ok := s.RegionOf(base); !ok {
		t.Errorf("arena base %#x (from block %#x) is not mapped", uint64(base), uint64(addr))
	}
}

// Under virtual-time contention the allocator creates additional arenas
// rather than blocking (arena_get trylock rotation), and threads spread
// across them.
func TestContentionCreatesArenas(t *testing.T) {
	s := mem.NewSpace()
	const threads = 8
	m := New(s, threads)
	g := alloc.NewFront(m, s, threads)
	e := vtime.NewEngine(s, threads, vtime.Config{})
	e.Run(func(th *vtime.Thread) {
		for i := 0; i < 3000; i++ {
			g.Free(th, g.Malloc(th, 16))
		}
	})
	if n := m.ArenaCount(); n < 2 {
		t.Errorf("after 8-thread contention: %d arena(s), want >= 2", n)
	}
	st := g.Stats()
	if st.LockAcquires == 0 {
		t.Error("no lock acquisitions recorded; every glibc op must lock an arena")
	}
	if st.LockContended == 0 {
		t.Error("no contention recorded under 8 hammering threads")
	}
}

// Freed chunks are recycled for the same chunk size.
func TestFreeListRecycling(t *testing.T) {
	s := mem.NewSpace()
	g := alloc.MustNew("glibc", s, 1)
	th := solo(s)
	a := g.Malloc(th, 16)
	g.Free(th, a)
	b := g.Malloc(th, 16)
	if a != b {
		t.Errorf("freed chunk not recycled: got %#x, want %#x", uint64(b), uint64(a))
	}
}

func TestDoubleFreeDetected(t *testing.T) {
	s := mem.NewSpace()
	g := alloc.MustNew("glibc", s, 1)
	th := solo(s)
	a := g.Malloc(th, 16)
	g.Free(th, a)
	g.Free(th, a) // boundary tag says free: counted, not corrupting
	st := g.Stats()
	if st.DoubleFrees != 1 {
		t.Errorf("DoubleFrees = %d, want 1", st.DoubleFrees)
	}
	if st.Frees != 1 {
		t.Errorf("Frees = %d, want 1 (the invalid free must not count)", st.Frees)
	}
	// The block is reusable exactly once: the free list was not
	// corrupted by the double free.
	b := g.Malloc(th, 16)
	c := g.Malloc(th, 16)
	if b != a {
		t.Errorf("reuse after double free: got %#x, want %#x", uint64(b), uint64(a))
	}
	if c == a {
		t.Error("double free put the block on the free list twice")
	}
	g.Free(th, 0xdead0000) // no arena, no mmap record
	if st := g.Stats(); st.BadFrees != 1 {
		t.Errorf("BadFrees = %d, want 1", st.BadFrees)
	}
}

func TestLargeGoesToMmap(t *testing.T) {
	s := mem.NewSpace()
	g := alloc.MustNew("glibc", s, 1)
	th := solo(s)
	before := s.Stats().MapCalls
	a := g.Malloc(th, 256<<10)
	if s.Stats().MapCalls != before+1 {
		t.Error("large request did not trigger a direct OS map")
	}
	g.Free(th, a)
	if s.Stats().UnmapCalls == 0 {
		t.Error("freeing a large block did not unmap it")
	}
}

func TestPropertyRandomTraces(t *testing.T) {
	alloctest.RunProperty(t, "glibc")
}

func TestFootprintGauge(t *testing.T) {
	alloctest.RunFootprint(t, "glibc")
}
