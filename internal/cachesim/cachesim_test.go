package cachesim

import (
	"math/rand"
	"testing"

	"repro/internal/mem"
)

const base = mem.Addr(1) << 28 // mirrors the simulated space's start

func TestColdMissThenHit(t *testing.T) {
	h := New(8)
	if r := h.Access(0, base, false); r.Level != MemoryHit {
		t.Errorf("first access level = %v, want MemoryHit", r.Level)
	}
	if r := h.Access(0, base, false); r.Level != L1Hit {
		t.Errorf("second access level = %v, want L1Hit", r.Level)
	}
	if r := h.Access(0, base+56, false); r.Level != L1Hit {
		t.Errorf("same-line access level = %v, want L1Hit", r.Level)
	}
	if r := h.Access(0, base+64, false); r.Level == L1Hit {
		t.Error("next-line access hit in L1 without being fetched")
	}
}

func TestL2SharedWithinSocket(t *testing.T) {
	h := New(8)
	h.Access(0, base, false) // core 0 (socket 0) fetches
	// Core 1 shares socket 0's L2: its miss should hit in L2.
	if r := h.Access(1, base, false); r.Level != L2Hit {
		t.Errorf("same-socket access = %v, want L2Hit", r.Level)
	}
	// Core 4 (socket 1) has a cold L2.
	if r := h.Access(4, base+4096, false); r.Level != MemoryHit {
		t.Errorf("cold other-socket access = %v, want MemoryHit", r.Level)
	}
}

func TestInvalidationOnWrite(t *testing.T) {
	h := New(2)
	h.Access(0, base, false)
	h.Access(1, base, false)
	// Core 1 writes: core 0's copy must be invalidated.
	h.Access(1, base, true)
	if h.Stats(1).InvalsSent != 1 {
		t.Errorf("InvalsSent = %d, want 1", h.Stats(1).InvalsSent)
	}
	r := h.Access(0, base, false)
	if r.Level == L1Hit {
		t.Error("core 0 still hits L1 after remote write")
	}
	if !r.Coherence {
		t.Error("re-read after invalidation not classified as coherence miss")
	}
	if h.Stats(0).CohMisses != 1 {
		t.Errorf("CohMisses = %d, want 1", h.Stats(0).CohMisses)
	}
}

func TestFalseSharingClassification(t *testing.T) {
	h := New(2)
	// Core 0 reads word 0; core 1 writes word 4 of the same line.
	h.Access(0, base, false)
	h.Access(1, base+32, true)
	if r := h.Access(0, base, false); !r.Coherence {
		t.Fatal("expected coherence miss")
	}
	if h.Stats(0).FalseShare != 1 {
		t.Errorf("FalseShare = %d, want 1 (remote write touched a different word)", h.Stats(0).FalseShare)
	}

	// True sharing: same word written remotely — no false-share count.
	h2 := New(2)
	h2.Access(0, base, false)
	h2.Access(1, base, true)
	h2.Access(0, base, false)
	if h2.Stats(0).FalseShare != 0 {
		t.Errorf("true sharing misclassified as false sharing")
	}
	if h2.Stats(0).CohMisses != 1 {
		t.Errorf("true-sharing CohMisses = %d, want 1", h2.Stats(0).CohMisses)
	}
}

func TestL1Eviction(t *testing.T) {
	h := New(1)
	// Fill one L1 set: lines mapping to set 0 are 64 sets * 64 bytes =
	// 4096 bytes apart. 8 ways + 1 evicts the LRU.
	for i := 0; i < l1Ways+1; i++ {
		h.Access(0, base+mem.Addr(i*l1Sets*LineSize), false)
	}
	// The first line must have been evicted from L1 (but still hits L2).
	r := h.Access(0, base, false)
	if r.Level != L2Hit {
		t.Errorf("evicted line access = %v, want L2Hit", r.Level)
	}
	// The second line was recently used less than... verify the set only
	// holds l1Ways lines: total misses = 9 cold + 1 eviction re-fetch.
	if got := h.Stats(0).L1Misses; got != uint64(l1Ways+2) {
		t.Errorf("L1Misses = %d, want %d", got, l1Ways+2)
	}
}

func TestWorkingSetFitsAfterWarmup(t *testing.T) {
	h := New(1)
	// 16 KiB working set fits L1: second sweep should be all hits.
	for pass := 0; pass < 2; pass++ {
		for off := mem.Addr(0); off < 16<<10; off += 64 {
			h.Access(0, base+off, false)
		}
	}
	st := h.Stats(0)
	if st.L1Misses != 256 { // only the cold pass misses
		t.Errorf("L1Misses = %d, want 256", st.L1Misses)
	}
	if got := st.L1MissRatio(); got != 0.5 {
		t.Errorf("miss ratio = %v, want 0.5", got)
	}
}

// TestCoreStatsSub isolates the second of two sweeps the way the
// workload drivers isolate their measurement phase: every field of the
// difference is what the second sweep alone counted.
func TestCoreStatsSub(t *testing.T) {
	h := New(2)
	for off := mem.Addr(0); off < 16<<10; off += 64 {
		h.Access(0, base+off, true)
	}
	before := h.TotalStats()
	for off := mem.Addr(0); off < 16<<10; off += 64 {
		h.Access(1, base+off+8, true) // same lines, another word: false sharing
	}
	got := h.TotalStats().Sub(before)
	if want := h.Stats(1); got != want {
		t.Errorf("Sub = %+v, want core 1's own counts %+v", got, want)
	}
	if got.InvalsSent == 0 || got.Accesses != 256 {
		t.Errorf("Sub = %+v, want 256 accesses that invalidate core 0's lines", got)
	}
}

func TestGlibcVsDenseLayoutLocality(t *testing.T) {
	// The paper's Genome observation: 16-byte nodes placed 32 bytes
	// apart (glibc) touch twice as many lines as densely packed ones.
	sparse := New(1)
	for i := 0; i < 4096; i++ {
		sparse.Access(0, base+mem.Addr(i*32), false)
	}
	dense := New(1)
	for i := 0; i < 4096; i++ {
		dense.Access(0, base+mem.Addr(i*16), false)
	}
	if sparse.Stats(0).L1Misses <= dense.Stats(0).L1Misses {
		t.Errorf("sparse layout misses (%d) not worse than dense (%d)",
			sparse.Stats(0).L1Misses, dense.Stats(0).L1Misses)
	}
}

func TestTotalStats(t *testing.T) {
	h := New(4)
	h.Access(0, base, false)
	h.Access(3, base+4096, true)
	tot := h.TotalStats()
	if tot.Accesses != 2 || tot.L1Misses != 2 {
		t.Errorf("TotalStats = %+v", tot)
	}
}

// TestMatchesReference drives Hierarchy and the map-based oracle
// (reference_test.go) with one fixed-seed 8-core stream and requires
// the same Result for every access and the same counters at the end.
// The stream mixes a hot shared region (coherence and false-sharing
// misses), lines strided onto one L1 set (L1 evictions) and lines
// strided onto one L2 set, shared across sockets (L2 evictions, the
// inclusive drop, remote-L2 hits).
func TestMatchesReference(t *testing.T) {
	const (
		cores    = 8
		accesses = 400_000
		l1Stride = l1Sets * LineSize
		l2Stride = l2Sets * LineSize
	)
	h, ref := New(cores), newRef(cores)
	rng := rand.New(rand.NewSource(14))
	var levels [MemoryHit + 1]uint64
	core, burst := 0, 0
	for i := 0; i < accesses; i++ {
		if burst == 0 {
			core, burst = rng.Intn(cores), 1+rng.Intn(16)
		}
		burst--
		var addr mem.Addr
		switch r := rng.Intn(10); {
		case r < 4: // hot shared region: 32 lines
			addr = base + mem.Addr(rng.Intn(32)*LineSize)
		case r < 7: // 24 lines on one L1 set, spread over L2 sets
			addr = base + 16<<20 + mem.Addr(rng.Intn(24)*l1Stride)
		default: // 40 lines on one L2 set (and one L1 set)
			addr = base + 64<<20 + mem.Addr(rng.Intn(40)*l2Stride)
		}
		addr += mem.Addr(rng.Intn(8) * 8)
		write := rng.Intn(10) < 3
		got, want := h.Access(core, addr, write), ref.Access(core, addr, write)
		if got != want {
			t.Fatalf("access %d (core %d, %#x, write %v) = %+v, reference %+v", i, core, addr, write, got, want)
		}
		levels[got.Level]++
	}
	for c := 0; c < cores; c++ {
		if got, want := h.Stats(c), ref.stats[c]; got != want {
			t.Errorf("core %d stats = %+v, reference %+v", c, got, want)
		}
	}
	tot := h.TotalStats()
	t.Logf("levels L1/L2/remote/memory = %v; L1 evictions %d, L2 evictions %d, inclusive drops %d; %+v",
		levels, ref.l1Evictions, ref.l2Evictions, ref.inclusiveDrops, tot)
	for _, ev := range []struct {
		name string
		n    uint64
	}{
		{"L1 eviction", ref.l1Evictions},
		{"L2 eviction", ref.l2Evictions},
		{"inclusive drop", ref.inclusiveDrops},
		{"remote-L2 hit", levels[RemoteL2Hit]},
		{"coherence miss", tot.CohMisses},
		{"false-sharing miss", tot.FalseShare},
	} {
		if ev.n == 0 {
			t.Errorf("stream reached no %s", ev.name)
		}
	}
}
