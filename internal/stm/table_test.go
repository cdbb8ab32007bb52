package stm

import (
	"math/rand"
	"testing"
)

// TestU64TableBasics exercises the empty-table path, overwrite
// semantics, and key 0 (a valid ORT index, representable through the
// +1 bias).
func TestU64TableBasics(t *testing.T) {
	var tb u64Table
	if _, ok := tb.get(7); ok {
		t.Fatal("empty table reported a hit")
	}
	tb.put(0, 11)
	tb.put(7, 42)
	if v, ok := tb.get(0); !ok || v != 11 {
		t.Fatalf("get(0) = %d, %v; want 11, true", v, ok)
	}
	tb.put(7, 43)
	if v, ok := tb.get(7); !ok || v != 43 {
		t.Fatalf("get(7) after overwrite = %d, %v; want 43, true", v, ok)
	}
	if tb.n != 2 {
		t.Fatalf("n = %d after two distinct keys, want 2", tb.n)
	}
	if _, ok := tb.get(8); ok {
		t.Fatal("absent key reported a hit")
	}
}

// TestU64TableCollisionChain forces every key onto one probe chain:
// keys differing only above bit 32 of the Fibonacci product collide on
// small tables, so linear probing must keep them all distinct.
func TestU64TableCollisionChain(t *testing.T) {
	var tb u64Table
	tb.put(1, 0) // size the table
	mask := uint64(len(tb.keys) - 1)
	home := hashSlot(1, mask)
	var chain []uint64
	for k := uint64(2); len(chain) < 8; k++ {
		if hashSlot(k, mask) == home {
			chain = append(chain, k)
		}
	}
	for i, k := range chain {
		tb.put(k, int32(i+100))
	}
	for i, k := range chain {
		if v, ok := tb.get(k); !ok || v != int32(i+100) {
			t.Fatalf("colliding key %d = %d, %v; want %d, true", k, v, ok, i+100)
		}
	}
	if v, ok := tb.get(1); !ok || v != 0 {
		t.Fatalf("chain head displaced: get(1) = %d, %v", v, ok)
	}
}

// TestU64TableGrowth crosses several 3/4-load doublings and verifies
// every entry survives the rehashes.
func TestU64TableGrowth(t *testing.T) {
	var tb u64Table
	const n = 10 * tableMinSlots
	for i := uint64(0); i < n; i++ {
		tb.put(i*3, int32(i))
	}
	if len(tb.keys) < n {
		t.Fatalf("capacity %d after %d inserts; growth did not keep up", len(tb.keys), n)
	}
	if tb.n != n {
		t.Fatalf("n = %d, want %d", tb.n, n)
	}
	for i := uint64(0); i < n; i++ {
		if v, ok := tb.get(i * 3); !ok || v != int32(i) {
			t.Fatalf("key %d lost across growth: %d, %v", i*3, v, ok)
		}
	}
}

// TestU64TableResetReuse models the steady-state transaction loop: fill,
// reset, refill. The backing arrays must be kept (no reallocation) and
// no stale entry may leak through the reset.
func TestU64TableResetReuse(t *testing.T) {
	var tb u64Table
	for i := uint64(0); i < 100; i++ {
		tb.put(i, int32(i))
	}
	capBefore := len(tb.keys)
	tb.reset()
	if tb.n != 0 {
		t.Fatalf("n = %d after reset, want 0", tb.n)
	}
	if len(tb.keys) != capBefore {
		t.Fatalf("reset reallocated: capacity %d -> %d", capBefore, len(tb.keys))
	}
	for i := uint64(0); i < 100; i++ {
		if _, ok := tb.get(i); ok {
			t.Fatalf("stale entry %d visible after reset", i)
		}
	}
	for i := uint64(50); i < 60; i++ {
		tb.put(i, int32(i*2))
	}
	for i := uint64(0); i < 100; i++ {
		v, ok := tb.get(i)
		if in := i >= 50 && i < 60; ok != in {
			t.Fatalf("after refill, get(%d) hit=%v, want %v", i, ok, in)
		} else if in && v != int32(i*2) {
			t.Fatalf("after refill, get(%d) = %d, want %d", i, v, i*2)
		}
	}
	tb.reset()
	tb.reset() // idempotent on an already-empty table
	if tb.n != 0 || len(tb.keys) != capBefore {
		t.Fatal("double reset changed state")
	}
}

// TestU64TableGenerationWrap runs a reset across the generation
// counter's wrap: entries written at generation 0 and at the last
// generation before the wrap must both stay invisible, although the
// new generation is 0 again.
func TestU64TableGenerationWrap(t *testing.T) {
	var tb u64Table
	for i := uint64(0); i < 40; i++ {
		tb.put(i, int32(i)) // generation 0
	}
	tb.reset()
	tb.gen = ^uint32(0) // as if 2^32-2 more transactions had reset it
	for i := uint64(20); i < 60; i++ {
		tb.put(i, int32(i+1000))
	}
	capBefore := len(tb.keys)
	tb.reset()
	if tb.gen != 0 || tb.n != 0 {
		t.Fatalf("after the wrapping reset gen = %d, n = %d; want 0, 0", tb.gen, tb.n)
	}
	if len(tb.keys) != capBefore {
		t.Fatalf("wrapping reset reallocated: capacity %d -> %d", capBefore, len(tb.keys))
	}
	tb.put(100, 7) // n > 0, so get probes the slots
	for i := uint64(0); i < 60; i++ {
		if v, ok := tb.get(i); ok {
			t.Fatalf("stale key %d visible after the generation wrap (value %d)", i, v)
		}
	}
	if v, ok := tb.get(100); !ok || v != 7 {
		t.Fatalf("get(100) = %d, %v; want 7, true", v, ok)
	}
}

// TestU64TableFuzz drives the table and a reference map with the same
// deterministic operation stream — puts, overwrites, gets of present
// and absent keys, periodic resets, and occasional bursts of a few
// thousand puts that grow the table, so later resets land on grown,
// sparse tables — and requires identical answers.
func TestU64TableFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	var tb u64Table
	ref := map[uint64]int32{}
	// Small key range keeps the overwrite rate high; bursts draw from a
	// wide one.
	key := func() uint64 { return uint64(rng.Intn(2000)) * 0x10001 }
	wideKey := func() uint64 { return uint64(rng.Intn(1 << 20)) }
	grown := 0
	for op := 0; op < 200000; op++ {
		switch r := rng.Intn(1000); {
		case r < 550:
			k, v := key(), int32(rng.Intn(1<<20))
			tb.put(k, v)
			ref[k] = v
		case r < 989:
			k := key()
			if r%4 == 0 {
				k = wideKey()
			}
			v, ok := tb.get(k)
			rv, rok := ref[k]
			if ok != rok || v != rv {
				t.Fatalf("op %d: get(%d) = (%d, %v), reference (%d, %v)", op, k, v, ok, rv, rok)
			}
		case r < 990:
			for n := 2000 + rng.Intn(3000); n > 0; n-- {
				k, v := wideKey(), int32(rng.Intn(1<<20))
				tb.put(k, v)
				ref[k] = v
			}
			grown++
		default:
			tb.reset()
			clear(ref)
		}
	}
	if tb.n != len(ref) {
		t.Fatalf("final n = %d, reference holds %d", tb.n, len(ref))
	}
	if grown == 0 || len(tb.keys) < 4096 {
		t.Fatalf("%d bursts grew the table to %d slots; the stream never reached a grown table", grown, len(tb.keys))
	}
}
