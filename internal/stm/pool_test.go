package stm

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"repro/internal/alloc"
	"repro/internal/fault"
	"repro/internal/mem"
	"repro/internal/vtime"
)

// poolOutcome is everything a recycling discipline exposes over one
// run of poolScript.
type poolOutcome struct {
	Digest       uint64 // FNV-1a over every address tx.Malloc returned, in order
	Mallocs      int    // how many addresses that was
	Pool         PoolStats
	CacheHits    uint64
	CacheReturns uint64
	Aborts       uint64
	SysMallocs   uint64 // system-allocator calls, failed ones included
	SysFailed    uint64
	SysFrees     uint64
}

// poolScript drives one discipline over glibc through a fixed
// single-thread script: mallocs of two request sizes, committed frees,
// an aborted allocation, re-mallocs that hit the recycle lists, and an
// injected OOM window over two fresh sizes. The window (the second and
// third system mallocs after it opens) cuts a pool refill short after
// one block and fails a batch slab malloc.
func poolScript(t *testing.T, d Pooling) poolOutcome {
	t.Helper()
	space, _ := newWorld(1)
	a := alloc.MustNew("glibc", space, 1)
	s := New(space, Config{Allocator: a, Pooling: d})
	th := vtime.Solo(space, 0, nil)
	var out poolOutcome
	h := fnv.New64a()
	malloc := func(tx *Tx, size uint64) mem.Addr {
		p := tx.Malloc(size)
		h.Write(binary.LittleEndian.AppendUint64(nil, uint64(p)))
		out.Mallocs++
		return p
	}

	var small, large []mem.Addr
	for i := 0; i < 10; i++ {
		var p, q mem.Addr
		s.Atomic(th, func(tx *Tx) { p, q = malloc(tx, 16), malloc(tx, 48) })
		small, large = append(small, p), append(large, q)
	}
	for i := 0; i < 6; i++ {
		s.Atomic(th, func(tx *Tx) { tx.Free(small[i], 16); tx.Free(large[i], 48) })
	}
	attempt := 0
	s.Atomic(th, func(tx *Tx) {
		malloc(tx, 16)
		malloc(tx, 48)
		if attempt++; attempt == 1 {
			tx.Restart()
		}
	})
	for i := 0; i < 8; i++ {
		s.Atomic(th, func(tx *Tx) { malloc(tx, 16); malloc(tx, 48) })
	}
	alloc.Attach(a, alloc.Hooks{Inj: fault.MustParse("oom@2x2", 1)})
	for i := 0; i < 4; i++ {
		s.Atomic(th, func(tx *Tx) { malloc(tx, 32); malloc(tx, 40) })
	}

	out.Digest = h.Sum64()
	out.Pool = s.PoolStats()
	st := s.Stats()
	out.CacheHits, out.CacheReturns, out.Aborts = st.CacheHits, st.CacheReturns, st.Aborts
	as := a.Stats()
	out.SysMallocs, out.SysFailed, out.SysFrees = as.Mallocs, as.FailedMallocs, as.Frees
	return out
}

// TestPoolDisciplines pins what each recycling discipline hands out and
// counts over poolScript, so a rewrite of the pool must keep every
// discipline's behaviour exactly.
func TestPoolDisciplines(t *testing.T) {
	want := map[Pooling]poolOutcome{
		PoolCache: {
			Digest: 0xa09303b1d34d9eaa, Mallocs: 50,
			Pool:      PoolStats{Hits: 16, Misses: 36, Returns: 16},
			CacheHits: 16, CacheReturns: 16, Aborts: 3,
			SysMallocs: 36, SysFailed: 2,
		},
		PoolReuse: {
			Digest: 0x374b00ef429c4a1c, Mallocs: 48,
			Pool:      PoolStats{Hits: 47, Misses: 8, Returns: 14, Refills: 49, Held: 16},
			CacheHits: 47, CacheReturns: 14, Aborts: 1,
			SysMallocs: 52, SysFailed: 2,
		},
		PoolBatch: {
			Digest: 0x2fd16af55f864dd5, Mallocs: 49,
			Pool:      PoolStats{Hits: 49, Misses: 1, Returns: 15, Slabs: 4, SlabBytes: 8704},
			CacheHits: 49, CacheReturns: 15, Aborts: 2,
			SysMallocs: 6, SysFailed: 2,
		},
	}
	for _, d := range []Pooling{PoolCache, PoolReuse, PoolBatch} {
		t.Run(d.String(), func(t *testing.T) {
			got := poolScript(t, d)
			if got != want[d] {
				t.Errorf("outcome drifted:\n got %+v\nwant %+v", got, want[d])
			}
		})
	}
}
