package yada_test

import (
	"testing"

	"repro/internal/stamp"
	"repro/internal/stamp/stamptest"
	_ "repro/internal/stamp/yada"
	"repro/internal/stm"
)

func TestYada(t *testing.T)              { stamptest.Check(t, "yada", true) }
func TestYadaDeterministic(t *testing.T) { stamptest.CheckDeterministic(t, "yada") }

// Table 5 shape: yada both allocates and frees heavily inside
// transactions (cavity retriangulation).
func TestYadaTxAllocAndFree(t *testing.T) {
	res, err := stamp.Run(stamp.Config{App: "yada", Allocator: "glibc", Threads: 1, Profile: true})
	if err != nil {
		t.Fatal(err)
	}
	p := res.Profile
	if p.Mallocs[stamp.RegionTx] == 0 || p.Frees[stamp.RegionTx] == 0 {
		t.Errorf("yada tx profile: mallocs %d frees %d, want both nonzero",
			p.Mallocs[stamp.RegionTx], p.Frees[stamp.RegionTx])
	}
}

// Yada under contention must still produce a consistent mesh and show a
// meaningful abort rate (the paper calls out its high abort rate).
func TestYadaAbortsUnderContention(t *testing.T) {
	res, err := stamp.Run(stamp.Config{App: "yada", Allocator: "tbb", Threads: 8})
	if err != nil {
		t.Fatal(err)
	}
	if res.Tx.Aborts == 0 {
		t.Log("note: no aborts at quick scale") // informational, scale-dependent
	}
}

// TestProfileUnderPooling pins Table 5's counts for yada under each
// pooling discipline: a pool park or hit is neither a free nor a
// malloc, while a pool's refills and slabs count in the region that
// allocated them.
func TestProfileUnderPooling(t *testing.T) {
	type counts struct{ seqMallocs, seqFrees, txMallocs, txFrees uint64 }
	for _, c := range []struct {
		pool stm.Pooling
		want counts
	}{
		{stm.PoolNone, counts{164, 0, 570, 517}},
		{stm.PoolCache, counts{70, 0, 151, 0}},
		{stm.PoolReuse, counts{90, 0, 144, 0}},
		{stm.PoolBatch, counts{6, 0, 3, 0}},
	} {
		res, err := stamp.Run(stamp.Config{App: "yada", Allocator: "glibc", Threads: 4, Scale: stamp.Quick,
			Pool: c.pool, Profile: true})
		if err != nil {
			t.Fatal(err)
		}
		p := res.Profile
		got := counts{p.Mallocs[stamp.RegionSeq], p.Frees[stamp.RegionSeq], p.Mallocs[stamp.RegionTx], p.Frees[stamp.RegionTx]}
		if got != c.want {
			t.Errorf("%v: seq mallocs/frees %d/%d, tx %d/%d; want %d/%d, %d/%d", c.pool,
				got.seqMallocs, got.seqFrees, got.txMallocs, got.txFrees,
				c.want.seqMallocs, c.want.seqFrees, c.want.txMallocs, c.want.txFrees)
		}
		if p.Mallocs[stamp.RegionPar] != 0 || p.Frees[stamp.RegionPar] != 0 {
			t.Errorf("%v: par mallocs/frees %d/%d, want 0/0", c.pool, p.Mallocs[stamp.RegionPar], p.Frees[stamp.RegionPar])
		}
	}
}
