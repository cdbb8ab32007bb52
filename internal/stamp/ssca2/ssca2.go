// Package ssca2 ports STAMP's SSCA2 (kernel 1, graph construction):
// threads cooperatively build a compact adjacency structure from an
// edge list, using transactions to claim per-vertex degree counters and
// adjacency slots. Like the original (paper Table 5), all memory is
// allocated during initialization — the paper's second
// allocator-insensitive control application.
package ssca2

import (
	"fmt"

	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/stamp"
	"repro/internal/stm"
	"repro/internal/vtime"
)

func init() {
	stamp.Register("ssca2", func() stamp.App { return &SSCA2{} })
}

// SSCA2 is the application state.
type SSCA2 struct {
	v, e int

	edgeU, edgeV mem.Addr // e words each
	deg          mem.Addr // v words: degree counters (tx phase A)
	offset       mem.Addr // v+1 words: prefix sums (seq between phases)
	fill         mem.Addr // v words: next slot per vertex (tx phase B)
	adj          mem.Addr // e words: adjacency targets (+1 so 0 = empty)
	barrier      *vtime.Barrier
}

// Name implements stamp.App.
func (a *SSCA2) Name() string { return "ssca2" }

func (a *SSCA2) params(s stamp.Scale) {
	switch s {
	case stamp.Ref:
		a.v, a.e = 2048, 8192
	default:
		a.v, a.e = 256, 1024
	}
}

func w64(base mem.Addr, i int) mem.Addr { return base + mem.Addr(i*8) }

// Setup implements stamp.App: generates the edge list and allocates the
// graph arrays (all sequential allocation).
func (a *SSCA2) Setup(w *stamp.World) {
	a.params(w.Scale)
	a.barrier = vtime.NewBarrier(w.Threads)
	w.Seq(func(th *vtime.Thread) {
		defer w.Prof.Region(th, "ssca2/setup")()
		a.edgeU = w.Malloc(th, uint64(a.e*8))
		a.edgeV = w.Malloc(th, uint64(a.e*8))
		a.deg = w.Calloc(th, uint64(a.v*8))
		a.offset = w.Calloc(th, uint64((a.v+1)*8))
		a.fill = w.Calloc(th, uint64(a.v*8))
		a.adj = w.Calloc(th, uint64(a.e*8))
		rng := sim.NewRand(w.Seed)
		for i := 0; i < a.e; i++ {
			// Power-law-ish skew: a quarter of the edges hit a small
			// hub set, the SSCA2 clique flavour.
			u := rng.Intn(a.v)
			if rng.Intn(4) == 0 {
				u = rng.Intn(a.v / 16)
			}
			th.Store(w64(a.edgeU, i), uint64(u))
			th.Store(w64(a.edgeV, i), uint64(rng.Intn(a.v)))
		}
	})
}

// Parallel implements stamp.App: phase A counts degrees under
// transactions, a prefix sum runs on thread 0, phase B claims slots
// transactionally and writes targets into privatized slots.
func (a *SSCA2) Parallel(w *stamp.World, th *vtime.Thread) {
	defer w.Prof.Region(th, "ssca2/parallel")()
	lo := th.ID() * a.e / w.Threads
	hi := (th.ID() + 1) * a.e / w.Threads

	for i := lo; i < hi; i++ {
		u := int(th.Load(w64(a.edgeU, i)))
		w.Atomic(th, func(tx *stm.Tx) {
			tx.Store(w64(a.deg, u), tx.Load(w64(a.deg, u))+1)
		})
	}
	a.barrier.Wait(th)
	if th.ID() == 0 {
		var sum uint64
		for vtx := 0; vtx < a.v; vtx++ {
			th.Store(w64(a.offset, vtx), sum)
			sum += th.Load(w64(a.deg, vtx))
		}
		th.Store(w64(a.offset, a.v), sum)
	}
	a.barrier.Wait(th)
	for i := lo; i < hi; i++ {
		u := int(th.Load(w64(a.edgeU, i)))
		v := th.Load(w64(a.edgeV, i))
		var slot uint64
		w.Atomic(th, func(tx *stm.Tx) {
			slot = tx.Load(w64(a.fill, u))
			tx.Store(w64(a.fill, u), slot+1)
		})
		// The claimed slot is private now: a plain store suffices, as
		// in the original kernel.
		th.Store(w64(a.adj, int(th.Load(w64(a.offset, u))+slot)), v+1)
	}
}

// Validate implements stamp.App.
func (a *SSCA2) Validate(w *stamp.World) error {
	th := vtime.Solo(w.Space, 0, nil)
	var total uint64
	for vtx := 0; vtx < a.v; vtx++ {
		d := th.Load(w64(a.deg, vtx))
		f := th.Load(w64(a.fill, vtx))
		if d != f {
			return fmt.Errorf("vertex %d: degree %d but %d slots filled", vtx, d, f)
		}
		total += d
	}
	if total != uint64(a.e) {
		return fmt.Errorf("total degree %d, want %d", total, a.e)
	}
	if off := th.Load(w64(a.offset, a.v)); off != uint64(a.e) {
		return fmt.Errorf("offset sum %d, want %d", off, a.e)
	}
	for i := 0; i < a.e; i++ {
		if th.Load(w64(a.adj, i)) == 0 {
			return fmt.Errorf("adjacency slot %d never filled", i)
		}
	}
	return nil
}
