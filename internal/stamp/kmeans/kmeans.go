// Package kmeans ports STAMP's kmeans: Lloyd's clustering where each
// point's assignment updates the shared cluster accumulators inside a
// transaction. Like the original (and per the paper's Table 5), it
// allocates only during initialization — never inside transactions —
// making it one of the paper's two allocator-insensitive control
// applications.
package kmeans

import (
	"fmt"
	"math"

	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/stamp"
	"repro/internal/stm"
	"repro/internal/vtime"
)

func init() {
	stamp.Register("kmeans", func() stamp.App { return &KMeans{} })
}

// KMeans is the application state.
type KMeans struct {
	n, d, k    int
	iterations int

	points  mem.Addr // n*d float64 words
	centers mem.Addr // k*d float64 words
	newSum  mem.Addr // k*d float64 words (tx-updated)
	newLen  mem.Addr // k words (tx-updated)
	barrier *vtime.Barrier

	assignedTotal int
}

// Name implements stamp.App.
func (a *KMeans) Name() string { return "kmeans" }

func (a *KMeans) params(s stamp.Scale, v stamp.Variant) {
	switch s {
	case stamp.Ref:
		a.n, a.d, a.k, a.iterations = 2048, 8, 16, 4
	default:
		a.n, a.d, a.k, a.iterations = 384, 4, 8, 3
	}
	if v == stamp.LowContention {
		// STAMP's low-contention kmeans uses more clusters, spreading
		// the accumulator updates across more transactions' targets.
		a.k *= 4
	}
}

func fbits(f float64) uint64             { return math.Float64bits(f) }
func ffrom(b uint64) float64             { return math.Float64frombits(b) }
func word(base mem.Addr, i int) mem.Addr { return base + mem.Addr(i*8) }

// Setup implements stamp.App: generates clustered points and takes the
// first k points as initial centers.
func (a *KMeans) Setup(w *World) {
	a.params(w.Scale, w.Variant)
	a.barrier = vtime.NewBarrier(w.Threads)
	w.Seq(func(th *vtime.Thread) {
		defer w.Prof.Region(th, "kmeans/setup")()
		a.points = w.Malloc(th, uint64(a.n*a.d*8))
		a.centers = w.Malloc(th, uint64(a.k*a.d*8))
		a.newSum = w.Calloc(th, uint64(a.k*a.d*8))
		a.newLen = w.Calloc(th, uint64(a.k*8))
		rng := sim.NewRand(w.Seed)
		for i := 0; i < a.n; i++ {
			c := i % a.k
			for j := 0; j < a.d; j++ {
				v := float64(c) + rng.Float64()*0.5
				th.Store(word(a.points, i*a.d+j), fbits(v))
			}
		}
		for c := 0; c < a.k; c++ {
			for j := 0; j < a.d; j++ {
				th.Store(word(a.centers, c*a.d+j), th.Load(word(a.points, c*a.d+j)))
			}
		}
	})
}

// World aliases the framework type for brevity.
type World = stamp.World

// Parallel implements stamp.App: the threaded clustering iterations.
func (a *KMeans) Parallel(w *World, th *vtime.Thread) {
	defer w.Prof.Region(th, "kmeans/parallel")()
	for it := 0; it < a.iterations; it++ {
		lo := th.ID() * a.n / w.Threads
		hi := (th.ID() + 1) * a.n / w.Threads
		for i := lo; i < hi; i++ {
			// Distance computation reads points and centers
			// non-transactionally: centers are stable within an
			// iteration, as in STAMP.
			best, bestDist := 0, math.MaxFloat64
			for c := 0; c < a.k; c++ {
				var dist float64
				for j := 0; j < a.d; j++ {
					diff := ffrom(th.Load(word(a.points, i*a.d+j))) -
						ffrom(th.Load(word(a.centers, c*a.d+j)))
					dist += diff * diff
				}
				th.Work(uint64(a.d * 4))
				if dist < bestDist {
					best, bestDist = c, dist
				}
			}
			// The accumulator update is the transaction.
			w.Atomic(th, func(tx *stm.Tx) {
				tx.Store(word(a.newLen, best), tx.Load(word(a.newLen, best))+1)
				for j := 0; j < a.d; j++ {
					cur := ffrom(tx.Load(word(a.newSum, best*a.d+j)))
					//tmvet:allow stmaccess: points are immutable during the phase; the raw load models STAMP's unlogged read of private input data
					p := ffrom(th.Load(word(a.points, i*a.d+j)))
					tx.Store(word(a.newSum, best*a.d+j), fbits(cur+p))
				}
			})
		}
		a.barrier.Wait(th)
		if th.ID() == 0 {
			// Recompute centers sequentially, as STAMP's main loop does.
			total := 0
			for c := 0; c < a.k; c++ {
				cnt := th.Load(word(a.newLen, c))
				total += int(cnt)
				for j := 0; j < a.d; j++ {
					if cnt > 0 {
						sum := ffrom(th.Load(word(a.newSum, c*a.d+j)))
						th.Store(word(a.centers, c*a.d+j), fbits(sum/float64(cnt)))
					}
					th.Store(word(a.newSum, c*a.d+j), 0)
				}
				th.Store(word(a.newLen, c), 0)
			}
			a.assignedTotal = total
		}
		a.barrier.Wait(th)
	}
}

// Validate implements stamp.App.
func (a *KMeans) Validate(w *World) error {
	if a.assignedTotal != a.n {
		return fmt.Errorf("last iteration assigned %d points, want %d", a.assignedTotal, a.n)
	}
	th := vtime.Solo(w.Space, 0, nil)
	for c := 0; c < a.k; c++ {
		for j := 0; j < a.d; j++ {
			v := ffrom(th.Load(word(a.centers, c*a.d+j)))
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("center %d dim %d is %v", c, j, v)
			}
		}
	}
	return nil
}
