// Package bayes ports STAMP's bayes: Bayesian-network structure
// learning by hill climbing. Binary records are sampled from a hidden
// random network; learner threads pop edge-insertion tasks from a
// shared transactional queue, revalidate them against the current graph
// (acyclicity, parent bound) inside a transaction, apply them, and then
// — outside the transaction — score follow-up candidates by counting
// query sweeps over the data (the ad-tree work of the original) before
// queueing the best one.
//
// As in the paper (Table 5), transactional allocation is tiny (a
// handful of task records), transactions are long (graph validation)
// and the application is noted for high run-to-run variance.
//
// Simplification versus the C original (documented in DESIGN.md):
// counts are computed by direct data sweeps rather than through a
// cached ad-tree, and the score is the plain log-likelihood gain with a
// fixed penalty rather than STAMP's configurable variants.
package bayes

import (
	"fmt"
	"math"

	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/stamp"
	"repro/internal/stm"
	"repro/internal/txstruct"
	"repro/internal/vtime"
)

func init() {
	stamp.Register("bayes", func() stamp.App { return &Bayes{} })
}

// Task record (transactionally allocated, 32 bytes): from, to, score
// bits, pad.
const (
	tkFrom  = 0
	tkTo    = 8
	tkScore = 16
	tkSize  = 32
)

// Bayes is the application state.
type Bayes struct {
	vars       int
	records    int
	maxParents int
	penalty    float64

	data  mem.Addr // records*vars bytes (0/1)
	adj   mem.Addr // vars*vars words: adjacency matrix (tx)
	queue *txstruct.Queue

	inserted int
	rejected int
}

// Name implements stamp.App.
func (a *Bayes) Name() string { return "bayes" }

func (a *Bayes) params(s stamp.Scale) {
	switch s {
	case stamp.Ref:
		a.vars, a.records, a.maxParents = 24, 1024, 3
	default:
		a.vars, a.records, a.maxParents = 10, 160, 2
	}
	a.penalty = 0.5 * math.Log(float64(a.records))
}

func (a *Bayes) adjCell(from, to int) mem.Addr {
	return a.adj + mem.Addr((from*a.vars+to)*8)
}

func (a *Bayes) dataByte(th *vtime.Thread, rec, v int) byte {
	addr := a.data + mem.Addr(rec*a.vars+v)
	w := th.Load(addr &^ 7)
	return byte(w >> ((uint64(addr) & 7) * 8))
}

// Setup implements stamp.App: samples data from a hidden chain-shaped
// network and seeds the task queue with each variable's best first
// parent.
func (a *Bayes) Setup(w *stamp.World) {
	a.params(w.Scale)
	w.Seq(func(th *vtime.Thread) {
		defer w.Prof.Region(th, "bayes/setup")()
		rng := sim.NewRand(w.Seed)
		a.data = w.Calloc(th, uint64(a.records*a.vars))
		a.adj = w.Calloc(th, uint64(a.vars*a.vars*8))

		// Hidden model: var 0 is a coin; var i copies var i-1 with 85%
		// probability. This creates strong, learnable dependencies.
		rec := make([]byte, a.vars)
		for r := 0; r < a.records; r++ {
			for v := 0; v < a.vars; v++ {
				if v == 0 {
					rec[v] = byte(rng.Intn(2))
				} else if rng.Intn(100) < 85 {
					rec[v] = rec[v-1]
				} else {
					rec[v] = byte(rng.Intn(2))
				}
			}
			w.Space.WriteBytes(a.data+mem.Addr(r*a.vars), rec)
			th.Tick(uint64(a.vars))
		}

		w.Atomic(th, func(tx *stm.Tx) { a.queue = txstruct.NewQueue(tx, 64) })
		// Seed: best single-parent insertion per variable.
		for v := 0; v < a.vars; v++ {
			from, gain := a.bestParent(th, nil, v)
			if from >= 0 && gain > 0 {
				w.Atomic(th, func(tx *stm.Tx) {
					t := tx.Malloc(tkSize)
					tx.Store(t+tkFrom, uint64(from))
					tx.Store(t+tkTo, uint64(v))
					tx.Store(t+tkScore, math.Float64bits(gain))
					a.queue.Push(tx, uint64(t))
				})
			}
		}
	})
}

// parentsOfTx returns to's current parents via transactional reads.
func (a *Bayes) parentsOfTx(tx *stm.Tx, to int) []int {
	var ps []int
	for f := 0; f < a.vars; f++ {
		if tx.Load(a.adjCell(f, to)) != 0 {
			ps = append(ps, f)
		}
	}
	return ps
}

// parentsOf reads to's parents non-transactionally (scoring snapshot).
func (a *Bayes) parentsOf(th *vtime.Thread, to int) []int {
	var ps []int
	for f := 0; f < a.vars; f++ {
		if th.Load(a.adjCell(f, to)) != 0 {
			ps = append(ps, f)
		}
	}
	return ps
}

// localScore computes the log-likelihood of variable v given parents,
// minus a complexity penalty, by sweeping the data (the ad-tree work).
func (a *Bayes) localScore(th *vtime.Thread, parents []int, v int) float64 {
	nCfg := 1 << uint(len(parents))
	counts := make([][2]float64, nCfg)
	for r := 0; r < a.records; r++ {
		cfg := 0
		for i, p := range parents {
			if a.dataByte(th, r, p) != 0 {
				cfg |= 1 << uint(i)
			}
		}
		counts[cfg][a.dataByte(th, r, v)]++
	}
	th.Work(uint64(a.records * (len(parents) + 1)))
	score := 0.0
	for _, c := range counts {
		tot := c[0] + c[1]
		for b := 0; b < 2; b++ {
			if c[b] > 0 {
				score += c[b] * math.Log(c[b]/tot)
			}
		}
	}
	return score - a.penalty*float64(nCfg)
}

// bestParent returns the best new parent for v given the current
// parent set and its gain.
func (a *Bayes) bestParent(th *vtime.Thread, parents []int, v int) (int, float64) {
	base := a.localScore(th, parents, v)
	bestFrom, bestGain := -1, 0.0
	if len(parents) >= a.maxParents {
		return -1, 0
	}
	for f := 0; f < a.vars; f++ {
		if f == v || contains(parents, f) {
			continue
		}
		gain := a.localScore(th, append(append([]int(nil), parents...), f), v) - base
		if gain > bestGain {
			bestFrom, bestGain = f, gain
		}
	}
	return bestFrom, bestGain
}

func contains(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// createsCycleTx checks (transactionally) whether adding from->to
// creates a cycle: is from reachable from to?
func (a *Bayes) createsCycleTx(tx *stm.Tx, from, to int) bool {
	seen := make([]bool, a.vars)
	stack := []int{to}
	seen[to] = true
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if v == from {
			return true
		}
		for nxt := 0; nxt < a.vars; nxt++ {
			if !seen[nxt] && tx.Load(a.adjCell(v, nxt)) != 0 {
				seen[nxt] = true
				stack = append(stack, nxt)
			}
		}
	}
	return false
}

// Parallel implements stamp.App: the learner loop.
func (a *Bayes) Parallel(w *stamp.World, th *vtime.Thread) {
	defer w.Prof.Region(th, "bayes/parallel")()
	for {
		var task mem.Addr
		w.Atomic(th, func(tx *stm.Tx) {
			if v, ok := a.queue.Pop(tx); ok {
				task = mem.Addr(v)
			} else {
				task = 0
			}
		})
		if task == 0 {
			return
		}
		from := int(th.Load(task + tkFrom))
		to := int(th.Load(task + tkTo))

		applied := false
		w.Atomic(th, func(tx *stm.Tx) {
			applied = false
			if tx.Load(a.adjCell(from, to)) != 0 {
				return // already inserted
			}
			if len(a.parentsOfTx(tx, to)) >= a.maxParents {
				return
			}
			if a.createsCycleTx(tx, from, to) {
				return
			}
			tx.Store(a.adjCell(from, to), 1)
			applied = true
		})
		if !applied {
			a.rejected++
			continue
		}
		a.inserted++
		// Compute the next candidate for this variable outside any
		// transaction (the heavy ad-tree scoring), then queue it.
		parents := a.parentsOf(th, to)
		nf, gain := a.bestParent(th, parents, to)
		if nf >= 0 && gain > 0 {
			w.Atomic(th, func(tx *stm.Tx) {
				t := tx.Malloc(tkSize)
				tx.Store(t+tkFrom, uint64(nf))
				tx.Store(t+tkTo, uint64(to))
				tx.Store(t+tkScore, math.Float64bits(gain))
				a.queue.Push(tx, uint64(t))
			})
		}
	}
}

// Validate implements stamp.App: the learned graph must be a DAG within
// the parent bound, and the hill climb must have learned something.
func (a *Bayes) Validate(w *stamp.World) error {
	th := vtime.Solo(w.Space, 0, nil)
	// Parent bounds.
	for v := 0; v < a.vars; v++ {
		if n := len(a.parentsOf(th, v)); n > a.maxParents {
			return fmt.Errorf("variable %d has %d parents (max %d)", v, n, a.maxParents)
		}
	}
	// Acyclicity (Kahn).
	indeg := make([]int, a.vars)
	for f := 0; f < a.vars; f++ {
		for t := 0; t < a.vars; t++ {
			if th.Load(a.adjCell(f, t)) != 0 {
				indeg[t]++
			}
		}
	}
	var order []int
	for v := 0; v < a.vars; v++ {
		if indeg[v] == 0 {
			order = append(order, v)
		}
	}
	for i := 0; i < len(order); i++ {
		v := order[i]
		for t := 0; t < a.vars; t++ {
			if th.Load(a.adjCell(v, t)) != 0 {
				indeg[t]--
				if indeg[t] == 0 {
					order = append(order, t)
				}
			}
		}
	}
	if len(order) != a.vars {
		return fmt.Errorf("learned graph has a cycle")
	}
	if a.inserted == 0 {
		return fmt.Errorf("no edge was learned")
	}
	return nil
}
