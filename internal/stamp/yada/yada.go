// Package yada ports STAMP's yada (Yet Another Delaunay Application):
// Ruppert-style refinement of a Delaunay triangulation. A sequential
// phase builds an initial Delaunay mesh over random points
// (Bowyer–Watson insertion inside a super-triangle) and queues every
// poor-quality triangle. Worker threads then repeatedly pop a bad
// triangle and, in one transaction, carve out its circumcenter's
// cavity, retriangulate it, wire up neighbour pointers, and queue any
// new bad triangles.
//
// Yada is the paper's stress case for transactional allocation: each
// refinement transaction frees the cavity's triangles and allocates the
// replacements, and its abort rate is high, so every rollback turns
// into allocator traffic — the behaviour behind the paper's 171%
// Glibc-vs-TCMalloc gap (§6, Table 6).
//
// Simplifications versus the C original (documented in DESIGN.md):
// refinement is plain Ruppert over a point cloud without constrained
// boundary segments, and termination is guaranteed by refining only
// triangles whose circumradius exceeds a floor instead of by encroached-
// segment splitting. The transactional structure (one cavity per
// transaction, free-then-allocate inside it) is the original's.
package yada

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
	stamp.Register("yada", func() stamp.App { return &Yada{} })
}

// Triangle record layout (transactionally allocated, 80 bytes): vertex
// point indices, neighbour triangle addresses (0 = none), liveness
// flag, and an epoch distinguishing reuses of recycled records.
const (
	tV0    = 0
	tV1    = 8
	tV2    = 16
	tN0    = 24 // neighbour across edge (v0,v1)
	tN1    = 32 // neighbour across edge (v1,v2)
	tN2    = 40 // neighbour across edge (v2,v0)
	tAlive = 48
	tEpoch = 56
	tSize  = 80
)

// Yada is the application state.
type Yada struct {
	nPoints   int     // initial interior points
	maxPoints int     // point-array capacity
	minAngle  float64 // quality bound, degrees
	minRadius float64 // circumradius floor: smaller triangles are left alone

	points   mem.Addr // maxPoints * 16 bytes (x, y float64)
	rootCell mem.Addr // address of some live triangle (mesh entry point)
	queue    *txstruct.Queue

	// Per-thread point-index ranges and epoch counters: global cells for
	// these would serialize every refinement transaction.
	ptNext  []int // next free point index per thread
	ptLimit []int
	epochs  []uint64

	setupNext int        // next point index during the sequential build
	newBad    [][]badRef // per-thread cascade buffers
	pinched   []bool     // per-thread: last insertPoint hit a pinched cavity

	refined   int
	skipped   int
	dropped   int  // refinements abandoned after repeated pinched cavities
	exhausted bool // a thread ran out of point indices
}

// pinchRetries bounds how often a pinched refinement is re-queued
// before being dropped: concurrent refinements normally reshape the
// cavity within a few rounds, and a bound keeps a degenerate corner of
// the mesh from spinning the queue forever.
const pinchRetries = 16

// Name implements stamp.App.
func (a *Yada) Name() string { return "yada" }

func (a *Yada) params(s stamp.Scale) {
	switch s {
	case stamp.Ref:
		a.nPoints, a.maxPoints, a.minAngle, a.minRadius = 128, 16384, 24, 0.012
	default:
		a.nPoints, a.maxPoints, a.minAngle, a.minRadius = 32, 2048, 20, 0.05
	}
}

func fb(f float64) uint64 { return math.Float64bits(f) }
func ff(b uint64) float64 { return math.Float64frombits(b) }

func (a *Yada) ptAddr(i int) mem.Addr { return a.points + mem.Addr(i*16) }

func (a *Yada) loadPointTx(tx *stm.Tx, i int) (x, y float64) {
	return ff(tx.Load(a.ptAddr(i))), ff(tx.Load(a.ptAddr(i) + 8))
}

// geometry helpers over host floats

type pt struct{ x, y float64 }

func circumcircle(p0, p1, p2 pt) (center pt, r2 float64, ok bool) {
	ax, ay := p0.x, p0.y
	bx, by := p1.x, p1.y
	cx, cy := p2.x, p2.y
	d := 2 * (ax*(by-cy) + bx*(cy-ay) + cx*(ay-by))
	if math.Abs(d) < 1e-12 {
		return pt{}, 0, false
	}
	ux := ((ax*ax+ay*ay)*(by-cy) + (bx*bx+by*by)*(cy-ay) + (cx*cx+cy*cy)*(ay-by)) / d
	uy := ((ax*ax+ay*ay)*(cx-bx) + (bx*bx+by*by)*(ax-cx) + (cx*cx+cy*cy)*(bx-ax)) / d
	dx, dy := ux-ax, uy-ay
	return pt{ux, uy}, dx*dx + dy*dy, true
}

func minAngleDeg(p0, p1, p2 pt) float64 {
	side := func(a, b pt) float64 { return math.Hypot(a.x-b.x, a.y-b.y) }
	la, lb, lc := side(p1, p2), side(p0, p2), side(p0, p1)
	angle := func(opp, s1, s2 float64) float64 {
		v := (s1*s1 + s2*s2 - opp*opp) / (2 * s1 * s2)
		v = math.Max(-1, math.Min(1, v))
		return math.Acos(v) * 180 / math.Pi
	}
	a1 := angle(la, lb, lc)
	a2 := angle(lb, la, lc)
	return math.Min(a1, math.Min(a2, 180-a1-a2))
}

// isBad reports whether a triangle needs refinement: poor minimum angle
// and a circumradius above the floor. Super-triangle corners (indices
// 0..2) exempt their triangles.
func (a *Yada) isBad(p0, p1, p2 pt, v0, v1, v2 int) (bad bool, center pt) {
	if v0 < 3 || v1 < 3 || v2 < 3 {
		return false, pt{}
	}
	c, r2, ok := circumcircle(p0, p1, p2)
	if !ok {
		return false, pt{}
	}
	if math.Sqrt(r2) <= a.minRadius {
		return false, pt{}
	}
	if minAngleDeg(p0, p1, p2) >= a.minAngle {
		return false, pt{}
	}
	return true, c
}

// Setup implements stamp.App: builds the initial Delaunay mesh
// sequentially and seeds the bad-triangle queue.
func (a *Yada) Setup(w *stamp.World) {
	a.params(w.Scale)
	w.Seq(func(th *vtime.Thread) {
		defer w.Prof.Region(th, "yada/setup")()
		rng := sim.NewRand(w.Seed)
		a.points = w.Calloc(th, uint64(a.maxPoints*16))
		cells := w.Calloc(th, 8)
		a.rootCell = cells

		// Points 0..2: a super-triangle enclosing the unit square.
		super := []pt{{-10, -10}, {20, -10}, {0.5, 20}}
		for i, p := range super {
			th.Store(a.ptAddr(i), fb(p.x))
			th.Store(a.ptAddr(i)+8, fb(p.y))
		}
		// Partition the remaining point indices between the threads (a
		// global next-point cell would be a serializing hot spot).
		a.ptNext = make([]int, w.Threads)
		a.ptLimit = make([]int, w.Threads)
		a.epochs = make([]uint64, w.Threads)
		a.newBad = make([][]badRef, w.Threads)
		a.pinched = make([]bool, w.Threads)
		reserved := 3 + a.nPoints // indices used by setup, from thread 0's range
		per := (a.maxPoints - reserved) / w.Threads
		for t := 0; t < w.Threads; t++ {
			a.ptNext[t] = reserved + t*per
			a.ptLimit[t] = reserved + (t+1)*per
		}
		a.setupNext = 3

		w.Atomic(th, func(tx *stm.Tx) {
			a.queue = txstruct.NewQueue(tx, 256)
			// Initial mesh: just the super-triangle.
			tri := a.newTriangle(tx, 0, 1, 2, 0, 0, 0)
			tx.Store(a.rootCell, uint64(tri))
		})

		// Insert the initial random points one transaction each (the
		// sequential Bowyer–Watson build).
		for i := 0; i < a.nPoints; i++ {
			p := pt{0.05 + 0.9*rng.Float64(), 0.05 + 0.9*rng.Float64()}
			w.Atomic(th, func(tx *stm.Tx) {
				a.insertPoint(tx, p, false)
			})
		}
		// Seed the queue with every bad triangle.
		w.Atomic(th, func(tx *stm.Tx) {
			for _, tri := range a.meshTriangles(tx) {
				a.queueIfBad(tx, tri)
			}
		})
	})
}

// newTriangle allocates and initializes a triangle record inside tx.
// Epochs are unique per (thread, counter): a retried transaction burns
// one, which is harmless — only uniqueness matters.
func (a *Yada) newTriangle(tx *stm.Tx, v0, v1, v2 int, n0, n1, n2 mem.Addr) mem.Addr {
	t := tx.Malloc(tSize)
	tid := tx.Thread().ID()
	a.epochs[tid]++
	epoch := a.epochs[tid]<<3 | uint64(tid)
	tx.Store(t+tV0, uint64(v0))
	tx.Store(t+tV1, uint64(v1))
	tx.Store(t+tV2, uint64(v2))
	tx.Store(t+tN0, uint64(n0))
	tx.Store(t+tN1, uint64(n1))
	tx.Store(t+tN2, uint64(n2))
	tx.Store(t+tAlive, 1)
	tx.Store(t+tEpoch, epoch)
	return t
}

func (a *Yada) triPts(tx *stm.Tx, t mem.Addr) (v [3]int, p [3]pt) {
	v[0] = int(tx.Load(t + tV0))
	v[1] = int(tx.Load(t + tV1))
	v[2] = int(tx.Load(t + tV2))
	for i := 0; i < 3; i++ {
		p[i].x, p[i].y = a.loadPointTx(tx, v[i])
	}
	return v, p
}

type badRef struct {
	tri   mem.Addr
	epoch uint64
}

// queueIfBad pushes a triangle onto the work queue if it needs
// refinement; the queue entry packs the record's epoch to defeat reuse.
func (a *Yada) queueIfBad(tx *stm.Tx, t mem.Addr) {
	v, p := a.triPts(tx, t)
	if bad, _ := a.isBad(p[0], p[1], p[2], v[0], v[1], v[2]); bad {
		epoch := tx.Load(t + tEpoch)
		a.queue.Push(tx, epoch<<40|uint64(t))
	}
}

// neighborsOf returns the three neighbour fields.
func neighborsOf(tx *stm.Tx, t mem.Addr) [3]mem.Addr {
	return [3]mem.Addr{
		mem.Addr(tx.Load(t + tN0)),
		mem.Addr(tx.Load(t + tN1)),
		mem.Addr(tx.Load(t + tN2)),
	}
}

// replaceNeighbor rewires old -> new in t's neighbour slots.
func replaceNeighbor(tx *stm.Tx, t, old, new mem.Addr) {
	for _, off := range []mem.Addr{tN0, tN1, tN2} {
		if mem.Addr(tx.Load(t+off)) == old {
			tx.Store(t+off, uint64(new))
		}
	}
}

type edge struct{ a, b int }

// insertPoint performs one Bowyer–Watson insertion of p. seed must be a
// live triangle whose circumcircle contains p when fromQueue is set;
// otherwise the containing triangle is located by walking the mesh.
// It returns false if the point could not be inserted (capacity).
func (a *Yada) insertPoint(tx *stm.Tx, p pt, fromQueue bool, seeds ...mem.Addr) bool {
	tid := tx.Thread().ID()
	var n int
	if fromQueue {
		if a.ptNext[tid] >= a.ptLimit[tid] {
			a.exhausted = true
			return false
		}
		n = a.ptNext[tid]
	} else {
		n = a.setupNext
	}
	var seed mem.Addr
	if len(seeds) > 0 {
		seed = seeds[0]
	} else {
		seed = a.locate(tx, p)
		if seed == 0 {
			return false
		}
	}

	// Cavity: BFS over triangles whose circumcircle contains p.
	inCavity := map[mem.Addr]bool{seed: true}
	stack := []mem.Addr{seed}
	var cavity []mem.Addr
	for len(stack) > 0 {
		t := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		cavity = append(cavity, t)
		for _, nb := range neighborsOf(tx, t) {
			if nb == 0 || inCavity[nb] {
				continue
			}
			_, q := a.triPts(tx, nb)
			c, r2, ok := circumcircle(q[0], q[1], q[2])
			if !ok {
				continue
			}
			dx, dy := p.x-c.x, p.y-c.y
			if dx*dx+dy*dy < r2 {
				inCavity[nb] = true
				stack = append(stack, nb)
			}
		}
	}

	// Boundary edges: edges of cavity triangles whose far side is not
	// in the cavity. Each carries the outside neighbour (0 = hull) and
	// the cavity triangle that owned the edge (for rewiring).
	type bedge struct {
		e       edge
		out, in mem.Addr
	}
	var boundary []bedge
	for _, t := range cavity {
		v, _ := a.triPts(tx, t)
		nbs := neighborsOf(tx, t)
		es := [3]edge{{v[0], v[1]}, {v[1], v[2]}, {v[2], v[0]}}
		for i := 0; i < 3; i++ {
			if nbs[i] == 0 || !inCavity[nbs[i]] {
				boundary = append(boundary, bedge{e: es[i], out: nbs[i], in: t})
			}
		}
	}

	// A pinched boundary — some vertex on more than two boundary edges —
	// arises when floating-point circumcircle tests disagree and the
	// cavity is not a simple star. Endpoint-matched fan wiring would then
	// be ambiguous: the overwrites leave asymmetric neighbour links, and
	// the next free over such a link strands a live triangle pointing at
	// reclaimed memory. Detect it before mutating anything and bail; the
	// caller re-queues the refinement for after the mesh has evolved.
	seenA := map[int]bool{}
	seenB := map[int]bool{}
	for _, be := range boundary {
		if seenA[be.e.a] || seenB[be.e.b] {
			a.pinched[tid] = true
			return false
		}
		seenA[be.e.a] = true
		seenB[be.e.b] = true
	}

	// Claim the new point index (the write below is to the thread's own
	// slot of the point array).
	if fromQueue {
		a.ptNext[tid] = n + 1
	} else {
		a.setupNext = n + 1
	}
	tx.Store(a.ptAddr(n), fb(p.x))
	tx.Store(a.ptAddr(n)+8, fb(p.y))

	// Destroy the cavity (transactional frees: the blocks return to the
	// allocator at commit, exactly yada's pressure pattern).
	for _, t := range cavity {
		tx.Store(t+tAlive, 0)
		tx.Free(t, tSize)
	}

	// Retriangulate: one new triangle per boundary edge, fanning to n.
	newTris := make([]mem.Addr, len(boundary))
	for i, be := range boundary {
		newTris[i] = a.newTriangle(tx, be.e.a, be.e.b, n, be.out, 0, 0)
		if be.out != 0 {
			replaceNeighbor(tx, be.out, be.in, newTris[i])
		}
	}
	// Wire the fan: triangles sharing point n are adjacent when they
	// share a boundary endpoint.
	for i, bi := range boundary {
		for j, bj := range boundary {
			if i == j {
				continue
			}
			if bi.e.b == bj.e.a {
				tx.Store(newTris[i]+tN1, uint64(newTris[j]))
			}
			if bi.e.a == bj.e.b {
				tx.Store(newTris[i]+tN2, uint64(newTris[j]))
			}
		}
	}
	// Keep the mesh entry point alive without turning it into a global
	// hot spot: only rewrite it when it points into the cavity we just
	// destroyed.
	root := mem.Addr(tx.Load(a.rootCell))
	if root == 0 || inCavity[root] {
		tx.Store(a.rootCell, uint64(newTris[0]))
	}

	// Collect new bad triangles (refinement cascades); the caller
	// queues them, inside this transaction during the sequential build
	// and in a separate transaction during refinement.
	if fromQueue {
		for _, t := range newTris {
			if v, p := a.triPts(tx, t); true {
				if bad, _ := a.isBad(p[0], p[1], p[2], v[0], v[1], v[2]); bad {
					a.newBad[tid] = append(a.newBad[tid], badRef{tri: t, epoch: tx.Load(t + tEpoch)})
				}
			}
		}
	}
	return true
}

// locate finds the triangle containing p by walking from the root.
func (a *Yada) locate(tx *stm.Tx, p pt) mem.Addr {
	root := mem.Addr(tx.Load(a.rootCell))
	if root == 0 {
		return 0
	}
	// Straightforward BFS over the mesh testing containment; robust and
	// adequate at these scales.
	seen := map[mem.Addr]bool{root: true}
	queue := []mem.Addr{root}
	for len(queue) > 0 {
		t := queue[0]
		queue = queue[1:]
		if tx.Load(t+tAlive) == 1 {
			_, q := a.triPts(tx, t)
			if containsPoint(q, p) {
				return t
			}
		}
		for _, nb := range neighborsOf(tx, t) {
			if nb != 0 && !seen[nb] {
				seen[nb] = true
				queue = append(queue, nb)
			}
		}
	}
	return 0
}

func containsPoint(q [3]pt, p pt) bool {
	sign := func(a, b, c pt) float64 {
		return (a.x-c.x)*(b.y-c.y) - (b.x-c.x)*(a.y-c.y)
	}
	d1 := sign(p, q[0], q[1])
	d2 := sign(p, q[1], q[2])
	d3 := sign(p, q[2], q[0])
	hasNeg := d1 < 0 || d2 < 0 || d3 < 0
	hasPos := d1 > 0 || d2 > 0 || d3 > 0
	return !(hasNeg && hasPos)
}

// meshTriangles walks the mesh from the root and returns all live
// triangles.
func (a *Yada) meshTriangles(tx *stm.Tx) []mem.Addr {
	root := mem.Addr(tx.Load(a.rootCell))
	if root == 0 {
		return nil
	}
	seen := map[mem.Addr]bool{root: true}
	queue := []mem.Addr{root}
	var out []mem.Addr
	for len(queue) > 0 {
		t := queue[0]
		queue = queue[1:]
		if tx.Load(t+tAlive) == 1 {
			out = append(out, t)
		}
		for _, nb := range neighborsOf(tx, t) {
			if nb != 0 && !seen[nb] {
				seen[nb] = true
				queue = append(queue, nb)
			}
		}
	}
	return out
}

// Parallel implements stamp.App: the refinement loop. Popping a work
// item, refining the cavity, and queueing the cascade are three
// separate transactions — holding the queue's stripe lock across a
// whole refinement would serialize the benchmark; stale queue entries
// are instead filtered by the epoch check.
func (a *Yada) Parallel(w *stamp.World, th *vtime.Thread) {
	defer w.Prof.Region(th, "yada/parallel")()
	pinchCount := map[mem.Addr]int{} // per-thread pinch re-queue budget
	for {
		var item uint64
		done := false
		w.Atomic(th, func(tx *stm.Tx) {
			v, ok := a.queue.Pop(tx)
			if !ok {
				done = true
				return
			}
			done = false
			item = v
		})
		if done {
			return
		}
		t := mem.Addr(item & ((1 << 40) - 1))
		epoch := item >> 40

		tid := th.ID()
		var cascade []badRef
		w.Atomic(th, func(tx *stm.Tx) {
			cascade = nil
			a.newBad[tid] = a.newBad[tid][:0]
			a.pinched[tid] = false
			// Guard reads: t may point at a triangle refined away (freed,
			// possibly recycled) since it was queued; the epoch check
			// validates the handle, so the sanitizer's UAF rule is waived.
			if tx.LoadGuard(t+tAlive) != 1 || tx.LoadGuard(t+tEpoch) != epoch {
				a.skipped++ // stale entry: triangle already refined away
				return
			}
			vtx, p := a.triPts(tx, t)
			bad, center := a.isBad(p[0], p[1], p[2], vtx[0], vtx[1], vtx[2])
			if !bad {
				a.skipped++
				return
			}
			if a.insertPoint(tx, center, true, t) {
				a.refined++
				cascade = append(cascade, a.newBad[tid]...)
			}
		})
		if a.pinched[tid] {
			// The cavity boundary was not a simple loop. Re-queue and let
			// concurrent refinements reshape the neighbourhood; after
			// pinchRetries rounds give the triangle up as unrefinable.
			if pinchCount[t] < pinchRetries {
				pinchCount[t]++
				w.Atomic(th, func(tx *stm.Tx) {
					a.queue.Push(tx, epoch<<40|uint64(t))
				})
			} else {
				a.dropped++
			}
		}
		if len(cascade) > 0 {
			w.Atomic(th, func(tx *stm.Tx) {
				for _, b := range cascade {
					a.queue.Push(tx, b.epoch<<40|uint64(b.tri))
				}
			})
		}
		th.Work(50)
	}
}

// Validate implements stamp.App: mesh consistency and refinement
// success.
func (a *Yada) Validate(w *stamp.World) error {
	th := vtime.Solo(w.Space, 0, nil)
	var err error
	w.STM.Atomic(th, func(tx *stm.Tx) {
		err = nil
		tris := a.meshTriangles(tx)
		if len(tris) == 0 {
			err = fmt.Errorf("empty mesh")
			return
		}
		// Neighbour symmetry.
		alive := map[mem.Addr]bool{}
		for _, t := range tris {
			alive[t] = true
		}
		for _, t := range tris {
			for _, nb := range neighborsOf(tx, t) {
				if nb == 0 {
					continue
				}
				if !alive[nb] {
					err = fmt.Errorf("triangle %#x points to dead neighbour %#x", uint64(t), uint64(nb))
					return
				}
				back := neighborsOf(tx, nb)
				if back[0] != t && back[1] != t && back[2] != t {
					err = fmt.Errorf("asymmetric adjacency %#x -> %#x", uint64(t), uint64(nb))
					return
				}
			}
		}
		// No refinable triangle may remain (unless the point budget ran
		// out or pinched cavities were dropped, both of which bound the
		// refinement legitimately).
		if !a.exhausted && a.dropped == 0 {
			for _, t := range tris {
				v, p := a.triPts(tx, t)
				if bad, _ := a.isBad(p[0], p[1], p[2], v[0], v[1], v[2]); bad {
					err = fmt.Errorf("unrefined bad triangle remains (refined=%d skipped=%d)", a.refined, a.skipped)
					return
				}
			}
		}
		if a.refined == 0 {
			err = fmt.Errorf("no triangle was refined")
		}
	})
	return err
}
