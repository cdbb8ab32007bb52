// Package labyrinth ports STAMP's labyrinth: Lee-style path routing in
// a 3-D grid. Each router transactionally pops a (source, destination)
// work item, copies the shared grid into a *privately allocated* buffer
// (the large parallel-region allocations of the paper's Table 5),
// performs a breadth-first expansion on the copy, and then claims the
// found path in the shared grid inside a short transaction that
// conflicts only when another router took one of the same cells.
package labyrinth

import (
	"fmt"

	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/stamp"
	"repro/internal/stm"
	"repro/internal/txstruct"
	"repro/internal/vtime"
)

func init() {
	stamp.Register("labyrinth", func() stamp.App { return &Labyrinth{} })
}

// Cell states in the shared grid.
const (
	cellFree = 0
	cellWall = ^uint64(0)
	// path cells hold the path id + 2 (ids start at 0; value 1 is the
	// temporary "endpoint" marker in private copies)
)

// Labyrinth is the application state.
type Labyrinth struct {
	x, y, z int
	nPaths  int

	grid  mem.Addr // x*y*z words, shared
	queue *txstruct.Queue
	pairs [][2]int // cell indices (src, dst) per path id

	routed   []bool
	failures int
}

// Name implements stamp.App.
func (a *Labyrinth) Name() string { return "labyrinth" }

func (a *Labyrinth) params(s stamp.Scale) {
	switch s {
	case stamp.Ref:
		// 76*76*3 cells * 8 B = 135 KiB per private copy: above every
		// allocator's large-object threshold (including Glibc's 128 KiB
		// mmap threshold), as the paper's 512x512x7 grid was.
		a.x, a.y, a.z, a.nPaths = 76, 76, 3, 48
	default:
		a.x, a.y, a.z, a.nPaths = 16, 16, 3, 12
	}
}

func (a *Labyrinth) cells() int { return a.x * a.y * a.z }

func (a *Labyrinth) cellAddr(i int) mem.Addr { return a.grid + mem.Addr(i*8) }

// neighbors appends the orthogonal neighbours of cell i to buf.
func (a *Labyrinth) neighbors(i int, buf []int) []int {
	cx := i % a.x
	cy := (i / a.x) % a.y
	cz := i / (a.x * a.y)
	if cx > 0 {
		buf = append(buf, i-1)
	}
	if cx < a.x-1 {
		buf = append(buf, i+1)
	}
	if cy > 0 {
		buf = append(buf, i-a.x)
	}
	if cy < a.y-1 {
		buf = append(buf, i+a.x)
	}
	if cz > 0 {
		buf = append(buf, i-a.x*a.y)
	}
	if cz < a.z-1 {
		buf = append(buf, i+a.x*a.y)
	}
	return buf
}

// Setup implements stamp.App: builds the maze and the work queue.
func (a *Labyrinth) Setup(w *stamp.World) {
	a.params(w.Scale)
	a.routed = make([]bool, a.nPaths)
	w.Seq(func(th *vtime.Thread) {
		defer w.Prof.Region(th, "labyrinth/setup")()
		rng := sim.NewRand(w.Seed)
		a.grid = w.Calloc(th, uint64(a.cells()*8))
		// Sprinkle walls (~8%).
		for i := 0; i < a.cells()/12; i++ {
			th.Store(a.cellAddr(rng.Intn(a.cells())), cellWall)
		}
		w.Atomic(th, func(tx *stm.Tx) { a.queue = txstruct.NewQueue(tx, uint64(a.nPaths+1)) })
		for p := 0; p < a.nPaths; p++ {
			var src, dst int
			for {
				src = rng.Intn(a.cells())
				dst = rng.Intn(a.cells())
				if src != dst && th.Load(a.cellAddr(src)) == cellFree && th.Load(a.cellAddr(dst)) == cellFree {
					break
				}
			}
			a.pairs = append(a.pairs, [2]int{src, dst})
			w.Atomic(th, func(tx *stm.Tx) { a.queue.Push(tx, uint64(p)) })
		}
	})
}

// Parallel implements stamp.App: the router loop.
func (a *Labyrinth) Parallel(w *stamp.World, th *vtime.Thread) {
	defer w.Prof.Region(th, "labyrinth/parallel")()
	nCells := a.cells()
	for {
		pathID := -1
		w.Atomic(th, func(tx *stm.Tx) {
			if v, ok := a.queue.Pop(tx); ok {
				pathID = int(v)
			} else {
				pathID = -1
			}
		})
		if pathID < 0 {
			return
		}
		src, dst := a.pairs[pathID][0], a.pairs[pathID][1]

		for attempt := 0; ; attempt++ {
			// Private grid copy: a large parallel-region allocation,
			// freed in the parallel region too. The snapshot reads are
			// deliberately racy — STAMP's documented benign race: a
			// stale cell only sends the wave through a spot the claim
			// transaction below revalidates before storing.
			private := w.Malloc(th, uint64(nCells*8))
			for i := 0; i < nCells; i++ {
				th.Store(private+mem.Addr(i*8), th.LoadRelaxed(a.cellAddr(i)))
			}
			path := a.expand(th, private, src, dst)
			w.Allocator.Free(th, private)
			if path == nil {
				a.failures++ // unroutable with current grid
				break
			}
			// Claim the path transactionally; bail out if any cell was
			// taken since the copy.
			claimed := false
			w.Atomic(th, func(tx *stm.Tx) {
				claimed = true
				for _, c := range path {
					if tx.Load(a.cellAddr(c)) != cellFree {
						claimed = false
						return
					}
				}
				for _, c := range path {
					tx.Store(a.cellAddr(c), uint64(pathID)+2)
				}
			})
			if claimed {
				a.routed[pathID] = true
				break
			}
			th.Work(200) // back off before re-copying, as the C code re-tries
			if attempt > 50 {
				a.failures++
				break
			}
		}
	}
}

// expand runs the Lee breadth-first wave on the private copy and
// returns the path (including endpoints), or nil when unroutable.
func (a *Labyrinth) expand(th *vtime.Thread, private mem.Addr, src, dst int) []int {
	nCells := a.cells()
	dist := make([]int32, nCells)
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	frontier := []int{src}
	var nbuf [6]int
	found := false
	for len(frontier) > 0 && !found {
		var next []int
		for _, c := range frontier {
			for _, n := range a.neighbors(c, nbuf[:0]) {
				if dist[n] >= 0 {
					continue
				}
				// Reading the private copy is priced like the C code's
				// grid scan.
				v := th.Load(private + mem.Addr(n*8))
				if n == dst {
					dist[n] = dist[c] + 1
					found = true
					break
				}
				if v != cellFree {
					continue
				}
				dist[n] = dist[c] + 1
				next = append(next, n)
			}
			if found {
				break
			}
		}
		frontier = next
	}
	if !found {
		return nil
	}
	// Trace back.
	path := []int{dst}
	cur := dst
	for cur != src {
		for _, n := range a.neighbors(cur, nbuf[:0]) {
			if dist[n] == dist[cur]-1 {
				cur = n
				break
			}
		}
		path = append(path, cur)
	}
	return path
}

// Validate implements stamp.App: routed paths occupy connected strips
// of their own id, and no cell belongs to two paths (ids are exclusive
// by construction — verify counts match).
func (a *Labyrinth) Validate(w *stamp.World) error {
	th := vtime.Solo(w.Space, 0, nil)
	routedCount := 0
	for p, ok := range a.routed {
		if !ok {
			continue
		}
		routedCount++
		src, dst := a.pairs[p][0], a.pairs[p][1]
		// BFS through cells of this path id must connect src to dst.
		id := uint64(p) + 2
		if th.Load(a.cellAddr(src)) != id || th.Load(a.cellAddr(dst)) != id {
			return fmt.Errorf("path %d: endpoints not claimed", p)
		}
		seen := map[int]bool{src: true}
		frontier := []int{src}
		var nbuf [6]int
		reached := false
		for len(frontier) > 0 && !reached {
			var next []int
			for _, c := range frontier {
				for _, n := range a.neighbors(c, nbuf[:0]) {
					if seen[n] || th.Load(a.cellAddr(n)) != id {
						continue
					}
					if n == dst {
						reached = true
					}
					seen[n] = true
					next = append(next, n)
				}
			}
			frontier = next
		}
		if !reached {
			return fmt.Errorf("path %d: not connected in shared grid", p)
		}
	}
	if routedCount+a.failures < a.nPaths {
		return fmt.Errorf("%d paths unaccounted for", a.nPaths-routedCount-a.failures)
	}
	if routedCount == 0 {
		return fmt.Errorf("no path routed at all")
	}
	return nil
}
