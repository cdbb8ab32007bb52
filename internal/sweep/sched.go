package sweep

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"
)

// Scheduler executes cells on a bounded pool of host goroutines with
// work stealing. The zero value runs one worker with no cache.
type Scheduler struct {
	Jobs  int    // goroutine pool width; <= 1 runs one worker
	Cache *Cache // finished-cell memoization; nil disables
}

// Stats summarizes one Run: how the sweep executed. Cells/Unique/
// Executed/Cached are deterministic for a given cache state; Stolen,
// Wall and CellWall depend on host timing and are reported only here
// and in the Prometheus exposition — never inside run records, which
// must stay byte-identical across pool widths.
type Stats struct {
	Cells    int // cells submitted
	Unique   int // after config-hash deduplication
	Executed int // unique cells actually run
	Cached   int // unique cells served from the cache
	Errors   int // unique cells that failed
	Stolen   int // executed cells taken from another worker's deque
	CacheErr int // cache write failures (the run itself still succeeds)
	Jobs     int // requested pool width (at least 1)

	Wall     time.Duration // whole-sweep host time
	CellWall time.Duration // summed per-cell host time
}

// Speedup estimates the pool's wall-clock win: summed cell time over
// sweep time (about 1.0 at one worker; approaches Jobs under perfect
// scaling).
func (s Stats) Speedup() float64 {
	if s.Wall <= 0 {
		return 1
	}
	return float64(s.CellWall) / float64(s.Wall)
}

// String is the one-line summary the binaries print on stderr. A failed
// cache write does not fail the run, so it is named here or nowhere.
func (s Stats) String() string {
	writes := ""
	if s.CacheErr > 0 {
		writes = fmt.Sprintf(", %d cache writes failed", s.CacheErr)
	}
	return fmt.Sprintf("%d cells (%d unique): %d executed, %d cached, %d stolen, %d failed%s; jobs=%d wall=%v speedup=%.2fx",
		s.Cells, s.Unique, s.Executed, s.Cached, s.Stolen, s.Errors, writes, s.Jobs, s.Wall.Round(time.Millisecond), s.Speedup())
}

// WritePrometheus renders the scheduler stats as their own metric
// block. These are host-execution metrics (pool width, stealing, wall
// time), so the block is deterministic only in its deterministic
// members; it is appended to -metrics output, never attached to run
// records.
func (s Stats) WritePrometheus(w io.Writer) error {
	var err error
	p := func(format string, args ...any) {
		if err == nil {
			_, err = fmt.Fprintf(w, format, args...)
		}
	}
	p("# TYPE sweep_cells_total counter\nsweep_cells_total %d\n", s.Cells)
	p("# TYPE sweep_cells_unique_total counter\nsweep_cells_unique_total %d\n", s.Unique)
	p("# TYPE sweep_cells_executed_total counter\nsweep_cells_executed_total %d\n", s.Executed)
	p("# TYPE sweep_cells_cached_total counter\nsweep_cells_cached_total %d\n", s.Cached)
	p("# TYPE sweep_cells_stolen_total counter\nsweep_cells_stolen_total %d\n", s.Stolen)
	p("# TYPE sweep_cells_failed_total counter\nsweep_cells_failed_total %d\n", s.Errors)
	p("# TYPE sweep_pool_jobs gauge\nsweep_pool_jobs %d\n", s.Jobs)
	p("# TYPE sweep_wall_seconds gauge\nsweep_wall_seconds %g\n", s.Wall.Seconds())
	p("# TYPE sweep_cell_wall_seconds gauge\nsweep_cell_wall_seconds %g\n", s.CellWall.Seconds())
	p("# TYPE sweep_speedup_ratio gauge\nsweep_speedup_ratio %g\n", s.Speedup())
	return err
}

// deque is one worker's lock-protected work queue of unique-cell
// indices. The owner pops from the front; thieves take from the back,
// so a steal grabs the work the owner would reach last.
type deque struct {
	mu    sync.Mutex
	items []int
}

func (d *deque) popFront() (int, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.items) == 0 {
		return 0, false
	}
	idx := d.items[0]
	d.items = d.items[1:]
	return idx, true
}

func (d *deque) popBack() (int, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.items) == 0 {
		return 0, false
	}
	idx := d.items[len(d.items)-1]
	d.items = d.items[:len(d.items)-1]
	return idx, true
}

// Run executes every cell and returns outcomes in cell-index order —
// the scheduler owns *when and where* cells run, never *what they
// mean*, so callers reduce the outcome slice exactly as a serial loop
// would. Duplicate cells (equal hashes) execute once and share one
// outcome; only the first reference carries the harvest.
//
// fold (nil allowed) sees each outcome in cell-index order as soon as
// that cell and every earlier one have finished, so a caller can
// consume a harvest while later cells still run. It is called on a
// worker goroutine under the scheduler's lock, one call at a time;
// cell bodies must not touch what it writes.
func (s *Scheduler) Run(cells []Cell, fold func(Outcome)) ([]Outcome, Stats) {
	//tmvet:allow nodeterm: Stats.Wall measures host scheduling efficiency; it never reaches cell hashes or run-record result bytes
	start := time.Now()
	stats := Stats{Cells: len(cells), Jobs: max(s.Jobs, 1)}

	// Deduplicate by hash, keeping first-occurrence order: uniq holds
	// each unique cell's first reference.
	var uniq []int
	uniqOf := make([]int, len(cells))
	byHash := make(map[string]int, len(cells))
	for i := range cells {
		h := (&cells[i]).Hash()
		u, ok := byHash[h]
		if !ok {
			u = len(uniq)
			byHash[h] = u
			uniq = append(uniq, i)
		}
		uniqOf[i] = u
	}
	stats.Unique = len(uniq)

	results := make([]Outcome, len(uniq))
	done := make([]bool, len(uniq))
	outs := make([]Outcome, len(cells))
	var (
		mu    sync.Mutex // guards stats, results, done and front
		front int        // the next cell index to hand to fold
	)
	// One worker path for every width. No more workers start than there
	// are unique cells, so every worker has work of its own and a lone
	// cell is never counted as stolen.
	deques := make([]*deque, min(stats.Jobs, len(uniq)))
	for w := range deques {
		deques[w] = &deque{}
	}
	for u := range uniq {
		w := u % len(deques)
		deques[w].items = append(deques[w].items, u)
	}
	var wg sync.WaitGroup
	for w := range deques {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				u, stolen, ok := next(deques, w)
				if !ok {
					return
				}
				t0 := time.Now() //tmvet:allow nodeterm: per-cell host time feeds the stderr speedup line only
				out := s.run(&cells[uniq[u]], stolen)
				mu.Lock()
				stats.CellWall += time.Since(t0) //tmvet:allow nodeterm: per-cell host time feeds the stderr speedup line only
				s.account(out, &stats)
				results[u], done[u] = out, true
				for ; front < len(cells) && done[uniqOf[front]]; front++ {
					o := results[uniqOf[front]]
					if uniq[uniqOf[front]] != front {
						o.Harvest = nil
					}
					outs[front] = o
					if fold != nil {
						fold(o)
					}
				}
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()

	stats.Wall = time.Since(start) //tmvet:allow nodeterm: whole-sweep host time for the stderr stats line; results are pure virtual time
	return outs, stats
}

// next takes the worker's own front item, or steals from the back of
// the first other non-empty deque.
func next(deques []*deque, w int) (idx int, stolen, ok bool) {
	if idx, ok := deques[w].popFront(); ok {
		return idx, false, true
	}
	for off := 1; off < len(deques); off++ {
		if idx, ok := deques[(w+off)%len(deques)].popBack(); ok {
			return idx, true, true
		}
	}
	return 0, false, false
}

func (s *Scheduler) account(out Outcome, stats *Stats) {
	switch {
	case out.Err != nil:
		stats.Errors++
	case out.Cached:
		stats.Cached++
	default:
		stats.Executed++
		if out.Stolen {
			stats.Stolen++
		}
	}
	if out.cacheErr {
		stats.CacheErr++
	}
}

func (s *Scheduler) run(c *Cell, stolen bool) (out Outcome) {
	out = Outcome{Key: c.Key, Hash: c.Hash(), Stolen: stolen}
	if payload, ok := s.Cache.Get(c); ok {
		out.Payload = payload
		out.Cached = true
		out.Stolen = false
		return out
	}
	payload, harvest, err := runRecovered(c)
	if err != nil {
		out.Err = err
		return out
	}
	raw, err := json.Marshal(payload)
	if err != nil {
		out.Err = fmt.Errorf("sweep: encode cell %s payload: %w", c.Key, err)
		return out
	}
	out.Payload = raw
	out.Harvest = harvest
	// A cell that returned a harvest is never cached: a cache hit could
	// not replay what its observers collected. Callers enforce that by
	// not configuring a Cache, but keep the invariant locally too.
	if harvest == nil {
		if err := s.Cache.Put(c, raw); err != nil {
			out.cacheErr = true
		}
	}
	return out
}

// runRecovered invokes the cell with panic capture: a cell that blows
// up (a harness bug, an injected fault tripping an unguarded path)
// fails alone instead of tearing down the whole sweep.
func runRecovered(c *Cell) (payload, harvest any, err error) {
	defer func() {
		if r := recover(); r != nil {
			payload, harvest = nil, nil
			err = fmt.Errorf("sweep: cell %s panicked: %v", c.Key, r)
		}
	}()
	return c.Run()
}
