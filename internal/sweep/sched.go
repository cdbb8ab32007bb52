package sweep

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// Scheduler executes cells on a bounded pool of host goroutines that
// take unique cells, in cell order, from one shared cursor. The zero
// value runs one worker with no cache.
type Scheduler struct {
	Jobs  int    // goroutine pool width; <= 1 runs one worker
	Cache *Cache // finished-cell memoization; nil disables
}

// Stats summarizes one Run: how the sweep executed. Cells/Unique/
// Executed/Cached are deterministic for a given cache state; Wall,
// CellWall and CPU depend on host timing and are reported only here and
// in the Prometheus exposition — never inside run records, which must
// stay byte-identical across pool widths.
type Stats struct {
	Cells    int // cells submitted
	Unique   int // after config-hash deduplication
	Executed int // unique cells actually run
	Cached   int // unique cells served from the cache
	Errors   int // unique cells that failed
	Stolen   int // never set: the pool does not steal; the hostbench module still reads it
	CacheErr int // cache write failures (the run itself still succeeds)
	Jobs     int // requested pool width (at least 1)

	Wall     time.Duration // whole-sweep host time
	CellWall time.Duration // summed per-cell host time, CPU waits included; the hostbench module reads it
	CPU      time.Duration // the process's user+system CPU time during the sweep
}

// Speedup is how many CPUs the sweep kept busy on average: process CPU
// time over sweep time (about 1.0 at one worker; at most the host's CPU
// count, however wide the pool).
func (s Stats) Speedup() float64 {
	if s.Wall <= 0 {
		return 1
	}
	return float64(s.CPU) / float64(s.Wall)
}

// ranCells reports whether any cell ran (executed or failed). A sweep
// that ran none shows no speedup: its CPU time measures no cell.
func (s Stats) ranCells() bool { return s.Executed+s.Errors > 0 }

// String is the one-line summary the binaries print on stderr. A failed
// cache write does not fail the run, so it is named here or nowhere.
func (s Stats) String() string {
	writes := ""
	if s.CacheErr > 0 {
		writes = fmt.Sprintf(", %d cache writes failed", s.CacheErr)
	}
	speedup := ""
	if s.ranCells() {
		speedup = fmt.Sprintf(" speedup=%.2fx", s.Speedup())
	}
	return fmt.Sprintf("%d cells (%d unique): %d executed, %d cached, %d failed%s; jobs=%d wall=%v%s",
		s.Cells, s.Unique, s.Executed, s.Cached, s.Errors, writes, s.Jobs, s.Wall.Round(time.Millisecond), speedup)
}

// WritePrometheus renders the scheduler stats as their own metric
// block. These are host-execution metrics (pool width, wall time), so
// the block is deterministic only in its deterministic members; it is
// appended to -metrics output, never attached to run records.
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
	p("# TYPE sweep_cells_failed_total counter\nsweep_cells_failed_total %d\n", s.Errors)
	p("# TYPE sweep_pool_jobs gauge\nsweep_pool_jobs %d\n", s.Jobs)
	p("# TYPE sweep_wall_seconds gauge\nsweep_wall_seconds %g\n", s.Wall.Seconds())
	p("# TYPE sweep_cell_wall_seconds gauge\nsweep_cell_wall_seconds %g\n", s.CellWall.Seconds())
	if s.ranCells() {
		p("# TYPE sweep_speedup_ratio gauge\nsweep_speedup_ratio %g\n", s.Speedup())
	}
	return err
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
	cpu0 := processCPU()
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
		cursor atomic.Int64 // the next unique cell to hand out
		mu     sync.Mutex   // guards stats, results, done and front
		front  int          // the next cell index to hand to fold
	)
	// One worker path for every width, and no more workers than unique
	// cells. Each worker takes the next unique cell in cell order, so
	// finished cells stay close to the fold front, and taking one never
	// waits on the lock the fold holds.
	var wg sync.WaitGroup
	for range min(stats.Jobs, len(uniq)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				u := int(cursor.Add(1)) - 1
				if u >= len(uniq) {
					return
				}
				t0 := time.Now() //tmvet:allow nodeterm: per-cell host time for sweep_cell_wall_seconds; it never reaches a record
				out := s.run(&cells[uniq[u]])
				mu.Lock()
				stats.CellWall += time.Since(t0) //tmvet:allow nodeterm: per-cell host time for sweep_cell_wall_seconds; it never reaches a record
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
		}()
	}
	wg.Wait()

	stats.Wall = time.Since(start) //tmvet:allow nodeterm: whole-sweep host time for the stderr stats line; results are pure virtual time
	stats.CPU = processCPU() - cpu0
	return outs, stats
}

// processCPU returns the user plus system CPU time the process has used
// so far (0 if the OS will not say).
func processCPU() time.Duration {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func (s *Scheduler) account(out Outcome, stats *Stats) {
	switch {
	case out.Err != nil:
		stats.Errors++
	case out.Cached:
		stats.Cached++
	default:
		stats.Executed++
	}
	if out.cacheErr {
		stats.CacheErr++
	}
}

func (s *Scheduler) run(c *Cell) (out Outcome) {
	out = Outcome{Key: c.Key, Hash: c.Hash()}
	if payload, ok := s.Cache.Get(c); ok {
		out.Payload = payload
		out.Cached = true
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
