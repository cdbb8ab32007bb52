package sweep

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestDeriveSeed(t *testing.T) {
	if DeriveSeed(1, "a") == DeriveSeed(1, "b") {
		t.Error("different keys must derive different seeds")
	}
	if DeriveSeed(1, "a") == DeriveSeed(2, "a") {
		t.Error("different base seeds must derive different seeds")
	}
	if DeriveSeed(1, "a") != DeriveSeed(1, "a") {
		t.Error("derivation must be deterministic")
	}
	if DeriveSeed(0x9a9e7, "exp/rep0") == 0 {
		t.Error("derived seed must never be zero (workloads treat 0 as 'use default')")
	}
	// Rep index in the key separates repetition seeds.
	if DeriveSeed(7, "cfg/r0") == DeriveSeed(7, "cfg/r1") {
		t.Error("per-rep keys must derive distinct seeds")
	}
}

func TestCellHashIdentity(t *testing.T) {
	mk := func(key, spec string, seed uint64) *Cell {
		return &Cell{Key: key, Spec: json.RawMessage(spec), Seed: seed}
	}
	base := mk("k", `{"a":1}`, 3).Hash()
	if got := mk("k", `{"a":1}`, 3).Hash(); got != base {
		t.Error("identical cells must hash identically")
	}
	for name, c := range map[string]*Cell{
		"key":  mk("k2", `{"a":1}`, 3),
		"spec": mk("k", `{"a":2}`, 3),
		"seed": mk("k", `{"a":1}`, 4),
	} {
		if c.Hash() == base {
			t.Errorf("changing the %s must change the hash", name)
		}
	}
}

func payloadCell(key string, seed uint64, v string) Cell {
	return Cell{
		Key:  key,
		Spec: json.RawMessage(fmt.Sprintf(`{"v":%q}`, v)),
		Seed: seed,
		Run: func() (any, any, error) {
			return map[string]string{"v": v}, nil, nil
		},
	}
}

func TestCacheHitMissInvalidation(t *testing.T) {
	dir := t.TempDir()
	c, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	cell := payloadCell("k", 1, "x")
	if _, ok := c.Get(&cell); ok {
		t.Fatal("empty cache must miss")
	}
	if err := c.Put(&cell, json.RawMessage(`{"v":"x"}`)); err != nil {
		t.Fatal(err)
	}
	got, ok := c.Get(&cell)
	if !ok || string(got) != `{"v":"x"}` {
		t.Fatalf("cache hit = %q, %v; want the stored payload", got, ok)
	}

	// A spec change and a seed change each produce a different hash, so
	// the old entry is simply not found.
	specChanged := payloadCell("k", 1, "y")
	if _, ok := c.Get(&specChanged); ok {
		t.Error("changed spec must miss")
	}
	seedChanged := payloadCell("k", 2, "x")
	if _, ok := c.Get(&seedChanged); ok {
		t.Error("changed seed must miss")
	}

	// A version bump invalidates entries that *do* collide on path:
	// rewrite the stored entry claiming an older cell-schema version.
	path := filepath.Join(dir, cell.Hash()[:2], cell.Hash()+".json")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	stale := strings.Replace(string(data), Version, "tmrepro-cells/v0", 1)
	if stale == string(data) {
		t.Fatalf("entry %s does not embed the version string", path)
	}
	if err := os.WriteFile(path, []byte(stale), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(&cell); ok {
		t.Error("an entry recorded under another code version must miss")
	}

	// Corruption is a miss, not an error.
	if err := os.WriteFile(path, []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(&cell); ok {
		t.Error("a corrupt entry must miss")
	}

	// Nil cache is inert.
	var nilCache *Cache
	if _, ok := nilCache.Get(&cell); ok {
		t.Error("nil cache must miss")
	}
	if err := nilCache.Put(&cell, got); err != nil {
		t.Error("nil cache Put must be a no-op:", err)
	}
}

func TestSchedulerOrderAndDedup(t *testing.T) {
	var executed atomic.Int64
	mk := func(key string, v string) Cell {
		return Cell{
			Key:  key,
			Spec: json.RawMessage(fmt.Sprintf(`{"v":%q}`, v)),
			Run: func() (any, any, error) {
				executed.Add(1)
				return v, nil, nil
			},
		}
	}
	// c0 and c2 are the same cell (same key/spec/seed): the scheduler
	// must run it once and fan the outcome to both positions.
	cells := []Cell{mk("a", "A"), mk("b", "B"), mk("a", "A"), mk("c", "C")}
	for _, jobs := range []int{1, 4} {
		executed.Store(0)
		s := &Scheduler{Jobs: jobs}
		outs, stats := s.Run(cells, nil)
		if executed.Load() != 3 {
			t.Errorf("jobs=%d: executed %d closures, want 3 (dedup)", jobs, executed.Load())
		}
		if stats.Cells != 4 || stats.Unique != 3 || stats.Executed != 3 {
			t.Errorf("jobs=%d: stats = %+v, want 4 cells / 3 unique / 3 executed", jobs, stats)
		}
		var got []string
		for _, o := range outs {
			var v string
			if err := json.Unmarshal(o.Payload, &v); err != nil {
				t.Fatal(err)
			}
			got = append(got, v)
		}
		if want := []string{"A", "B", "A", "C"}; !reflect.DeepEqual(got, want) {
			t.Errorf("jobs=%d: outcomes %v, want %v (cell order)", jobs, got, want)
		}
		if outs[0].Hash != outs[2].Hash {
			t.Errorf("jobs=%d: duplicate cells must share a hash", jobs)
		}
	}
}

func TestSchedulerPanicIsolation(t *testing.T) {
	cells := []Cell{
		payloadCell("ok", 1, "fine"),
		{Key: "boom", Spec: json.RawMessage(`{}`),
			Run: func() (any, any, error) { panic("injected") }},
	}
	s := &Scheduler{Jobs: 4}
	outs, stats := s.Run(cells, nil)
	if outs[0].Err != nil {
		t.Error("healthy cell must survive a sibling's panic:", outs[0].Err)
	}
	if outs[1].Err == nil || !strings.Contains(outs[1].Err.Error(), "panicked") {
		t.Errorf("panicking cell error = %v, want a captured panic", outs[1].Err)
	}
	if stats.Errors != 1 {
		t.Errorf("stats.Errors = %d, want 1", stats.Errors)
	}
}

func TestSchedulerCacheRoundTrip(t *testing.T) {
	dir := t.TempDir()
	c, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	cells := []Cell{payloadCell("a", 1, "A"), payloadCell("b", 2, "B")}
	s := &Scheduler{Jobs: 2, Cache: c}
	first, st1 := s.Run(cells, nil)
	if st1.Executed != 2 || st1.Cached != 0 {
		t.Fatalf("cold run stats = %+v, want 2 executed", st1)
	}
	second, st2 := s.Run(cells, nil)
	if st2.Executed != 0 || st2.Cached != 2 {
		t.Fatalf("warm run stats = %+v, want 2 cached", st2)
	}
	for i := range cells {
		if string(first[i].Payload) != string(second[i].Payload) {
			t.Errorf("cell %d: cached payload differs from executed payload", i)
		}
		if !second[i].Cached {
			t.Errorf("cell %d: outcome not marked cached", i)
		}
	}
}

// TestSchedulerObservedCellsNotCached pins the invariant that a cell
// returning a harvest is never written to the cache: replaying a hit
// could not reproduce what its observers collected.
func TestSchedulerObservedCellsNotCached(t *testing.T) {
	dir := t.TempDir()
	c, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	cell := Cell{
		Key:  "observed",
		Spec: json.RawMessage(`{}`),
		Run:  func() (any, any, error) { return "v", "harvest", nil },
	}
	s := &Scheduler{Jobs: 1, Cache: c}
	s.Run([]Cell{cell}, nil)
	if _, ok := c.Get(&cell); ok {
		t.Error("a cell that returned a harvest must not be cached")
	}
}

// TestSchedulerCacheWriteFailureReported plants a regular file where a
// cell's fan-out directory goes, so the write fails even as root: the
// run succeeds, and the summary line names the failed write.
func TestSchedulerCacheWriteFailureReported(t *testing.T) {
	dir := t.TempDir()
	c, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	cell := payloadCell("k", 1, "x")
	if err := os.WriteFile(filepath.Join(dir, cell.Hash()[:2]), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	outs, stats := (&Scheduler{Jobs: 1, Cache: c}).Run([]Cell{cell}, nil)
	if outs[0].Err != nil || stats.Executed != 1 {
		t.Fatalf("outcome err %v, stats %+v: a failed cache write must not fail the cell", outs[0].Err, stats)
	}
	if stats.CacheErr != 1 {
		t.Errorf("stats.CacheErr = %d, want 1", stats.CacheErr)
	}
	if got := stats.String(); !strings.Contains(got, " 1 executed,") || !strings.Contains(got, ", 1 cache writes failed;") {
		t.Errorf("summary %q does not report the failed cache write", got)
	}
	if got := (Stats{Executed: 1}).String(); strings.Contains(got, "cache writes") {
		t.Errorf("summary %q names cache writes when none failed", got)
	}
}

// TestSchedulerFoldOrder pins the fold contract: fold sees every cell
// in index order whatever order the workers finish in, only a
// duplicate's first reference carries the harvest, and with one
// worker each cell is folded before the next one starts.
func TestSchedulerFoldOrder(t *testing.T) {
	keys := []string{"a", "b", "a", "c", "d", "e", "b", "f"}
	for _, jobs := range []int{1, 4} {
		var mu sync.Mutex
		var log []string
		note := func(s string) {
			mu.Lock()
			log = append(log, s)
			mu.Unlock()
		}
		cells := make([]Cell, len(keys))
		for i, k := range keys {
			delay := time.Duration(len(keys)-i) * time.Millisecond // later cells finish first
			cells[i] = Cell{Key: k, Spec: json.RawMessage(`{}`), Run: func() (any, any, error) {
				note("start " + k)
				time.Sleep(delay)
				return k, "harvest " + k, nil
			}}
		}
		var folded []Outcome
		outs, _ := (&Scheduler{Jobs: jobs}).Run(cells, func(o Outcome) {
			note("fold " + o.Key)
			folded = append(folded, o)
		})
		if !reflect.DeepEqual(folded, outs) {
			t.Errorf("jobs=%d: fold saw %d outcomes that differ from the returned ones", jobs, len(folded))
		}
		seen := map[string]bool{}
		for i, o := range outs {
			first := !seen[keys[i]]
			seen[keys[i]] = true
			switch {
			case o.Key != keys[i]:
				t.Errorf("jobs=%d: outcome %d is cell %q, want %q", jobs, i, o.Key, keys[i])
			case first && o.Harvest != "harvest "+keys[i]:
				t.Errorf("jobs=%d: first reference %d carries harvest %v", jobs, i, o.Harvest)
			case !first && o.Harvest != nil:
				t.Errorf("jobs=%d: duplicate reference %d carries harvest %v", jobs, i, o.Harvest)
			}
		}
		if jobs == 1 {
			want := []string{"start a", "fold a", "start b", "fold b", "fold a", "start c", "fold c",
				"start d", "fold d", "start e", "fold e", "fold b", "start f", "fold f"}
			if !reflect.DeepEqual(log, want) {
				t.Errorf("jobs=1: events %v, want %v", log, want)
			}
		}
	}
}

// TestSchedulerStress drives many cheap cells through a wide pool; with
// -race this exercises the shared cursor and the fold for data races.
func TestSchedulerStress(t *testing.T) {
	const n = 256
	cells := make([]Cell, n)
	for i := range cells {
		cells[i] = payloadCell(fmt.Sprintf("c%d", i), uint64(i+1), fmt.Sprintf("v%d", i))
	}
	s := &Scheduler{Jobs: 8}
	outs, stats := s.Run(cells, nil)
	if stats.Executed != n || stats.Errors != 0 {
		t.Fatalf("stats = %+v, want %d executed", stats, n)
	}
	for i, o := range outs {
		var v map[string]string
		if err := json.Unmarshal(o.Payload, &v); err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf("v%d", i); v["v"] != want {
			t.Errorf("cell %d: payload %q, want %q", i, v["v"], want)
		}
	}
}

// TestSchedulerDispatchOrder pins dispatch from one cursor in cell
// order: while cell 0 blocks, the other worker of two starts cells 1,
// 2 and 3 in that order, so no worker runs ahead on a share of its own.
func TestSchedulerDispatchOrder(t *testing.T) {
	var mu sync.Mutex
	var started []int
	three := make(chan struct{})
	cells := make([]Cell, 8)
	for i := range cells {
		cells[i] = Cell{Key: fmt.Sprintf("c%d", i), Spec: json.RawMessage(`{}`), Run: func() (any, any, error) {
			if i == 0 {
				<-three
				return i, nil, nil
			}
			mu.Lock()
			defer mu.Unlock()
			if started = append(started, i); len(started) == 3 {
				close(three)
			}
			return i, nil, nil
		}}
	}
	(&Scheduler{Jobs: 2}).Run(cells, nil)
	if want := []int{1, 2, 3}; !reflect.DeepEqual(started[:3], want) {
		t.Errorf("while cell 0 ran, the other worker started %v, want %v", started[:3], want)
	}
}

// TestSpeedupCountsCPUNotWaits checks that the printed speedup is CPU
// time over wall time: eight cells that each waited out most of a
// second on a two-CPU host did not run eight times faster.
func TestSpeedupCountsCPUNotWaits(t *testing.T) {
	s := Stats{Wall: time.Second, CellWall: 8 * time.Second, CPU: 2 * time.Second}
	if got := s.Speedup(); got != 2 {
		t.Errorf("Speedup() = %v, want 2", got)
	}
}

// TestStatsOutput pins the stderr summary and the sweep_* metric
// families. scripts/ci.sh's cache gate greps the summary for
// " 0 executed".
func TestStatsOutput(t *testing.T) {
	s := Stats{Cells: 6, Unique: 4, Executed: 0, Cached: 3, Errors: 1, Jobs: 2,
		Wall: 1500 * time.Millisecond, CellWall: 3 * time.Second, CPU: 3 * time.Second}
	if got, want := s.String(), "6 cells (4 unique): 0 executed, 3 cached, 1 failed; jobs=2 wall=1.5s speedup=2.00x"; got != want {
		t.Errorf("summary %q\nwant    %q", got, want)
	}
	// A sweep that ran no cell (tmrepro -run of no experiment, or one
	// served wholly from a cache) shows no speedup.
	for _, s := range []Stats{{Jobs: 2, Wall: time.Millisecond, CPU: time.Millisecond},
		{Cells: 3, Unique: 3, Cached: 3, Jobs: 2, Wall: time.Second, CPU: time.Second}} {
		var m strings.Builder
		if err := s.WritePrometheus(&m); err != nil {
			t.Fatal(err)
		}
		if got := s.String() + m.String(); strings.Contains(got, "speedup") {
			t.Errorf("a sweep that ran no cell shows a speedup:\n%s", got)
		}
	}
	var b strings.Builder
	if err := s.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `# TYPE sweep_cells_total counter
sweep_cells_total 6
# TYPE sweep_cells_unique_total counter
sweep_cells_unique_total 4
# TYPE sweep_cells_executed_total counter
sweep_cells_executed_total 0
# TYPE sweep_cells_cached_total counter
sweep_cells_cached_total 3
# TYPE sweep_cells_failed_total counter
sweep_cells_failed_total 1
# TYPE sweep_pool_jobs gauge
sweep_pool_jobs 2
# TYPE sweep_wall_seconds gauge
sweep_wall_seconds 1.5
# TYPE sweep_cell_wall_seconds gauge
sweep_cell_wall_seconds 3
# TYPE sweep_speedup_ratio gauge
sweep_speedup_ratio 2
`
	if got := b.String(); got != want {
		t.Errorf("metrics:\n%s\nwant:\n%s", got, want)
	}
}
