package heapscope_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	_ "repro/internal/alloc/glibc"
	_ "repro/internal/alloc/hoard"
	_ "repro/internal/alloc/tbb"
	_ "repro/internal/alloc/tcmalloc"

	"repro/internal/heapscope"
	"repro/internal/intset"
	"repro/internal/obs"
	"repro/internal/sweep"
)

var update = flag.Bool("update", false, "rewrite the golden tmheap/series/v1 artifact")

// watchCfg is the fixed-seed workload every integration test observes:
// small enough to run in milliseconds, busy enough to exercise free
// lists, superblocks, sharing and the phase boundary.
func watchCfg(allocator string) intset.Config {
	return intset.Config{
		Kind:         intset.LinkedList,
		Allocator:    allocator,
		Threads:      4,
		InitialSize:  64,
		KeyRange:     128,
		UpdatePct:    60,
		OpsPerThread: 100,
		Seed:         0x9a9e7,
	}
}

// watchRun runs the workload under a collector and packages its series.
func watchRun(t *testing.T, allocator string, cadence uint64) *heapscope.Series {
	t.Helper()
	cfg := watchCfg(allocator)
	hc := heapscope.New(cadence)
	cfg.Heap = hc
	res, err := intset.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != obs.StatusOK {
		t.Fatalf("run degraded: %s %s", res.Status, res.Failure)
	}
	return hc.Series("golden/" + allocator)
}

// TestGoldenSeries pins the byte-exact tmheap/series/v1 artifact of a
// fixed-seed run for two allocators. Any drift in the allocators, the
// virtual-time engine, the collector or the JSON encoding shows up as
// a diff here; refresh intentionally with -update.
func TestGoldenSeries(t *testing.T) {
	set := heapscope.NewSet("golden")
	for _, name := range []string{"glibc", "hoard"} {
		set.Add(watchRun(t, name, 1<<16))
	}
	var buf bytes.Buffer
	if err := set.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "golden_series.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/heapscope -run Golden -update` to create it)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("series drifted from the golden artifact %s (re-run with -update if intentional); got %d bytes, want %d",
			golden, buf.Len(), len(want))
	}
}

// TestSeriesJobsIdentity runs the same observed cells through the
// sweep scheduler at pool widths 1, 4 and 8 and requires byte-identical
// artifacts: the collector is driven by each cell's private engine, so
// host parallelism must never leak into the series.
func TestSeriesJobsIdentity(t *testing.T) {
	allocs := []string{"glibc", "hoard", "tbb", "tcmalloc"}
	runAt := func(jobs int) []byte {
		var cells []sweep.Cell
		for _, name := range allocs {
			name := name
			cfg := watchCfg(name)
			spec, err := json.Marshal(cfg)
			if err != nil {
				t.Fatal(err)
			}
			cells = append(cells, sweep.Cell{
				Key:  "heapwatch/" + name,
				Spec: spec,
				Seed: cfg.Seed,
				Run: func() (any, any, error) {
					c := cfg
					hc := heapscope.New(1 << 16)
					c.Heap = hc
					res, err := intset.Run(c)
					if err != nil {
						return nil, nil, err
					}
					return res, hc.Series("heapwatch/" + name), nil
				},
			})
		}
		sched := &sweep.Scheduler{Jobs: jobs}
		outs, _ := sched.Run(cells, nil)
		set := heapscope.NewSet("jobs-identity")
		for _, o := range outs {
			if o.Err != nil {
				t.Fatal(o.Err)
			}
			set.Add(o.Harvest.(*heapscope.Series))
		}
		var buf bytes.Buffer
		if err := set.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	base := runAt(1)
	for _, jobs := range []int{4, 8} {
		if got := runAt(jobs); !bytes.Equal(got, base) {
			t.Errorf("series at -jobs %d differ from -jobs 1 (%d vs %d bytes)", jobs, len(got), len(base))
		}
	}
}

// TestSnapshotTransparency: a watched run must report byte-identical
// results to an unwatched one — the collector is a pure observer, so
// the only difference a caller can see is the series itself.
func TestSnapshotTransparency(t *testing.T) {
	for _, name := range []string{"glibc", "hoard", "tbb", "tcmalloc"} {
		plainCfg := watchCfg(name)
		plain, err := intset.Run(plainCfg)
		if err != nil {
			t.Fatal(err)
		}
		watchedCfg := watchCfg(name)
		hc := heapscope.New(1 << 16)
		watchedCfg.Heap = hc
		watched, err := intset.Run(watchedCfg)
		if err != nil {
			t.Fatal(err)
		}
		pj, err := json.Marshal(plain)
		if err != nil {
			t.Fatal(err)
		}
		wj, err := json.Marshal(watched)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(pj, wj) {
			t.Errorf("%s: watched run result differs from plain run:\nplain:   %s\nwatched: %s", name, pj, wj)
		}
		if len(hc.Series("x").Samples) == 0 {
			t.Errorf("%s: watched run collected no samples", name)
		}
	}
}

// BenchmarkRunPlain / BenchmarkRunWatched measure the heapscope
// overhead on the same fixed workload: the delta between the two is
// the full cost of telemetry (watcher callbacks + cadence snapshots).
func BenchmarkRunPlain(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := intset.Run(watchCfg("hoard")); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRunWatched(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := watchCfg("hoard")
		cfg.Heap = heapscope.New(1 << 16)
		if _, err := intset.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCollectorSnapshot isolates the per-snapshot cost at a
// realistic live-heap size.
func BenchmarkCollectorSnapshot(b *testing.B) {
	cfg := watchCfg("tcmalloc")
	hc := heapscope.New(1 << 62) // never fires on cadence; we snapshot by hand
	cfg.Heap = hc
	if _, err := intset.Run(cfg); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hc.Finish(uint64(i))
	}
}
