package repro

import (
	"testing"

	_ "repro/internal/alloc/glibc"
	_ "repro/internal/alloc/hoard"
	_ "repro/internal/alloc/tbb"
	_ "repro/internal/alloc/tcmalloc"
	_ "repro/internal/stamp/bayes"
	_ "repro/internal/stamp/genome"
	_ "repro/internal/stamp/intruder"
	_ "repro/internal/stamp/kmeans"
	_ "repro/internal/stamp/labyrinth"
	_ "repro/internal/stamp/ssca2"
	_ "repro/internal/stamp/vacation"
	_ "repro/internal/stamp/yada"

	"repro/internal/intset"
	"repro/internal/stamp"
	"repro/internal/threadtest"
)

var allocators = []string{"glibc", "hoard", "tbb", "tcmalloc"}

// These integration tests pin the paper's qualitative findings — the
// "shapes" the reproduction must preserve — at test-friendly scales.
// Quantitative tables live in EXPERIMENTS.md; these tests keep the
// shapes from regressing.

// Paper Fig. 3: every allocator's threadtest signature.
func TestShapeFig3Signatures(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run shape test")
	}
	run := func(name string, size uint64) float64 {
		res, err := threadtest.Run(threadtest.Config{
			Allocator: name, Threads: 8, BlockSize: size, OpsPerThread: 1500,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Throughput
	}
	// TCMalloc is its own worst at 16B.
	if t16, t256 := run("tcmalloc", 16), run("tcmalloc", 256); t16 >= t256 {
		t.Errorf("tcmalloc: 16B (%.0f) not slower than 256B (%.0f)", t16, t256)
	}
	// Hoard collapses past 256B.
	if h256, h512 := run("hoard", 256), run("hoard", 512); h512 >= h256/2 {
		t.Errorf("hoard: 512B (%.0f) did not collapse vs 256B (%.0f)", h512, h256)
	}
	// TBB collapses at 8KB.
	if b4k, b8k := run("tbb", 4096), run("tbb", 8192); b8k >= b4k/10 {
		t.Errorf("tbb: 8KB (%.0f) did not collapse vs 4KB (%.0f)", b8k, b4k)
	}
	// Glibc is the slowest small-block allocator (lock per op).
	if g, h := run("glibc", 64), run("hoard", 64); g >= h {
		t.Errorf("glibc 64B (%.0f) not slower than hoard (%.0f)", g, h)
	}
}

// Paper Table 4 at its 2-thread point: Glibc trades aborts for misses.
func TestShapeTab4GlibcTradeoff(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run shape test")
	}
	run := func(name string) (abort, l1 float64) {
		res, err := intset.Run(intset.Config{
			Kind: intset.LinkedList, Allocator: name, Threads: 2,
			InitialSize: 1024, KeyRange: 2048, UpdatePct: 60, OpsPerThread: 200,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Tx.AbortRate(), res.L1Miss
	}
	ga, gl := run("glibc")
	for _, other := range []string{"hoard", "tbb", "tcmalloc"} {
		oa, ol := run(other)
		if ga >= oa {
			t.Errorf("glibc abort rate %.3f not below %s's %.3f", ga, other, oa)
		}
		if gl <= ol {
			t.Errorf("glibc L1 miss %.4f not above %s's %.4f", gl, other, ol)
		}
	}
}

// Paper Fig. 6: shift 4 helps the 16-byte allocators at high thread
// counts and does not help Glibc.
func TestShapeFig6ShiftInteraction(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run shape test")
	}
	run := func(name string, shift uint) float64 {
		res, err := intset.Run(intset.Config{
			Kind: intset.LinkedList, Allocator: name, Threads: 8,
			InitialSize: 768, KeyRange: 1536, UpdatePct: 60, OpsPerThread: 120,
			Shift: shift,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Throughput
	}
	// For hoard, shift 4 removes the node-pair stripe sharing: its
	// relative gain must exceed glibc's (which has nothing to gain).
	hoardGain := run("hoard", 4)/run("hoard", 5) - 1
	glibcGain := run("glibc", 4)/run("glibc", 5) - 1
	if hoardGain <= glibcGain {
		t.Errorf("shift-4 gain: hoard %+.3f not above glibc %+.3f", hoardGain, glibcGain)
	}
}

// Paper §6/Table 6 headline: Yada is the allocator blow-up case, with
// Glibc clearly worst.
func TestShapeYadaGlibcWorst(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run shape test")
	}
	run := func(name string) float64 {
		res, err := stamp.Run(stamp.Config{App: "yada", Allocator: name, Threads: 8, Scale: stamp.Ref})
		if err != nil {
			t.Fatal(err)
		}
		return res.Seconds
	}
	g := run("glibc")
	for _, other := range []string{"hoard", "tbb", "tcmalloc"} {
		if o := run(other); g <= o {
			t.Errorf("yada: glibc (%.4fs) not slower than %s (%.4fs)", g, other, o)
		}
	}
}

// Paper Table 7: the tx-object cache is worth more on Glibc than on
// TCMalloc for the churn-heavy app.
func TestShapeTab7CachingHelpsGlibcMost(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run shape test")
	}
	run := func(name string, cached bool) float64 {
		res, err := stamp.Run(stamp.Config{
			App: "yada", Allocator: name, Threads: 8, Scale: stamp.Ref, CacheTx: cached,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Seconds
	}
	glibcGain := 1 - run("glibc", true)/run("glibc", false)
	tcmGain := 1 - run("tcmalloc", true)/run("tcmalloc", false)
	if glibcGain <= tcmGain {
		t.Errorf("tx-cache gain: glibc %+.3f not above tcmalloc %+.3f", glibcGain, tcmGain)
	}
}

// Control applications must stay allocator-insensitive (paper: < 5%).
func TestShapeControlAppsInsensitive(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run shape test")
	}
	for _, app := range []string{"kmeans", "ssca2"} {
		var lo, hi float64
		for _, name := range allocators {
			res, err := stamp.Run(stamp.Config{App: app, Allocator: name, Threads: 8})
			if err != nil {
				t.Fatal(err)
			}
			s := res.Seconds
			if lo == 0 || s < lo {
				lo = s
			}
			if s > hi {
				hi = s
			}
		}
		if spread := (hi - lo) / lo; spread > 0.10 {
			t.Errorf("%s: allocator spread %.1f%% exceeds 10%%", app, spread*100)
		}
	}
}
