package alloc_test

import (
	"testing"

	"repro/internal/alloc"
	_ "repro/internal/alloc/glibc"
	_ "repro/internal/alloc/hoard"
	_ "repro/internal/alloc/tbb"
	_ "repro/internal/alloc/tcmalloc"
	"repro/internal/mem"
	"repro/internal/vtime"
)

// sizePatterns are the request sizes successive malloc/free pairs cycle
// through: one small class, and a mix from the smallest classes to a
// 1 KiB block.
var sizePatterns = []struct {
	name  string
	sizes []uint64
}{
	{"fixed16", []uint64{16}},
	{"mixed", []uint64{16, 48, 128, 1024}},
}

// warmPairs is how many pairs run before anything is measured: enough
// to map every page and fill every per-thread cache the pattern uses.
const warmPairs = 10_000

// newPairs builds the named model over a fresh space for one solo
// thread and returns a function that runs n malloc/free pairs on it,
// each freeing the block it just got, cycling through sizes.
func newPairs(name string, sizes []uint64) func(n int) {
	space := mem.NewSpace()
	a := alloc.MustNew(name, space, 1)
	th := vtime.Solo(space, 0, nil)
	i := 0
	return func(n int) {
		for ; n > 0; n-- {
			a.Free(th, a.Malloc(th, sizes[i%len(sizes)]))
			i++
		}
	}
}

// BenchmarkMallocFree measures one Malloc and the Free of its block
// (one op is one pair) through each registered model's front end, after
// warmPairs pairs, at a fixed 16-byte size and over the mixed cycle.
func BenchmarkMallocFree(b *testing.B) {
	for _, name := range alloc.Names() {
		for _, p := range sizePatterns {
			b.Run(name+"/"+p.name, func(b *testing.B) {
				run := newPairs(name, p.sizes)
				run(warmPairs)
				b.ReportAllocs()
				b.ResetTimer()
				run(b.N)
			})
		}
	}
}

// TestMallocFreeAllocBudget pins a warmed-up malloc/free pair at zero
// host allocations for every model and both size patterns: the models
// keep their metadata in maps and slices that the warm-up has grown,
// and every allocation of a simulated run goes through this path.
func TestMallocFreeAllocBudget(t *testing.T) {
	for _, name := range alloc.Names() {
		for _, p := range sizePatterns {
			t.Run(name+"/"+p.name, func(t *testing.T) {
				run := newPairs(name, p.sizes)
				run(warmPairs)
				if avg := testing.AllocsPerRun(100, func() { run(len(p.sizes)) }); avg > 0 {
					t.Errorf("%.2f host allocations per %d malloc/free pairs, want 0", avg, len(p.sizes))
				}
			})
		}
	}
}
