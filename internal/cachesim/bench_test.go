package cachesim

import (
	"math/rand"
	"testing"

	"repro/internal/mem"
)

// access is one entry of a fixed access stream.
type access struct {
	core  int
	addr  mem.Addr
	write bool
}

// l1HitStream is one core's transactional reads in the STM's load
// pattern: the word's ORT entry, the word, the ORT entry again. The
// 16 KiB data set and its ORT entries (one 8-byte entry per 32-byte
// stripe, the STM's default mapping) fit one L1 together.
func l1HitStream(n int) []access {
	const (
		ort  = base
		data = base + 16<<20
	)
	rng := rand.New(rand.NewSource(1))
	s := make([]access, 0, n)
	for len(s) < n {
		off := mem.Addr(rng.Intn(16<<10)) &^ 7
		ortA := ort + (off>>5)*8
		s = append(s, access{0, ortA, false}, access{0, data + off, false}, access{0, ortA, false})
	}
	return s[:n]
}

// missStream is eight cores reading and writing random words of a
// footprint-byte region.
func missStream(n, footprint int) []access {
	rng := rand.New(rand.NewSource(2))
	s := make([]access, n)
	for i := range s {
		s[i] = access{rng.Intn(DefaultCores), base + mem.Addr(rng.Intn(footprint))&^7, rng.Intn(5) == 0}
	}
	return s
}

// warm runs s once through h, so every line of s has its coherence
// record.
func warm(h *Hierarchy, s []access) {
	for _, a := range s {
		h.Access(a.core, a.addr, a.write)
	}
}

var sinkResult Result

// BenchmarkAccess measures Access per priced access (one op is one
// access) over two fixed-seed streams, cycled after one warm-up pass:
//   - l1hit: l1HitStream, which hits the L1 on every access;
//   - miss: eight cores over 32 MiB, larger than one socket's 6 MiB L2,
//     so most accesses miss both levels.
func BenchmarkAccess(b *testing.B) {
	for _, bc := range []struct {
		name   string
		stream []access
	}{
		{"l1hit", l1HitStream(1 << 16)},
		{"miss", missStream(1<<19, 32<<20)},
	} {
		b.Run(bc.name, func(b *testing.B) {
			h := New(DefaultCores)
			warm(h, bc.stream)
			mask := len(bc.stream) - 1
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				a := &bc.stream[i&mask]
				sinkResult = h.Access(a.core, a.addr, a.write)
			}
		})
	}
}

// TestSteadyStateAllocBudget pins Access at zero host allocations once
// the footprint has been touched: the L1-hit path and the miss path
// (evictions, coherence, the line map) reuse what the first pass built.
func TestSteadyStateAllocBudget(t *testing.T) {
	for _, tc := range []struct {
		name   string
		stream []access
	}{
		{"l1hit", l1HitStream(1 << 12)},
		{"miss", missStream(1<<12, 1<<20)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := New(DefaultCores)
			warm(h, tc.stream)
			if avg := testing.AllocsPerRun(10, func() { warm(h, tc.stream) }); avg > 0 {
				t.Errorf("Access over a touched footprint allocates %.1f objects per %d accesses, want 0", avg, len(tc.stream))
			}
		})
	}
}

// TestNewAllocBudget bounds the host allocations of building one
// hierarchy: every simulated world builds one, so a map presized for
// lines a short run never touches is paid in every cell.
func TestNewAllocBudget(t *testing.T) {
	const budget = 20
	if got := testing.AllocsPerRun(10, func() { New(DefaultCores) }); got > budget {
		t.Errorf("New(DefaultCores) allocated %.0f times, budget %d", got, budget)
	}
}
