// Package genome ports STAMP's genome: gene sequencing by segment
// deduplication and overlap matching. A random gene is sampled into
// overlapping segments (with duplicates); phase 1 deduplicates segments
// through a transactional hash table, phase 2 matches each unique
// segment's suffix against other segments' prefixes and links them, and
// phase 3 (sequential) walks the chain to rebuild the gene, which is
// validated against the original.
//
// As in the paper's Table 5 characterization, the transactional phases
// allocate only 16-byte nodes (the hash-chain records), and the
// allocator's block spacing for those nodes is exactly the Glibc
// locality effect the paper discusses for this application (§6: high
// last-level miss ratios with Glibc at low thread counts).
package genome

import (
	"bytes"
	"fmt"

	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/stamp"
	"repro/internal/stm"
	"repro/internal/vtime"
)

func init() {
	stamp.Register("genome", func() stamp.App { return &Genome{} })
}

// Genome is the application state.
type Genome struct {
	geneLen int
	segLen  int
	stride  int // segment sampling stride; overlap = segLen - stride
	nDups   int // duplicate segments mixed into the pool

	gene     []byte     // host-side copy for validation
	geneAddr mem.Addr   // gene bytes in simulated memory
	segs     []mem.Addr // segment pool: addresses of segment starts (gene windows)
	segPos   []int      // gene position per pool entry
	nUnique  int

	// Phase-1 output: unique segment table.
	dedupBuckets mem.Addr
	nDedup       uint64

	// Phase-2 tables: prefix-hash -> segment index, and chain links.
	prefBuckets mem.Addr
	nPref       uint64
	linkNext    mem.Addr // per unique segment: next segment index + 1
	linkPrev    mem.Addr // per unique segment: has-predecessor flag

	phase1Done *vtime.Barrier
	phase2aEnd *vtime.Barrier

	rebuilt []byte
}

// Name implements stamp.App.
func (g *Genome) Name() string { return "genome" }

func (g *Genome) params(s stamp.Scale) {
	switch s {
	case stamp.Ref:
		g.geneLen, g.segLen, g.stride, g.nDups = 16384, 32, 8, 8192
	default:
		g.geneLen, g.segLen, g.stride, g.nDups = 1024, 16, 4, 256
	}
}

// Setup implements stamp.App: generates the gene, writes it to
// simulated memory, and builds the segment pool (sequential phase).
func (g *Genome) Setup(w *stamp.World) {
	g.params(w.Scale)
	g.phase1Done = vtime.NewBarrier(w.Threads)
	g.phase2aEnd = vtime.NewBarrier(w.Threads)
	w.Seq(func(th *vtime.Thread) {
		defer w.Prof.Region(th, "genome/setup")()
		rng := sim.NewRand(w.Seed)
		g.gene = make([]byte, g.geneLen)
		for i := range g.gene {
			g.gene[i] = "acgt"[rng.Intn(4)]
		}
		g.geneAddr = w.Malloc(th, uint64(g.geneLen))
		w.Space.WriteBytes(g.geneAddr, g.gene)
		th.Tick(uint64(g.geneLen)) // pricing the bulk write

		// Segment pool: every stride-aligned window once (so the gene is
		// reconstructible), plus random duplicates.
		for pos := 0; pos+g.segLen <= g.geneLen; pos += g.stride {
			g.segs = append(g.segs, g.geneAddr+mem.Addr(pos))
			g.segPos = append(g.segPos, pos)
		}
		g.nUnique = len(g.segs)
		for i := 0; i < g.nDups; i++ {
			j := rng.Intn(g.nUnique)
			g.segs = append(g.segs, g.segs[j])
			g.segPos = append(g.segPos, g.segPos[j])
		}
		// Shuffle the pool.
		for i := len(g.segs) - 1; i > 0; i-- {
			j := rng.Intn(i + 1)
			g.segs[i], g.segs[j] = g.segs[j], g.segs[i]
			g.segPos[i], g.segPos[j] = g.segPos[j], g.segPos[i]
		}

		// Hash tables and link arrays (bucket arrays are seq
		// allocations; chain nodes are allocated inside transactions).
		g.nDedup = nextPow2(uint64(4 * g.nUnique))
		g.dedupBuckets = w.Calloc(th, g.nDedup*8)
		g.nPref = nextPow2(uint64(4 * g.nUnique))
		g.prefBuckets = w.Calloc(th, g.nPref*8)
		g.linkNext = w.Calloc(th, uint64(g.nUnique)*8)
		g.linkPrev = w.Calloc(th, uint64(g.nUnique)*8)
	})
}

func nextPow2(v uint64) uint64 {
	p := uint64(1)
	for p < v {
		p *= 2
	}
	return p
}

// segHash FNV-hashes l bytes of simulated memory at a, reading word by
// word through the priced accessor.
func segHash(th *vtime.Thread, a mem.Addr, l int) uint64 {
	h := uint64(1469598103934665603)
	for i := 0; i < l; i++ {
		addr := a + mem.Addr(i)
		w := th.Load(addr &^ 7)
		b := byte(w >> ((uint64(addr) & 7) * 8))
		h = (h ^ uint64(b)) * 1099511628211
	}
	return h
}

// chain node layout: {packed word, next}. The packed word carries the
// 44-bit hash tag and 20-bit payload so the node stays 16 bytes, the
// only transactional allocation size in genome (Table 5).
const chainNodeSize = 16

func packEntry(hash uint64, payload int) uint64 {
	return (hash << 20) | uint64(payload)&0xfffff
}

// chainInsert inserts (hash, payload) into the bucket chain unless an
// equal packed entry exists; returns false on duplicate.
func chainInsert(tx *stm.Tx, buckets mem.Addr, nb uint64, hash uint64, payload int) bool {
	b := buckets + mem.Addr((hash&(nb-1))*8)
	packed := packEntry(hash, payload)
	head := mem.Addr(tx.Load(b))
	for cur := head; cur != 0; cur = mem.Addr(tx.Load(cur + 8)) {
		if tx.Load(cur) == packed {
			return false
		}
	}
	n := tx.Malloc(chainNodeSize)
	tx.Store(n, packed)
	tx.Store(n+8, uint64(head))
	tx.Store(b, uint64(n))
	return true
}

// chainLookupAny returns some payload whose entry matches hash's tag
// bits, or -1.
func chainLookupAny(tx *stm.Tx, buckets mem.Addr, nb uint64, hash uint64) int {
	b := buckets + mem.Addr((hash&(nb-1))*8)
	tag := hash & ((uint64(1) << 44) - 1)
	for cur := mem.Addr(tx.Load(b)); cur != 0; cur = mem.Addr(tx.Load(cur + 8)) {
		v := tx.Load(cur)
		if v>>20 == tag {
			return int(v & 0xfffff)
		}
	}
	return -1
}

// Parallel implements stamp.App.
func (g *Genome) Parallel(w *stamp.World, th *vtime.Thread) {
	defer w.Prof.Region(th, "genome/parallel")()
	nPool := len(g.segs)
	lo := th.ID() * nPool / w.Threads
	hi := (th.ID() + 1) * nPool / w.Threads

	// Phase 1: deduplicate segments. Payload is the gene position /
	// stride (the unique segment id).
	for i := lo; i < hi; i++ {
		id := g.segPos[i] / g.stride
		a := g.segs[i]
		h := segHash(th, a, g.segLen)
		w.Atomic(th, func(tx *stm.Tx) {
			chainInsert(tx, g.dedupBuckets, g.nDedup, h, id)
		})
	}
	g.phase1Done.Wait(th)

	// Phase 2a: publish each unique segment under its prefix hash
	// (prefix length = overlap = segLen - stride).
	overlap := g.segLen - g.stride
	nu := g.nUnique
	ulo := th.ID() * nu / w.Threads
	uhi := (th.ID() + 1) * nu / w.Threads
	for id := ulo; id < uhi; id++ {
		pos := id * g.stride
		h := segHash(th, g.geneAddr+mem.Addr(pos), overlap)
		w.Atomic(th, func(tx *stm.Tx) {
			chainInsert(tx, g.prefBuckets, g.nPref, h, id)
		})
	}
	g.phase2aEnd.Wait(th)

	// Phase 2b: for each unique segment, find the successor whose
	// prefix equals this segment's suffix and link them.
	for id := ulo; id < uhi; id++ {
		pos := id * g.stride
		if pos+g.stride+g.segLen > g.geneLen {
			continue // last segment has no successor
		}
		h := segHash(th, g.geneAddr+mem.Addr(pos+g.stride), overlap)
		w.Atomic(th, func(tx *stm.Tx) {
			succ := chainLookupAny(tx, g.prefBuckets, g.nPref, h)
			if succ < 0 {
				return
			}
			tx.Store(g.linkNext+mem.Addr(id*8), uint64(succ)+1)
			tx.Store(g.linkPrev+mem.Addr(succ*8), 1)
		})
	}
}

// Validate implements stamp.App: rebuild the gene from the chain and
// compare with the original.
func (g *Genome) Validate(w *stamp.World) error {
	th := vtime.Solo(w.Space, 0, nil)
	// Find the chain start: the unique segment with no predecessor.
	start := -1
	for id := 0; id < g.nUnique; id++ {
		if th.Space().Load(g.linkPrev+mem.Addr(id*8)) == 0 {
			if start >= 0 {
				return fmt.Errorf("multiple chain starts: %d and %d", start, id)
			}
			start = id
		}
	}
	if start != 0 {
		return fmt.Errorf("chain start = %d, want 0", start)
	}
	var out []byte
	id := start
	seen := 0
	for {
		pos := id * g.stride
		seg := w.Space.ReadBytes(g.geneAddr+mem.Addr(pos), g.segLen)
		if len(out) == 0 {
			out = append(out, seg...)
		} else {
			out = append(out, seg[g.segLen-g.stride:]...)
		}
		seen++
		if seen > g.nUnique {
			return fmt.Errorf("chain cycle detected")
		}
		nxt := th.Space().Load(g.linkNext + mem.Addr(id*8))
		if nxt == 0 {
			break
		}
		id = int(nxt) - 1
	}
	if seen != g.nUnique {
		return fmt.Errorf("chain covers %d segments, want %d", seen, g.nUnique)
	}
	if !bytes.Equal(out, g.gene[:len(out)]) {
		return fmt.Errorf("rebuilt gene mismatches original")
	}
	if len(out) < g.geneLen-g.stride {
		return fmt.Errorf("rebuilt gene too short: %d of %d", len(out), g.geneLen)
	}
	g.rebuilt = out
	return nil
}
