// Transaction-object pooling: the first-class API grown out of the
// paper's §6.2 thread-local cache. The paper observed that objects
// allocated by aborted transactions and freed by committed ones can be
// recycled thread-locally instead of round-tripping through the system
// allocator; this file generalizes that seam into selectable
// disciplines modelled on the multiversioning reproduction's
// ActionMemoryPool (pool-and-reuse) and BatchActionAllocator (bulk
// allocation), so the design space — per-tx malloc vs. cache vs.
// eager pool vs. slab batching — can be swept like any other axis.
package stm

import (
	"fmt"
	"slices"

	"repro/internal/mem"
	"repro/internal/vtime"
)

// Pooling selects the transactional-allocation recycling discipline.
type Pooling int

// Pooling disciplines.
const (
	// PoolNone: every transactional allocation and free goes to the
	// system allocator (frees via the epoch quarantine) — the paper's
	// baseline. Runs with PoolNone are byte-identical to runs that
	// predate the pooling API.
	PoolNone Pooling = iota
	// PoolCache: the paper's §6.2 thread-local transaction-object
	// cache — only blocks recycled out of transactional churn (aborted
	// allocations, committed frees) are reused; a cold cache falls
	// through to the system allocator one object at a time. "cache" is
	// the documented alias for the paper's original behavior.
	PoolCache
	// PoolReuse ("pool"): ActionMemoryPool-style pool-and-reuse. Like
	// the cache, but a miss refills the pool with a contiguous run of
	// blocks in one step, so steady-state allocations always hit the
	// pool and reused neighbours stay cache-line-adjacent.
	PoolReuse
	// PoolBatch ("batch"): BatchActionAllocator-style bulk allocation.
	// A miss carves the block out of a slab obtained with a single
	// large system allocation; individual frees never reach the system
	// allocator (freed blocks recycle through the pool, and slabs are
	// never released).
	PoolBatch
)

func (p Pooling) String() string {
	switch p {
	case PoolNone:
		return "none"
	case PoolCache:
		return "cache"
	case PoolReuse:
		return "pool"
	case PoolBatch:
		return "batch"
	}
	return fmt.Sprintf("pooling(%d)", int(p))
}

// PoolingNames lists the accepted ParsePooling spellings.
func PoolingNames() []string { return []string{"none", "cache", "pool", "batch"} }

// ParsePooling maps a CLI spelling to a discipline. The empty string is
// PoolNone; "cache" selects the paper's original §6.2 behavior.
func ParsePooling(s string) (Pooling, error) {
	switch s {
	case "", "none":
		return PoolNone, nil
	case "cache":
		return PoolCache, nil
	case "pool":
		return PoolReuse, nil
	case "batch":
		return PoolBatch, nil
	}
	return PoolNone, fmt.Errorf("stm: unknown pooling discipline %q (known: %v)", s, PoolingNames())
}

// PoolStats counts one pool's traffic.
type PoolStats struct {
	Hits uint64 // allocations served from the pool
	// Misses counts empty recycle lists under PoolCache, empty refill
	// runs under PoolReuse (even when the refill then succeeds), and
	// failed slab mallocs under PoolBatch.
	Misses    uint64
	Returns   uint64 // blocks parked in the pool by commit/abort paths
	Refills   uint64 // blocks obtained from the system allocator to restock
	Slabs     uint64 // slabs carved (PoolBatch)
	SlabBytes uint64 // bytes reserved in slabs (PoolBatch)
	Held      uint64 // blocks currently parked
}

// Add accumulates o into s (for summing per-thread pools).
func (s *PoolStats) Add(o PoolStats) {
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.Returns += o.Returns
	s.Refills += o.Refills
	s.Slabs += o.Slabs
	s.SlabBytes += o.SlabBytes
	s.Held += o.Held
}

// TxPool is one thread's transaction-object recycler, consulted by
// Tx.Malloc before the system allocator and handed every block leaving
// a transaction — allocated by an aborted one, or freed by a committed
// one. Every discipline parks returned blocks on a per-size LIFO
// recycle list and serves Get from it first; they differ only in what
// an empty list does:
//
//   - PoolCache counts a miss, and the caller asks the system
//     allocator;
//   - PoolReuse hands out the next block of a refill run, allocating a
//     run of poolRefillRun blocks when none is left;
//   - PoolBatch carves the block out of a batchSlabObjs-object slab.
//
// A pool runs on its owning simulated thread only (the engine
// serializes execution) and prices its work through that thread's cost
// model.
type TxPool struct {
	discipline Pooling
	recycled   map[uint64][]mem.Addr // request size -> returned blocks (LIFO)
	fresh      map[uint64][]mem.Addr // PoolReuse: refill blocks not yet handed out
	cursors    map[uint64]slabCursor // PoolBatch: request size -> current slab
	stats      PoolStats
}

// NewTxPool builds a pool for a discipline (nil for PoolNone: the
// baseline discipline is the absence of a pool).
func NewTxPool(d Pooling) *TxPool {
	if d == PoolNone {
		return nil
	}
	p := &TxPool{discipline: d, recycled: map[uint64][]mem.Addr{}}
	switch d {
	case PoolReuse:
		p.fresh = map[uint64][]mem.Addr{}
	case PoolBatch:
		p.cursors = map[uint64]slabCursor{}
	}
	return p
}

// poolRefillRun is how many blocks a PoolReuse refill allocates at
// once. A run of back-to-back allocations lands the blocks
// contiguously, so later pool hits walk adjacent lines instead of
// whatever placement the demand-paced cache accreted.
const poolRefillRun = 8

// batchSlabObjs is how many objects one PoolBatch slab reserves.
const batchSlabObjs = 64

// slabCursor tracks the carve position inside the current slab for one
// request size.
type slabCursor struct {
	next mem.Addr // next sub-block to hand out
	end  mem.Addr // one past the slab's last sub-block
}

// batchStride is the carve step: the request size rounded to whole
// words so sub-blocks never share a word.
func batchStride(size uint64) uint64 { return (size + 7) &^ 7 }

// Get serves a transactional allocation of the given request size,
// returning 0 when the caller must ask the system allocator.
func (p *TxPool) Get(tx *Tx, size uint64) mem.Addr {
	if lst := p.recycled[size]; len(lst) > 0 {
		a := lst[len(lst)-1]
		p.recycled[size] = lst[:len(lst)-1]
		p.stats.Held--
		p.serve(tx)
		if p.discipline != PoolBatch {
			tx.sanMarkReused(a)
		}
		return a
	}
	switch p.discipline {
	case PoolReuse:
		return p.nextFresh(tx, size)
	case PoolBatch:
		return p.carve(tx, size)
	}
	p.stats.Misses++
	return 0
}

// serve counts a block handed out and prices the pool operation.
func (p *TxPool) serve(tx *Tx) {
	p.stats.Hits++
	tx.stats.CacheHits++
	tx.th.Tick(tx.th.Cost().AllocOp)
}

// nextFresh pops the size's refill run, allocating a new run when it is
// empty. An OOM cuts the run short; an empty run falls through to the
// system allocator. Refill blocks come straight from the allocator, so
// the observers already saw them allocated.
func (p *TxPool) nextFresh(tx *Tx, size uint64) mem.Addr {
	lst := p.fresh[size]
	if len(lst) == 0 {
		p.stats.Misses++
		for i := 0; i < poolRefillRun; i++ {
			a := tx.stm.allocator.Malloc(tx.th, size)
			if a == 0 {
				break
			}
			lst = append(lst, a)
			p.stats.Refills++
			p.stats.Held++
		}
		if len(lst) == 0 {
			return 0
		}
		// Reverse so pops hand the run out in allocation order.
		slices.Reverse(lst)
	}
	a := lst[len(lst)-1]
	p.fresh[size] = lst[:len(lst)-1]
	p.stats.Held--
	p.serve(tx)
	return a
}

// carve hands out the next sub-block of the size's slab, allocating a
// new slab with one system malloc when the current one is used up.
// Slabs are never released.
func (p *TxPool) carve(tx *Tx, size uint64) mem.Addr {
	stride := batchStride(size)
	cur := p.cursors[size]
	if cur.next >= cur.end {
		base := tx.stm.allocator.Malloc(tx.th, stride*batchSlabObjs)
		if base == 0 {
			p.stats.Misses++
			return 0
		}
		cur = slabCursor{next: base, end: base + mem.Addr(stride*batchSlabObjs)}
		p.stats.Slabs++
		p.stats.SlabBytes += stride * batchSlabObjs
	}
	a := cur.next
	cur.next += mem.Addr(stride)
	p.cursors[size] = cur
	p.serve(tx)
	return a
}

// Put parks a block leaving a transaction on the recycle list for its
// request size. A PoolBatch sub-block stays invisible to the
// block-granularity observers (shadow map, heap watcher): the allocator
// only ever handed out its slab, so marking one sub-block freed would
// poison the whole slab — the first sub-block even shares its base
// address — and every live neighbor would misread as use-after-free.
func (p *TxPool) Put(tx *Tx, addr mem.Addr, size uint64) {
	if p.discipline != PoolBatch {
		tx.sanMarkFreed(addr)
	}
	p.recycled[size] = append(p.recycled[size], addr)
	p.stats.Returns++
	p.stats.Held++
	tx.stats.CacheReturns++
	tx.th.Tick(tx.th.Cost().AllocOp)
}

// FreePrivatized frees, outside any transaction, a block of the given
// request size that a transaction allocated and a committed one has
// since privatized (intruder's completed flows). Under PoolBatch the
// block is a slab sub-block the allocator never handed out, so it goes
// back into th's pool, as it would from a transactional free; every
// other discipline frees it to the system allocator.
func (s *STM) FreePrivatized(th *vtime.Thread, a mem.Addr, size uint64) {
	if s.pooling == PoolBatch {
		tx := s.TxFor(th)
		tx.pool.Put(tx, a, size)
		return
	}
	s.allocator.Free(th, a)
}
