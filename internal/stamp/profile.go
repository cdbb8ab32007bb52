package stamp

import (
	"repro/internal/mem"
	"repro/internal/stm"
)

// Region classifies where an allocation was issued, as in the paper's
// Table 5: the sequential phase, the parallel region outside any
// transaction, or inside a transaction.
type Region int

// Allocation regions.
const (
	RegionSeq Region = iota
	RegionPar
	RegionTx
	regionCount
)

func (r Region) String() string {
	switch r {
	case RegionSeq:
		return "seq"
	case RegionPar:
		return "par"
	case RegionTx:
		return "tx"
	}
	return "?"
}

// SizeClassBuckets are Table 5's size-class columns; the last bucket is
// "> 256".
var SizeClassBuckets = []uint64{16, 32, 48, 64, 96, 128, 256}

// Profile is the Table 5 characterization: allocation counts per size
// class and region, plus totals.
type Profile struct {
	Counts  [regionCount][8]uint64 // [region][bucket]; bucket 7 = >256
	Mallocs [regionCount]uint64
	Frees   [regionCount]uint64
	Bytes   [regionCount]uint64 // total requested bytes
}

// Bucket maps a request size to its Table 5 column.
func Bucket(size uint64) int {
	for i, b := range SizeClassBuckets {
		if size <= b {
			return i
		}
	}
	return len(SizeClassBuckets)
}

// profiler is the Table 5 profile as a block watcher: stamp.Run
// attaches it to the world's space when Config.Profile is set, after
// every observer core.NewSystem attaches. A malloc counts its request
// size in the region that issued it. A free counts once, at the first
// note of a live block: a free noted inside a transaction is the STM's
// commit-time note of a deferred free (or a rollback's), and counts as
// tx whatever the phase, so the quarantine's later release of the block
// finds it dead. Under a pooling discipline an in-transaction note is a
// pool park the allocator never saw: it counts nothing and the block
// stays live. The engine serializes execution, so plain counters
// suffice.
type profiler struct {
	stm      *stm.STM
	parallel bool // the timed phase is running
	live     map[mem.Addr]struct{}
	p        Profile
}

// region is where thread tid issued an operation: seq outside the timed
// phase, inside it tx or par.
func (pr *profiler) region(tid int) Region {
	if !pr.parallel {
		return RegionSeq
	}
	if pr.stm.InTx(tid) {
		return RegionTx
	}
	return RegionPar
}

// OnHeapAlloc implements mem.HeapWatcher.
func (pr *profiler) OnHeapAlloc(_ string, base mem.Addr, req, _ uint64, tid int, _ uint64) {
	r := pr.region(tid)
	pr.p.Mallocs[r]++
	pr.p.Bytes[r] += req
	pr.p.Counts[r][Bucket(req)]++
	pr.live[base] = struct{}{}
}

// OnHeapFree implements mem.HeapWatcher.
func (pr *profiler) OnHeapFree(base mem.Addr, tid int, _ uint64) {
	if _, ok := pr.live[base]; !ok {
		return
	}
	r := RegionTx
	if !pr.stm.InTx(tid) {
		r = pr.region(tid)
	} else if pr.stm.Pooling() != stm.PoolNone {
		return
	}
	delete(pr.live, base)
	pr.p.Frees[r]++
}

// OnHeapReuse implements mem.HeapWatcher: a pool hit is neither a
// malloc nor a free.
func (pr *profiler) OnHeapReuse(mem.Addr, int, uint64) {}
