package stamp

import (
	"repro/internal/alloc"
	"repro/internal/mem"
	"repro/internal/stm"
	"repro/internal/vtime"
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

// profAlloc wraps the system allocator and attributes each operation to
// a region. The engine serializes execution, so plain counters suffice.
type profAlloc struct {
	alloc.Allocator
	stm      *stm.STM
	parallel bool
	p        Profile
	// quarantined holds blocks already counted as tx frees via
	// NoteTxFree; their allocator-level Free arrives later from the
	// STM's quarantine release and must not be counted again.
	quarantined map[mem.Addr]struct{}
}

func newProfAlloc(base alloc.Allocator) *profAlloc {
	return &profAlloc{Allocator: base}
}

func (pa *profAlloc) region(th *vtime.Thread) Region {
	if !pa.parallel {
		return RegionSeq
	}
	if pa.stm != nil && pa.stm.InTx(th.ID()) {
		return RegionTx
	}
	return RegionPar
}

// Malloc implements alloc.Allocator.
func (pa *profAlloc) Malloc(th *vtime.Thread, size uint64) mem.Addr {
	r := pa.region(th)
	pa.p.Mallocs[r]++
	pa.p.Bytes[r] += size
	pa.p.Counts[r][Bucket(size)]++
	return pa.Allocator.Malloc(th, size)
}

// Free implements alloc.Allocator.
func (pa *profAlloc) Free(th *vtime.Thread, addr mem.Addr) {
	if _, ok := pa.quarantined[addr]; ok {
		delete(pa.quarantined, addr)
	} else {
		pa.p.Frees[pa.region(th)]++
	}
	pa.Allocator.Free(th, addr)
}

// NoteTxFree implements stm.TxFreeNoter: a transactionally issued free
// is attributed to the tx region when it commits, not when the
// quarantine eventually releases the block.
func (pa *profAlloc) NoteTxFree(addr mem.Addr) {
	pa.p.Frees[RegionTx]++
	if pa.quarantined == nil {
		pa.quarantined = map[mem.Addr]struct{}{}
	}
	pa.quarantined[addr] = struct{}{}
}

func (pa *profAlloc) profile() *Profile {
	p := pa.p
	return &p
}
