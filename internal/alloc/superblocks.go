package alloc

import (
	"repro/internal/mem"
	"repro/internal/vtime"
)

// Superblocks is what the two header-less superblock models, hoard and
// tbb, share: the big-block path that serves requests above the largest
// class straight from the simulated OS, one page-aligned region per
// block, and crash recovery.
//
// Neither model keeps in-band block headers: superblock identity is
// address alignment backed by journaled "superblock"/"sb-class"
// records, so the only durable metadata that can tear is the free-list
// link word at the head of each freed block. The volatile split of a
// superblock's free blocks (hoard's local caches, tbb's private and
// public lists) is gone with the crash; recovery merges them into one
// canonical chain per superblock, which the next owner drains.
// Direct-mapped big blocks never appear freed (their free unmaps them).
type Superblocks struct {
	space *mem.Space
	mask  mem.Addr            // superblock alignment - 1
	big   map[mem.Addr]uint64 // direct maps: user addr -> region size
}

// NewSuperblocks returns the shared state of a model whose superblocks
// are align-aligned.
func NewSuperblocks(space *mem.Space, align uint64) Superblocks {
	return Superblocks{space: space, mask: mem.Addr(align - 1), big: make(map[mem.Addr]uint64)}
}

// MapBig maps a region for a size-byte request and returns its base and
// size, or 0 when the simulated OS refuses.
func (s *Superblocks) MapBig(th *vtime.Thread, st *ThreadStats, size uint64) (mem.Addr, uint64) {
	region := mem.AlignUp(size, mem.PageSize)
	base, err := s.space.Map(region, mem.PageSize)
	if err != nil {
		return 0, 0
	}
	st.OSMaps++
	th.Tick(th.Cost().OSMap)
	s.big[base] = region
	return base, region
}

// FreeBig unmaps addr if it is a big block and returns its region size;
// 0 means addr is not one.
func (s *Superblocks) FreeBig(th *vtime.Thread, addr mem.Addr) uint64 {
	region, ok := s.big[addr]
	if !ok {
		return 0
	}
	delete(s.big, addr)
	th.Tick(th.Cost().OSMap)
	if err := s.space.Unmap(addr); err != nil {
		panic(err)
	}
	return region
}

// BigSize returns the region size of the big block at addr, or 0.
func (s *Superblocks) BigSize(addr mem.Addr) uint64 { return s.big[addr] }

// BigReserved returns the bytes mapped for big blocks.
func (s *Superblocks) BigReserved() uint64 {
	var n uint64
	for _, region := range s.big {
		n += region
	}
	return n
}

// RecoverHeap is the Model.RecoverHeap of the models that embed
// Superblocks: one canonical chain per superblock, the aligned region
// containing each freed block.
func (s *Superblocks) RecoverHeap(th *vtime.Thread, st *RecoverState) RecoverReport {
	return RebuildFreeLists(th, st, 0, func(b RecordedBlock) (uint64, bool) {
		return uint64(b.Base &^ s.mask), true
	})
}
