// Package mem implements a simulated 64-bit address space.
//
// The package stands in for the process address space and the operating
// system's memory-mapping facility of the original study: allocators
// obtain aligned regions from a Space (the mmap analogue) and carve them
// into blocks, and the STM reads and writes 8-byte words at simulated
// addresses. Because every 64 KiB simulated page is backed by one
// contiguous Go array, adjacency of simulated addresses is adjacency in
// host memory, so the host's cache locality follows an allocator's
// placement decisions; cache-line false sharing between simulated cores
// is what the trace-driven cache model prices.
//
// A Space has one owner, the goroutine that runs its world: simulated
// threads are coroutines on that goroutine, so loads, stores and region
// changes need no host synchronization.
package mem

import (
	"errors"
	"fmt"
	"slices"
	"sort"
)

// ErrNoMemory is the simulated out-of-memory condition: a Map request
// exceeded the space's byte quota or exhausted the address space.
// Callers that model real allocators propagate it as a failed malloc
// (returning 0) rather than crashing, so workloads can degrade
// gracefully under memory pressure.
var ErrNoMemory = errors.New("mem: no memory")

// Addr is a byte address in the simulated address space.
type Addr uint64

// Word and page geometry. Pages are 64 KiB: large enough that a cache
// line (64 B) never spans two backing arrays, small enough that lazily
// backing sparse regions stays cheap.
const (
	WordSize  = 8
	PageShift = 16
	PageSize  = 1 << PageShift
	PageWords = PageSize / WordSize
	pageMask  = PageSize - 1
)

// Address-space geometry: a two-level radix table over page numbers.
// Supports addresses up to 2^(16+11+11) = 2^38 (256 GiB), far beyond any
// workload in this repository.
const (
	l1Bits    = 11
	l2Bits    = 11
	l1Size    = 1 << l1Bits
	l2Size    = 1 << l2Bits
	l2Mask    = l2Size - 1
	MaxAddr   = Addr(1) << (PageShift + l1Bits + l2Bits)
	startBase = Addr(1) << 28 // regions are handed out from 256 MiB up
)

// Fault describes an access to an address outside any mapped region.
// Faults indicate a bug in an allocator or application and are raised as
// panics, mirroring a segmentation fault.
type Fault struct {
	Addr  Addr
	Write bool
}

func (f Fault) Error() string {
	kind := "load"
	if f.Write {
		kind = "store"
	}
	return fmt.Sprintf("mem: fault: %s at unmapped address %#x", kind, uint64(f.Addr))
}

type page struct {
	words [PageWords]uint64
}

type l2table struct {
	pages [l2Size]*page
}

// Region describes one mapped region of the address space.
type Region struct {
	Base Addr
	Size uint64
}

// End returns the first address past the region.
func (r Region) End() Addr { return r.Base + Addr(r.Size) }

// Contains reports whether a lies inside the region.
func (r Region) Contains(a Addr) bool { return a >= r.Base && a < r.End() }

// Stats reports address-space usage counters.
type Stats struct {
	MapCalls       uint64 // number of Map invocations (the "mmap count")
	UnmapCalls     uint64
	ReservedBytes  uint64 // currently mapped (reserved) bytes
	CommittedBytes uint64 // bytes with physical (Go-slice) backing
	PeakReserved   uint64
}

// Space is a simulated address space. The zero value is not usable; call
// NewSpace.
type Space struct {
	l1 [l1Size]*l2table

	next    Addr
	quota   uint64   // reserved-byte ceiling; 0 = unlimited
	regions []Region // sorted by Base: Map appends bases at or above next, which only rises
	stats   Stats

	// shadow is the sanitizer's word-granularity shadow map, nil unless
	// sanitizer mode is on (see shadow.go). Set via EnableSanitizer
	// before the first allocation (core.NewSystem, when the policy asks).
	shadow *Shadow

	// ptrack is the durable-memory tracker, nil unless a pmem instance
	// is attached (see persist.go). Set via SetPersistTracker before the
	// space is shared across sim threads.
	ptrack PersistTracker

	// watchers are the block-lifecycle observers in attach order: the
	// shadow map and persist tracker when present, plus everything
	// attached with Watch (see watch.go).
	watchers []HeapWatcher
}

// NewSpace returns an empty address space with no shadow map; see
// EnableSanitizer.
func NewSpace() *Space {
	return &Space{next: startBase}
}

// Map reserves a region of size bytes whose base address is a multiple
// of align (align must be a power of two, or zero for page alignment).
// The region is zero-filled and backed lazily on first store. Map is the
// simulator's mmap.
func (s *Space) Map(size, align uint64) (Addr, error) {
	if size == 0 {
		return 0, fmt.Errorf("mem: Map: zero size")
	}
	if align == 0 {
		align = PageSize
	}
	if align&(align-1) != 0 {
		return 0, fmt.Errorf("mem: Map: alignment %d is not a power of two", align)
	}
	if align < PageSize {
		align = PageSize
	}
	size = (size + pageMask) &^ uint64(pageMask)

	if s.quota != 0 && s.stats.ReservedBytes+size > s.quota {
		return 0, fmt.Errorf("mem: Map: %d bytes requested over a %d-byte quota with %d reserved: %w",
			size, s.quota, s.stats.ReservedBytes, ErrNoMemory)
	}
	base := (s.next + Addr(align-1)) &^ Addr(align-1)
	// Leave one unmapped guard page after every region so that linear
	// overruns fault instead of silently corrupting a neighbour.
	next := base + Addr(size) + PageSize
	if next >= MaxAddr {
		return 0, fmt.Errorf("mem: Map: address space exhausted (%d bytes requested): %w", size, ErrNoMemory)
	}
	s.next = next
	s.regions = append(s.regions, Region{Base: base, Size: size})

	s.stats.MapCalls++
	s.stats.ReservedBytes += size
	s.stats.PeakReserved = max(s.stats.PeakReserved, s.stats.ReservedBytes)
	return base, nil
}

// MustMap is Map but panics on failure. It is reserved for internal
// invariants — regions that must exist for the simulation itself to be
// coherent (the STM's ORT, experiment scaffolding) — where a failure
// indicates a harness bug. Allocator models use Map and surface
// ErrNoMemory as a failed malloc instead.
func (s *Space) MustMap(size, align uint64) Addr {
	a, err := s.Map(size, align)
	if err != nil {
		panic(err)
	}
	return a
}

// SetQuota caps the space's reserved bytes: a Map that would push the
// total past quota fails with ErrNoMemory. Zero removes the cap. The
// quota models address-space exhaustion and memory pressure; it is not
// retroactive (already-mapped regions stay mapped).
func (s *Space) SetQuota(quota uint64) { s.quota = quota }

// Unmap releases the region with the given base address (as returned by
// Map) and drops its backing pages. Accessing the region afterwards
// faults.
func (s *Space) Unmap(base Addr) error {
	idx := slices.IndexFunc(s.regions, func(r Region) bool { return r.Base == base })
	if idx < 0 {
		return fmt.Errorf("mem: Unmap: %#x is not a mapped region base", uint64(base))
	}
	r := s.regions[idx]
	s.regions = slices.Delete(s.regions, idx, idx+1)

	// Drop backing pages.
	for a := r.Base; a < r.End(); a += PageSize {
		pn := uint64(a) >> PageShift
		if t := s.l1[pn>>l2Bits]; t != nil && t.pages[pn&l2Mask] != nil {
			t.pages[pn&l2Mask] = nil
			s.stats.CommittedBytes -= PageSize
		}
	}
	s.stats.UnmapCalls++
	s.stats.ReservedBytes -= r.Size
	if s.ptrack != nil {
		s.ptrack.OnUnmap(r.Base, r.Size)
	}
	return nil
}

// RegionOf returns the mapped region containing a, if any.
func (s *Space) RegionOf(a Addr) (Region, bool) {
	regions := s.regions
	i := sort.Search(len(regions), func(i int) bool { return regions[i].End() > a })
	if i < len(regions) && regions[i].Contains(a) {
		return regions[i], true
	}
	return Region{}, false
}

func (s *Space) pageFor(a Addr) *page {
	pn := uint64(a) >> PageShift
	t := s.l1[(pn>>l2Bits)&(l1Size-1)]
	if t == nil {
		return nil
	}
	return t.pages[pn&l2Mask]
}

// ensurePage returns the backing page for a, creating it if a lies in a
// mapped region, or nil otherwise.
func (s *Space) ensurePage(a Addr) *page {
	if p := s.pageFor(a); p != nil {
		return p
	}
	if _, ok := s.RegionOf(a); !ok {
		return nil
	}
	pn := uint64(a) >> PageShift
	l1i := (pn >> l2Bits) & (l1Size - 1)
	t := s.l1[l1i]
	if t == nil {
		t = new(l2table)
		s.l1[l1i] = t
	}
	p := new(page)
	t.pages[pn&l2Mask] = p
	s.stats.CommittedBytes += PageSize
	return p
}

// Load returns the 8-byte word at address a. The three low bits of a are
// ignored (word accesses are word-aligned). Loading from a mapped but
// never-written page reads zero without committing backing storage.
func (s *Space) Load(a Addr) uint64 {
	p := s.pageFor(a)
	if p == nil {
		if _, ok := s.RegionOf(a); ok {
			return 0
		}
		panic(Fault{Addr: a})
	}
	return p.words[(uint64(a)&pageMask)>>3]
}

// Store writes the 8-byte word v at address a.
func (s *Space) Store(a Addr, v uint64) {
	p := s.ensurePage(a)
	if p == nil {
		panic(Fault{Addr: a, Write: true})
	}
	p.words[(uint64(a)&pageMask)>>3] = v
	if s.ptrack != nil {
		s.ptrack.OnStore(a)
	}
}

// CompareAndSwap replaces the word at a with new if it equals old,
// reporting whether the swap happened.
func (s *Space) CompareAndSwap(a Addr, old, new uint64) bool {
	p := s.ensurePage(a)
	if p == nil {
		panic(Fault{Addr: a, Write: true})
	}
	w := &p.words[(uint64(a)&pageMask)>>3]
	if *w != old {
		return false
	}
	*w = new
	if s.ptrack != nil {
		s.ptrack.OnStore(a)
	}
	return true
}

// Stats returns current usage counters.
func (s *Space) Stats() Stats { return s.stats }

// AlignUp rounds v up to the next multiple of align (a power of two).
func AlignUp(v, align uint64) uint64 { return (v + align - 1) &^ (align - 1) }
