package mem

import (
	"errors"
	"slices"
	"testing"
	"testing/quick"
)

func TestMapAlignment(t *testing.T) {
	s := NewSpace()
	for _, align := range []uint64{0, PageSize, 1 << 20, 1 << 26} {
		base, err := s.Map(PageSize, align)
		if err != nil {
			t.Fatalf("Map(align=%d): %v", align, err)
		}
		a := align
		if a == 0 {
			a = PageSize
		}
		if uint64(base)%a != 0 {
			t.Errorf("Map(align=%d) = %#x, not aligned", align, uint64(base))
		}
	}
}

func TestMapRejectsBadArgs(t *testing.T) {
	s := NewSpace()
	if _, err := s.Map(0, 0); err == nil {
		t.Error("Map(0, 0) succeeded, want error")
	}
	if _, err := s.Map(16, 3); err == nil {
		t.Error("Map with non-power-of-two alignment succeeded, want error")
	}
}

func TestLoadStoreRoundTrip(t *testing.T) {
	s := NewSpace()
	base := s.MustMap(4*PageSize, 0)
	for i := Addr(0); i < 4*PageSize; i += 8 {
		s.Store(base+i, uint64(i)*2654435761)
	}
	for i := Addr(0); i < 4*PageSize; i += 8 {
		if got, want := s.Load(base+i), uint64(i)*2654435761; got != want {
			t.Fatalf("Load(%#x) = %d, want %d", uint64(base+i), got, want)
		}
	}
}

func TestLoadOfUnwrittenMappedMemoryIsZero(t *testing.T) {
	s := NewSpace()
	base := s.MustMap(PageSize, 0)
	if got := s.Load(base + 128); got != 0 {
		t.Errorf("Load of never-written word = %d, want 0", got)
	}
	if st := s.Stats(); st.CommittedBytes != 0 {
		t.Errorf("zero-page load committed %d bytes, want 0", st.CommittedBytes)
	}
}

func TestFaults(t *testing.T) {
	s := NewSpace()
	base := s.MustMap(PageSize, 0)

	mustFault := func(name string, f func()) {
		t.Helper()
		defer func() {
			if r := recover(); r == nil {
				t.Errorf("%s: no fault raised", name)
			} else if _, ok := r.(Fault); !ok {
				t.Errorf("%s: panic %v is not a Fault", name, r)
			}
		}()
		f()
	}
	mustFault("load below region", func() { s.Load(base - 8) })
	mustFault("store past region (guard page)", func() { s.Store(base+PageSize, 1) })
	mustFault("load at 0", func() { s.Load(0) })
}

func TestUnmap(t *testing.T) {
	s := NewSpace()
	base := s.MustMap(2*PageSize, 0)
	s.Store(base, 42)
	if err := s.Unmap(base); err != nil {
		t.Fatalf("Unmap: %v", err)
	}
	if err := s.Unmap(base); err == nil {
		t.Error("second Unmap succeeded, want error")
	}
	func() {
		defer func() { recover() }()
		s.Load(base)
		t.Error("load after Unmap did not fault")
	}()
	if st := s.Stats(); st.ReservedBytes != 0 || st.CommittedBytes != 0 {
		t.Errorf("after Unmap: reserved=%d committed=%d, want 0/0", st.ReservedBytes, st.CommittedBytes)
	}
}

// TestRegionOf pins the region list RegionOf searches: Map appends to
// it and Unmap deletes in place, so it stays sorted by base across
// mixed alignments, an unmap in the middle and a quota rejection.
func TestRegionOf(t *testing.T) {
	s := NewSpace()
	var live []Region
	mapRegion := func(size, align uint64) {
		t.Helper()
		base, err := s.Map(size, align)
		if err != nil {
			t.Fatalf("Map(%d, %d): %v", size, align, err)
		}
		live = append(live, Region{Base: base, Size: AlignUp(size, PageSize)})
	}
	for _, align := range []uint64{0, 1 << 26, PageSize, 1 << 20} {
		mapRegion(2*PageSize, align)
	}
	gone := live[1]
	if err := s.Unmap(gone.Base); err != nil {
		t.Fatal(err)
	}
	live = slices.Delete(live, 1, 2)
	s.SetQuota(s.Stats().ReservedBytes + 4*PageSize)
	mapRegion(PageSize, 1<<20)
	if _, err := s.Map(4*PageSize, 0); !errors.Is(err, ErrNoMemory) {
		t.Fatalf("Map over quota: err = %v, want ErrNoMemory", err)
	}
	mapRegion(2*PageSize+1, 0)

	for _, r := range live {
		for _, a := range []Addr{r.Base, r.End() - 1} {
			if got, ok := s.RegionOf(a); !ok || got != r {
				t.Errorf("RegionOf(%#x) = %+v, %v; want %+v", uint64(a), got, ok, r)
			}
		}
		for _, a := range []Addr{r.End(), r.End() + PageSize - 1} {
			if got, ok := s.RegionOf(a); ok {
				t.Errorf("guard page byte %#x after %+v reported as mapped in %+v", uint64(a), r, got)
			}
		}
	}
	for _, a := range []Addr{gone.Base, gone.End() - 1} {
		if got, ok := s.RegionOf(a); ok {
			t.Errorf("unmapped %#x reported as mapped in %+v", uint64(a), got)
		}
		func() {
			defer func() {
				if _, ok := recover().(Fault); !ok {
					t.Errorf("Load(%#x) in an unmapped region did not fault", uint64(a))
				}
			}()
			s.Load(a)
		}()
	}
}

func TestGuardGapBetweenRegions(t *testing.T) {
	s := NewSpace()
	a := s.MustMap(PageSize, 0)
	b := s.MustMap(PageSize, 0)
	if b < a+2*PageSize {
		t.Errorf("regions not separated by a guard page: a=%#x b=%#x", uint64(a), uint64(b))
	}
}

func TestCompareAndSwap(t *testing.T) {
	s := NewSpace()
	base := s.MustMap(PageSize, 0)
	s.Store(base, 10)
	if !s.CompareAndSwap(base, 10, 20) {
		t.Error("CAS(10->20) failed")
	}
	if s.CompareAndSwap(base, 10, 30) {
		t.Error("CAS with stale old value succeeded")
	}
	if got := s.Load(base); got != 20 {
		t.Errorf("after CAS: %d, want 20", got)
	}
}

func TestBytesRoundTrip(t *testing.T) {
	s := NewSpace()
	base := s.MustMap(PageSize, 0)
	check := func(off Addr, p []byte) bool {
		off = off % (PageSize / 2)
		s.WriteBytes(base+off, p)
		got := s.ReadBytes(base+off, len(p))
		if len(got) != len(p) {
			return false
		}
		for i := range p {
			if got[i] != p[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestAlignHelpers(t *testing.T) {
	if AlignUp(0, 16) != 0 || AlignUp(1, 16) != 16 || AlignUp(16, 16) != 16 || AlignUp(17, 16) != 32 {
		t.Error("AlignUp wrong")
	}
}

func TestStatsAccounting(t *testing.T) {
	s := NewSpace()
	base := s.MustMap(4*PageSize, 0)
	st := s.Stats()
	if st.MapCalls != 1 || st.ReservedBytes != 4*PageSize {
		t.Errorf("after Map: %+v", st)
	}
	s.Store(base, 1)                // commits page 0
	s.Store(base+3*PageSize+8, 1)   // commits page 3
	s.Store(base+3*PageSize+128, 1) // same page, no new commit
	if st := s.Stats(); st.CommittedBytes != 2*PageSize {
		t.Errorf("committed = %d, want %d", st.CommittedBytes, 2*PageSize)
	}
}

func TestQuota(t *testing.T) {
	s := NewSpace()
	s.SetQuota(4 * PageSize)
	if _, err := s.Map(2*PageSize, 0); err != nil {
		t.Fatalf("within quota: %v", err)
	}
	if _, err := s.Map(4*PageSize, 0); !errors.Is(err, ErrNoMemory) {
		t.Fatalf("over quota: err = %v, want ErrNoMemory", err)
	}
	// Still below the cap: a smaller request succeeds.
	if _, err := s.Map(PageSize, 0); err != nil {
		t.Fatalf("after rejection: %v", err)
	}
	// Unmapping frees quota.
	base := s.MustMap(PageSize, 0)
	if _, err := s.Map(PageSize, 0); !errors.Is(err, ErrNoMemory) {
		t.Fatal("expected quota exhaustion")
	}
	if err := s.Unmap(base); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Map(PageSize, 0); err != nil {
		t.Fatalf("after unmap: %v", err)
	}
	// Lifting the quota removes the cap.
	s.SetQuota(0)
	if _, err := s.Map(64*PageSize, 0); err != nil {
		t.Fatalf("after lifting quota: %v", err)
	}
}

func TestMustMapPanicsOnQuota(t *testing.T) {
	s := NewSpace()
	s.SetQuota(PageSize)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("MustMap did not panic over quota")
		}
		if err, ok := r.(error); !ok || !errors.Is(err, ErrNoMemory) {
			t.Fatalf("panic value %v does not wrap ErrNoMemory", r)
		}
	}()
	s.MustMap(2*PageSize, 0)
}

// backedPage returns a space with one mapped, zero-filled page whose
// backing array exists, and the page's base.
func backedPage() (*Space, Addr) {
	s := NewSpace()
	base := s.MustMap(PageSize, 0)
	s.Store(base, 0)
	return s, base
}

var sinkWord uint64

// BenchmarkSpaceLoad measures Load per word over a backed page, cycling
// through its words.
func BenchmarkSpaceLoad(b *testing.B) {
	s, base := backedPage()
	b.ReportAllocs()
	b.ResetTimer()
	var sum uint64
	for i := 0; i < b.N; i++ {
		sum += s.Load(base + Addr(i%PageWords)*WordSize)
	}
	sinkWord = sum
}

// BenchmarkSpaceStore measures Store per word over a backed page.
func BenchmarkSpaceStore(b *testing.B) {
	s, base := backedPage()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Store(base+Addr(i%PageWords)*WordSize, uint64(i))
	}
}

// BenchmarkSpaceCompareAndSwap measures a successful CompareAndSwap per
// word over a backed page: every word stays zero, so each swap of 0 for
// 0 succeeds and stores.
func BenchmarkSpaceCompareAndSwap(b *testing.B) {
	s, base := backedPage()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.CompareAndSwap(base+Addr(i%PageWords)*WordSize, 0, 0)
	}
}

// TestSpaceAllocBudget pins the host allocations of the space's hot
// paths: none for a word access to a backed page or for a Map+Unmap
// pair among 64 live regions, and one, the page, for the first store
// to a page whose second-level table already exists.
func TestSpaceAllocBudget(t *testing.T) {
	s, base := backedPage()
	for _, c := range []struct {
		name string
		f    func()
	}{
		{"Load", func() { sinkWord = s.Load(base + 8) }},
		{"Store", func() { s.Store(base+8, 2) }},
		{"CompareAndSwap", func() { s.CompareAndSwap(base+8, 2, 2) }},
	} {
		if got := testing.AllocsPerRun(100, c.f); got != 0 {
			t.Errorf("%s on a backed page: %v allocs, want 0", c.name, got)
		}
	}

	for i := 0; i < 64; i++ {
		s.MustMap(PageSize, 0)
	}
	mapUnmap := func() {
		if err := s.Unmap(s.MustMap(PageSize, 0)); err != nil {
			t.Fatal(err)
		}
	}
	if got := testing.AllocsPerRun(100, mapUnmap); got != 0 {
		t.Errorf("Map+Unmap with 64 regions live: %v allocs, want 0", got)
	}

	// One second-level table spans 1<<(PageShift+l2Bits) bytes; a region
	// aligned to it, backed at its first page, takes every later first
	// store in that table.
	const span = 1 << (PageShift + l2Bits)
	fresh := s.MustMap(128*PageSize, span)
	s.Store(fresh, 1)
	next := fresh
	firstStore := func() {
		next += PageSize
		s.Store(next, 1)
	}
	if got := testing.AllocsPerRun(100, firstStore); got != 1 {
		t.Errorf("first Store to a fresh page: %v allocs, want 1", got)
	}
}
