package heapscope

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/alloc"
	"repro/internal/mem"
	"repro/internal/stm"
	"repro/internal/vtime"
)

// fakeHeap is a hand-constructed allocator: every snapshot sees
// exactly the state the test planted, so the fragmentation and blowup
// arithmetic is checked against paper definitions, not another
// implementation.
type fakeHeap struct {
	st alloc.HeapState
}

func (f *fakeHeap) Name() string                             { return "fake" }
func (f *fakeHeap) Malloc(*vtime.Thread, uint64) mem.Addr    { return 0 }
func (f *fakeHeap) Free(*vtime.Thread, mem.Addr)             {}
func (f *fakeHeap) BlockSize(*vtime.Thread, mem.Addr) uint64 { return 0 }
func (f *fakeHeap) Stats() alloc.Stats                       { return alloc.Stats{} }
func (f *fakeHeap) Describe() alloc.Description              { return alloc.Description{} }
func (f *fakeHeap) InspectHeap() alloc.HeapState             { return f.st }
func (f *fakeHeap) RecoverHeap(*vtime.Thread, *alloc.RecoverState) alloc.RecoverReport {
	return alloc.RecoverReport{}
}

func attach(t *testing.T, st alloc.HeapState, cadence uint64) *Collector {
	t.Helper()
	c := New(cadence)
	c.Attach(&fakeHeap{st: st}, stm.DefaultShift, 1<<stm.DefaultOrtBits)
	return c
}

func almost(t *testing.T, name string, got, want float64) {
	t.Helper()
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("%s = %v, want %v", name, got, want)
	}
}

// TestFragmentationMath pins the three ratios against a hand-built
// heap: two live blocks (64B class holding a 48B request, 128B class
// holding a 100B request) inside a 4096-byte reservation.
func TestFragmentationMath(t *testing.T) {
	st := alloc.HeapState{
		Reserved: 4096,
		Classes: []alloc.HeapClass{
			{Size: 64, Free: 2, Cached: 1},
			{Size: 128, Free: 0, Cached: 0},
		},
		CacheBytes:      64,
		CentralBytes:    128,
		SuperblockBytes: 1024,
		MinBlock:        8,
		MaxBlock:        128,
	}
	c := attach(t, st, 1<<20)
	c.OnHeapAlloc("fake", 0x1000, 48, 64, 0, 10)
	c.OnHeapAlloc("fake", 0x2000, 100, 128, 1, 20)
	c.Finish(100)

	if len(c.samples) != 1 {
		t.Fatalf("samples = %d, want 1", len(c.samples))
	}
	s := c.samples[0]
	if s.LiveBlocks != 2 || s.LiveBytes != 192 || s.RequestedBytes != 148 {
		t.Fatalf("live = %d blocks / %d usable / %d requested, want 2/192/148",
			s.LiveBlocks, s.LiveBytes, s.RequestedBytes)
	}
	almost(t, "internal frag", s.InternalFrag, float64(192-148)/192)
	almost(t, "external frag", s.ExternalFrag, float64(4096-192)/4096)
	almost(t, "blowup", s.Blowup, 4096.0/192)
	if s.ReservedBytes != 4096 {
		t.Errorf("reserved = %d, want 4096", s.ReservedBytes)
	}
	if want := []uint64{3, 0}; len(s.FreeDepths) != 2 || s.FreeDepths[0] != want[0] || s.FreeDepths[1] != want[1] {
		t.Errorf("free depths = %v, want %v", s.FreeDepths, want)
	}
	if s.FreeBlocks != 3 || s.FreeBytes != 192 {
		t.Errorf("free = %d blocks / %d bytes, want 3/192", s.FreeBlocks, s.FreeBytes)
	}
}

// TestEmptyHeapRatios: with nothing live, every ratio must stay finite
// (zero live bytes divides nothing).
func TestEmptyHeapRatios(t *testing.T) {
	c := attach(t, alloc.HeapState{Reserved: 4096}, 1<<20)
	c.Finish(50)
	s := c.samples[0]
	if s.InternalFrag != 0 || s.Blowup != 0 {
		t.Errorf("empty heap: internal=%v blowup=%v, want 0/0", s.InternalFrag, s.Blowup)
	}
	almost(t, "external frag of empty heap", s.ExternalFrag, 1.0)
}

// TestLineSharing drives two threads onto one 64-byte line and back
// off it, checking the incremental shared-line count and churn.
func TestLineSharing(t *testing.T) {
	c := attach(t, alloc.HeapState{}, 1<<20)
	c.OnHeapAlloc("fake", 0x40, 32, 32, 0, 1) // line 1
	if c.sharedLines != 0 || c.churn != 0 {
		t.Fatalf("one owner: shared=%d churn=%d, want 0/0", c.sharedLines, c.churn)
	}
	c.OnHeapAlloc("fake", 0x60, 32, 32, 1, 2) // same line, other thread
	if c.sharedLines != 1 {
		t.Errorf("two owners: shared = %d, want 1", c.sharedLines)
	}
	if c.churn != 1 {
		t.Errorf("ownership extension: churn = %d, want 1", c.churn)
	}
	c.OnHeapFree(0x60, 1, 3)
	if c.sharedLines != 0 {
		t.Errorf("back to one owner: shared = %d, want 0", c.sharedLines)
	}
	c.OnHeapFree(0x40, 0, 4)
	if len(c.lines) != 0 {
		t.Errorf("all freed: %d lines tracked, want 0", len(c.lines))
	}
	if c.churn != 1 {
		t.Errorf("churn is cumulative: got %d, want 1", c.churn)
	}
}

// TestReuseRevivesWithNewOwner mirrors the shadow-map semantics: a
// tx-cache reuse revives the freed block with the reusing thread as
// owner and the original extent.
func TestReuseRevivesWithNewOwner(t *testing.T) {
	c := attach(t, alloc.HeapState{}, 1<<20)
	c.OnHeapAlloc("fake", 0x40, 24, 32, 0, 1)
	c.OnHeapFree(0x40, 0, 2)
	if c.liveBlocks != 0 {
		t.Fatalf("after free: %d live, want 0", c.liveBlocks)
	}
	c.OnHeapReuse(0x40, 3, 3)
	if c.liveBlocks != 1 || c.liveBytes != 32 || c.reqBytes != 24 {
		t.Fatalf("after reuse: %d live / %d usable / %d req, want 1/32/24",
			c.liveBlocks, c.liveBytes, c.reqBytes)
	}
	ln := c.lines[0x40>>lineShift]
	if ln == nil || ln.owners[3] != 1 || len(ln.owners) != 1 {
		t.Errorf("reused block must be owned by the reusing thread: %+v", ln)
	}
	// Reuse of a live block and free of an unknown base are ignored.
	c.OnHeapReuse(0x40, 5, 4)
	c.OnHeapFree(0xdead0, 0, 5)
	if c.liveBlocks != 1 || c.lines[0x40>>lineShift].owners[3] != 1 {
		t.Error("reuse-of-live / free-of-unknown must be no-ops")
	}
}

// TestSameBaseOverwrite: the allocator handing out a base the watcher
// still tracks as live (mirrors the shadow map's overwrite) retracts
// the stale entry first, keeping totals exact.
func TestSameBaseOverwrite(t *testing.T) {
	c := attach(t, alloc.HeapState{}, 1<<20)
	c.OnHeapAlloc("fake", 0x100, 16, 16, 0, 1)
	c.OnHeapAlloc("fake", 0x100, 64, 64, 1, 2)
	if c.liveBlocks != 1 || c.liveBytes != 64 || c.reqBytes != 64 {
		t.Errorf("overwrite: %d live / %d usable / %d req, want 1/64/64",
			c.liveBlocks, c.liveBytes, c.reqBytes)
	}
}

// TestStripeOccupancy checks the ORT aliasing histogram: two blocks a
// full table apart land on the same entry.
func TestStripeOccupancy(t *testing.T) {
	c := attach(t, alloc.HeapState{}, 1<<20)
	c.OnHeapAlloc("fake", 0x40, 32, 32, 0, 1)
	alias := mem.Addr(0x40 + (uint64(c.ortSize) << c.shift))
	c.OnHeapAlloc("fake", alias, 32, 32, 1, 2)
	c.Finish(10)
	s := c.samples[0]
	if s.MaxStripe != 2 {
		t.Errorf("max stripe = %d, want 2 (aliased entry)", s.MaxStripe)
	}
	if want := []uint64{0, 1, 0, 0}; len(s.StripeHist) != 4 ||
		s.StripeHist[0] != want[0] || s.StripeHist[1] != want[1] ||
		s.StripeHist[2] != want[2] || s.StripeHist[3] != want[3] {
		t.Errorf("stripe hist = %v, want %v", s.StripeHist, want)
	}
	c.OnHeapFree(alias, 1, 3)
	c.Finish(20)
	s = c.samples[1]
	if s.MaxStripe != 1 || s.StripeHist[0] != 1 || s.StripeHist[1] != 0 {
		t.Errorf("after free: max=%d hist=%v, want 1 and [1 0 0 0]", s.MaxStripe, s.StripeHist)
	}
}

// TestCadenceAndPhases: Sample emits one snapshot per elapsed cadence
// interval stamped at its exact due cycle, and Phase restarts the
// cycle axis under a new epoch.
func TestCadenceAndPhases(t *testing.T) {
	c := attach(t, alloc.HeapState{}, 100)
	c.Sample(50) // nothing due yet
	if len(c.samples) != 0 {
		t.Fatalf("before first cadence: %d samples, want 0", len(c.samples))
	}
	c.Sample(350) // catches up: due at 100, 200, 300
	if len(c.samples) != 3 {
		t.Fatalf("after catch-up: %d samples, want 3", len(c.samples))
	}
	for i, want := range []uint64{100, 200, 300} {
		if c.samples[i].Cycle != want {
			t.Errorf("sample %d at cycle %d, want %d", i, c.samples[i].Cycle, want)
		}
		if c.samples[i].Epoch != 0 || c.samples[i].Phase != "init" {
			t.Errorf("sample %d epoch/phase = %d/%q, want 0/init", i, c.samples[i].Epoch, c.samples[i].Phase)
		}
	}
	c.Phase("run", 360)
	c.Sample(150)
	c.Finish(170)
	n := len(c.samples)
	if n != 6 {
		t.Fatalf("after phase: %d samples, want 6", n)
	}
	if s := c.samples[3]; s.Cycle != 360 || s.Epoch != 0 || s.Phase != "init" {
		t.Errorf("phase-close sample = cycle %d epoch %d %q, want 360/0/init", s.Cycle, s.Epoch, s.Phase)
	}
	if s := c.samples[4]; s.Cycle != 100 || s.Epoch != 1 || s.Phase != "run" {
		t.Errorf("new-phase sample = cycle %d epoch %d %q, want 100/1/run", s.Cycle, s.Epoch, s.Phase)
	}
}

// TestSeriesRoundTrip: WriteJSON then ReadJSON reproduces the set, and
// Info summarizes it for the run record.
func TestSeriesRoundTrip(t *testing.T) {
	c := attach(t, alloc.HeapState{Reserved: 1024, SuperblockBytes: 512, MinBlock: 8, MaxBlock: 256,
		Classes: []alloc.HeapClass{{Size: 16}}}, 1<<20)
	c.OnHeapAlloc("fake", 0x40, 16, 16, 0, 1)
	c.Finish(42)
	set := NewSet("test")
	set.Add(c.Series("cell/a"))
	set.Add(nil) // skipped cells are nil-safe

	var buf bytes.Buffer
	if err := set.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSON(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Series) != 1 || got.Series[0].Allocator != "fake" || len(got.Series[0].Samples) != 1 {
		t.Fatalf("round trip lost data: %+v", got)
	}
	if got.Series[0].Geometry == nil || got.Series[0].Geometry.SuperblockBytes != 512 {
		t.Errorf("geometry lost in round trip: %+v", got.Series[0].Geometry)
	}

	info := set.Info()
	if info.Schema != Schema || info.Series != 1 || info.Samples != 1 || info.Cadence != 1<<20 {
		t.Errorf("info = %+v, want schema/1 series/1 sample/default cadence", info)
	}
	if len(info.Allocators) != 1 || info.Allocators[0] != "fake" {
		t.Errorf("info allocators = %v, want [fake]", info.Allocators)
	}

	// Unknown schemas are rejected, not misread.
	if _, err := ReadJSON(bytes.NewReader([]byte(`{"schema":"bogus/v9","series":[]}`))); err == nil {
		t.Error("unknown schema must fail to decode")
	}
}
