package prof_test

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/cachesim"
	"repro/internal/mem"
	"repro/internal/prof"
	"repro/internal/vtime"
)

// find returns the cycles of the sample with exactly this (tid, stack),
// or 0 when absent.
func find(p *prof.Profile, tid int, stack ...string) uint64 {
	for _, s := range p.Samples {
		if s.TID != tid || len(s.Stack) != len(stack) {
			continue
		}
		match := true
		for i := range stack {
			if s.Stack[i] != stack[i] {
				match = false
				break
			}
		}
		if match {
			return s.Cycles
		}
	}
	return 0
}

// TestRegionAccounting drives nested regions through a real engine and
// checks that every cycle lands in the right bucket and that the
// profile total reconciles exactly with the engine's thread clocks.
func TestRegionAccounting(t *testing.T) {
	p := prof.New()
	eng := vtime.NewEngine(mem.NewSpace(), 2, vtime.Config{Prof: p})
	clocks := eng.Run(func(th *vtime.Thread) {
		th.Tick(5) // untracked prelude
		p.Begin(th, "outer")
		th.Tick(10)
		p.Begin(th, "inner")
		th.Tick(20)
		p.End(th)
		th.Tick(7)
		p.End(th)
		p.End(th)  // unmatched End: ignored
		th.Tick(3) // untracked tail, flushed by the engine's SyncClock
	})

	pf := p.Profile()
	var want uint64
	for _, c := range clocks {
		want += c
	}
	if pf.TotalCycles != want {
		t.Fatalf("TotalCycles = %d, want the summed thread clocks %d", pf.TotalCycles, want)
	}
	for tid := 0; tid < 2; tid++ {
		if got := find(pf, tid, prof.UntrackedFrame); got != 8 {
			t.Errorf("tid %d untracked = %d, want 8", tid, got)
		}
		if got := find(pf, tid, "outer"); got != 17 {
			t.Errorf("tid %d outer self = %d, want 17", tid, got)
		}
		if got := find(pf, tid, "outer", "inner"); got != 20 {
			t.Errorf("tid %d outer;inner = %d, want 20", tid, got)
		}
	}
}

// TestStallAttribution checks the memory-access split: compute cycles
// to the open region, access latency to stall/<level>, invalidation
// overhead to stall/coherence.
func TestStallAttribution(t *testing.T) {
	p := prof.New()
	// 100 compute cycles, then a 40-cycle memory access that also paid
	// 15 cycles of coherence invalidation.
	p.Stall(3, cachesim.MemoryHit, 40, 15, 155)
	p.SyncClock(3, 200)

	pf := p.Profile()
	if got := find(pf, 3, prof.UntrackedFrame); got != 145 {
		t.Errorf("untracked = %d, want 145 (100 compute + 45 tail)", got)
	}
	if got := find(pf, 3, "stall/memory"); got != 40 {
		t.Errorf("stall/memory = %d, want 40", got)
	}
	if got := find(pf, 3, "stall/coherence"); got != 15 {
		t.Errorf("stall/coherence = %d, want 15", got)
	}
	if pf.TotalCycles != 200 {
		t.Errorf("TotalCycles = %d, want 200", pf.TotalCycles)
	}
}

// TestResetClock checks that the rebase between experiment phases
// flushes pending cycles and restarts attribution at clock zero.
func TestResetClock(t *testing.T) {
	p := prof.New()
	p.SyncClock(0, 50)
	p.ResetClock(0, 80) // +30, rebase
	p.SyncClock(0, 10)  // +10 on the fresh clock
	if got := p.Profile().TotalCycles; got != 90 {
		t.Errorf("TotalCycles = %d, want 90", got)
	}
}

// TestNilProfiler pins the disabled state: every method is a no-op on
// nil and Profile returns nil.
func TestNilProfiler(t *testing.T) {
	var p *prof.Profiler
	p.Stall(0, cachesim.L1Hit, 1, 0, 4)
	p.SyncClock(0, 10)
	p.ResetClock(0, 20)
	p.SetRecorder(nil)
	if p.Profile() != nil {
		t.Error("nil profiler must yield a nil profile")
	}
}

func sampleProfile(label string, cycles uint64) *prof.Profile {
	p := &prof.Profile{
		Schema: prof.Schema,
		Label:  label,
		Samples: []prof.Sample{
			{TID: 0, Stack: []string{"a"}, Cycles: cycles},
			{TID: 0, Stack: []string{"a", "b"}, Cycles: 2 * cycles},
			{TID: 1, Stack: []string{prof.UntrackedFrame}, Cycles: 3 * cycles},
		},
	}
	for _, s := range p.Samples {
		p.TotalCycles += s.Cycles
	}
	return p
}

func TestMerge(t *testing.T) {
	a := sampleProfile("", 10)
	b := sampleProfile("cell-b", 100)
	b.Samples = append(b.Samples, prof.Sample{TID: 2, Stack: []string{"c"}, Cycles: 7})
	b.TotalCycles += 7

	m := prof.Merge(a, nil, b)
	if m.TotalCycles != a.TotalCycles+b.TotalCycles {
		t.Errorf("merged total = %d, want %d", m.TotalCycles, a.TotalCycles+b.TotalCycles)
	}
	if got := find(m, 0, "a", "b"); got != 220 {
		t.Errorf("merged a;b = %d, want 220", got)
	}
	if got := find(m, 2, "c"); got != 7 {
		t.Errorf("merged c = %d, want 7", got)
	}
	if m.Label != "cell-b" {
		t.Errorf("merged label = %q, want first non-empty input label", m.Label)
	}
	// Canonical order: ascending (tid, stack).
	for i := 1; i < len(m.Samples); i++ {
		if m.Samples[i].TID < m.Samples[i-1].TID {
			t.Fatalf("samples not sorted by tid at %d", i)
		}
	}
	// Inputs are never mutated.
	if a.TotalCycles != 60 || len(a.Samples) != 3 {
		t.Error("Merge mutated its input")
	}
}

func TestDiffReconciliation(t *testing.T) {
	a := sampleProfile("glibc", 10)
	b := sampleProfile("tcmalloc", 25)
	b.Samples = append(b.Samples, prof.Sample{TID: 0, Stack: []string{"only-b"}, Cycles: 9})
	b.TotalCycles += 9

	rep := prof.Diff(a, b)
	if len(rep.Rows) == 0 {
		t.Fatal("diff of non-empty profiles must have rows")
	}
	var sumA, sumB uint64
	for _, r := range rep.Rows {
		sumA += r.A
		sumB += r.B
		if r.Delta != int64(r.B)-int64(r.A) {
			t.Errorf("row %v delta = %d, want B-A", r.Stack, r.Delta)
		}
	}
	if sumA != a.TotalCycles || sumB != b.TotalCycles {
		t.Errorf("rows sum to (%d, %d), want exact partition (%d, %d)",
			sumA, sumB, a.TotalCycles, b.TotalCycles)
	}
	// Sorted by |delta| descending.
	abs := func(v int64) int64 {
		if v < 0 {
			return -v
		}
		return v
	}
	for i := 1; i < len(rep.Rows); i++ {
		if abs(rep.Rows[i].Delta) > abs(rep.Rows[i-1].Delta) {
			t.Fatalf("rows not sorted by |delta| at %d", i)
		}
	}

	var buf bytes.Buffer
	if err := rep.WriteText(&buf, 0); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "totals reconcile") {
		t.Errorf("report must state reconciliation:\n%s", buf.String())
	}
}

func TestWriteFolded(t *testing.T) {
	var buf bytes.Buffer
	if err := sampleProfile("", 10).WriteFolded(&buf); err != nil {
		t.Fatal(err)
	}
	want := "t0;a 10\nt0;a;b 20\nt1;(untracked) 30\n"
	if buf.String() != want {
		t.Errorf("folded output = %q, want %q", buf.String(), want)
	}
}

func TestJSONRoundTripAndInfo(t *testing.T) {
	p := sampleProfile("lbl", 10)
	var buf bytes.Buffer
	if err := p.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := prof.ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Label != "lbl" || got.TotalCycles != p.TotalCycles || len(got.Samples) != len(p.Samples) {
		t.Errorf("round-tripped profile differs: %+v", got)
	}

	if _, err := prof.ReadJSON(strings.NewReader(`{"schema":"bogus"}`)); err == nil {
		t.Error("ReadJSON must reject unknown schemas")
	}

	info := p.Info()
	if info.Samples != 3 || info.Threads != 2 || info.Frames != 3 || info.TotalCycles != 60 {
		t.Errorf("Info = %+v, want 3 samples / 2 threads / 3 frames / 60 cycles", info)
	}
	if (*prof.Profile)(nil).Info() != nil {
		t.Error("nil profile must have nil info")
	}
}

func TestFrameStats(t *testing.T) {
	stats := sampleProfile("", 10).FrameStats()
	byFrame := make(map[string]prof.FrameStat)
	for _, s := range stats {
		byFrame[s.Frame] = s
	}
	if s := byFrame["a"]; s.Self != 10 || s.Cum != 30 {
		t.Errorf("frame a = self %d cum %d, want 10/30", s.Self, s.Cum)
	}
	if s := byFrame["b"]; s.Self != 20 || s.Cum != 20 {
		t.Errorf("frame b = self %d cum %d, want 20/20", s.Self, s.Cum)
	}
	for i := 1; i < len(stats); i++ {
		if stats[i].Self > stats[i-1].Self {
			t.Fatalf("stats not sorted by self descending at %d", i)
		}
	}
}

// TestProfileDeterminism runs the identical workload twice with fresh
// profilers and requires byte-identical JSON artifacts.
func TestProfileDeterminism(t *testing.T) {
	runOnce := func() []byte {
		p := prof.New()
		eng := vtime.NewEngine(mem.NewSpace(), 4, vtime.Config{Prof: p})
		eng.Run(func(th *vtime.Thread) {
			for i := 0; i < 50; i++ {
				p.Begin(th, "phase")
				th.Tick(uint64(th.ID() + i))
				p.End(th)
				th.Yield()
			}
		})
		var buf bytes.Buffer
		if err := p.Profile().WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if !bytes.Equal(runOnce(), runOnce()) {
		t.Error("same workload must produce byte-identical profiles")
	}
}
