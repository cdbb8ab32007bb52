package fault

import "testing"

func TestParseErrors(t *testing.T) {
	bad := []string{
		"oom",           // no @
		"oom@0",         // 1-based
		"oom@abc",       // not a number
		"lat@5",         // missing cycles
		"lat@5:0",       // zero cycles
		"lat%200:10",    // percent out of range
		"stall@5:1:2",   // missing t prefix
		"stall@tx:1:2",  // bad tid
		"storm@20:10",   // empty window
		"storm@5",       // missing :to
		"quota@0",       // zero bytes
		"quota%50",      // % not allowed
		"explode@1",     // unknown kind
		"oom@5x0",       // zero repeat
		"oom@5,bogus@1", // second clause bad
	}
	for _, spec := range bad {
		if _, err := Parse(spec, 1); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", spec)
		}
	}
}

func TestParseEmpty(t *testing.T) {
	p, err := Parse("", 7)
	if err != nil {
		t.Fatal(err)
	}
	if fail, delay := p.MallocFault(0, 64); fail || delay != 0 {
		t.Error("empty plan fired a malloc fault")
	}
	if stall, storm := p.TxBegin(0, 1000); stall != 0 || storm {
		t.Error("empty plan fired at a transaction begin")
	}
	if p.HasCrash() || p.Crash(0, 1000, "commit") || p.Quota() != 0 {
		t.Error("empty plan crashes or caps the space")
	}
}

func TestCountTriggering(t *testing.T) {
	p := MustParse("oom@3x2", 1)
	var failed []int
	for i := 1; i <= 6; i++ {
		if fail, _ := p.MallocFault(0, 16); fail {
			failed = append(failed, i)
		}
	}
	if len(failed) != 2 || failed[0] != 3 || failed[1] != 4 {
		t.Errorf("oom@3x2 failed mallocs %v, want [3 4]", failed)
	}
	if st := p.Stats(); st.OOMs != 2 || st.MallocsN != 6 {
		t.Errorf("stats = %+v", st)
	}
}

func TestLatencyTriggering(t *testing.T) {
	p := MustParse("lat@2:500", 1)
	if _, d := p.MallocFault(0, 16); d != 0 {
		t.Error("spike on malloc 1")
	}
	if _, d := p.MallocFault(0, 16); d != 500 {
		t.Error("no 500-cycle spike on malloc 2")
	}
	if _, d := p.MallocFault(0, 16); d != 0 {
		t.Error("spike on malloc 3")
	}
}

func TestSuffixes(t *testing.T) {
	p := MustParse("quota@2m,lat@1k:5k", 9)
	if p.Quota() != 2<<20 {
		t.Errorf("quota = %d, want %d", p.Quota(), 2<<20)
	}
	if p.latency != 5<<10 {
		t.Errorf("latency = %d, want %d", p.latency, 5<<10)
	}
	if p.latAt[0].from != 1<<10 {
		t.Errorf("lat window from = %d, want %d", p.latAt[0].from, 1<<10)
	}
}

func TestStallOneShot(t *testing.T) {
	p := MustParse("stall@t1:1000:777", 1)
	if s, _ := p.TxBegin(0, 5000); s != 0 {
		t.Error("stall fired for wrong thread")
	}
	if s, _ := p.TxBegin(1, 500); s != 0 {
		t.Error("stall fired before its virtual time")
	}
	if s, _ := p.TxBegin(1, 1500); s != 777 {
		t.Error("stall did not fire at its virtual time")
	}
	if s, _ := p.TxBegin(1, 2000); s != 0 {
		t.Error("stall fired twice")
	}
}

func TestStorm(t *testing.T) {
	p := MustParse("storm@100:200", 1)
	if _, storm := p.TxBegin(0, 50); storm {
		t.Error("storm before window")
	}
	if _, storm := p.TxBegin(0, 150); !storm {
		t.Error("no storm inside window")
	}
	if _, storm := p.TxBegin(0, 200); storm {
		t.Error("storm at exclusive upper bound")
	}
}

// TestDeterminism checks that probabilistic plans replay identically
// for the same seed and differ across seeds.
func TestDeterminism(t *testing.T) {
	run := func(p *Plan) []bool {
		out := make([]bool, 200)
		for i := range out {
			out[i], _ = p.MallocFault(i%4, 32)
		}
		return out
	}
	a := run(MustParse("oom%20", 42))
	b := run(MustParse("oom%20", 42))
	c := run(MustParse("oom%20", 43))
	same := func(x, y []bool) bool {
		for i := range x {
			if x[i] != y[i] {
				return false
			}
		}
		return true
	}
	if !same(a, b) {
		t.Error("same seed produced different fault sequences")
	}
	if same(a, c) {
		t.Error("different seeds produced identical fault sequences")
	}
	var fired int
	for _, f := range a {
		if f {
			fired++
		}
	}
	if fired < 20 || fired > 60 {
		t.Errorf("oom%%20 fired %d/200 times, want roughly 40", fired)
	}
}

// FuzzParse checks the grammar on arbitrary specs: Parse never panics,
// and two parses of an accepted spec with one seed make the same
// decisions over a fixed script of MallocFault, TxBegin and Crash
// calls, which is what lets every world parse its own plan. A plan
// with no crash clause never crashes. The seed corpus in
// testdata/fuzz/FuzzParse holds every clause form of the package doc
// and a few malformed specs.
func FuzzParse(f *testing.F) {
	f.Fuzz(func(t *testing.T, spec string, seed uint64) {
		a, err := Parse(spec, seed)
		if err != nil {
			return
		}
		b := MustParse(spec, seed)
		phases := []string{"commit", "apply", "malloc", "flush"}
		for i := 0; i < 256; i++ {
			tid, clock := i%4, uint64(i)*512
			failA, delayA := a.MallocFault(tid, uint64(16)<<(i%7))
			failB, delayB := b.MallocFault(tid, uint64(16)<<(i%7))
			stallA, stormA := a.TxBegin(tid, clock)
			stallB, stormB := b.TxBegin(tid, clock)
			crashA, crashB := a.Crash(tid, clock, phases[i%4]), b.Crash(tid, clock, phases[i%4])
			if failA != failB || delayA != delayB || stallA != stallB || stormA != stormB || crashA != crashB {
				t.Fatalf("%q seed %d, call %d: two parses decided (%v %d %d %v %v) and (%v %d %d %v %v)",
					spec, seed, i, failA, delayA, stallA, stormA, crashA, failB, delayB, stallB, stormB, crashB)
			}
			if crashA && !a.HasCrash() {
				t.Fatalf("%q seed %d crashed at call %d without a crash clause", spec, seed, i)
			}
		}
		if a.Stats() != b.Stats() {
			t.Fatalf("%q seed %d: stats %+v and %+v", spec, seed, a.Stats(), b.Stats())
		}
	})
}
