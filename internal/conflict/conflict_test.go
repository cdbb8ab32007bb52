package conflict

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/stm"
)

// ev builds a stripe-attributed event for classifier tests. The
// classifier trusts the reporting STM for the entry index, so tests
// pass any non-sentinel stripe.
func ev(victim, owner mem.Addr) stm.Event {
	return stm.Event{
		Kind:    stm.EvAbort,
		Tid:     1,
		Killer:  0,
		Attempt: 1,
		Reason:  stm.AbortLockedByOther,
		Stripe:  42,
		Addr:    victim,
		Owner:   owner,
		Wasted:  100,
	}
}

// labels stands in for the STM's per-thread labels: its kind method is
// what New takes in place of (*stm.STM).Kind.
type labels map[int]string

func (l labels) kind(tid int) string { return l[tid] }

// TestClassifyPlacementClasses pins each taxonomy class from
// hand-built address pairs over the two allocator geometries the
// paper contrasts: glibc (in-band 16-byte boundary tags, 16-byte
// requests placed 32 bytes apart at offset 16 of each stripe) and a
// size-class allocator like tcmalloc (out-of-band metadata, 16-byte
// requests packed back to back, two blocks per 32-byte stripe).
func TestClassifyPlacementClasses(t *testing.T) {
	const shift = 5 // 32-byte stripes, the paper's default

	// glibc-style placement: node A at 0x10000010 (its boundary tag
	// occupies 0x10000000..0x10000010 of the same stripe), node B one
	// chunk later.
	const glibcA = mem.Addr(0x10000010)
	const glibcB = mem.Addr(0x10000030)
	// tcmalloc-style placement: two 16-byte blocks sharing the stripe
	// at 0x20000000.
	const tcA = mem.Addr(0x20000000)
	const tcB = mem.Addr(0x20000010)
	// A block allocated and then freed back to the allocator: its words
	// now hold free-list metadata.
	const freed = mem.Addr(0x30000040)

	o := New(2, shift, labels{0: "remove", 1: "insert"}.kind)
	o.OnHeapAlloc("glibc", glibcA, 16, 16, 0, 1)
	o.OnHeapAlloc("glibc", glibcB, 16, 16, 0, 2)
	o.OnHeapAlloc("tcmalloc", tcA, 16, 16, 1, 3)
	o.OnHeapAlloc("tcmalloc", tcB, 16, 16, 1, 4)
	o.OnHeapAlloc("glibc", freed, 16, 16, 0, 5)
	o.OnHeapFree(freed, 0, 6)

	cases := []struct {
		name       string
		event      stm.Event
		class      Class
		sameLine   bool
		crossBlock bool
	}{
		{
			// Same word: the program really contends on this datum.
			name:  "true sharing same word",
			event: ev(glibcA, glibcA),
			class: ClassTrue, sameLine: true,
		},
		{
			// glibc geometry: two words of one 16-byte node share its
			// stripe — intra-block false sharing, one allocator block.
			name:  "false sharing within one block",
			event: ev(glibcA, glibcA+8),
			class: ClassFalse, sameLine: true, crossBlock: false,
		},
		{
			// tcmalloc geometry: 16-byte spacing packs two distinct
			// nodes into one 32-byte stripe — cross-block false sharing.
			name:  "false sharing across packed blocks",
			event: ev(tcA+8, tcB),
			class: ClassFalse, sameLine: true, crossBlock: true,
		},
		{
			// Different placement keys folded onto one ORT entry by the
			// modulo: the paper's table-wrap aliasing.
			name:  "stripe aliasing",
			event: ev(glibcA, tcA),
			class: ClassAlias,
		},
		{
			// The conflicting owner address is a glibc boundary tag —
			// heap metadata sharing the stripe with application data.
			name:  "metadata in-band header",
			event: ev(glibcA, glibcA-8),
			class: ClassMeta,
		},
		{
			// The victim read a block the allocator reclaimed: its words
			// are free-list metadata now.
			name:  "metadata reclaimed block",
			event: ev(freed, freed+8),
			class: ClassMeta,
		},
		{
			// No attributable stripe (commit validation, OOM, kills).
			name: "other no stripe",
			event: stm.Event{
				Kind: stm.EvAbort, Tid: 1, Killer: stm.NoKiller, Reason: stm.AbortValidation,
				Stripe: obs.NoStripe, Wasted: 10,
			},
			class: ClassOther,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			class, sameLine, crossBlock := o.Classify(tc.event)
			if class != tc.class {
				t.Errorf("class = %v, want %v", class, tc.class)
			}
			if class == ClassFalse || class == ClassTrue {
				if sameLine != tc.sameLine {
					t.Errorf("sameLine = %v, want %v", sameLine, tc.sameLine)
				}
			}
			if class == ClassFalse && crossBlock != tc.crossBlock {
				t.Errorf("crossBlock = %v, want %v", crossBlock, tc.crossBlock)
			}
		})
	}
}

// TestObservatoryAggregates feeds a small choreographed event stream
// and checks the conflict graph, blame table, cascade detection and
// the flat Info block agree with it.
func TestObservatoryAggregates(t *testing.T) {
	const shift = 5
	o := New(3, shift, labels{0: "remove", 1: "insert", 2: "contains"}.kind)
	base := mem.Addr(0x10000010)
	o.OnHeapAlloc("glibc", base, 16, 16, 1, 1) // site: insert

	// t0 kills t1 (false sharing, 100 wasted), then t1's death cascades:
	// t1 kills t2 while t1 is itself a fresh victim.
	e1 := ev(base, base+8) // victim t1, killer t0
	o.OnTx(e1)
	e2 := stm.Event{
		Kind: stm.EvAbort, Tid: 2, Killer: 1, Attempt: 3,
		Reason: stm.AbortLockedByOther, Stripe: 42,
		Addr: base + 8, Owner: base, Wasted: 50,
	}
	o.OnTx(e2)
	// t0 commits: its chain resets; a later kill by t0 starts at depth 1.
	o.OnTx(stm.Event{Kind: stm.EvCommit, Tid: 0})
	o.OnTx(e1)

	if o.Events() != 3 {
		t.Fatalf("events = %d, want 3", o.Events())
	}
	if got := o.Count(ClassFalse); got != 3 {
		t.Errorf("false-sharing count = %d, want 3", got)
	}
	if got := o.WastedTotal(); got != 250 {
		t.Errorf("wasted total = %d, want 250", got)
	}

	r := o.Report()
	if len(r.Edges) != 2 {
		t.Fatalf("edges = %d, want 2 (remove->insert, insert->contains)", len(r.Edges))
	}
	if r.Edges[0].Killer != "remove" || r.Edges[0].Victim != "insert" || r.Edges[0].Wasted != 200 {
		t.Errorf("top edge = %+v, want remove->insert with 200 wasted", r.Edges[0])
	}
	// The chain: t1 dies (depth 1), then t2 dies by t1 (depth 2).
	if r.LongestChain != 2 {
		t.Errorf("longest chain = %d, want 2", r.LongestChain)
	}
	// All three events are placement-caused and touch the one insert-site
	// block (both addresses resolve to it, so it is charged once per
	// event).
	if len(r.Sites) != 1 || r.Sites[0].Site != "insert" {
		t.Fatalf("sites = %+v, want the single insert site", r.Sites)
	}
	if r.Sites[0].Wasted != 250 {
		t.Errorf("insert site wasted = %d, want 250", r.Sites[0].Wasted)
	}
	if len(r.Offenders) == 0 || r.Offenders[0].Hits != 2 {
		t.Errorf("offenders = %+v, want the repeat owner address with 2 hits", r.Offenders)
	}

	info := o.Info()
	if !info.Observed || info.Events != 3 || info.FalseSharing != 3 ||
		info.WastedCycles != 250 || info.WastedFalse != 250 {
		t.Errorf("info headline wrong: %+v", info)
	}
	if info.Edges != 2 || info.LongestChain != 2 {
		t.Errorf("info graph aggregates wrong: %+v", info)
	}
	if info.TopSite != "insert" || info.TopSiteWasted != 250 {
		t.Errorf("info blame wrong: %+v", info)
	}
	if info.First == "" || !strings.Contains(info.First, "false-sharing") {
		t.Errorf("info.First = %q, want a rendered false-sharing exemplar", info.First)
	}
}

// TestWriteDot smoke-tests the graphviz export shape.
func TestWriteDot(t *testing.T) {
	o := New(2, 5, labels{0: "remove", 1: "insert"}.kind)
	base := mem.Addr(0x10000010)
	o.OnHeapAlloc("glibc", base, 16, 16, 0, 1)
	o.OnTx(ev(base, base+8))
	var sb strings.Builder
	if err := o.Report().WriteDot(&sb, "test"); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"digraph conflicts", `"remove" -> "insert"`, "1 aborts"} {
		if !strings.Contains(out, want) {
			t.Errorf("dot output missing %q:\n%s", want, out)
		}
	}
}

// TestStripeKillerIsLastAcquirer pins that the observatory takes each
// abort's killer from the event: the STM names a stripe abort's last
// acquirer (internal/stm's test of the same name pins how), and the
// observatory keeps no acquisition record of its own.
func TestStripeKillerIsLastAcquirer(t *testing.T) {
	o := New(3, 5, labels{}.kind)
	abort := func(killer int, stripe uint64) {
		o.OnTx(stm.Event{Kind: stm.EvAbort, Tid: 1, Killer: killer, Reason: stm.AbortLockedByOther,
			Stripe: stripe, Addr: 0x1008, Owner: 0x1000, Attempt: 1})
	}
	abort(2, 7)
	abort(stm.NoKiller, 9)
	abort(0, 7)
	o.OnTx(stm.Event{Kind: stm.EvAbort, Tid: 1, Killer: 0, Reason: stm.AbortKilled, Stripe: obs.NoStripe})

	var got []int
	for _, e := range o.Report().Exemplars {
		got = append(got, e.Killer)
	}
	if want := []int{2, stm.NoKiller, 0, 0}; !slices.Equal(got, want) {
		t.Errorf("killers = %v, want %v", got, want)
	}
}
