package race

import (
	"reflect"
	"testing"

	"repro/internal/mem"
	"repro/internal/stm"
	"repro/internal/vtime"
)

// The checker plugs into all three event seams structurally.
var (
	_ stm.Observer       = (*Checker)(nil)
	_ vtime.RaceObserver = (*Checker)(nil)
	_ mem.HeapWatcher    = (*Checker)(nil)
)

// The tests drive the checker through its hook surface directly: each
// scenario is the event trace a real run would deliver, reduced to the
// edges under test.

const base = mem.Addr(0x10000000)

func allocBlock(c *Checker, tid int) {
	c.OnHeapAlloc("test", base, 24, 24, tid, 0)
}

func kinds(c *Checker) []string {
	var out []string
	for _, f := range c.Findings() {
		out = append(out, f.Kind)
	}
	return out
}

func TestPublicationDetected(t *testing.T) {
	c := New(2)
	allocBlock(c, 0)
	c.OnAccess(0, base, true, 0) // t0 publishes without a barrier
	c.txBegin(1, 0)
	c.txAccess(1, base, false)
	c.txCommit(1, 0)
	if got := kinds(c); !reflect.DeepEqual(got, []string{KindPublication}) {
		t.Fatalf("findings = %v, want [publication]", got)
	}
}

func TestPublicationOrderedClean(t *testing.T) {
	c := New(2)
	allocBlock(c, 0)
	c.OnAccess(0, base, true, 0)
	// t0 publishes through a committed transaction; t1's snapshot
	// covers it, so the raw initialization is ordered.
	c.txBegin(0, 0)
	c.txAccess(0, base+8, true)
	c.txCommit(0, 10)
	c.txBegin(1, 10)
	c.txAccess(1, base, false)
	c.txCommit(1, 0)
	if c.Count() != 0 {
		t.Fatalf("findings = %v, want none", c.Findings())
	}
}

func TestPrivatizationDetected(t *testing.T) {
	c := New(2)
	allocBlock(c, 0)
	c.txBegin(0, 0)
	c.txAccess(0, base, true)
	c.txCommit(0, 5)
	c.OnAccess(1, base, false, 0) // t1 never synchronized with the commit
	if got := kinds(c); !reflect.DeepEqual(got, []string{KindPrivatization}) {
		t.Fatalf("findings = %v, want [privatization]", got)
	}
}

func TestMixedWriteWrite(t *testing.T) {
	c := New(2)
	allocBlock(c, 0)
	c.txBegin(0, 0)
	c.txAccess(0, base, true)
	c.txCommit(0, 5)
	c.OnAccess(1, base, true, 0)
	if got := kinds(c); !reflect.DeepEqual(got, []string{KindMixed}) {
		t.Fatalf("findings = %v, want [mixed]", got)
	}
}

func TestAbortDiscardsAccesses(t *testing.T) {
	c := New(2)
	allocBlock(c, 0)
	c.txBegin(0, 0)
	c.txAccess(0, base, true)
	c.txAbort(0)
	c.OnAccess(1, base, true, 0)
	c.OnAccess(1, base, false, 0)
	if c.Count() != 0 {
		t.Fatalf("aborted accesses produced findings: %v", c.Findings())
	}
}

func TestBarrierOrders(t *testing.T) {
	c := New(2)
	allocBlock(c, 0)
	c.OnAccess(0, base, true, 0)
	c.Barrier(0)
	c.txBegin(1, 0)
	c.txAccess(1, base, false)
	c.txCommit(1, 0)
	if c.Count() != 0 {
		t.Fatalf("barrier-ordered access reported: %v", c.Findings())
	}
}

func TestInTxRawAccessesIgnored(t *testing.T) {
	c := New(2)
	allocBlock(c, 0)
	c.txBegin(0, 0)
	c.txAccess(0, base, true)
	c.txCommit(0, 5)
	// ORT probes / write-back stores arrive as raw accesses while the
	// thread is inside a transaction; they must not count as raw.
	c.txBegin(1, 0)
	c.OnAccess(1, base, true, 0)
	c.txAbort(1)
	if c.Count() != 0 {
		t.Fatalf("in-tx raw access reported: %v", c.Findings())
	}
}

// TestMetadataRace is the seeded demo's shape: a block freed raw while
// another thread's transaction — whose snapshot predates the free —
// still touches it.
func TestMetadataRace(t *testing.T) {
	c := New(2)
	allocBlock(c, 0)
	c.txBegin(0, 0)
	c.txAccess(0, base, true)
	c.txCommit(0, 3)
	c.OnHeapFree(base, 0, 0) // raw free, never went through the STM
	c.txBegin(1, 3)          // snapshot covers the commit, not the free
	c.txAccess(1, base, false)
	c.txCommit(1, 0)
	if got := kinds(c); !reflect.DeepEqual(got, []string{KindMetadata}) {
		t.Fatalf("findings = %v, want [metadata]", got)
	}
}

func TestMetadataOrderedClean(t *testing.T) {
	c := New(2)
	allocBlock(c, 0)
	c.txBegin(0, 0)
	c.txAccess(0, base, true)
	c.txCommit(0, 3)
	c.OnHeapFree(base, 0, 0)
	c.Barrier(0) // free ordered before the next phase
	c.txBegin(1, 3)
	c.txAccess(1, base, false)
	c.txCommit(1, 0)
	if c.Count() != 0 {
		t.Fatalf("ordered free reported: %v", c.Findings())
	}
}

func TestQuarantineBypass(t *testing.T) {
	c := New(2)
	allocBlock(c, 0)
	c.txFreeCommitted(0, base)
	c.OnHeapFree(base, 0, 0) // the commit's own free notification
	allocBlock(c, 1)         // reissued while still quarantined
	if got := kinds(c); !reflect.DeepEqual(got, []string{KindQuarantineBypass}) {
		t.Fatalf("findings = %v, want [quarantine-bypass]", got)
	}
}

// TestTxFreeReclaimClean walks the full legitimate lifecycle: tx free
// (with the zero-stores), quarantine, release by another thread, the
// allocator's raw metadata writes into the reclaimed block, and reuse.
func TestTxFreeReclaimClean(t *testing.T) {
	c := New(2)
	allocBlock(c, 0)
	c.txBegin(0, 0)
	c.txAccess(0, base, true) // payload write + free's zero-store
	c.txCommit(0, 4)
	c.txFreeCommitted(0, base)
	c.OnHeapFree(base, 0, 0) // commit's free notification (consumed)
	// t1 releases the quarantine and the allocator links the block
	// into a free list through the block's own words.
	c.quarantineRelease(1)
	c.OnHeapFree(base, 1, 0)
	c.OnAccess(1, base, true, 0) // free-list link write, raw
	// t1 then reuses the address.
	allocBlock(c, 1)
	c.txBegin(1, 4)
	c.txAccess(1, base, true)
	c.txCommit(1, 5)
	if c.Count() != 0 {
		t.Fatalf("legitimate reclaim lifecycle reported: %v", c.Findings())
	}
}

func TestDurableOrdering(t *testing.T) {
	c := New(1)
	c.txBegin(0, 0)
	c.durStore(0, base) // store visible before the log committed
	c.durLogCommitted(0)
	c.durStore(0, base+8) // ordered correctly
	c.durApply(0)
	c.txCommit(0, 2)
	if got := kinds(c); !reflect.DeepEqual(got, []string{KindDurableOrdering}) {
		t.Fatalf("findings = %v, want [durable-ordering]", got)
	}
}

func TestReadsetPromotion(t *testing.T) {
	c := New(3)
	allocBlock(c, 0)
	c.OnAccess(0, base, false, 0)
	c.OnAccess(1, base, false, 0) // concurrent with t0's read: promotes
	// t2 orders itself after t0 only, then tx-writes: the race is with
	// t1's read, which a single-epoch record would have lost.
	c.txBegin(0, 0)
	c.txCommit(0, 7)
	c.txBegin(2, 7)
	c.txAccess(2, base, true)
	c.txCommit(2, 8)
	fs := c.Findings()
	if len(fs) != 1 || fs[0].Kind != KindPrivatization || fs[0].Other != 1 {
		t.Fatalf("findings = %v, want one privatization against t1", fs)
	}
}

func TestUntrackedWordsIgnored(t *testing.T) {
	c := New(2)
	c.OnAccess(0, 0x5000, true, 0)
	c.txBegin(1, 0)
	c.txAccess(1, 0x5000, false)
	c.txCommit(1, 0)
	if c.Count() != 0 {
		t.Fatalf("untracked word reported: %v", c.Findings())
	}
}

func TestHeapReuseWipesHistory(t *testing.T) {
	c := New(2)
	allocBlock(c, 0)
	c.OnAccess(0, base, true, 0)
	c.OnHeapReuse(base, 1, 0) // tx-cache revival: fresh history
	c.txBegin(1, 0)
	c.txAccess(1, base, false)
	c.txCommit(1, 0)
	if c.Count() != 0 {
		t.Fatalf("reuse kept stale history: %v", c.Findings())
	}
}

func TestReleaseCompaction(t *testing.T) {
	c := New(2)
	allocBlock(c, 0)
	c.OnAccess(0, base, true, 0)
	for v := uint64(1); v <= compactAt+16; v++ {
		c.txBegin(0, v-1)
		c.txCommit(0, v)
	}
	if len(c.releases) >= compactAt {
		t.Fatalf("release list not compacted: %d entries", len(c.releases))
	}
	// Acquire through the compacted floor still orders the history.
	c.txBegin(1, compactAt+16)
	c.txAccess(1, base, false)
	c.txCommit(1, 0)
	if c.Count() != 0 {
		t.Fatalf("compacted acquire lost edges: %v", c.Findings())
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() *Checker {
		c := New(2)
		allocBlock(c, 0)
		c.OnAccess(0, base, true, 0)
		c.txBegin(1, 0)
		c.txAccess(1, base, false)
		c.txCommit(1, 0)
		c.OnHeapFree(base, 0, 0)
		c.txBegin(1, 0)
		c.txAccess(1, base+8, false)
		c.txCommit(1, 0)
		return c
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a.Info(), b.Info()) {
		t.Fatalf("replay diverged: %+v vs %+v", a.Info(), b.Info())
	}
	if !reflect.DeepEqual(a.Findings(), b.Findings()) {
		t.Fatalf("findings diverged: %v vs %v", a.Findings(), b.Findings())
	}
}

func TestInfoCounts(t *testing.T) {
	c := New(2)
	allocBlock(c, 0)
	c.OnAccess(0, base, true, 0)
	c.txBegin(1, 0)
	c.txAccess(1, base, false)
	c.txCommit(1, 0)
	info := c.Info()
	if !info.Checked || info.Findings != 1 || info.Publication != 1 {
		t.Fatalf("info = %+v", info)
	}
	if info.Blocks != 1 || info.Words != 3 || info.Events == 0 {
		t.Fatalf("coverage counters: %+v", info)
	}
	if info.First == "" {
		t.Fatalf("First empty with findings present")
	}
}

func TestSyncBarrierOrders(t *testing.T) {
	// The phase-barrier edge: t0 commits a tx write, both threads pass
	// a vtime.Barrier-style release/acquire on the same object, then t1
	// reads raw. Ordered — no privatization finding.
	c := New(2)
	allocBlock(c, 0)
	c.txBegin(0, 0)
	c.txAccess(0, base, true)
	c.txCommit(0, 10)
	obj := new(int)
	c.SyncRelease(0, obj)
	c.SyncRelease(1, obj)
	c.SyncAcquire(1, obj)
	c.SyncAcquire(0, obj)
	c.OnAccess(1, base, false, 0)
	if got := kinds(c); got != nil {
		t.Fatalf("findings = %v, want none (barrier orders the phases)", got)
	}
}

func TestSyncWithoutAcquireStillRaces(t *testing.T) {
	// Releasing into one object does not order accesses for a thread
	// that never acquires it (or acquires a different object).
	c := New(2)
	allocBlock(c, 0)
	c.txBegin(0, 0)
	c.txAccess(0, base, true)
	c.txCommit(0, 10)
	c.SyncRelease(0, new(int))
	c.SyncAcquire(1, new(int)) // different object: no edge
	c.OnAccess(1, base, false, 0)
	if got := kinds(c); !reflect.DeepEqual(got, []string{KindPrivatization}) {
		t.Fatalf("findings = %v, want [privatization]", got)
	}
}

func TestSyncReleaseClosesEpoch(t *testing.T) {
	// Work a thread does *after* releasing is not covered by the
	// release: t0 releases, then commits a tx write; t1 acquires only
	// the release, so the later write stays unordered.
	c := New(2)
	allocBlock(c, 0)
	obj := new(int)
	c.SyncRelease(0, obj)
	c.txBegin(0, 0)
	c.txAccess(0, base, true)
	c.txCommit(0, 10)
	c.SyncAcquire(1, obj)
	c.OnAccess(1, base, false, 0)
	if got := kinds(c); !reflect.DeepEqual(got, []string{KindPrivatization}) {
		t.Fatalf("findings = %v, want [privatization] (post-release work is unordered)", got)
	}
}
