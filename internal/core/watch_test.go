package core_test

import (
	"bytes"
	"encoding/json"
	"testing"

	_ "repro/internal/stamp/genome"

	"repro/internal/alloc"
	"repro/internal/core"
	"repro/internal/heapscope"
	"repro/internal/intset"
	"repro/internal/mem"
	"repro/internal/stamp"
)

// counter is a block watcher that only counts what it is told.
type counter struct{ mallocs, frees uint64 }

func (c *counter) OnHeapAlloc(string, mem.Addr, uint64, uint64, int, uint64) { c.mallocs++ }
func (c *counter) OnHeapFree(mem.Addr, int, uint64)                          { c.frees++ }
func (c *counter) OnHeapReuse(mem.Addr, int, uint64)                         {}

// withCounter runs fn with a counting watcher attached to every space
// next to the observers NewSystem attaches.
func withCounter(t *testing.T, fn func()) *counter {
	t.Helper()
	c := &counter{}
	restore := core.SetTestWatch(func(s *mem.Space) { s.Watch(c) })
	defer restore()
	fn()
	return c
}

func encode(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// checkCounts requires the counting watcher to have seen every malloc
// and free the allocator model counted. A transactional free is also
// announced when it enters the STM's quarantine, before the allocator
// sees it, so frees can only be over-reported.
func checkCounts(t *testing.T, c *counter, st alloc.Stats) {
	t.Helper()
	if st.Mallocs == 0 || c.mallocs != st.Mallocs || c.frees < st.Frees {
		t.Errorf("watcher saw %d mallocs / %d frees, allocator counted %d / %d",
			c.mallocs, c.frees, st.Mallocs, st.Frees)
	}
}

// TestSecondWatcherBesideHeapCollector attaches a counting watcher next
// to the heap collector on an intset run and a STAMP run: the run's
// result must not move, and the counter must see every malloc and free.
func TestSecondWatcherBesideHeapCollector(t *testing.T) {
	t.Run("intset", func(t *testing.T) {
		cfg := intset.Config{Kind: intset.LinkedList, Allocator: "tcmalloc", Threads: 4,
			InitialSize: 64, KeyRange: 128, UpdatePct: 60, OpsPerThread: 50}
		run := func() intset.Result {
			c := cfg
			c.Heap = heapscope.New(1 << 14)
			res, err := intset.Run(c)
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		want := run()
		var got intset.Result
		c := withCounter(t, func() { got = run() })
		if !bytes.Equal(encode(t, want), encode(t, got)) {
			t.Error("a second watcher changed the intset result")
		}
		checkCounts(t, c, got.AllocStats)
	})
	t.Run("stamp", func(t *testing.T) {
		cfg := stamp.Config{App: "genome", Allocator: "glibc", Threads: 2}
		run := func() stamp.Result {
			c := cfg
			c.Heap = heapscope.New(1 << 14)
			res, err := stamp.Run(c)
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		want := run()
		var got stamp.Result
		c := withCounter(t, func() { got = run() })
		if !bytes.Equal(encode(t, want), encode(t, got)) {
			t.Error("a second watcher changed the stamp result")
		}
		checkCounts(t, c, got.Alloc)
	})
}
