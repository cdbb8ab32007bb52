package intset

import (
	"strings"
	"testing"

	_ "repro/internal/alloc/glibc"
	_ "repro/internal/alloc/hoard"
	_ "repro/internal/alloc/tbb"
	_ "repro/internal/alloc/tcmalloc"

	"repro/internal/alloc"
	"repro/internal/core"
)

// small returns a scaled-down config that preserves the paper's shape.
func small(kind Kind, allocator string, threads int) Config {
	return Config{
		Kind:         kind,
		Allocator:    allocator,
		Threads:      threads,
		InitialSize:  256,
		KeyRange:     512,
		UpdatePct:    60,
		OpsPerThread: 150,
		HashBuckets:  8192,
		Policy:       core.Policy{Sanitize: true},
	}
}

func TestAllKindsAllAllocatorsRun(t *testing.T) {
	for _, kind := range Kinds() {
		for _, name := range alloc.Names() {
			res, err := Run(small(kind, name, 4))
			if err != nil {
				t.Fatalf("%s/%s: %v", kind, name, err)
			}
			if res.Throughput <= 0 || res.Cycles == 0 {
				t.Errorf("%s/%s: degenerate result %+v", kind, name, res)
			}
			if res.Tx.Commits != res.Ops+0 && res.Tx.Commits < res.Ops {
				t.Errorf("%s/%s: commits %d < ops %d", kind, name, res.Tx.Commits, res.Ops)
			}
		}
	}
}

func TestDeterministic(t *testing.T) {
	cfg := small(LinkedList, "tcmalloc", 4)
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Cycles != b.Cycles || a.Tx.Aborts != b.Tx.Aborts {
		t.Errorf("nondeterministic: cycles %d/%d aborts %d/%d", a.Cycles, b.Cycles, a.Tx.Aborts, b.Tx.Aborts)
	}
}

// The paper's §5.1 finding (Table 4): on the sorted linked list Glibc's
// 32-byte-spaced nodes produce far fewer (false) aborts than the
// 16-byte-spaced nodes of Hoard/TBB/TCMalloc, at the price of a higher
// L1 miss ratio. The effect separates most cleanly below abort
// saturation, so this uses the paper's 2-thread point.
func TestLinkedListGlibcAbortAdvantage(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-config run")
	}
	cfgFor := func(name string) Config {
		cfg := small(LinkedList, name, 2)
		cfg.InitialSize = 1024
		cfg.KeyRange = 2048
		cfg.OpsPerThread = 200
		return cfg
	}
	glibc, err := Run(cfgFor("glibc"))
	if err != nil {
		t.Fatal(err)
	}
	hoard, err := Run(cfgFor("hoard"))
	if err != nil {
		t.Fatal(err)
	}
	if glibc.Tx.AbortRate() >= hoard.Tx.AbortRate() {
		t.Errorf("glibc abort rate %.3f >= hoard %.3f; stripe-sharing effect missing",
			glibc.Tx.AbortRate(), hoard.Tx.AbortRate())
	}
	if glibc.L1Miss <= hoard.L1Miss {
		t.Errorf("glibc L1 miss %.4f <= hoard %.4f; locality penalty missing",
			glibc.L1Miss, hoard.L1Miss)
	}
	if hoard.Tx.FalseAborts == 0 {
		t.Error("hoard recorded no false aborts on the linked list")
	}
}

// Read-only workloads must never abort.
func TestReadOnlyNoAborts(t *testing.T) {
	cfg := small(RBTree, "tbb", 4)
	cfg.UpdatePct = 0
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Tx.Aborts != 0 {
		t.Errorf("read-only run aborted %d times", res.Tx.Aborts)
	}
}

// Single-threaded runs must never abort either.
func TestSingleThreadNoAborts(t *testing.T) {
	res, err := Run(small(HashSet, "tcmalloc", 1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Tx.Aborts != 0 {
		t.Errorf("1-thread run aborted %d times", res.Tx.Aborts)
	}
}

func TestParseKind(t *testing.T) {
	for _, c := range []struct {
		in   string
		want Kind
		ok   bool
	}{
		{"linkedlist", LinkedList, true},
		{"hashset", HashSet, true},
		{"rbtree", RBTree, true},
		{"bogus", "", false},
		{"RBTree", "", false},
		{"", "", false},
	} {
		got, err := ParseKind(c.in)
		if (err == nil) != c.ok || got != c.want {
			t.Errorf("ParseKind(%q) = %q, %v; want %q, ok %v", c.in, got, err, c.want, c.ok)
		}
		if err != nil && !strings.Contains(err.Error(), "linkedlist, hashset, rbtree") {
			t.Errorf("ParseKind(%q) error %q names no allowed values", c.in, err)
		}
	}
}
