package cliflags

import (
	"flag"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/alloc"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/heapscope"
	"repro/internal/intset"
	"repro/internal/obs"
	"repro/internal/prof"
	"repro/internal/stm"
)

// parse registers the workload group on a fresh flag set and parses
// args into it.
func parse(args ...string) (*Workload, *flag.FlagSet, error) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	w := Add(fs)
	return w, fs, fs.Parse(args)
}

func TestAddRegistersTheGroup(t *testing.T) {
	_, fs, err := parse()
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"cm", "conflict", "crash", "deadline", "fault", "heap", "heap-cadence",
		"jobs", "json", "metrics", "pmem", "pool", "profile", "race-sim",
		"retry-cap", "sanitize", "trace",
	}
	if got := flagNames(fs); !reflect.DeepEqual(got, want) {
		t.Fatalf("flags = %v\nwant    %v", got, want)
	}
}

// TestAddSweepRegistersOnlyJobs checks that the sweep group is the pool
// width alone: no binary can point its cells at a cell cache.
func TestAddSweepRegistersOnlyJobs(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	AddSweep(fs)
	if got, want := flagNames(fs), []string{"jobs"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("flags = %v, want %v", got, want)
	}
}

// flagNames returns the names registered on fs, sorted.
func flagNames(fs *flag.FlagSet) []string {
	var got []string
	fs.VisitAll(func(f *flag.Flag) { got = append(got, f.Name) })
	sort.Strings(got)
	return got
}

func TestFlagsLandInTheSpec(t *testing.T) {
	w, _, err := parse("-cm", "karma", "-retry-cap", "32", "-deadline", "5000000000",
		"-fault", "oom%1", "-pmem", "-crash", "crash@9", "-pool", "batch", "-race-sim",
		"-conflict", "-sanitize", "-profile", "p", "-heap", "h", "-heap-cadence", "5000", "-json", "r")
	if err != nil {
		t.Fatal(err)
	}
	session, err := w.Session()
	if err != nil {
		t.Fatal(err)
	}
	want := core.Policy{CM: stm.CMKarma, RetryCap: 32, Fault: "oom%1", Deadline: 5000000000,
		Pmem: true, Crash: "crash@9", Sanitize: true, Race: true, Conflict: true}
	if p := w.Spec.Policy; p != want {
		t.Fatalf("policy = %+v\nwant     %+v", p, want)
	}
	s := w.Spec
	if s.Pool != stm.PoolBatch || !s.Profile || !s.Heap || s.HeapCadence != 5000 || s.Obs == nil {
		t.Fatalf("spec: pool %v, profile %v, heap %v, cadence %d, recorder %v",
			s.Pool, s.Profile, s.Heap, s.HeapCadence, s.Obs != nil)
	}
	extra := session.Record(&harness.ExperimentRun{ID: "x"}).Config.Extra
	wantExtra := map[string]string{"cm": "karma", "retry_cap": "32", "fault": "oom%1",
		"deadline": "5000000000", "pmem": "on", "crash": "crash@9", "pool": "batch"}
	if !reflect.DeepEqual(extra, wantExtra) {
		t.Fatalf("record extras = %v\nwant            %v", extra, wantExtra)
	}
}

func TestZeroRetryCapIsTheDefault(t *testing.T) {
	w, _, err := parse("-retry-cap", "0")
	if err != nil {
		t.Fatal(err)
	}
	session, err := w.Session()
	if err != nil {
		t.Fatal(err)
	}
	if extra := session.Record(&harness.ExperimentRun{ID: "x"}).Config.Extra; extra != nil {
		t.Fatalf("record extras = %v, want none", extra)
	}
}

// TestPoolNoneIsNoOverride checks that -pool none is the flag's zero
// value: it gives the spec no -pool flag gives, so every cell key,
// derived seed and run record stays as it is without the flag.
func TestPoolNoneIsNoOverride(t *testing.T) {
	plain, _, err := parse()
	if err != nil {
		t.Fatal(err)
	}
	none, _, err := parse("-pool", "none")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(none.Spec, plain.Spec) {
		t.Fatalf("-pool none spec = %+v\nno -pool spec  = %+v", none.Spec, plain.Spec)
	}
}

func TestBadValuesFailWhileParsing(t *testing.T) {
	for _, args := range [][]string{{"-cm", "bogus"}, {"-pool", "bogus"}, {"-crash", "oom%1"}} {
		if _, _, err := parse(args...); err == nil {
			t.Errorf("%v parsed without error", args)
		}
	}
}

func TestAllocFlagsNameRegisteredAllocators(t *testing.T) {
	for _, c := range []struct {
		args []string
		one  string
		many []string
		ok   bool
	}{
		{nil, "glibc", alloc.Names(), true},
		{[]string{"-alloc", "tbb", "-allocs", "hoard, tcmalloc"}, "tbb", []string{"hoard", "tcmalloc"}, true},
		{[]string{"-allocs", "all"}, "glibc", alloc.Names(), true},
		{[]string{"-alloc", "bogus"}, "", nil, false},
		{[]string{"-alloc", "all"}, "", nil, false},
		{[]string{"-allocs", "glibc,bogus"}, "", nil, false},
	} {
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		var usage strings.Builder
		fs.SetOutput(&usage)
		one, many := Alloc(fs), Allocs(fs, "allocs", "allocators")
		err := fs.Parse(c.args)
		if !c.ok {
			if err == nil || !strings.Contains(usage.String(), "allowed: glibc, hoard, tbb, tcmalloc") {
				t.Errorf("%v: err %v, output %q; want an error naming the allowed values", c.args, err, usage.String())
			}
			continue
		}
		if err != nil || *one != c.one || !reflect.DeepEqual(*many, c.many) {
			t.Errorf("%v: %q, %v, err %v; want %q, %v", c.args, *one, *many, err, c.one, c.many)
		}
	}
}

// TestThreadsFlagAcceptsWhatCoreBuilds checks that -threads takes
// exactly the 1..cachesim.DefaultCores threads core.NewSystem builds a
// world for, and names that range when it refuses a value.
func TestThreadsFlagAcceptsWhatCoreBuilds(t *testing.T) {
	for _, c := range []struct {
		args []string
		want int
		ok   bool
	}{
		{nil, 4, true},
		{[]string{"-threads", "1"}, 1, true},
		{[]string{"-threads", "8"}, 8, true},
		{[]string{"-threads", "0"}, 0, false},
		{[]string{"-threads", "9"}, 0, false},
		{[]string{"-threads", "-1"}, 0, false},
		{[]string{"-threads", "two"}, 0, false},
	} {
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		var usage strings.Builder
		fs.SetOutput(&usage)
		n := Threads(fs, 4)
		err := fs.Parse(c.args)
		if !c.ok {
			if err == nil || !strings.Contains(usage.String(), "allowed: 1..8") {
				t.Errorf("%v: err %v, output %q; want an error naming 1..8", c.args, err, usage.String())
			}
			continue
		}
		if err != nil || *n != c.want {
			t.Errorf("%v: %d, err %v; want %d", c.args, *n, err, c.want)
		}
		if _, err := core.NewSystem(core.Options{Threads: *n}); err != nil {
			t.Errorf("%v: core.NewSystem refused an accepted count: %v", c.args, err)
		}
	}
}

// runCell runs one small intset cell through RunCell with args parsed
// into the workload group. It returns the cell, its session and the
// recorder the cell body was handed.
func runCell(t *testing.T, args ...string) (*Cell, *harness.Session, *obs.Recorder) {
	t.Helper()
	w, _, err := parse(args...)
	if err != nil {
		t.Fatal(err)
	}
	session, err := w.Session()
	if err != nil {
		t.Fatal(err)
	}
	cfg := intset.Config{Kind: intset.LinkedList, Allocator: "glibc", Threads: 2,
		InitialSize: 64, OpsPerThread: 50, UpdatePct: 20, Seed: 1}
	var rec *obs.Recorder
	cell, err := w.RunCell(session, "intset/stm", "test/intset", cfg, cfg.Seed,
		func(in core.Instruments) (any, error) {
			rec = in.Obs
			c := cfg
			c.Instruments = in
			return intset.Run(c)
		})
	if err != nil {
		t.Fatal(err)
	}
	return cell, session, rec
}

// TestRunCellRecordsOnce checks that a single cell records straight
// into the recorder Write writes, profiler spans included, and that no
// other recorder holds a copy of its events.
func TestRunCellRecordsOnce(t *testing.T) {
	dir := t.TempDir()
	cell, session, rec := runCell(t, "-trace", filepath.Join(dir, "t.jsonl"), "-profile", filepath.Join(dir, "p.json"))
	if rec == nil || rec != cell.rec {
		t.Fatalf("the cell recorded into %p, but Write writes %p", rec, cell.rec)
	}
	regions := 0
	for _, ev := range rec.Events() {
		if ev.Kind == obs.KindRegion {
			regions++
		}
	}
	if regions == 0 || regions == rec.EventCount() {
		t.Errorf("written recorder holds %d region spans among %d events; want both profiler spans and workload events",
			regions, rec.EventCount())
	}
	if other := session.Spec.Obs; other != rec && other.EventCount() > 0 {
		t.Errorf("the session recorder holds a second copy: %d events", other.EventCount())
	}
	if err := cell.Write(); err != nil {
		t.Fatal(err)
	}
}

// TestArtifactsCreateTheirDirectory checks that -profile and -heap,
// like the output flags, create a missing directory instead of failing
// once the run is over.
func TestArtifactsCreateTheirDirectory(t *testing.T) {
	dir := t.TempDir()
	profile := filepath.Join(dir, "a", "b", "p.json")
	heap := filepath.Join(dir, "c", "d", "h.json")
	w, _, err := parse("-profile", profile, "-heap", heap)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteProfile(&prof.Profile{Schema: prof.Schema, Label: "p"}); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteHeap(heapscope.NewSet("h")); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(profile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if pf, err := prof.ReadJSON(f); err != nil || pf.Label != "p" {
		t.Errorf("profile read back as %+v, %v", pf, err)
	}
	if set, err := heapscope.ReadFile(heap); err != nil || set.Label != "h" {
		t.Errorf("heap series read back as %+v, %v", set, err)
	}
}

// TestSweepBlockRecordsTheUsedWidth checks that the sweep block carries
// the pool width the scheduler ran at, not the raw -jobs value.
func TestSweepBlockRecordsTheUsedWidth(t *testing.T) {
	cell, _, _ := runCell(t, "-jobs", "0")
	if got := cell.Record.Sweep.Jobs; got != 1 {
		t.Errorf("sweep block jobs = %d at -jobs 0, want 1", got)
	}
}

func TestKindParsesTheStructure(t *testing.T) {
	for _, c := range []struct {
		args []string
		want intset.Kind
		ok   bool
	}{
		{nil, intset.LinkedList, true},
		{[]string{"-kind", "rbtree"}, intset.RBTree, true},
		{[]string{"-kind", "bogus"}, "", false},
	} {
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		k := Kind(fs)
		err := fs.Parse(c.args)
		if (err == nil) != c.ok || (c.ok && *k != c.want) {
			t.Errorf("%v: kind %q, err %v; want %q, ok %v", c.args, *k, err, c.want, c.ok)
		}
	}
}
