package cliflags

import (
	"flag"
	"io"
	"reflect"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/harness"
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
	var got []string
	fs.VisitAll(func(f *flag.Flag) { got = append(got, f.Name) })
	want := []string{
		"cache", "cm", "conflict", "crash", "deadline", "fault", "heap", "heap-cadence",
		"jobs", "json", "metrics", "no-cache", "pmem", "pool", "profile", "race-sim",
		"retry-cap", "sanitize", "trace",
	}
	sort.Strings(got)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("flags = %v\nwant    %v", got, want)
	}
}

func TestFlagsLandInTheSpec(t *testing.T) {
	w, _, err := parse("-cm", "karma", "-retry-cap", "32", "-deadline", "5000000000",
		"-fault", "oom%1", "-pmem", "-crash", "crash@9", "-pool", "cache", "-race-sim",
		"-conflict", "-profile", "p", "-heap", "h", "-heap-cadence", "5000", "-json", "r")
	if err != nil {
		t.Fatal(err)
	}
	session, err := w.Session()
	if err != nil {
		t.Fatal(err)
	}
	p := w.Spec.Policy()
	if p.Plan == nil || !p.Plan.HasCrash() {
		t.Fatalf("policy carries no parsed crash plan: %+v", p.Plan)
	}
	p.Plan = nil
	want := core.Policy{CM: stm.CMKarma, RetryCap: 32, Fault: "oom%1", Deadline: 5000000000,
		Pmem: true, Crash: "crash@9", Race: true, Conflict: true}
	if !reflect.DeepEqual(p, want) {
		t.Fatalf("policy = %+v\nwant     %+v", p, want)
	}
	s := w.Spec
	if s.Pool != stm.PoolCache || !s.Profile || !s.Heap || s.HeapCadence != 5000 || s.Obs == nil {
		t.Fatalf("spec: pool %v, profile %v, heap %v, cadence %d, recorder %v",
			s.Pool, s.Profile, s.Heap, s.HeapCadence, s.Obs != nil)
	}
	extra := session.Record(&harness.ExperimentRun{ID: "x"}).Config.Extra
	wantExtra := map[string]string{"cm": "karma", "retry_cap": "32", "fault": "oom%1",
		"deadline": "5000000000", "pmem": "on", "crash": "crash@9", "pool": "cache"}
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

func TestBadValuesFailWhileParsing(t *testing.T) {
	for _, args := range [][]string{{"-cm", "bogus"}, {"-pool", "bogus"}, {"-crash", "oom%1"}} {
		if _, _, err := parse(args...); err == nil {
			t.Errorf("%v parsed without error", args)
		}
	}
}
