// Package cliflags is the shared front end of the tm* binaries: the
// workload flag group (Add), which writes the robustness, pooling and
// observer flags straight into a harness.Spec; the sweep group (-jobs,
// -cache, -no-cache); the artifact-output group (-trace, -metrics,
// -json) with its one writer; and the single-cell runner (RunCell).
// Flag values that name things — contention managers, fault plans,
// pooling disciplines — are validated while flags parse, so a typo
// fails immediately with the allowed names instead of minutes into a
// sweep.
package cliflags

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"

	"repro/internal/fault"
	"repro/internal/harness"
	"repro/internal/heapscope"
	"repro/internal/obs"
	"repro/internal/stm"
	"repro/internal/sweep"
)

// Workload is the parsed workload flag group. The policy, pooling and
// observer flags land in Spec as they parse; Session completes it from
// the output, profile and heap flags.
type Workload struct {
	Spec harness.Spec
	*Sweep
	*Output
	profilePath string
	heapPath    string
}

// Add registers the workload flag group on fs: -cm, -retry-cap, -fault,
// -deadline, -pmem, -crash, -pool, -race-sim, -conflict, the sweep and
// output groups, -sanitize, -profile, -heap and -heap-cadence.
func Add(fs *flag.FlagSet) *Workload {
	w := &Workload{Sweep: AddSweep(fs), Output: AddOutput(fs)}
	s := &w.Spec
	fs.Func("cm", "contention manager: "+strings.Join(stm.CMNames(), ", "), func(v string) error {
		cm, err := stm.ParseCM(v)
		if err != nil {
			return fmt.Errorf("unknown contention manager %q (allowed: %s)", v, strings.Join(stm.CMNames(), ", "))
		}
		s.CM = cm
		return nil
	})
	fs.Uint64Var(&s.RetryCap, "retry-cap", 0, "aborts before the irrevocable fallback (0 = default)")
	fs.Func("fault", "fault plan injected into every workload (internal/fault grammar)", func(v string) error {
		if _, err := fault.Parse(v, 1); err != nil {
			return err
		}
		s.Fault = v
		return nil
	})
	fs.Uint64Var(&s.Deadline, "deadline", 0, "virtual-cycle watchdog bound per workload phase (0 = none)")
	fs.BoolVar(&s.Pmem, "pmem", false,
		"durable simulated heap: redo-logged commits with priced flush/fence and a recovery verdict in run records")
	fs.Func("crash", "crash-injection clauses (crash@N, crash%P, crashphase:<commit|apply|malloc>); implies -pmem", func(v string) error {
		plan, err := fault.Parse(v, 1)
		if err != nil {
			return err
		}
		if !plan.HasCrash() {
			return fmt.Errorf("spec %q contains no crash clause", v)
		}
		s.Crash = v
		return nil
	})
	fs.Func("pool", "tx-object pooling discipline: "+strings.Join(stm.PoolingNames(), ", "), func(v string) error {
		d, err := stm.ParsePooling(v)
		if err != nil {
			return fmt.Errorf("unknown pooling discipline %q (allowed: %s)", v, strings.Join(stm.PoolingNames(), ", "))
		}
		s.Pool = d
		return nil
	})
	fs.BoolVar(&s.Race, "race-sim", false, "attach the happens-before race checker to every cell (bypasses the cache)")
	fs.BoolVar(&s.Conflict, "conflict", false, "attach the abort-forensics observatory to every cell (bypasses the cache)")
	AddSanitize(fs)
	fs.StringVar(&w.profilePath, "profile", "",
		"write the virtual-cycle profile to this file (.folded = folded stacks, .pb.gz = gzipped pprof, else JSON)")
	fs.StringVar(&w.heapPath, "heap", "",
		"write the tmheap/series/v1 allocator-state telemetry to this file")
	fs.Uint64Var(&s.HeapCadence, "heap-cadence", heapscope.DefaultCadence,
		"virtual cycles between heap snapshots")
	return w
}

// Session completes the spec from the output, profile and heap flags,
// validates it and opens the cell cache: the session every cell of the
// run goes through.
func (w *Workload) Session() (*harness.Session, error) {
	w.Spec.Obs = w.NewRecorder()
	w.Spec.Profile = w.profilePath != ""
	w.Spec.Heap = w.heapPath != ""
	if err := w.Spec.Validate(); err != nil {
		return nil, err
	}
	cache, err := w.Open()
	if err != nil {
		return nil, err
	}
	return &harness.Session{Spec: &w.Spec, Jobs: w.Jobs, Cache: cache}, nil
}

// Sweep is the parsed scheduler group.
type Sweep struct {
	Jobs    int
	Dir     string
	NoCache bool
}

// AddSweep registers -jobs, -cache and -no-cache on fs.
func AddSweep(fs *flag.FlagSet) *Sweep {
	s := &Sweep{}
	fs.IntVar(&s.Jobs, "jobs", runtime.NumCPU(),
		"host goroutine pool width for sweep cells (results are byte-identical for any value)")
	fs.StringVar(&s.Dir, "cache", "", "directory memoizing finished cells by config hash ('' disables)")
	fs.BoolVar(&s.NoCache, "no-cache", false, "disable the cell cache even when -cache is set")
	return s
}

// Open returns the configured cell cache (nil when disabled).
func (s *Sweep) Open() (*sweep.Cache, error) {
	if s.NoCache || s.Dir == "" {
		return nil, nil
	}
	return sweep.OpenCache(s.Dir)
}

// Info is a run record's sweep block: the cells' identity and how many
// of them ran or came from the cache, at the -jobs width.
func (s *Sweep) Info(cells []sweep.Cell, stats sweep.Stats) *obs.SweepInfo {
	return &obs.SweepInfo{
		CellSet:  sweep.CellSetHash(cells),
		Cells:    stats.Cells,
		Executed: stats.Executed,
		Cached:   stats.Cached,
		Jobs:     s.Jobs,
	}
}

// Output is the parsed artifact group.
type Output struct {
	Trace   string
	Metrics string
	JSON    string
}

// AddOutput registers -trace, -metrics and -json on fs.
func AddOutput(fs *flag.FlagSet) *Output {
	o := &Output{}
	fs.StringVar(&o.Trace, "trace", "",
		"write the event trace here: Chrome trace-event JSON (Perfetto-loadable), or JSON Lines if the path ends in .jsonl")
	fs.StringVar(&o.Metrics, "metrics", "", "write a Prometheus text-format metrics snapshot here")
	fs.StringVar(&o.JSON, "json", "", "write machine-readable run records (JSON) here")
	return o
}

// Enabled reports whether any artifact output was requested.
func (o *Output) Enabled() bool { return o.Trace != "" || o.Metrics != "" || o.JSON != "" }

// NewRecorder returns a recorder when any artifact needs one.
func (o *Output) NewRecorder() *obs.Recorder {
	if !o.Enabled() {
		return nil
	}
	return obs.New(obs.Config{})
}

// Write writes the artifacts the output flags ask for: the records to
// -json, rec's metrics followed by the sweep's to -metrics, and rec's
// event trace to -trace (JSON Lines if the path ends in .jsonl, else
// Chrome trace-event JSON).
func (o *Output) Write(rec *obs.Recorder, stats sweep.Stats, records ...*obs.RunRecord) error {
	if o.JSON != "" {
		if err := WriteTo(o.JSON, func(w io.Writer) error { return obs.WriteRunRecords(w, records) }); err != nil {
			return err
		}
	}
	if o.Metrics != "" {
		if err := WriteTo(o.Metrics, func(w io.Writer) error {
			if err := rec.WritePrometheus(w); err != nil {
				return err
			}
			return stats.WritePrometheus(w)
		}); err != nil {
			return err
		}
	}
	if o.Trace == "" {
		return nil
	}
	write := rec.WriteChromeTrace
	if strings.HasSuffix(o.Trace, ".jsonl") {
		write = rec.WriteJSONL
	}
	return WriteTo(o.Trace, write)
}

// WriteTo creates path (and its directory) and streams fn into it.
func WriteTo(path string, fn func(io.Writer) error) error {
	if dir := filepath.Dir(path); dir != "." && dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fn(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
