package cliflags

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/harness"
	"repro/internal/heapscope"
	"repro/internal/obs"
	"repro/internal/prof"
	"repro/internal/sweep"
)

// Cell is a single-cell run: the cell's payload, and the run record the
// binary completes before Write.
type Cell struct {
	Payload json.RawMessage
	Record  *obs.RunRecord // Sweep, Profile and Heap already filled in

	rec   *obs.Recorder
	stats sweep.Stats
	out   *Output
}

// RunCell runs one workload cell through session: key, spec and seed
// identify it (harness.Spec.Cell) and run executes it. It reports a
// cache hit on stderr, writes the -profile and -heap artifacts, and
// returns the cell with a run record for experiment.
func (w *Workload) RunCell(session *harness.Session, experiment, key string, spec any, seed uint64, run harness.CellFunc) (*Cell, error) {
	// The run is one cell, so its artifacts come straight from the
	// cell's own recorder.
	var rec *obs.Recorder
	cells := []sweep.Cell{session.Spec.Cell(key, spec, seed, func(r *obs.Recorder, pp *prof.Profiler, hc *heapscope.Collector) (any, error) {
		rec = r
		return run(r, pp, hc)
	})}
	outs, stats := session.RunCells(cells)
	out := outs[0]
	if out.Err != nil {
		return nil, out.Err
	}
	if out.Cached {
		fmt.Fprintf(os.Stderr, "cached result (%s, hash %.12s)\n", w.Dir, out.Hash)
	}
	record := obs.NewRunRecord(experiment)
	record.Sweep = w.Sweep.Info(cells, stats)
	if out.Profile != nil {
		record.Profile = out.Profile.Info()
		if err := w.WriteProfile(out.Profile); err != nil {
			return nil, err
		}
	}
	if out.Heap != nil {
		set := heapscope.NewSet(experiment)
		set.Add(out.Heap)
		record.Heap = set.Info()
		if err := w.WriteHeap(set); err != nil {
			return nil, err
		}
	}
	return &Cell{Payload: out.Payload, Record: record, rec: rec, stats: stats, out: w.Output}, nil
}

// Write attaches the cell's recorder to its record and writes the
// artifacts the output flags ask for.
func (c *Cell) Write() error {
	c.Record.Attach(c.rec)
	return c.out.Write(c.rec, c.stats, c.Record)
}

// WriteProfile writes pf to -profile (no-op when unset), picking the
// format from the file extension: .folded emits folded-stacks text,
// .pb.gz the gzipped pprof protobuf, anything else the canonical JSON
// form (the format tmprof reads).
func (w *Workload) WriteProfile(pf *prof.Profile) error {
	if w.profilePath == "" {
		return nil
	}
	f, err := os.Create(w.profilePath)
	if err != nil {
		return err
	}
	switch {
	case strings.HasSuffix(w.profilePath, ".folded"):
		err = pf.WriteFolded(f)
	case strings.HasSuffix(w.profilePath, ".pb.gz"):
		err = pf.WritePprof(f)
	default:
		err = pf.WriteJSON(f)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("write profile %s: %w", w.profilePath, err)
	}
	return nil
}

// WriteHeap writes the telemetry set to -heap (no-op when unset).
func (w *Workload) WriteHeap(set *heapscope.Set) error {
	if w.heapPath == "" {
		return nil
	}
	if err := set.WriteFile(w.heapPath); err != nil {
		return fmt.Errorf("write heap series %s: %w", w.heapPath, err)
	}
	return nil
}

// Durability, Pooling and Race print the report lines the workload
// binaries share, one tab-separated line each; each prints nothing when
// its block is nil.
func Durability(tw io.Writer, r *obs.RecoveryInfo) {
	switch {
	case r == nil:
	case r.Crashed:
		fmt.Fprintf(tw, "durability\tcrash at cycle %d (%s phase); recovery %s: %d logs replayed, %d torn, %d/%d meta words repaired\n",
			r.CrashCycle, r.CrashPhase, r.Verdict, r.Replayed, r.TornLogs, r.TornMeta, r.MetaWords)
	default:
		fmt.Fprintf(tw, "durability\t%d flushes, %d fences, %d log appends, %d metadata records\n",
			r.Flushes, r.Fences, r.LogAppends, r.MetaRecs)
	}
}

// Pooling prints the pool-traffic line (see Durability).
func Pooling(tw io.Writer, p *obs.PoolInfo) {
	if p != nil {
		fmt.Fprintf(tw, "pooling\t%s: %d hits, %d misses, %d returns (%d held at end)\n",
			p.Discipline, p.Hits, p.Misses, p.Returns, p.Held)
	}
}

// Race prints the race checker's verdict line (see Durability).
func Race(tw io.Writer, r *obs.RaceInfo) {
	switch {
	case r == nil:
	case r.Findings > 0:
		fmt.Fprintf(tw, "race\t%d finding(s) over %d blocks / %d words; first: %s\n",
			r.Findings, r.Blocks, r.Words, r.First)
	default:
		fmt.Fprintf(tw, "race\tclean: %d events over %d blocks / %d words\n",
			r.Events, r.Blocks, r.Words)
	}
}
