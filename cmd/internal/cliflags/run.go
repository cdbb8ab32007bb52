package cliflags

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"repro/internal/core"
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
// identify it (harness.Spec.Cell) and run executes it. It writes the
// -profile and -heap artifacts and returns the cell with a run record
// for experiment.
func (w *Workload) RunCell(session *harness.Session, experiment, key string, spec any, seed uint64, run harness.CellFunc) (*Cell, error) {
	// The run is one cell, so it records straight into the session
	// recorder, which Write writes. The cell is built from a spec copy
	// without that recorder, so it gets no sibling for RunCells to fold
	// in, and its profiler is linked to the session recorder here.
	rec := session.Spec.Obs
	cellSpec := *session.Spec
	cellSpec.Obs = nil
	cells := []sweep.Cell{cellSpec.Cell(key, spec, seed, func(in core.Instruments) (any, error) {
		in.Obs = rec
		in.Prof.SetRecorder(rec)
		return run(in)
	})}
	outs, stats := session.RunCells(cells)
	out := outs[0]
	if out.Err != nil {
		return nil, out.Err
	}
	record := obs.NewRunRecord(experiment)
	record.Sweep = SweepInfo(cells, stats)
	h, _ := out.Harvest.(*harness.Harvest)
	if h != nil && h.Profile != nil {
		record.Profile = h.Profile.Info()
		if err := w.WriteProfile(h.Profile); err != nil {
			return nil, err
		}
	}
	if h != nil && h.Heap != nil {
		set := heapscope.NewSet(experiment)
		set.Add(h.Heap)
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
	write := pf.WriteJSON
	switch {
	case strings.HasSuffix(w.profilePath, ".folded"):
		write = pf.WriteFolded
	case strings.HasSuffix(w.profilePath, ".pb.gz"):
		write = pf.WritePprof
	}
	if err := WriteTo(w.profilePath, write); err != nil {
		return fmt.Errorf("write profile %s: %w", w.profilePath, err)
	}
	return nil
}

// WriteHeap writes the telemetry set to -heap (no-op when unset).
func (w *Workload) WriteHeap(set *heapscope.Set) error {
	if w.heapPath == "" {
		return nil
	}
	if err := WriteTo(w.heapPath, set.WriteJSON); err != nil {
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
