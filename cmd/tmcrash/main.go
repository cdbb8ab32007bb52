// Command tmcrash runs the durable twin of the paper's Table 5: a
// crash→recover→verify matrix over the four allocator models. Each cell
// runs the synthetic benchmark with the durable heap attached, halts it
// deterministically at a chosen commit-phase checkpoint, recovers, and
// verifies the recovery invariants (no lost committed writes, no
// resurrected freed blocks, free-list closure, shadow consistency). The
// report ranks which allocator's metadata layout tears worst — the
// fraction of journal-covered metadata words recovery had to repair.
//
// Usage:
//
//	tmcrash                         # 4 allocators x 3 crash phases
//	tmcrash -alloc glibc,tcmalloc -at 7
//	tmcrash -jobs 8 -json out/crash.json
//
// Exit status is nonzero when any cell's recovery verdict is not ok.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"text/tabwriter"

	_ "repro/internal/alloc/glibc"
	_ "repro/internal/alloc/hoard"
	_ "repro/internal/alloc/tbb"
	_ "repro/internal/alloc/tcmalloc"

	"repro/cmd/internal/cliflags"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/intset"
	"repro/internal/obs"
	"repro/internal/sweep"
)

// phases are the commit-path checkpoint families a crash can target.
var phases = []string{"commit", "apply", "malloc"}

// agg accumulates one allocator's tear surface across its crash cells.
type agg struct {
	torn, words uint64
	bad         int
}

// ratio is the tear fraction: journal-covered metadata words recovery
// had to rewrite.
func (a *agg) ratio() float64 {
	if a.words == 0 {
		return 0
	}
	return float64(a.torn) / float64(a.words)
}

func main() {
	var (
		threads = cliflags.Threads(flag.CommandLine, 4)
		initial = flag.Int("initial", 128, "initial set size")
		ops     = flag.Int("ops", 200, "operations per thread")
		updates = flag.Int("updates", 60, "update percentage")
		at      = flag.Uint64("at", 200, "crash at the N-th checkpoint of each phase (default lands past initialization, with frees in flight)")
		seed    = flag.Uint64("seed", 0, "workload seed (0 = default)")
		sanit   = flag.Bool("sanitize", false, "attach the shadow-memory sanitizer to every cell; recovery also checks the shadow map against the journal")
	)
	allocs := cliflags.Allocs(flag.CommandLine, "alloc", "allocators to crash")
	kind := cliflags.Kind(flag.CommandLine)
	sw := cliflags.AddSweep(flag.CommandLine)
	outp := cliflags.AddOutput(flag.CommandLine)
	flag.Parse()

	rec := outp.NewRecorder()
	spec := &harness.Spec{Obs: rec}
	type cellID struct {
		alloc, phase string
	}
	var ids []cellID
	var cells []sweep.Cell
	for _, a := range *allocs {
		for _, ph := range phases {
			cfg := intset.Config{
				Kind:         *kind,
				Allocator:    a,
				Threads:      *threads,
				InitialSize:  *initial,
				OpsPerThread: *ops,
				UpdatePct:    *updates,
				Seed:         *seed,
				Policy:       core.Policy{Crash: fmt.Sprintf("crashphase:%s@%d", ph, *at), Sanitize: *sanit},
			}
			key := fmt.Sprintf("tmcrash/%s/%s/%s/t%d/i%d/o%d/u%d/at%d",
				*kind, a, ph, *threads, *initial, *ops, *updates, *at)
			runCfg := cfg
			cells = append(cells, spec.Cell(key, cfg, *seed, func(in core.Instruments) (any, error) {
				c := runCfg
				c.Instruments = in
				return intset.Run(c)
			}))
			ids = append(ids, cellID{alloc: a, phase: ph})
		}
	}

	session := &harness.Session{Spec: spec, Jobs: sw.Jobs}
	outs, stats := session.RunCells(cells)

	record := obs.NewRunRecord("tmcrash")
	record.Title = "Crash→recover→verify matrix across allocators (durable Table 5 twin)"
	record.Config = obs.RunConfig{Seed: *seed, Extra: map[string]string{
		"kind": string(*kind), "threads": fmt.Sprintf("%d", *threads), "at": fmt.Sprintf("%d", *at),
	}}
	record.Sweep = cliflags.SweepInfo(cells, stats)

	perAlloc := map[string]*agg{}
	table := obs.Table{
		Title: "Crash matrix",
		Columns: []string{"Allocator", "Phase", "CrashCycle", "TornLogs", "Replayed",
			"TornMeta", "MetaWords", "Lost", "Resurrected", "ChainBreaks", "Verdict"},
	}
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, strings.Join(table.Columns, "\t"))
	notOK := 0
	var worst *obs.RecoveryInfo
	for i, out := range outs {
		id := ids[i]
		if out.Err != nil {
			fmt.Fprintf(os.Stderr, "%s/%s: %v\n", id.alloc, id.phase, out.Err)
			notOK++
			continue
		}
		var res intset.Result
		if err := json.Unmarshal(out.Payload, &res); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		r := res.Recovery
		if r == nil || !r.Crashed {
			fmt.Fprintf(os.Stderr, "%s/%s: crash never fired (raise -ops or lower -at)\n", id.alloc, id.phase)
			notOK++
			continue
		}
		if r.Verdict != obs.StatusOK {
			notOK++
		}
		worst = worst.Merge(r)
		a := perAlloc[id.alloc]
		if a == nil {
			a = &agg{}
			perAlloc[id.alloc] = a
		}
		a.torn += r.TornMeta
		a.words += r.MetaWords
		if r.Verdict != obs.StatusOK {
			a.bad++
		}
		row := []string{
			harness.DisplayName(id.alloc), id.phase,
			fmt.Sprintf("%d", r.CrashCycle),
			fmt.Sprintf("%d", r.TornLogs), fmt.Sprintf("%d", r.Replayed),
			fmt.Sprintf("%d", r.TornMeta), fmt.Sprintf("%d", r.MetaWords),
			fmt.Sprintf("%d", r.LostWrites), fmt.Sprintf("%d", r.Resurrected),
			fmt.Sprintf("%d", r.ChainBreaks), r.Verdict,
		}
		table.Rows = append(table.Rows, row)
		fmt.Fprintln(tw, strings.Join(row, "\t"))
	}
	tw.Flush()

	// Tear ranking: metadata words recovery had to rewrite, as a share
	// of the words its journal covers. In-band layouts (glibc's header
	// and size words inside every chunk) expose more surface than pure
	// link-word layouts, exactly as Table 5's per-allocator overhead
	// ranking would predict for a durable heap.
	rank := obs.Table{
		Title:   "Metadata tear ranking (worst first)",
		Columns: []string{"Allocator", "TornMeta", "MetaWords", "Torn%", "BadVerdicts"},
	}
	order := make([]string, 0, len(perAlloc))
	for a := range perAlloc {
		order = append(order, a)
	}
	sort.Slice(order, func(i, j int) bool {
		ri, rj := perAlloc[order[i]].ratio(), perAlloc[order[j]].ratio()
		if ri != rj {
			return ri > rj
		}
		return order[i] < order[j]
	})
	fmt.Printf("\nmetadata tear ranking (worst first):\n")
	tw = tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, strings.Join(rank.Columns, "\t"))
	for _, a := range order {
		g := perAlloc[a]
		row := []string{
			harness.DisplayName(a),
			fmt.Sprintf("%d", g.torn), fmt.Sprintf("%d", g.words),
			fmt.Sprintf("%.1f", g.ratio()*100), fmt.Sprintf("%d", g.bad),
		}
		rank.Rows = append(rank.Rows, row)
		fmt.Fprintln(tw, strings.Join(row, "\t"))
	}
	tw.Flush()
	if len(order) > 0 {
		fmt.Printf("\n%s tears worst: %.1f%% of journal-covered metadata words needed repair\n",
			harness.DisplayName(order[0]), perAlloc[order[0]].ratio()*100)
	}

	record.Tables = []obs.Table{table, rank}
	if notOK == 0 {
		record.Status = obs.StatusOK
	} else {
		record.Status = obs.StatusFailed
		record.Failure = fmt.Sprintf("%d of %d crash cells did not recover cleanly", notOK, len(cells))
	}
	record.Recovery = worst
	record.Attach(rec)
	if err := outp.Write(rec, stats, record); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if notOK > 0 {
		fmt.Fprintf(os.Stderr, "tmcrash: %d cell(s) failed the recovery gate\n", notOK)
		os.Exit(1)
	}
}
