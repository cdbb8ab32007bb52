// Command tmrepro regenerates the tables and figures of "Performance
// Implications of Dynamic Memory Allocators on Transactional Memory
// Systems" (PPoPP 2015) on this repository's simulated substrate.
//
// Experiments decompose into independent (configuration, repetition)
// cells that run on a work-stealing goroutine pool (-jobs) and memoize
// into an on-disk cache (-cache); output bytes are identical for any
// pool width, and a repeated invocation with the same cache serves
// every cell from disk.
//
// Usage:
//
//	tmrepro -list
//	tmrepro -run fig1,tab4
//	tmrepro -run all -full -reps 5 -out results/ -jobs 8 -cache .tmcache
//	tmrepro -run fig4 -quick -trace out.json -metrics out.prom -json out/run.json
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/cmd/internal/cliflags"
	"repro/internal/harness"
	"repro/internal/heapscope"
	"repro/internal/obs"
	"repro/internal/prof"
)

func main() {
	var (
		list  = flag.Bool("list", false, "list available experiments and exit")
		run   = flag.String("run", "", "comma-separated experiment ids, or 'all'")
		full  = flag.Bool("full", false, "paper-scale parameters (slow)")
		quick = flag.Bool("quick", false, "quick-scale parameters (the default; overrides -full)")
		reps  = flag.Int("reps", 0, "repetitions per configuration (0 = per-experiment default)")
		seed  = flag.Uint64("seed", 0, "base seed (0 = default)")
		out   = flag.String("out", "", "directory to also write per-experiment .txt and BENCH_<id>.json files into")
		chart = flag.Bool("chart", true, "render figures' series as ASCII charts")
		md    = flag.Bool("md", false, "emit GitHub-flavoured markdown instead of plain tables")
	)
	w := cliflags.Add(flag.CommandLine)
	flag.Parse()
	if *quick {
		*full = false
	}

	if *list || *run == "" {
		fmt.Println("experiments:")
		for _, id := range harness.IDs() {
			e, _ := harness.Get(id)
			fmt.Printf("  %-6s %s\n", id, e.Paper)
		}
		if *run == "" && !*list {
			fmt.Println("\nuse -run <ids|all>")
		}
		return
	}

	var ids []string
	if *run == "all" {
		ids = harness.IDs()
	} else {
		for _, id := range strings.Split(*run, ",") {
			ids = append(ids, strings.TrimSpace(id))
		}
	}

	w.Spec.Full = *full
	if *reps > 0 {
		w.Spec.Reps = reps
	}
	if *seed != 0 {
		w.Spec.Seed = seed
	}
	session, err := w.Session()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	fmt.Fprintf(os.Stderr, "running %d experiment(s) with -jobs %d...\n", len(ids), w.Jobs)
	watch := cliflags.StartStopwatch()
	runs, stats := session.Run(ids)
	fmt.Fprintf(os.Stderr, "sweep: %s\n", stats)

	var records []*obs.RunRecord
	failed := 0
	for _, r := range runs {
		if r.Err != nil {
			// A failing experiment still yields a valid failed-status run
			// record, so downstream tooling sees the outcome, not a gap.
			fmt.Fprintf(os.Stderr, "%s failed: %v\n", r.ID, r.Err)
			failed++
			r.Health.Note(obs.StatusFailed, r.Err.Error())
			if w.Enabled() || *out != "" {
				rec := session.Record(r)
				records = append(records, rec)
				if *out != "" {
					if mkErr := os.MkdirAll(*out, 0o755); mkErr == nil {
						cliflags.WriteTo(filepath.Join(*out, "BENCH_"+r.ID+".json"), rec.WriteJSON)
					}
				}
			}
			continue
		}
		if s := r.Health.Status(); s != "" && s != obs.StatusOK {
			fmt.Fprintf(os.Stderr, "%s status: %s (%s)\n", r.ID, s, r.Health.Failure())
		}
		if rc := r.Recovery; rc != nil && rc.Crashed {
			fmt.Fprintf(os.Stderr, "%s durability: crash at cycle %d (%s phase); recovery %s\n",
				r.ID, rc.CrashCycle, rc.CrashPhase, rc.Verdict)
		}

		writers := []io.Writer{os.Stdout}
		if *out != "" {
			if err := os.MkdirAll(*out, 0o755); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			f, err := os.Create(filepath.Join(*out, r.ID+".txt"))
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			writers = append(writers, f)
			defer f.Close()
		}
		mw := io.MultiWriter(writers...)
		if *md {
			harness.PrintMarkdown(mw, r.Result)
		} else {
			harness.Print(mw, r.Result)
			if *chart && len(r.Result.Series) > 0 {
				harness.Chart(mw, r.Result, 64, 14)
			}
		}

		if w.Enabled() || *out != "" {
			rec := session.Record(r)
			records = append(records, rec)
			if *out != "" {
				if err := cliflags.WriteTo(filepath.Join(*out, "BENCH_"+r.ID+".json"), rec.WriteJSON); err != nil {
					fmt.Fprintln(os.Stderr, err)
					os.Exit(1)
				}
			}
		}
	}
	fmt.Fprintf(os.Stderr, "done in %v\n", watch.Elapsed())

	if w.Spec.Profile {
		var profiles []*prof.Profile
		for _, r := range runs {
			if r.Profile != nil {
				profiles = append(profiles, r.Profile)
			}
		}
		merged := prof.Merge(profiles...)
		merged.Label = strings.Join(ids, ",")
		if err := w.WriteProfile(merged); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	if w.Spec.Heap {
		set := heapscope.NewSet(strings.Join(ids, ","))
		for _, r := range runs {
			if r.Heap != nil {
				set.Series = append(set.Series, r.Heap.Series...)
			}
		}
		if err := w.WriteHeap(set); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	if err := w.Write(w.Spec.Obs, stats, records...); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if failed > 0 {
		os.Exit(1)
	}
}
