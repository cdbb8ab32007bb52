// Command tmwhy answers "why did my transaction abort?": it runs the
// paper's write-dominated synthetic benchmark with the abort-forensics
// observatory attached and dissects every abort into true sharing,
// allocator-induced false sharing, ORT stripe aliasing, heap-metadata
// conflicts and unattributable rollbacks — then compares allocators by
// how many wasted cycles their placement decisions caused (the
// forensic counterpart of the paper's Table 5).
//
// Usage:
//
//	tmwhy                                    all allocators, linked list, 8 threads
//	tmwhy -allocs glibc,tcmalloc -top 8      two-allocator diff, deeper tables
//	tmwhy -allocs glibc -dot glibc.dot       export one conflict graph to graphviz
//	tmwhy -kind rbtree -threads 4 -json out.json
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"text/tabwriter"

	_ "repro/internal/alloc/glibc"
	_ "repro/internal/alloc/hoard"
	_ "repro/internal/alloc/tbb"
	_ "repro/internal/alloc/tcmalloc"

	"repro/cmd/internal/cliflags"
	"repro/internal/conflict"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/intset"
	"repro/internal/obs"
)

func main() {
	var (
		threads = cliflags.Threads(flag.CommandLine, 8)
		updates = flag.Int("updates", 60, "update percentage")
		full    = flag.Bool("full", false, "paper-scale parameters (slow)")
		seed    = flag.Uint64("seed", 0, "workload seed")
		top     = flag.Int("top", 5, "rows per killer/blame/offender table")
		dot     = flag.String("dot", "", "write the conflict graph as graphviz (requires a single allocator)")
		jsonOut = flag.String("json", "", "write the tmwhy run record as JSON")
	)
	allocs := cliflags.Allocs(flag.CommandLine, "allocs", "allocators to compare")
	kind := cliflags.Kind(flag.CommandLine)
	flag.Parse()

	names := *allocs
	if *dot != "" && len(names) != 1 {
		fmt.Fprintln(os.Stderr, "tmwhy: -dot needs exactly one allocator (use -allocs)")
		os.Exit(2)
	}

	// fig4's geometry, so tmwhy dissects the same cell the figures measure.
	initial, keyRange, ops := harness.IntsetScale(*full, *kind)
	runs := make([]run, 0, len(names))
	for _, name := range names {
		res, err := intset.Run(intset.Config{
			Kind:         *kind,
			Allocator:    name,
			Threads:      *threads,
			InitialSize:  initial,
			KeyRange:     keyRange,
			UpdatePct:    *updates,
			OpsPerThread: ops,
			Seed:         *seed,
			Policy:       core.Policy{Conflict: true},
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if res.ConflictReport == nil {
			fmt.Fprintf(os.Stderr, "tmwhy: %s run returned no forensics\n", name)
			os.Exit(1)
		}
		runs = append(runs, run{name: name, res: res, report: res.ConflictReport})
	}

	record := obs.NewRunRecord("tmwhy")
	record.Title = fmt.Sprintf("abort forensics: %s, %d thread(s), %d%% updates", *kind, *threads, *updates)
	record.Status = obs.StatusOK
	record.Config = obs.RunConfig{
		Full: *full, Seed: *seed,
		Extra: map[string]string{
			"kind":    string(*kind),
			"threads": fmt.Sprintf("%d", *threads),
			"updates": fmt.Sprintf("%d", *updates),
			"allocs":  strings.Join(names, ","),
		},
	}

	for _, r := range runs {
		printAllocator(r.name, r.res, r.report, *top)
		record.Tables = append(record.Tables, classTable(r.name, r.report))
		record.Conflict = record.Conflict.Merge(r.res.Conflict)
	}

	if len(runs) > 1 {
		diff := diffTable(runs)
		record.Tables = append(record.Tables, diff)
		fmt.Println("allocator blame diff (wasted cycles by cause):")
		renderTable(diff)
	}

	if *dot != "" {
		if err := cliflags.WriteTo(*dot, func(w io.Writer) error {
			return runs[0].report.WriteDot(w, runs[0].name)
		}); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	if *jsonOut != "" {
		if err := cliflags.WriteTo(*jsonOut, record.WriteJSON); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
}

func pct(part, whole uint64) string {
	if whole == 0 {
		return "-"
	}
	return fmt.Sprintf("%.1f%%", float64(part)/float64(whole)*100)
}

func printAllocator(name string, res intset.Result, r *conflict.Report, top int) {
	fmt.Printf("=== %s: %d aborts, %d wasted cycles (%.1f%% abort rate) ===\n",
		name, r.Events, r.WastedCycles, res.Tx.AbortRate()*100)
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "class\taborts\twasted cycles\tshare of waste")
	for _, c := range r.Classes {
		fmt.Fprintf(tw, "%s\t%d\t%d\t%s\n", c.Class, c.Aborts, c.Wasted, pct(c.Wasted, r.WastedCycles))
	}
	fmt.Fprintf(tw, "allocator-caused\t\t%d\t%s\n", r.AllocatorWasted(), pct(r.AllocatorWasted(), r.WastedCycles))
	tw.Flush()

	if len(r.Edges) > 0 {
		fmt.Println("\ntop killers (killer -> victim):")
		tw = tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "edge\taborts\tplacement-caused\twasted cycles")
		for i, e := range r.Edges {
			if i >= top {
				break
			}
			fmt.Fprintf(tw, "%s -> %s\t%d\t%d\t%d\n", e.Killer, e.Victim, e.Aborts, e.Placement, e.Wasted)
		}
		tw.Flush()
	}
	if len(r.Sites) > 0 {
		fmt.Println("\nblame by allocation site:")
		tw = tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "site\taborts\twasted cycles")
		for i, s := range r.Sites {
			if i >= top {
				break
			}
			fmt.Fprintf(tw, "%s\t%d\t%d\n", s.Site, s.Aborts, s.Wasted)
		}
		tw.Flush()
	}
	if len(r.Offenders) > 0 {
		fmt.Println("\nrepeat-offender addresses:")
		tw = tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
		for i, o := range r.Offenders {
			if i >= top {
				break
			}
			fmt.Fprintf(tw, "0x%x\t%d aborts\n", o.Addr, o.Hits)
		}
		tw.Flush()
	}
	if r.LongestChain > 1 {
		fmt.Printf("\nlongest kill chain: %d aborts deep\n", r.LongestChain)
	}
	if len(r.Exemplars) > 0 {
		fmt.Println("\nexemplar:", r.Exemplars[0].Rendered)
	}
	fmt.Println()
}

func classTable(name string, r *conflict.Report) obs.Table {
	t := obs.Table{
		Title:   fmt.Sprintf("Abort classes (%s)", name),
		Columns: []string{"Class", "Aborts", "Wasted cycles", "Share"},
	}
	for _, c := range r.Classes {
		t.Rows = append(t.Rows, []string{c.Class, fmt.Sprintf("%d", c.Aborts),
			fmt.Sprintf("%d", c.Wasted), pct(c.Wasted, r.WastedCycles)})
	}
	return t
}

// run pairs one allocator's measured result with its forensic report.
type run struct {
	name   string
	res    intset.Result
	report *conflict.Report
}

func diffTable(runs []run) obs.Table {
	t := obs.Table{
		Title: "Allocator blame diff",
		Columns: []string{"Allocator", "Aborts", "Wasted cycles",
			"Allocator-caused (false+meta)", "Share", "Placement-caused (false+alias+meta)", "Share"},
	}
	for _, r := range runs {
		rep := r.report
		t.Rows = append(t.Rows, []string{
			r.name,
			fmt.Sprintf("%d", rep.Events),
			fmt.Sprintf("%d", rep.WastedCycles),
			fmt.Sprintf("%d", rep.AllocatorWasted()),
			pct(rep.AllocatorWasted(), rep.WastedCycles),
			fmt.Sprintf("%d", rep.PlacementWasted()),
			pct(rep.PlacementWasted(), rep.WastedCycles),
		})
	}
	return t
}

func renderTable(t obs.Table) {
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, strings.Join(t.Columns, "\t"))
	for _, row := range t.Rows {
		fmt.Fprintln(tw, strings.Join(row, "\t"))
	}
	tw.Flush()
}
