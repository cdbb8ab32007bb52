// Command tmstamp runs a single STAMP application on the simulated
// transactional-memory stack, like the original suite's per-application
// binaries.
//
// Usage:
//
//	tmstamp -app yada -alloc glibc -threads 8 [-scale ref] [-cachetx]
//	        [-shift 5] [-alloc-profile] [-profile FILE] [-seed 1]
//
// It prints the modelled execution time, transaction statistics,
// allocator activity, cache behaviour and (with -alloc-profile) the
// Table 5-style allocation characterization; -profile FILE writes the
// virtual-cycle attribution profile. The run executes as one sweep
// cell, which the run record's sweep block identifies by hash
// (cell_set).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"text/tabwriter"

	_ "repro/internal/alloc/glibc"
	_ "repro/internal/alloc/hoard"
	_ "repro/internal/alloc/tbb"
	_ "repro/internal/alloc/tcmalloc"
	_ "repro/internal/stamp/bayes"
	_ "repro/internal/stamp/genome"
	_ "repro/internal/stamp/intruder"
	_ "repro/internal/stamp/kmeans"
	_ "repro/internal/stamp/labyrinth"
	_ "repro/internal/stamp/ssca2"
	_ "repro/internal/stamp/vacation"
	_ "repro/internal/stamp/yada"

	"repro/cmd/internal/cliflags"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/stamp"
	"repro/internal/stm"
	"repro/internal/vtime"
)

func main() {
	var app string
	flag.Func("app", "application (required): "+strings.Join(stamp.Names(), ", "), func(v string) error {
		if !slices.Contains(stamp.Names(), v) {
			return fmt.Errorf("unknown app %q (allowed: %s)", v, strings.Join(stamp.Names(), ", "))
		}
		app = v
		return nil
	})
	var (
		threads = cliflags.Threads(flag.CommandLine, 1)
		shift   = flag.Uint("shift", 0, "ORT shift amount (0 = default 5)")
		cacheTx = flag.Bool("cachetx", false, "deprecated alias for -pool cache (paper §6.2 tx-object caching)")
		profile = flag.Bool("alloc-profile", false, "print the Table 5 allocation profile")
		seed    = flag.Uint64("seed", 0, "workload seed (0 = default)")
	)
	// The scale and variant print as spelled, so -scale full still
	// reads "full scale".
	scale, sc := "quick", stamp.Quick
	flag.Func("scale", "workload scale: quick (default) or ref (alias full)", func(v string) (err error) {
		scale = v
		sc, err = stamp.ParseScale(v)
		return err
	})
	variant, va := "high", stamp.HighContention
	flag.Func("variant", "contention variant for kmeans/vacation: high (default) or low", func(v string) (err error) {
		variant = v
		va, err = stamp.ParseVariant(v)
		return err
	})
	alloc := cliflags.Alloc(flag.CommandLine)
	w := cliflags.Add(flag.CommandLine)
	flag.Parse()
	if app == "" {
		flag.Usage()
		os.Exit(2)
	}
	session, err := w.Session()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	cfg := stamp.Config{
		App:       app,
		Allocator: *alloc,
		Threads:   *threads,
		Scale:     sc,
		Variant:   va,
		Shift:     *shift,
		CacheTx:   *cacheTx,
		Pool:      w.Spec.Pool,
		Profile:   *profile,
		Seed:      *seed,
		Policy:    w.Spec.Policy,
	}

	key := fmt.Sprintf("cli/stamp/%s/%s/t%d/sc%d/v%d/sh%d/c%v/p%v%s",
		app, *alloc, *threads, sc, va, *shift, *cacheTx, *profile, harness.PoolTag(w.Spec.Pool))
	cell, err := w.RunCell(session, "stamp/"+app, key, cfg, *seed, func(in core.Instruments) (any, error) {
		c := cfg
		c.Instruments = in
		return stamp.Run(c)
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	var res stamp.Result
	if err := json.Unmarshal(cell.Payload, &res); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	switch res.Status {
	case "", obs.StatusOK:
		fmt.Printf("%s / %s / %d thread(s) / %s scale — validation OK\n\n", app, *alloc, *threads, scale)
	default:
		fmt.Printf("%s / %s / %d thread(s) / %s scale — %s: %s\n\n",
			app, *alloc, *threads, scale, res.Status, res.Failure)
	}
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "execution time\t%.4f ms (modelled, parallel phase)\n", res.Seconds*1e3)
	fmt.Fprintf(tw, "init time\t%.4f ms\n", vtime.Seconds(res.InitCycles)*1e3)
	fmt.Fprintf(tw, "transactions\t%d commits, %d aborts (%.1f%%), %d false aborts\n",
		res.Tx.Commits, res.Tx.Aborts, res.Tx.AbortRate()*100, res.Tx.FalseAborts)
	reasons := make([]string, 0, stm.AbortReasonCount)
	for r := 0; r < stm.AbortReasonCount; r++ {
		reasons = append(reasons, fmt.Sprintf("%s=%d", stm.AbortReason(r), res.Tx.ByReason[r]))
	}
	fmt.Fprintf(tw, "abort reasons\t%s\n", strings.Join(reasons, " "))
	fmt.Fprintf(tw, "tx sets\tmax read %d, max write %d, worst retries %d\n",
		res.Tx.MaxReadSet, res.Tx.MaxWriteSet, res.Tx.MaxRetries)
	fmt.Fprintf(tw, "tx memory\t%d mallocs, %d frees inside transactions\n",
		res.Tx.AllocsInTx, res.Tx.FreesInTx)
	cliflags.Pooling(tw, res.Pool)
	if res.Tx.Irrevocables > 0 || res.Tx.BackoffCycles > 0 || res.Alloc.FailedMallocs > 0 {
		fmt.Fprintf(tw, "robustness\t%d irrevocable fallbacks, %d backoff cycles, worst streak %d aborts, %d failed mallocs\n",
			res.Tx.Irrevocables, res.Tx.BackoffCycles, res.Tx.MaxConsecAborts, res.Alloc.FailedMallocs)
	}
	fmt.Fprintf(tw, "allocator\t%d mallocs, %d frees, %d lock acquisitions (%d contended), %d remote frees, %d OS maps\n",
		res.Alloc.Mallocs, res.Alloc.Frees, res.Alloc.LockAcquires, res.Alloc.LockContended,
		res.Alloc.RemoteFrees, res.Alloc.OSMaps)
	fmt.Fprintf(tw, "cache\t%.2f%% L1D miss, %d coherence misses, %d false-sharing misses\n",
		res.L1Miss*100, res.Cache.CohMisses, res.Cache.FalseShare)
	cliflags.Durability(tw, res.Recovery)
	cliflags.Race(tw, res.Race)
	if c := res.Conflict; c != nil {
		fmt.Fprintf(tw, "conflicts\t%d aborts dissected: %d true, %d false, %d alias, %d metadata, %d other; %d wasted cycles\n",
			c.Events, c.TrueSharing, c.FalseSharing, c.StripeAlias, c.Metadata, c.Other, c.WastedCycles)
		if c.First != "" {
			fmt.Fprintf(tw, "first\t%s\n", c.First)
		}
	}
	tw.Flush()

	if res.Profile != nil {
		fmt.Println("\nallocation profile (Table 5 style):")
		tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "region\t<=16\t<=32\t<=48\t<=64\t<=96\t<=128\t<=256\t>256\t#mallocs\t#frees\tbytes")
		for _, reg := range []stamp.Region{stamp.RegionSeq, stamp.RegionPar, stamp.RegionTx} {
			fmt.Fprintf(tw, "%s", reg)
			for b := 0; b < 8; b++ {
				fmt.Fprintf(tw, "\t%d", res.Profile.Counts[reg][b])
			}
			fmt.Fprintf(tw, "\t%d\t%d\t%d\n", res.Profile.Mallocs[reg], res.Profile.Frees[reg], res.Profile.Bytes[reg])
		}
		tw.Flush()
	}

	record := cell.Record
	record.Title = fmt.Sprintf("%s on %s, %d thread(s), %s scale", app, *alloc, *threads, scale)
	record.Status = res.Status
	record.Failure = res.Failure
	record.Config = obs.RunConfig{
		Seed: *seed,
		Extra: map[string]string{
			"app":      app,
			"alloc":    *alloc,
			"threads":  fmt.Sprintf("%d", *threads),
			"scale":    scale,
			"variant":  variant,
			"cachetx":  fmt.Sprintf("%v", *cacheTx),
			"pool":     w.Spec.Pool.String(),
			"cm":       w.Spec.CM.String(),
			"retrycap": fmt.Sprintf("%d", w.Spec.RetryCap),
			"fault":    w.Spec.Fault,
			"deadline": fmt.Sprintf("%d", w.Spec.Deadline),
		},
	}
	record.Blocks = res.Blocks
	record.Tables = []obs.Table{{
		Title:   "Summary",
		Columns: []string{"Metric", "Value"},
		Rows: [][]string{
			{"execution time (ms)", fmt.Sprintf("%.4f", res.Seconds*1e3)},
			{"init time (ms)", fmt.Sprintf("%.4f", vtime.Seconds(res.InitCycles)*1e3)},
			{"commits", fmt.Sprintf("%d", res.Tx.Commits)},
			{"aborts", fmt.Sprintf("%d", res.Tx.Aborts)},
			{"false aborts", fmt.Sprintf("%d", res.Tx.FalseAborts)},
			{"L1 miss", fmt.Sprintf("%.4f", res.L1Miss)},
		},
	}}
	if err := cell.Write(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	// A captured panic is a real failure for scripting purposes, but only
	// after every requested artifact has been written: a failed run still
	// leaves a valid record behind.
	if res.Status == obs.StatusFailed {
		os.Exit(1)
	}
}
