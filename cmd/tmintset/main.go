// Command tmintset runs the paper's synthetic benchmark (§5): threads
// updating or searching a transactional set held in a sorted linked
// list, a hash set or a red-black tree, under a chosen allocator — with
// an optional hybrid-TM mode for the hash set.
//
// Usage:
//
//	tmintset -kind linkedlist -alloc glibc -threads 8 -updates 60
//	tmintset -kind hashset -alloc tcmalloc -threads 8 -hytm
//	tmintset -kind rbtree -alloc hoard -cache .tmcache -json out/run.json
//
// The run executes as one sweep cell, so -cache memoizes it by
// configuration hash; tracing (-trace / -metrics) forces a live run,
// since a cache hit cannot replay events.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"text/tabwriter"

	_ "repro/internal/alloc/glibc"
	_ "repro/internal/alloc/hoard"
	_ "repro/internal/alloc/tbb"
	_ "repro/internal/alloc/tcmalloc"

	"repro/cmd/internal/cliflags"
	"repro/internal/heapscope"
	"repro/internal/intset"
	"repro/internal/obs"
	"repro/internal/prof"
	"repro/internal/stm"
)

func main() {
	var (
		kind      = flag.String("kind", "linkedlist", "structure: linkedlist, hashset, rbtree")
		name      = flag.String("alloc", "glibc", "allocator: glibc hoard tbb tcmalloc")
		threads   = flag.Int("threads", 8, "logical threads (1..8)")
		updates   = flag.Int("updates", 60, "update percentage (0, 20, 60)")
		initial   = flag.Int("initial", 0, "initial set size (0 = paper default 4096)")
		keys      = flag.Int("range", 0, "key range (0 = 2x initial)")
		ops       = flag.Int("ops", 0, "operations per thread (0 = default)")
		shift     = flag.Uint("shift", 0, "ORT shift amount (0 = default 5)")
		design    = flag.String("design", "etl-wb", "STM design: etl-wb, etl-wt, ctl")
		cacheTx   = flag.Bool("cachetx", false, "deprecated alias for -pool cache (paper §6.2 tx-object caching)")
		hytm      = flag.Bool("hytm", false, "run under the hybrid HTM (hashset only; refuses the STM, robustness and observer flags)")
		seed      = flag.Uint64("seed", 0, "workload seed")
		seedUAF   = flag.Bool("seed-uaf", false, "plant a use-after-free in the measurement phase (sanitizer demo)")
		seedRace  = flag.Bool("seed-race", false, "plant an allocator-metadata race in the measurement phase (race-checker demo; needs -threads >= 2)")
		seedAlias = flag.Bool("seed-alias", false, "plant a choreographed ORT stripe-aliasing pair in the measurement phase (forensics demo; needs -threads >= 2)")
		ortBits   = flag.Uint("ort-bits", 0, "log2 of the ORT entry count (0 = default; -seed-alias defaults it to 12)")
	)
	w := cliflags.Add(flag.CommandLine)
	flag.Parse()
	if *hytm {
		// The hybrid-TM run reads only the workload shape, the seed and
		// the output, cache and sanitizer flags; refuse the rest rather
		// than drop them silently.
		honored := map[string]bool{
			"kind": true, "alloc": true, "threads": true, "updates": true, "initial": true,
			"range": true, "ops": true, "seed": true, "hytm": true, "json": true, "metrics": true,
			"trace": true, "cache": true, "no-cache": true, "jobs": true, "sanitize": true,
		}
		var refused []string
		flag.Visit(func(f *flag.Flag) {
			if !honored[f.Name] {
				refused = append(refused, "-"+f.Name)
			}
		})
		if len(refused) > 0 {
			fmt.Fprintf(os.Stderr, "tmintset: -hytm does not support %s\n", strings.Join(refused, ", "))
			os.Exit(2)
		}
	}

	var d stm.Design
	switch *design {
	case "etl-wb":
		d = stm.ETLWriteBack
	case "etl-wt":
		d = stm.ETLWriteThrough
	case "ctl":
		d = stm.CTL
	default:
		fmt.Fprintf(os.Stderr, "unknown design %q\n", *design)
		os.Exit(2)
	}
	session, err := w.Session()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	cfg := intset.Config{
		Kind:         intset.Kind(*kind),
		Allocator:    *name,
		Threads:      *threads,
		InitialSize:  *initial,
		KeyRange:     *keys,
		UpdatePct:    *updates,
		OpsPerThread: *ops,
		Shift:        *shift,
		Design:       d,
		CacheTx:      *cacheTx,
		Pool:         w.Spec.Pool,
		Seed:         *seed,
		Policy:       w.Spec.Policy(),
		SeedUAF:      *seedUAF,
		SeedRace:     *seedRace,
		SeedAlias:    *seedAlias,
		OrtBits:      *ortBits,
	}

	mode := "stm"
	if *hytm {
		mode = "hytm"
	}
	key := fmt.Sprintf("cli/intset/%s/%s/%s/t%d/u%d/%s",
		mode, *kind, *name, *threads, *updates, *design)
	if w.Spec.Pool != stm.PoolNone {
		key += "/p" + w.Spec.Pool.String()
	}
	if *seedAlias || *ortBits != 0 {
		key += fmt.Sprintf("/sa%v-ob%d", *seedAlias, *ortBits)
	}
	cell, err := w.RunCell(session, "intset/"+mode, key, cfg, *seed, func(rec *obs.Recorder, pp *prof.Profiler, hc *heapscope.Collector) (any, error) {
		c := cfg
		c.Obs, c.Prof, c.Heap = rec, pp, hc
		if *hytm {
			return intset.RunHyTM(c)
		}
		return intset.Run(c)
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	record := cell.Record
	record.Title = fmt.Sprintf("%s on %s, %d thread(s), %d%% updates (%s)", *kind, *name, *threads, *updates, mode)
	record.Config = obs.RunConfig{
		Seed: *seed,
		Extra: map[string]string{
			"kind": *kind, "alloc": *name,
			"threads": fmt.Sprintf("%d", *threads),
			"updates": fmt.Sprintf("%d", *updates),
			"design":  *design,
			"mode":    mode,
			"cm":      w.Spec.CM.String(),
			"pool":    w.Spec.Pool.String(),
		},
	}

	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	exitFailed := false
	if *hytm {
		var res intset.HyTMResult
		if err := json.Unmarshal(cell.Payload, &res); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Fprintf(tw, "mode\thybrid TM (HTM + lock-elision fallback)\n")
		fmt.Fprintf(tw, "throughput\t%.0f tx per modelled second\n", res.Throughput)
		fmt.Fprintf(tw, "time\t%.4f ms for %d ops\n", res.Seconds*1e3, res.Ops)
		st := res.HTM
		fmt.Fprintf(tw, "HTM\t%d commits, %d aborts (conflict %d, capacity %d, lock %d, alloc %d, timer %d), %d fallbacks\n",
			st.HTMCommits, st.HTMAborts, st.ByReason[0], st.ByReason[1], st.ByReason[2], st.ByReason[3], st.ByReason[4], st.Fallbacks)
		fmt.Fprintf(tw, "allocator\t%d mallocs, %d frees, %d lock acquisitions (%d contended)\n",
			res.Alloc.Mallocs, res.Alloc.Frees, res.Alloc.LockAcquires, res.Alloc.LockContended)
		tw.Flush()
		record.Tables = []obs.Table{{
			Title:   "Summary",
			Columns: []string{"Metric", "Value"},
			Rows: [][]string{
				{"throughput (tx/s)", fmt.Sprintf("%.0f", res.Throughput)},
				{"HTM commits", fmt.Sprintf("%d", st.HTMCommits)},
				{"HTM aborts", fmt.Sprintf("%d", st.HTMAborts)},
				{"fallbacks", fmt.Sprintf("%d", st.Fallbacks)},
			},
		}}
	} else {
		var res intset.Result
		if err := json.Unmarshal(cell.Payload, &res); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Fprintf(tw, "mode\tSTM %s, shift %d, CM %s\n", d, res.Config.Shift, w.Spec.CM)
		if res.Status != "" && res.Status != obs.StatusOK {
			fmt.Fprintf(tw, "status\t%s: %s\n", res.Status, res.Failure)
		}
		cliflags.Durability(tw, res.Recovery)
		cliflags.Pooling(tw, res.Pool)
		cliflags.Race(tw, res.Race)
		if c := res.Conflict; c != nil {
			fmt.Fprintf(tw, "conflicts\t%d aborts dissected: %d true, %d false (%d same-line, %d cross-block), %d alias, %d metadata, %d other\n",
				c.Events, c.TrueSharing, c.FalseSharing, c.SameLine, c.CrossBlock, c.StripeAlias, c.Metadata, c.Other)
			fmt.Fprintf(tw, "wasted\t%d cycles (true %d, false %d, alias %d, metadata %d, other %d); longest kill chain %d\n",
				c.WastedCycles, c.WastedTrue, c.WastedFalse, c.WastedAlias, c.WastedMeta, c.WastedOther, c.LongestChain)
			if c.TopSite != "" {
				fmt.Fprintf(tw, "blame\ttop site %s (%d wasted cycles); top offender %s (%d hits)\n",
					c.TopSite, c.TopSiteWasted, c.TopOffender, c.TopOffenderHits)
			}
			if c.First != "" {
				fmt.Fprintf(tw, "first\t%s\n", c.First)
			}
		}
		fmt.Fprintf(tw, "throughput\t%.0f tx per modelled second\n", res.Throughput)
		fmt.Fprintf(tw, "time\t%.4f ms for %d ops\n", res.Seconds*1e3, res.Ops)
		fmt.Fprintf(tw, "transactions\t%d commits, %d aborts (%.1f%%), %d false aborts\n",
			res.Tx.Commits, res.Tx.Aborts, res.Tx.AbortRate()*100, res.Tx.FalseAborts)
		if res.Tx.Irrevocables > 0 || res.Tx.BackoffCycles > 0 {
			fmt.Fprintf(tw, "robustness\t%d irrevocable fallbacks, %d backoff cycles, worst streak %d aborts\n",
				res.Tx.Irrevocables, res.Tx.BackoffCycles, res.Tx.MaxConsecAborts)
		}
		fmt.Fprintf(tw, "cache\t%.2f%% L1D miss, %d false-sharing misses\n",
			res.L1Miss*100, res.CacheTotal.FalseShare)
		fmt.Fprintf(tw, "allocator\t%d mallocs (%d failed), %d frees, %d lock acquisitions (%d contended)\n",
			res.AllocStats.Mallocs, res.AllocStats.FailedMallocs, res.AllocStats.Frees,
			res.AllocStats.LockAcquires, res.AllocStats.LockContended)
		tw.Flush()
		record.Status = res.Status
		record.Failure = res.Failure
		record.Blocks = res.Blocks
		record.Tables = []obs.Table{{
			Title:   "Summary",
			Columns: []string{"Metric", "Value"},
			Rows: [][]string{
				{"throughput (tx/s)", fmt.Sprintf("%.0f", res.Throughput)},
				{"commits", fmt.Sprintf("%d", res.Tx.Commits)},
				{"aborts", fmt.Sprintf("%d", res.Tx.Aborts)},
				{"false aborts", fmt.Sprintf("%d", res.Tx.FalseAborts)},
				{"L1 miss", fmt.Sprintf("%.4f", res.L1Miss)},
			},
		}}
		exitFailed = res.Status == obs.StatusFailed
	}

	if err := cell.Write(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if exitFailed {
		os.Exit(1)
	}
}
