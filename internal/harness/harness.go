// Package harness regenerates the paper's evaluation: every figure and
// table of Baldassin, Borin & Araujo (PPoPP 2015) has a registered
// experiment that runs the corresponding workloads on this repository's
// substrate and prints the same rows/series the paper reports.
//
// Experiments run at two scales: Quick (default; minutes for the whole
// suite, preserving every qualitative shape) and Full (the paper's
// parameters where feasible).
package harness

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"text/tabwriter"

	"repro/internal/obs"
)

// Health aggregates workload run statuses across one experiment:
// the worst of ok < degraded < failed wins, and every non-ok failure
// detail is kept so the run record explains how the run was wound down.
type Health struct {
	status   string
	failures []string
}

// Note folds one workload outcome into the aggregate.
func (h *Health) Note(status, failure string) {
	if h == nil {
		return
	}
	if obs.StatusRank(status) > obs.StatusRank(h.status) {
		h.status = status
	}
	if failure != "" {
		h.failures = append(h.failures, failure)
	}
}

// Status returns the aggregated status ("" means every run was ok).
func (h *Health) Status() string {
	if h == nil {
		return ""
	}
	return h.status
}

// Failure returns a one-line summary of the collected failure details.
func (h *Health) Failure() string {
	if h == nil || len(h.failures) == 0 {
		return ""
	}
	if len(h.failures) == 1 {
		return h.failures[0]
	}
	return fmt.Sprintf("%s (+%d more)", h.failures[0], len(h.failures)-1)
}

// Table is one printable table of results, in its run-record form.
type Table = obs.Table

// Series is one plottable line: label plus (x, y[, err]) points.
type Series = obs.Series

// Result is what an experiment produces.
type Result struct {
	ID     string
	Title  string
	Tables []Table
	Series []Series
	Notes  []string
}

// Experiment regenerates one paper item. Plan declares the
// experiment's cells against the builder and installs the reducer that
// folds their payloads into the printable Result; the session (or the
// legacy Run adapter) executes the cells through the sweep scheduler.
type Experiment struct {
	ID    string // "fig1", "tab4", ...
	Paper string // what it reproduces
	Plan  func(b *Builder) error
}

var registry = map[string]*Experiment{}

// Register installs an experiment (called from this package's files).
func Register(e *Experiment) {
	if _, dup := registry[e.ID]; dup {
		panic("harness: duplicate experiment " + e.ID)
	}
	registry[e.ID] = e
}

// Get returns the experiment with the given id.
func Get(id string) (*Experiment, bool) {
	e, ok := registry[id]
	return e, ok
}

// IDs returns all experiment ids in presentation order.
func IDs() []string {
	order := []string{
		"tab1", "tab2", "fig1", "fig2", "fig3",
		"fig4", "tab3", "tab4", "fig5", "fig6",
		"fig4rates", "tab5", "appchar", "fig7", "tab6", "fig8", "tab7", "hytm", "pooling",
	}
	var out []string
	for _, id := range order {
		if _, ok := registry[id]; ok {
			out = append(out, id)
		}
	}
	var rest []string
	for id := range registry {
		found := false
		for _, o := range out {
			if o == id {
				found = true
			}
		}
		if !found {
			rest = append(rest, id)
		}
	}
	sort.Strings(rest)
	return append(out, rest...)
}

// Print renders a result as text.
func Print(w io.Writer, r *Result) {
	fmt.Fprintf(w, "== %s: %s ==\n", r.ID, r.Title)
	for _, t := range r.Tables {
		if t.Title != "" {
			fmt.Fprintf(w, "\n-- %s --\n", t.Title)
		}
		tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, strings.Join(t.Columns, "\t"))
		for _, row := range t.Rows {
			fmt.Fprintln(tw, strings.Join(row, "\t"))
		}
		tw.Flush()
	}
	for _, s := range r.Series {
		fmt.Fprintf(w, "\nseries %s:\n", s.Label)
		tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		for i := range s.X {
			if len(s.Err) == len(s.X) && s.Err[i] != 0 {
				fmt.Fprintf(tw, "  x=%g\ty=%.4g\t±%.2g\n", s.X[i], s.Y[i], s.Err[i])
			} else {
				fmt.Fprintf(tw, "  x=%g\ty=%.4g\n", s.X[i], s.Y[i])
			}
		}
		tw.Flush()
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// Allocators lists the allocator names in the paper's order.
func Allocators() []string { return []string{"glibc", "hoard", "tbb", "tcmalloc"} }

// DisplayName maps an allocator name to the paper's capitalization.
func DisplayName(a string) string {
	switch a {
	case "glibc":
		return "Glibc"
	case "hoard":
		return "Hoard"
	case "tbb":
		return "TBBMalloc"
	case "tcmalloc":
		return "TCMalloc"
	}
	return a
}

// bestWorst returns the indices of the min and max of xs (lower is
// better when lowerBetter).
func bestWorst(xs []float64, lowerBetter bool) (best, worst int) {
	best, worst = 0, 0
	for i, v := range xs {
		if lowerBetter && v < xs[best] || !lowerBetter && v > xs[best] {
			best = i
		}
		if lowerBetter && v > xs[worst] || !lowerBetter && v < xs[worst] {
			worst = i
		}
	}
	return best, worst
}

// pctDiff returns |a-b| / min(a,b) * 100.
func pctDiff(a, b float64) float64 {
	lo := a
	if b < lo {
		lo = b
	}
	hi := a + b - lo
	if lo == 0 {
		return 0
	}
	return (hi - lo) / lo * 100
}
