package harness

import (
	"bytes"
	"strings"
	"testing"
)

func intPtr(v int) *int { return &v }

// runExperiment runs one experiment through a one-worker session.
func runExperiment(id string, spec *Spec) (*Result, error) {
	runs, _ := (&Session{Spec: spec}).Run([]string{id})
	return runs[0].Result, runs[0].Err
}

func TestAllExperimentsRegistered(t *testing.T) {
	want := []string{
		"tab1", "tab2", "fig1", "fig2", "fig3",
		"fig4", "tab3", "tab4", "fig5", "fig6",
		"fig4rates", "tab5", "appchar", "fig7", "tab6", "fig8", "tab7", "hytm", "pooling",
	}
	for _, id := range want {
		if _, ok := Get(id); !ok {
			t.Errorf("experiment %s not registered", id)
		}
	}
	ids := IDs()
	if len(ids) != len(want) {
		t.Errorf("IDs() has %d entries, want %d: %v", len(ids), len(want), ids)
	}
}

func TestIDsOrderedForPresentation(t *testing.T) {
	ids := IDs()
	if ids[0] != "tab1" || ids[1] != "tab2" {
		t.Errorf("presentation order broken: %v", ids[:3])
	}
}

// The static experiments (no workload runs) must produce well-formed
// results quickly.
func TestStaticExperiments(t *testing.T) {
	for _, id := range []string{"tab1", "tab2", "fig2", "fig5"} {
		res, err := runExperiment(id, &Spec{})
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if res.ID != id || len(res.Tables) == 0 {
			t.Errorf("%s: malformed result %+v", id, res)
		}
		for _, tab := range res.Tables {
			for _, row := range tab.Rows {
				if len(row) != len(tab.Columns) {
					t.Errorf("%s: row width %d != %d columns", id, len(row), len(tab.Columns))
				}
			}
		}
	}
}

func TestTab1MatchesPaperValues(t *testing.T) {
	res, err := runExperiment("tab1", &Spec{})
	if err != nil {
		t.Fatal(err)
	}
	rows := res.Tables[0].Rows
	if rows[0][2] != "32 bytes" {
		t.Errorf("Glibc min size = %q, want 32 bytes", rows[0][2])
	}
	if rows[1][2] != "16 bytes" {
		t.Errorf("Hoard min size = %q, want 16 bytes", rows[1][2])
	}
	if rows[3][4] != "incremental" {
		t.Errorf("TCMalloc granularity = %q, want incremental", rows[3][4])
	}
}

func TestFig2TraceShowsAdjacency(t *testing.T) {
	res, err := runExperiment("fig2", &Spec{})
	if err != nil {
		t.Fatal(err)
	}
	rows := res.Tables[0].Rows
	// Steps 1 and 2 (different threads) must land on the same cache
	// line.
	if rows[0][3] != rows[1][3] {
		t.Errorf("threads' first blocks on different lines: %s vs %s", rows[0][3], rows[1][3])
	}
}

func TestPrintRendersEverything(t *testing.T) {
	res := &Result{
		ID:     "x",
		Title:  "demo",
		Tables: []Table{{Title: "t", Columns: []string{"a", "b"}, Rows: [][]string{{"1", "2"}}}},
		Series: []Series{{Label: "s", X: []float64{1}, Y: []float64{2}, Err: []float64{0.1}}},
		Notes:  []string{"hello"},
	}
	var buf bytes.Buffer
	Print(&buf, res)
	out := buf.String()
	for _, want := range []string{"demo", "a", "1", "series s", "±0.1", "note: hello"} {
		if !strings.Contains(out, want) {
			t.Errorf("Print output missing %q:\n%s", want, out)
		}
	}
}

func TestBestWorstAndPctDiff(t *testing.T) {
	b, w := bestWorst([]float64{3, 1, 2}, true)
	if b != 1 || w != 0 {
		t.Errorf("bestWorst lower: %d %d", b, w)
	}
	b, w = bestWorst([]float64{3, 1, 2}, false)
	if b != 0 || w != 1 {
		t.Errorf("bestWorst higher: %d %d", b, w)
	}
	if d := pctDiff(1, 2); d != 100 {
		t.Errorf("pctDiff(1,2) = %v, want 100", d)
	}
	if d := pctDiff(2, 1); d != 100 {
		t.Errorf("pctDiff(2,1) = %v, want 100", d)
	}
	if d := pctDiff(0, 5); d != 0 {
		t.Errorf("pctDiff(0,5) = %v, want 0 (guarded)", d)
	}
}

func TestDisplayNames(t *testing.T) {
	cases := map[string]string{
		"glibc": "Glibc", "hoard": "Hoard", "tbb": "TBBMalloc", "tcmalloc": "TCMalloc", "x": "x",
	}
	for in, want := range cases {
		if got := DisplayName(in); got != want {
			t.Errorf("DisplayName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestChartRendersSeries(t *testing.T) {
	res := &Result{
		Title: "demo chart",
		Series: []Series{
			{Label: "a", X: []float64{1, 2, 4, 8}, Y: []float64{1, 2, 3, 4}},
			{Label: "b", X: []float64{1, 2, 4, 8}, Y: []float64{4, 3, 2, 1}},
		},
	}
	var buf bytes.Buffer
	Chart(&buf, res, 40, 10)
	out := buf.String()
	for _, want := range []string{"demo chart", "*", "o", "a\n", "b\n"} {
		if !strings.Contains(out, want) {
			t.Errorf("chart missing %q:\n%s", want, out)
		}
	}
	if lines := strings.Count(out, "\n"); lines < 12 {
		t.Errorf("chart too short: %d lines", lines)
	}
}

func TestChartEmptySeriesNoOutput(t *testing.T) {
	var buf bytes.Buffer
	Chart(&buf, &Result{Title: "x"}, 40, 10)
	if buf.Len() != 0 {
		t.Errorf("chart emitted %d bytes for empty series", buf.Len())
	}
}

// Smoke-run the cheap dynamic experiments end to end (single rep).
func TestDynamicExperimentsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs workloads")
	}
	for _, id := range []string{"fig1", "fig3", "hytm", "appchar"} {
		res, err := runExperiment(id, &Spec{Reps: intPtr(1)})
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(res.Tables) == 0 {
			t.Errorf("%s produced no tables", id)
		}
		for _, tab := range res.Tables {
			if len(tab.Rows) == 0 {
				t.Errorf("%s: empty table %q", id, tab.Title)
			}
			for _, row := range tab.Rows {
				if len(row) != len(tab.Columns) {
					t.Errorf("%s: ragged row in %q", id, tab.Title)
				}
			}
		}
	}
}

// The heavier experiments run under one scaled-down repetition too.
func TestHeavyExperimentsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs many workloads")
	}
	for _, id := range []string{"fig4rates", "tab5"} {
		res, err := runExperiment(id, &Spec{Reps: intPtr(1)})
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(res.Tables) == 0 {
			t.Errorf("%s produced no tables", id)
		}
	}
}

func TestPrintMarkdown(t *testing.T) {
	res := &Result{
		ID:     "x",
		Title:  "demo",
		Tables: []Table{{Title: "t", Columns: []string{"a", "b"}, Rows: [][]string{{"1", "2"}}}},
		Series: []Series{{Label: "s", X: []float64{1}, Y: []float64{2}}},
		Notes:  []string{"n"},
	}
	var buf bytes.Buffer
	PrintMarkdown(&buf, res)
	out := buf.String()
	for _, want := range []string{"## x — demo", "| a | b |", "|---|---|", "| 1 | 2 |", "> n"} {
		if !strings.Contains(out, want) {
			t.Errorf("markdown missing %q:\n%s", want, out)
		}
	}
}
