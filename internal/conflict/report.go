package conflict

import (
	"fmt"
	"io"
	"sort"
)

// Report is the observatory's full, JSON-serializable output: the
// per-class breakdown, the killer×victim conflict graph, the
// allocation-site blame table, cascade statistics and the exemplar
// reservoir. It crosses process and cell boundaries (tmwhy carries it
// in sweep-cell payloads); the flat obs.ConflictInfo carries only the
// headline aggregates into run records.
type Report struct {
	Schema string `json:"schema"` // ReportSchema
	Shift  uint   `json:"shift"`

	Events       int    `json:"events"`
	WastedCycles uint64 `json:"wasted_cycles"`

	Classes []ClassStat `json:"classes"` // fixed order, one row per Class

	SameLine   int `json:"same_line,omitempty"`
	CrossBlock int `json:"cross_block,omitempty"`

	Edges       []Edge       `json:"edges,omitempty"`        // kind-level graph, by wasted desc
	ThreadEdges []ThreadEdge `json:"thread_edges,omitempty"` // thread-level matrix, by aborts desc

	Sites []SiteBlame `json:"sites,omitempty"` // blame table, by wasted desc

	LongestChain     int        `json:"longest_chain,omitempty"`
	Offenders        []Offender `json:"offenders,omitempty"` // by hits desc
	OffendersDropped int        `json:"offenders_dropped,omitempty"`

	Exemplars []Exemplar `json:"exemplars,omitempty"`
}

// ReportSchema identifies the report artifact format.
const ReportSchema = "tmwhy/report/v1"

// ClassStat is one taxonomy row.
type ClassStat struct {
	Class  string `json:"class"`
	Aborts int    `json:"aborts"`
	Wasted uint64 `json:"wasted"`
}

// Edge is one killer-kind → victim-kind edge of the conflict graph.
type Edge struct {
	Killer    string `json:"killer"` // "?" when unattributed
	Victim    string `json:"victim"`
	Aborts    int    `json:"aborts"`
	Placement int    `json:"placement"` // placement-caused share (false/alias/metadata)
	Wasted    uint64 `json:"wasted"`
}

// ThreadEdge is one killer-thread → victim-thread cell of the matrix.
type ThreadEdge struct {
	Killer int `json:"killer"` // -1 when unattributed
	Victim int `json:"victim"`
	Aborts int `json:"aborts"`
}

// SiteBlame is one allocation site's blame-table row.
type SiteBlame struct {
	Site   string `json:"site"`
	Aborts int    `json:"aborts"`
	Wasted uint64 `json:"wasted"`
}

// Offender is one repeat-offender address.
type Offender struct {
	Addr uint64 `json:"addr"`
	Hits int    `json:"hits"`
}

// Exemplar is one reservoir event, structured plus pre-rendered.
type Exemplar struct {
	Class      string `json:"class"`
	Reason     string `json:"reason"`
	Victim     int    `json:"victim"`
	VictimKind string `json:"victim_kind"`
	Killer     int    `json:"killer"` // -1 when unattributed
	KillerKind string `json:"killer_kind"`
	Attempt    uint64 `json:"attempt"`
	Stripe     uint64 `json:"stripe"`
	VictimAddr uint64 `json:"victim_addr"`
	OwnerAddr  uint64 `json:"owner_addr"`
	Wasted     uint64 `json:"wasted"`
	Rendered   string `json:"rendered"`
}

type siteRow struct {
	Site   string
	Aborts int
	Wasted uint64
}

// topSites returns the blame table sorted by wasted cycles descending
// (site name breaks ties, so the order is deterministic).
func (o *Observatory) topSites() []siteRow {
	rows := make([]siteRow, 0, len(o.sites))
	for site, st := range o.sites {
		rows = append(rows, siteRow{Site: site, Aborts: st.aborts, Wasted: st.wasted})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Wasted != rows[j].Wasted {
			return rows[i].Wasted > rows[j].Wasted
		}
		return rows[i].Site < rows[j].Site
	})
	return rows
}

// topOffenders returns the repeat-offender addresses by hit count
// descending (address breaks ties).
func (o *Observatory) topOffenders() []Offender {
	rows := make([]Offender, 0, len(o.offenders))
	for a, n := range o.offenders {
		rows = append(rows, Offender{Addr: uint64(a), Hits: n})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Hits != rows[j].Hits {
			return rows[i].Hits > rows[j].Hits
		}
		return rows[i].Addr < rows[j].Addr
	})
	return rows
}

// Report assembles the full structured report.
func (o *Observatory) Report() *Report {
	r := &Report{
		Schema:           ReportSchema,
		Shift:            o.shift,
		Events:           o.events,
		WastedCycles:     o.WastedTotal(),
		SameLine:         o.sameLine,
		CrossBlock:       o.crossBlock,
		LongestChain:     o.longestChain,
		OffendersDropped: o.offDropped,
		Exemplars:        o.exemplars,
	}
	for c := Class(0); c < classCount; c++ {
		r.Classes = append(r.Classes, ClassStat{
			Class:  c.String(),
			Aborts: o.counts[c],
			Wasted: o.wasted[c],
		})
	}
	for k, e := range o.edges {
		r.Edges = append(r.Edges, Edge{
			Killer:    k[0],
			Victim:    k[1],
			Aborts:    e.aborts,
			Placement: e.false_,
			Wasted:    e.wasted,
		})
	}
	sort.Slice(r.Edges, func(i, j int) bool {
		a, b := r.Edges[i], r.Edges[j]
		if a.Wasted != b.Wasted {
			return a.Wasted > b.Wasted
		}
		if a.Killer != b.Killer {
			return a.Killer < b.Killer
		}
		return a.Victim < b.Victim
	})
	for k, n := range o.thrEdges {
		r.ThreadEdges = append(r.ThreadEdges, ThreadEdge{Killer: k[0], Victim: k[1], Aborts: n})
	}
	sort.Slice(r.ThreadEdges, func(i, j int) bool {
		a, b := r.ThreadEdges[i], r.ThreadEdges[j]
		if a.Aborts != b.Aborts {
			return a.Aborts > b.Aborts
		}
		if a.Killer != b.Killer {
			return a.Killer < b.Killer
		}
		return a.Victim < b.Victim
	})
	for _, s := range o.topSites() {
		r.Sites = append(r.Sites, SiteBlame(s))
	}
	if top := o.topOffenders(); len(top) > 0 {
		if len(top) > 16 {
			top = top[:16]
		}
		r.Offenders = top
	}
	return r
}

// PlacementWasted returns the wasted cycles attributed to allocator
// placement classes (false-sharing + stripe-alias + metadata).
func (r *Report) PlacementWasted() uint64 {
	var w uint64
	for _, c := range r.Classes {
		switch c.Class {
		case "false-sharing", "stripe-alias", "metadata":
			w += c.Wasted
		}
	}
	return w
}

// AllocatorWasted returns the wasted cycles of the ISSUE's
// allocator-caused pair: metadata plus intra-block (intra-stripe)
// false sharing, excluding aliasing.
func (r *Report) AllocatorWasted() uint64 {
	var w uint64
	for _, c := range r.Classes {
		switch c.Class {
		case "false-sharing", "metadata":
			w += c.Wasted
		}
	}
	return w
}

// WriteDot emits the kind-level conflict graph in Graphviz dot form:
// one node per transaction kind, one edge per killer→victim pair,
// labeled and weighted by wasted cycles.
func (r *Report) WriteDot(w io.Writer, title string) error {
	if _, err := fmt.Fprintf(w, "digraph conflicts {\n  label=%q;\n  node [shape=box];\n", title); err != nil {
		return err
	}
	var max uint64 = 1
	for _, e := range r.Edges {
		if e.Wasted > max {
			max = e.Wasted
		}
	}
	for _, e := range r.Edges {
		width := 1 + 4*float64(e.Wasted)/float64(max)
		if _, err := fmt.Fprintf(w,
			"  %q -> %q [label=\"%d aborts\\n%d wasted\", penwidth=%.2f];\n",
			e.Killer, e.Victim, e.Aborts, e.Wasted, width); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w, "}")
	return err
}
