// Package heapscope is the allocator-state telemetry layer: a
// deterministic, virtual-time-driven observer that snapshots each
// allocator's internals on a configurable virtual-cycle cadence and
// emits the result as a canonical tmheap/series/v1 time series.
//
// Where internal/obs records *events* and internal/prof attributes
// *cycles*, heapscope captures the evolving *shape* of the simulated
// heap: per-size-class free-list depths, internal/external
// fragmentation and blowup (in-use vs reserved bytes), hoard superblock
// occupancy and emptiness-threshold migrations, tcmalloc thread-cache
// vs central-list balances, per-cache-line sharing (distinct owning
// threads per 64-byte line, ownership churn) and ORT-stripe occupancy
// histograms — the placement state behind the paper's Fig. 2/Fig. 5
// pathologies.
//
// Everything here is a pure observer. The collector is driven from the
// vtime scheduler loop (never from a simulated thread), reads only the
// allocators' Go-side metadata through their InspectHeap, and keeps
// its own shadow of the block lifecycle via mem.HeapWatcher — so a run
// with telemetry enabled is byte-identical to one without, and the
// emitted series is byte-identical at any sweep pool width.
package heapscope

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"repro/internal/obs"
)

// Schema identifies the series artifact format. tmlayout -heap-geometry
// emits the same schema with empty sample lists, so static geometry and
// runtime series are diffable with the same tooling.
const Schema = "tmheap/series/v1"

// DefaultCadence is the default snapshot interval in virtual cycles.
const DefaultCadence = 1 << 20

// Sample is one cadence-aligned snapshot of allocator state. Cycle is
// the virtual-time instant the snapshot describes; Epoch/Phase tie it to
// the workload phase (clocks reset between phases, so Cycle restarts).
type Sample struct {
	Epoch int    `json:"epoch"`
	Phase string `json:"phase"`
	Cycle uint64 `json:"cycle"`

	// Block-lifecycle shadow: what the application holds.
	LiveBlocks     uint64 `json:"live_blocks"`
	LiveBytes      uint64 `json:"live_bytes"`      // Σ usable (size-class) bytes of live blocks
	RequestedBytes uint64 `json:"requested_bytes"` // Σ requested bytes of live blocks

	// Allocator footprint and the derived fragmentation ratios.
	ReservedBytes uint64  `json:"reserved_bytes"` // allocator-mapped bytes (arenas/superblocks/spans/mmaps)
	InternalFrag  float64 `json:"internal_frag"`  // (live − requested) / live
	ExternalFrag  float64 `json:"external_frag"`  // (reserved − live) / reserved
	Blowup        float64 `json:"blowup"`         // reserved / live

	// Free capacity, split by synchronization regime.
	FreeBlocks   uint64   `json:"free_blocks"`
	FreeBytes    uint64   `json:"free_bytes"`
	FreeDepths   []uint64 `json:"free_depths,omitempty"` // per class, aligned with Series.Classes
	CacheBytes   uint64   `json:"cache_bytes"`           // idle in sync-free thread-local caches
	CentralBytes uint64   `json:"central_bytes"`         // idle on shared (central/global/bin) lists

	// Superblock/arena structure.
	Superblocks      uint64  `json:"superblocks"`
	EmptySuperblocks uint64  `json:"empty_superblocks"`
	Occupancy        float64 `json:"occupancy"` // used blocks / block capacity across assigned superblocks
	Migrations       uint64  `json:"migrations"`
	Arenas           uint64  `json:"arenas"`

	// Placement sharing: cache lines and ORT stripes.
	SharedLines uint64   `json:"shared_lines"` // 64-byte lines holding live blocks of ≥2 threads
	LineChurn   uint64   `json:"line_churn"`   // cumulative line-ownership extensions
	MaxStripe   uint64   `json:"max_stripe"`   // max live blocks aliasing one ORT entry
	StripeHist  []uint64 `json:"stripe_hist"`  // ORT entries by live-block count: [1, 2, 3, 4+]
}

// Geometry is an allocator's static layout parameters — stable for its
// lifetime, emitted with every series and standalone by tmlayout
// -heap-geometry.
type Geometry struct {
	SuperblockBytes uint64 `json:"superblock_bytes"` // superblock/span/arena granularity
	MinBlock        uint64 `json:"min_block"`
	MaxBlock        uint64 `json:"max_block"` // largest class-served request
}

// Series is one allocator's telemetry over one sweep cell.
type Series struct {
	Label     string    `json:"label"` // the cell's cache key — its identity across runs
	Allocator string    `json:"allocator"`
	Cadence   uint64    `json:"cadence"`
	Classes   []uint64  `json:"classes,omitempty"` // static class table (empty: dynamic bins)
	Geometry  *Geometry `json:"geometry,omitempty"`
	Samples   []Sample  `json:"samples"`
}

// Set is the tmheap/series/v1 artifact: the series of every observed
// cell of one experiment, in deterministic cell-index order.
type Set struct {
	Schema string    `json:"schema"`
	Label  string    `json:"label,omitempty"` // experiment name
	Series []*Series `json:"series"`
}

// NewSet returns an empty artifact stamped with the schema.
func NewSet(label string) *Set {
	return &Set{Schema: Schema, Label: label, Series: []*Series{}}
}

// Add appends a series (nil-safe on the series for skipped cells).
func (s *Set) Add(sr *Series) {
	if sr != nil {
		s.Series = append(s.Series, sr)
	}
}

// Info summarizes the artifact for the run record's HeapInfo block.
func (s *Set) Info() *obs.HeapInfo {
	if s == nil {
		return nil
	}
	info := &obs.HeapInfo{Schema: Schema}
	seen := map[string]bool{}
	for _, sr := range s.Series {
		info.Series++
		info.Samples += len(sr.Samples)
		if info.Cadence == 0 {
			info.Cadence = sr.Cadence
		}
		if !seen[sr.Allocator] {
			seen[sr.Allocator] = true
			info.Allocators = append(info.Allocators, sr.Allocator)
		}
	}
	return info
}

// WriteJSON serializes the artifact with stable formatting.
func (s *Set) WriteJSON(w io.Writer) error {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// ReadJSON deserializes a tmheap/series/v1 artifact, rejecting unknown
// schemas rather than silently misreading them.
func ReadJSON(r io.Reader) (*Set, error) {
	var s Set
	if err := json.NewDecoder(r).Decode(&s); err != nil {
		return nil, err
	}
	if s.Schema != Schema {
		return nil, fmt.Errorf("heapscope: unknown series schema %q (want %q)", s.Schema, Schema)
	}
	return &s, nil
}

// ReadFile reads the artifact at path.
func ReadFile(path string) (*Set, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	s, err := ReadJSON(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}
