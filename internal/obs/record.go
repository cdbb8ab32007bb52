package obs

import (
	"encoding/json"
	"fmt"
	"io"
)

// Run-record schema identifiers. V2 added SchemaVersion and the Sweep
// provenance section (cell-set hash, cached-vs-executed counts, host
// pool width); everything in v1 is still present and means the same, so
// v1 files decode losslessly (see DecodeRunRecords).
const (
	RunRecordSchemaV1 = "tmrepro/run-record/v1"
	RunRecordSchema   = "tmrepro/run-record/v2"
)

// Table is the serialization form of one result table; harness.Table
// is this type.
type Table struct {
	Title   string     `json:"title,omitempty"`
	Columns []string   `json:"columns"`
	Rows    [][]string `json:"rows"`
}

// Series is one plottable line: label plus x/y[/err] points.
type Series struct {
	Label string    `json:"label"`
	X     []float64 `json:"x"`
	Y     []float64 `json:"y"`
	Err   []float64 `json:"err,omitempty"`
}

// RunConfig captures the knobs that produced a run.
type RunConfig struct {
	Full  bool              `json:"full"`
	Reps  int               `json:"reps,omitempty"`
	Seed  uint64            `json:"seed"`
	Extra map[string]string `json:"extra,omitempty"`
}

// TraceInfo summarizes the event stream attached to a run.
type TraceInfo struct {
	Events  int            `json:"events"`
	Dropped uint64         `json:"dropped,omitempty"`
	ByKind  map[string]int `json:"by_kind,omitempty"`
	Phases  []string       `json:"phases,omitempty"`
}

// Run statuses. A record is valid in any of them: the robustness layer
// guarantees an artifact is emitted even when the run degrades or dies.
const (
	StatusOK       = "ok"       // completed and validated
	StatusDegraded = "degraded" // terminated under pressure: watchdog deadline,
	// graceful OOM shutdown, or post-fault validation failure
	StatusFailed = "failed" // a panic was captured; partial results only
)

// SweepInfo is the scheduler provenance of a record produced through
// the parallel sweep: which cell set the experiment decomposed into
// (a hash over the cells' config hashes — the experiment's identity for
// caching), how many cells ran versus came from the cache, and how wide
// the host worker pool was. Everything except Jobs is deterministic for
// a given cache state; Jobs records how the run was executed, like wall
// clock would, and is excluded from byte-identity comparisons.
type SweepInfo struct {
	CellSet  string `json:"cell_set,omitempty"` // hash over the experiment's cell hashes
	Cells    int    `json:"cells"`
	Executed int    `json:"executed"`
	Cached   int    `json:"cached"`
	Jobs     int    `json:"jobs,omitempty"` // host goroutine pool width used
}

// ProfileInfo summarizes the cycle-attribution profile captured for a
// run (the full profile is its own artifact; the record carries only
// its identity and extent). It lives here rather than in internal/prof
// because prof builds on obs; the prof package fills it in.
type ProfileInfo struct {
	Schema      string `json:"schema"`       // profile artifact schema (tmprof/profile/v1)
	Samples     int    `json:"samples"`      // (thread, region-stack) buckets
	Frames      int    `json:"frames"`       // distinct region frames
	Threads     int    `json:"threads"`      // logical threads attributed
	TotalCycles uint64 `json:"total_cycles"` // sum over all buckets == summed thread clocks
}

// HeapInfo summarizes the allocator-state telemetry series captured for
// a run (the full tmheap/series/v1 artifact is its own file; the record
// carries only its identity and extent). It lives here rather than in
// internal/heapscope because heapscope builds on obs; the heapscope
// package fills it in.
type HeapInfo struct {
	Schema     string   `json:"schema"`     // series artifact schema (tmheap/series/v1)
	Series     int      `json:"series"`     // per-cell series captured
	Samples    int      `json:"samples"`    // snapshots across all series
	Cadence    uint64   `json:"cadence"`    // virtual cycles between snapshots
	Allocators []string `json:"allocators"` // distinct allocators observed, first-seen order
}

// RecoveryInfo is the verdict of the durable-memory layer for a run:
// flush/fence/log traffic when the run completed normally, plus the
// crash point and the recovery invariant sweep when a deterministic
// crash was injected. It lives here rather than in internal/pmem
// because pmem builds on obs; the pmem package fills it in.
type RecoveryInfo struct {
	// Verdict is "ok", "degraded" (metadata repaired with caveats:
	// free-list closure or shadow-map disagreement) or "failed" (a
	// durability invariant broke: lost committed writes or resurrected
	// blocks).
	Verdict string `json:"verdict"`
	// Crashed reports whether a crash clause fired; CrashCycle and
	// CrashPhase locate it (virtual cycle, commit-phase name).
	Crashed    bool   `json:"crashed"`
	CrashCycle uint64 `json:"crash_cycle,omitempty"`
	CrashPhase string `json:"crash_phase,omitempty"`
	// Durable-traffic counters for the whole run (both phases).
	Flushes    uint64 `json:"flushes"`
	Fences     uint64 `json:"fences"`
	LogAppends uint64 `json:"log_appends"`
	MetaRecs   uint64 `json:"meta_recs,omitempty"` // allocator structural journal records
	// Recovery outcome (crash runs only).
	TornLogs   int    `json:"torn_logs,omitempty"`   // populated-but-uncommitted redo logs discarded
	Replayed   int    `json:"replayed,omitempty"`    // committed-but-untruncated redo logs re-applied
	LiveBlocks int    `json:"live_blocks,omitempty"` // journaled blocks live after recovery
	FreeBlocks int    `json:"free_blocks,omitempty"` // blocks relinked into rebuilt free chains
	TornMeta   uint64 `json:"torn_meta,omitempty"`   // allocator metadata words rewritten from journaled truth
	MetaWords  uint64 `json:"meta_words,omitempty"`  // allocator metadata words scanned
	// Invariant-sweep failure counters (zero on a clean recovery).
	LostWrites  int `json:"lost_writes,omitempty"`  // committed stores missing from the recovered heap
	Resurrected int `json:"resurrected,omitempty"`  // freed blocks that came back live
	ChainBreaks int `json:"chain_breaks,omitempty"` // free chains failing the closure walk
	ShadowBad   int `json:"shadow_bad,omitempty"`   // shadow-map states disagreeing post-resync
}

// PoolInfo summarizes the transaction-pooling discipline a run used and
// the pool traffic it generated: how many simulated allocations were
// served from reuse lists versus falling through to the allocator, and
// what the pool retained. It lives here rather than in internal/stm
// because stm builds on obs; the workloads fill it in from
// stm.PoolStats.
type PoolInfo struct {
	Discipline string `json:"discipline"`           // none / cache / pool / batch
	Hits       uint64 `json:"hits"`                 // Gets served from a reuse list
	Misses     uint64 `json:"misses"`               // Gets that fell through to the allocator
	Returns    uint64 `json:"returns"`              // Puts the pool kept
	Refills    uint64 `json:"refills,omitempty"`    // bulk refill / slab-carve operations
	Slabs      uint64 `json:"slabs,omitempty"`      // slabs carved (batch discipline)
	SlabBytes  uint64 `json:"slab_bytes,omitempty"` // bytes reserved in slabs
	Held       uint64 `json:"held"`                 // blocks parked in reuse lists at run end
}

// RaceInfo is the verdict of the happens-before race checker for a run:
// how much of the execution it observed (events, tracked words and
// blocks) and what it found, split by violation class (see
// internal/race for the taxonomy). It lives here rather than in
// internal/race because race builds on obs; the race package fills it
// in.
type RaceInfo struct {
	Checked  bool `json:"checked"`  // a checker was attached for the run
	Findings int  `json:"findings"` // total violations, all classes
	// Per-class counters (each counts every occurrence, not just the
	// retained exemplars).
	Publication      int `json:"publication,omitempty"`       // raw write vs unordered tx read
	Privatization    int `json:"privatization,omitempty"`     // tx write vs unordered raw access
	Mixed            int `json:"mixed,omitempty"`             // unordered tx/raw write-write
	Metadata         int `json:"metadata,omitempty"`          // tx access to a block the allocator reclaimed
	QuarantineBypass int `json:"quarantine_bypass,omitempty"` // block reissued while still quarantined
	DurableOrdering  int `json:"durable_ordering,omitempty"`  // durable store before its redo-log commit fence
	// Coverage counters.
	Words  uint64 `json:"words"`           // simulated words tracked (live allocator-block extents)
	Blocks uint64 `json:"blocks"`          // allocator blocks tracked over the run
	Events uint64 `json:"events"`          // scheduler/STM/heap events consumed
	First  string `json:"first,omitempty"` // first finding, rendered (empty on a clean run)
}

// ConflictInfo is the verdict of the conflict observatory for a run:
// how many abort events it consumed and how their wasted virtual cycles
// distribute over the four placement classes (see internal/conflict for
// the taxonomy), plus the headline aggregates of the killer/victim
// graph, the allocation-site blame table and the abort-chain detector.
// It lives here rather than in internal/conflict because conflict
// builds on obs; the conflict package fills it in.
type ConflictInfo struct {
	Observed bool `json:"observed"` // an observatory was attached for the run
	Events   int  `json:"events"`   // abort events consumed
	// Per-class abort counts (true-sharing: same word; false-sharing:
	// different addresses in one 2^shift-byte stripe; stripe-alias:
	// different stripes folded onto one ORT entry by the modulo;
	// metadata: a conflicting address inside allocator metadata or a
	// reclaimed block; other: aborts with no attributable stripe).
	TrueSharing  int `json:"true_sharing,omitempty"`
	FalseSharing int `json:"false_sharing,omitempty"`
	StripeAlias  int `json:"stripe_alias,omitempty"`
	Metadata     int `json:"metadata,omitempty"`
	Other        int `json:"other,omitempty"`
	// Wasted virtual cycles (begin-to-abort) total and per class.
	WastedCycles uint64 `json:"wasted_cycles"`
	WastedTrue   uint64 `json:"wasted_true,omitempty"`
	WastedFalse  uint64 `json:"wasted_false,omitempty"`
	WastedAlias  uint64 `json:"wasted_alias,omitempty"`
	WastedMeta   uint64 `json:"wasted_meta,omitempty"`
	WastedOther  uint64 `json:"wasted_other,omitempty"`
	// Enrichment counters over the false-sharing class.
	SameLine   int `json:"same_line,omitempty"`   // conflicting pair shares a 64-byte cache line
	CrossBlock int `json:"cross_block,omitempty"` // conflicting pair spans two allocator blocks
	// Killer/victim graph, blame table and cascade aggregates.
	Edges           int    `json:"edges,omitempty"`         // distinct killer-kind -> victim-kind edges
	LongestChain    int    `json:"longest_chain,omitempty"` // longest abort cascade observed
	TopSite         string `json:"top_site,omitempty"`      // allocation site blamed for the most placement-caused wasted cycles
	TopSiteWasted   uint64 `json:"top_site_wasted,omitempty"`
	TopOffender     string `json:"top_offender,omitempty"` // address involved in the most placement-caused aborts
	TopOffenderHits int    `json:"top_offender_hits,omitempty"`
	First           string `json:"first,omitempty"` // first exemplar event, rendered
}

// Blocks are the per-run observer info blocks. Workload results and
// harness cell payloads carry them, experiment runs fold them with
// Merge, and run records end with them.
type Blocks struct {
	Recovery *RecoveryInfo `json:"recovery,omitempty"` // durable-memory verdict (v2)
	Pool     *PoolInfo     `json:"pool,omitempty"`     // tx-pooling discipline and traffic (v2)
	Race     *RaceInfo     `json:"race,omitempty"`     // happens-before checker verdict (v2)
	Conflict *ConflictInfo `json:"conflict,omitempty"` // abort-forensics summary (v2)
}

// Merge folds one cell's blocks into b, block by block.
func (b *Blocks) Merge(o Blocks) {
	b.Recovery = b.Recovery.Merge(o.Recovery)
	b.Pool = b.Pool.Merge(o.Pool)
	b.Race = b.Race.Merge(o.Race)
	b.Conflict = b.Conflict.Merge(o.Conflict)
}

// StatusRank orders run statuses by severity: ok (or "") < degraded <
// failed.
func StatusRank(s string) int {
	switch s {
	case StatusFailed:
		return 2
	case StatusDegraded:
		return 1
	}
	return 0
}

// Merge returns the worse of r and o (r wins ties), so a fold over
// cells surfaces the most damaged recovery.
func (r *RecoveryInfo) Merge(o *RecoveryInfo) *RecoveryInfo {
	if o == nil || (r != nil && StatusRank(o.Verdict) <= StatusRank(r.Verdict)) {
		return r
	}
	return o
}

// Merge returns r with o's traffic added (a copy of o when r is nil). A
// fold mixing disciplines reports "mixed" rather than pretending one
// policy produced the totals.
func (r *PoolInfo) Merge(o *PoolInfo) *PoolInfo {
	if o == nil {
		return r
	}
	if r == nil {
		cp := *o
		return &cp
	}
	if r.Discipline != o.Discipline {
		r.Discipline = "mixed"
	}
	r.Hits += o.Hits
	r.Misses += o.Misses
	r.Returns += o.Returns
	r.Refills += o.Refills
	r.Slabs += o.Slabs
	r.SlabBytes += o.SlabBytes
	r.Held += o.Held
	return r
}

// Merge returns r with o's verdicts and coverage added (a copy of o
// when r is nil); the first finding keeps the headline First.
func (r *RaceInfo) Merge(o *RaceInfo) *RaceInfo {
	if o == nil {
		return r
	}
	if r == nil {
		cp := *o
		return &cp
	}
	r.Findings += o.Findings
	r.Publication += o.Publication
	r.Privatization += o.Privatization
	r.Mixed += o.Mixed
	r.Metadata += o.Metadata
	r.QuarantineBypass += o.QuarantineBypass
	r.DurableOrdering += o.DurableOrdering
	r.Words += o.Words
	r.Blocks += o.Blocks
	r.Events += o.Events
	if r.First == "" {
		r.First = o.First
	}
	return r
}

// Merge returns r with o's counters added (a copy of o when r is nil):
// the longest chain and the heaviest site and offender win, and the
// first exemplar keeps the headline First.
func (r *ConflictInfo) Merge(o *ConflictInfo) *ConflictInfo {
	if o == nil {
		return r
	}
	if r == nil {
		cp := *o
		return &cp
	}
	r.Events += o.Events
	r.TrueSharing += o.TrueSharing
	r.FalseSharing += o.FalseSharing
	r.StripeAlias += o.StripeAlias
	r.Metadata += o.Metadata
	r.Other += o.Other
	r.WastedCycles += o.WastedCycles
	r.WastedTrue += o.WastedTrue
	r.WastedFalse += o.WastedFalse
	r.WastedAlias += o.WastedAlias
	r.WastedMeta += o.WastedMeta
	r.WastedOther += o.WastedOther
	r.SameLine += o.SameLine
	r.CrossBlock += o.CrossBlock
	r.Edges += o.Edges
	if o.LongestChain > r.LongestChain {
		r.LongestChain = o.LongestChain
	}
	if o.TopSiteWasted > r.TopSiteWasted {
		r.TopSite = o.TopSite
		r.TopSiteWasted = o.TopSiteWasted
	}
	if o.TopOffenderHits > r.TopOffenderHits {
		r.TopOffender = o.TopOffender
		r.TopOffenderHits = o.TopOffenderHits
	}
	if r.First == "" {
		r.First = o.First
	}
	return r
}

// RunRecord is the machine-readable artifact of one experiment run —
// what BENCH_<exp>.json files hold. Everything in it derives from
// virtual time and fixed seeds, so records are reproducible
// byte-for-byte.
type RunRecord struct {
	Schema        string       `json:"schema"`
	SchemaVersion int          `json:"schema_version,omitempty"` // 0/absent means 1 (v1 files predate it)
	Experiment    string       `json:"experiment"`
	Title         string       `json:"title,omitempty"`
	Status        string       `json:"status,omitempty"`  // "" is StatusOK (pre-robustness records)
	Failure       string       `json:"failure,omitempty"` // watchdog / panic detail for non-ok statuses
	Config        RunConfig    `json:"config"`
	Sweep         *SweepInfo   `json:"sweep,omitempty"` // scheduler provenance (v2)
	Tables        []Table      `json:"tables,omitempty"`
	Series        []Series     `json:"series,omitempty"`
	Notes         []string     `json:"notes,omitempty"`
	Metrics       *Snapshot    `json:"metrics,omitempty"`
	Stripes       []StripeJSON `json:"stripe_heatmap,omitempty"`
	Trace         *TraceInfo   `json:"trace,omitempty"`
	Profile       *ProfileInfo `json:"profile,omitempty"` // cycle-attribution summary (v2)
	Heap          *HeapInfo    `json:"heap,omitempty"`    // allocator-state telemetry summary (v2)
	Blocks
}

// NewRunRecord returns a record stamped with the current schema.
func NewRunRecord(experiment string) *RunRecord {
	return &RunRecord{Schema: RunRecordSchema, SchemaVersion: 2, Experiment: experiment}
}

// Attach fills the record's observability sections (metrics snapshot,
// stripe heatmap, trace summary) from the recorder. A nil recorder
// leaves the record untouched.
func (rec *RunRecord) Attach(r *Recorder) {
	if r == nil {
		return
	}
	rec.Metrics = r.reg.Snapshot()
	rec.Stripes = r.heat.Top(64)
	info := &TraceInfo{Dropped: r.Dropped(), Phases: r.Phases(), ByKind: map[string]int{}}
	for _, ev := range r.Events() {
		info.Events++
		info.ByKind[ev.Kind.String()]++
	}
	rec.Trace = info
}

// WriteJSON serializes the record with stable formatting.
func (rec *RunRecord) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rec)
}

// WriteRunRecords serializes one record as an object or several as an
// array, matching what a single -json output file should hold.
func WriteRunRecords(w io.Writer, recs []*RunRecord) error {
	if len(recs) == 1 {
		return recs[0].WriteJSON(w)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(recs)
}

// DecodeRunRecords reads what WriteRunRecords (or any older tool)
// wrote: a single record object or an array of them, in either the v1
// or v2 schema. v1 records come back with SchemaVersion normalized to 1
// so consumers can switch on the version without string comparisons;
// unknown schemas are an error rather than a silent misread.
func DecodeRunRecords(r io.Reader) ([]*RunRecord, error) {
	dec := json.NewDecoder(r)
	var raw json.RawMessage
	if err := dec.Decode(&raw); err != nil {
		return nil, err
	}
	var recs []*RunRecord
	if len(raw) > 0 && raw[0] == '[' {
		if err := json.Unmarshal(raw, &recs); err != nil {
			return nil, err
		}
	} else {
		var rec RunRecord
		if err := json.Unmarshal(raw, &rec); err != nil {
			return nil, err
		}
		recs = []*RunRecord{&rec}
	}
	for _, rec := range recs {
		switch {
		case rec.Schema == RunRecordSchemaV1 && rec.SchemaVersion <= 1:
			rec.SchemaVersion = 1
		case rec.Schema == RunRecordSchema && (rec.SchemaVersion == 0 || rec.SchemaVersion == 2):
			rec.SchemaVersion = 2
		default:
			return nil, fmt.Errorf("obs: unknown run-record schema %q (version %d)", rec.Schema, rec.SchemaVersion)
		}
	}
	return recs, nil
}
