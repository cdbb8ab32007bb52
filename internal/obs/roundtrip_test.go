package obs

import (
	"bytes"
	"reflect"
	"testing"
)

// fullRecord populates every exported field of RunRecord and its nested
// types with a non-zero value. TestRunRecordRoundTripFull feeds it
// through the encoder/decoder pair; together with the reflection sweep
// below, a field added to the schema without round-trip coverage fails
// this test until the fixture (and, for new semantics, the decoder) is
// updated — the dynamic half of the recordhygiene analyzer's contract.
func fullRecord() *RunRecord {
	return &RunRecord{
		Schema:        RunRecordSchema,
		SchemaVersion: 2,
		Experiment:    "fig1",
		Title:         "every field set",
		Status:        StatusDegraded,
		Failure:       "watchdog: virtual deadline 1000 exceeded",
		Config: RunConfig{
			Full:  true,
			Reps:  5,
			Seed:  0x5eed,
			Extra: map[string]string{"alloc": "tcmalloc", "threads": "8"},
		},
		Sweep: &SweepInfo{
			CellSet:  "deadbeefcafe",
			Cells:    12,
			Executed: 7,
			Cached:   5,
			Jobs:     8,
		},
		Tables: []Table{{
			Title:   "Throughput",
			Columns: []string{"threads", "tx/s"},
			Rows:    [][]string{{"1", "1000"}, {"8", "5200"}},
		}},
		Series: []Series{{
			Label: "glibc",
			X:     []float64{1, 2, 4, 8},
			Y:     []float64{1.0, 1.9, 3.6, 6.1},
			Err:   []float64{0.1, 0.1, 0.2, 0.4},
		}},
		Notes: []string{"quick scale", "sanitizer on"},
		Metrics: &Snapshot{
			Counters: map[string]uint64{"stm_commits_total": 42},
			Gauges:   map[string]float64{"heap_bytes": 4096},
			Histograms: map[string]HistogramSnapshot{
				"tx_cycles": {
					Count:   3,
					Sum:     900,
					Buckets: []BucketCount{{LE: "256", Count: 1}, {LE: "+Inf", Count: 2}},
				},
			},
		},
		Stripes: []StripeJSON{{
			Entry:           17,
			Conflicts:       9,
			FalseAborts:     4,
			Placements:      []PlacementJSON{{Key: 0x1234, Count: 6}},
			OtherPlacements: 2,
			Aliased:         true,
		}},
		Trace: &TraceInfo{
			Events:  128,
			Dropped: 3,
			ByKind:  map[string]int{"tx_commit": 100, "malloc": 28},
			Phases:  []string{"init", "measure"},
		},
		Profile: &ProfileInfo{
			Schema:      "tmprof/profile/v1",
			Samples:     96,
			Frames:      24,
			Threads:     8,
			TotalCycles: 1 << 30,
		},
		Heap: &HeapInfo{
			Schema:     "tmheap/series/v1",
			Series:     4,
			Samples:    64,
			Cadence:    1 << 20,
			Allocators: []string{"glibc", "hoard"},
		},
		Blocks: Blocks{
			Recovery: &RecoveryInfo{
				Verdict:     StatusDegraded,
				Crashed:     true,
				CrashCycle:  84213,
				CrashPhase:  "apply",
				Flushes:     512,
				Fences:      256,
				LogAppends:  1024,
				MetaRecs:    96,
				TornLogs:    2,
				Replayed:    5,
				LiveBlocks:  40,
				FreeBlocks:  12,
				TornMeta:    18,
				MetaWords:   150,
				LostWrites:  1,
				Resurrected: 1,
				ChainBreaks: 1,
				ShadowBad:   1,
			},
			Pool: &PoolInfo{
				Discipline: "batch",
				Hits:       320,
				Misses:     64,
				Returns:    300,
				Refills:    8,
				Slabs:      6,
				SlabBytes:  12288,
				Held:       84,
			},
			Race: &RaceInfo{
				Checked:          true,
				Findings:         6,
				Publication:      1,
				Privatization:    1,
				Mixed:            1,
				Metadata:         1,
				QuarantineBypass: 1,
				DurableOrdering:  1,
				Words:            4096,
				Blocks:           512,
				Events:           1 << 16,
				First:            "metadata: 0x10000040: raw free of block still visible to t1",
			},
			Conflict: &ConflictInfo{
				Observed:        true,
				Events:          24,
				TrueSharing:     6,
				FalseSharing:    9,
				StripeAlias:     3,
				Metadata:        4,
				Other:           2,
				WastedCycles:    90000,
				WastedTrue:      20000,
				WastedFalse:     40000,
				WastedAlias:     10000,
				WastedMeta:      15000,
				WastedOther:     5000,
				SameLine:        7,
				CrossBlock:      5,
				Edges:           4,
				LongestChain:    3,
				TopSite:         "insert@glibc",
				TopSiteWasted:   40000,
				TopOffender:     "0x10000140",
				TopOffenderHits: 5,
				First:           "false-sharing: t1 insert #2 killed by t0 remove at stripe 0x80000a, 0x10000140 vs 0x10000148, wasted 1200",
			},
		},
	}
}

// requireNoZeroFields walks v and fails the test for any exported field
// left at its zero value: that is how a newly added schema field shows
// up here before the fixture covers it.
func requireNoZeroFields(t *testing.T, path string, v reflect.Value) {
	t.Helper()
	switch v.Kind() {
	case reflect.Pointer:
		if v.IsNil() {
			t.Errorf("%s: nil — fullRecord must populate every field", path)
			return
		}
		requireNoZeroFields(t, path, v.Elem())
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			f := v.Type().Field(i)
			if !f.IsExported() {
				continue
			}
			requireNoZeroFields(t, path+"."+f.Name, v.Field(i))
		}
	case reflect.Map:
		if v.Len() == 0 {
			t.Errorf("%s: empty — fullRecord must populate every field", path)
			return
		}
		for _, k := range v.MapKeys() {
			requireNoZeroFields(t, path+"["+k.String()+"]", v.MapIndex(k))
		}
	case reflect.Slice:
		if v.Len() == 0 {
			t.Errorf("%s: empty — fullRecord must populate every field", path)
			return
		}
		// One element suffices; the fixture is hand-built.
		requireNoZeroFields(t, path+"[0]", v.Index(0))
	default:
		if v.IsZero() {
			t.Errorf("%s: zero value — fullRecord must populate every field", path)
		}
	}
}

func TestRunRecordRoundTripFull(t *testing.T) {
	rec := fullRecord()
	requireNoZeroFields(t, "RunRecord", reflect.ValueOf(rec))

	var buf bytes.Buffer
	if err := WriteRunRecords(&buf, []*RunRecord{rec}); err != nil {
		t.Fatal(err)
	}
	recs, err := DecodeRunRecords(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("decoded %d records, want 1", len(recs))
	}
	if !reflect.DeepEqual(recs[0], rec) {
		t.Errorf("round trip changed the record:\n got %+v\nwant %+v", recs[0], rec)
	}
}
