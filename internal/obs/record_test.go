package obs

import (
	"strings"
	"testing"
)

const v2Fixture = `{
  "schema": "tmrepro/run-record/v2",
  "schema_version": 2,
  "experiment": "fig4",
  "config": {"full": false, "seed": 633319},
  "tables": [{"columns": ["a"], "rows": [["1"]]}]
}`

func TestDecodeRunRecordsV2(t *testing.T) {
	rec := NewRunRecord("tab4")
	rec.Sweep = &SweepInfo{CellSet: "abc", Cells: 3, Executed: 2, Cached: 1, Jobs: 8}
	var buf strings.Builder
	if err := rec.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	recs, err := DecodeRunRecords(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	r := recs[0]
	if r.Schema != RunRecordSchema || r.SchemaVersion != 2 {
		t.Errorf("v2 record decoded as schema %q version %d", r.Schema, r.SchemaVersion)
	}
	if r.Sweep == nil || r.Sweep.Cells != 3 || r.Sweep.Cached != 1 || r.Sweep.Jobs != 8 {
		t.Errorf("sweep provenance lost: %+v", r.Sweep)
	}
}

func TestDecodeRunRecordsArray(t *testing.T) {
	recs, err := DecodeRunRecords(strings.NewReader("[" + v2Fixture + "," + v2Fixture + "]"))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[1].SchemaVersion != 2 || recs[1].Config.Seed != 633319 {
		t.Fatalf("array decode = %d records (last %+v), want 2 v2 records", len(recs), recs[len(recs)-1])
	}
}

func TestDecodeRunRecordsUnknownSchema(t *testing.T) {
	for _, old := range []string{"run-record/v2", `"schema_version": 2`} {
		in := strings.Replace(v2Fixture, old, strings.Replace(old, "2", "1", 1), 1)
		if _, err := DecodeRunRecords(strings.NewReader(in)); err == nil {
			t.Errorf("%s changed to version 1 decoded; want an error, not a silent pass-through", old)
		}
	}
}
