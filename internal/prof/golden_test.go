package prof_test

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	_ "repro/internal/alloc/glibc"

	"repro/internal/core"
	"repro/internal/intset"
	"repro/internal/prof"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestGoldenFolded pins the full instrumentation stack end to end: a
// fixed-seed intset run must produce exactly the folded-stacks artifact
// in testdata. Any change to region placement, stall bucketing, or the
// virtual-time model shows up as a diff here — rerun with -update after
// auditing that the change is intentional:
//
//	go test ./internal/prof -run Golden -update
func TestGoldenFolded(t *testing.T) {
	p := prof.New()
	cfg := intset.Config{
		Kind:         intset.LinkedList,
		Allocator:    "glibc",
		Threads:      4,
		InitialSize:  64,
		KeyRange:     128,
		UpdatePct:    60,
		OpsPerThread: 32,
		Seed:         42,
		Instruments:  core.Instruments{Prof: p},
	}
	if _, err := intset.Run(cfg); err != nil {
		t.Fatal(err)
	}
	pf := p.Profile()
	if pf.TotalCycles == 0 || len(pf.Samples) == 0 {
		t.Fatal("profiled run attributed no cycles")
	}
	var buf bytes.Buffer
	if err := pf.WriteFolded(&buf); err != nil {
		t.Fatal(err)
	}

	golden := filepath.Join("testdata", "intset_folded.golden")
	if *update {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with: go test ./internal/prof -run Golden -update)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("folded output diverged from %s (rerun with -update if intentional)\ngot %d bytes, want %d",
			golden, buf.Len(), len(want))
	}
}
