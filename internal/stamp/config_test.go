package stamp_test

import (
	"strings"
	"testing"

	_ "repro/internal/stamp/bayes"
	_ "repro/internal/stamp/genome"
	_ "repro/internal/stamp/intruder"
	_ "repro/internal/stamp/kmeans"
	_ "repro/internal/stamp/labyrinth"
	_ "repro/internal/stamp/ssca2"
	_ "repro/internal/stamp/vacation"
	_ "repro/internal/stamp/yada"

	"repro/internal/stamp"
)

func TestRunUnknownApp(t *testing.T) {
	_, err := stamp.Run(stamp.Config{App: "nosuch", Allocator: "tbb"})
	if err == nil || !strings.Contains(err.Error(), "unknown app") {
		t.Errorf("err = %v, want unknown app", err)
	}
}

func TestRunUnknownAllocator(t *testing.T) {
	_, err := stamp.Run(stamp.Config{App: "kmeans", Allocator: "nosuch"})
	if err == nil {
		t.Error("unknown allocator accepted")
	}
}

func TestNamesOrdered(t *testing.T) {
	names := stamp.Names()
	if len(names) != 8 || names[0] != "bayes" || names[7] != "yada" {
		t.Errorf("Names() = %v", names)
	}
}

func TestRegionStrings(t *testing.T) {
	if stamp.RegionSeq.String() != "seq" || stamp.RegionPar.String() != "par" || stamp.RegionTx.String() != "tx" {
		t.Error("region names wrong")
	}
}

func TestBucketBoundaries(t *testing.T) {
	cases := map[uint64]int{1: 0, 16: 0, 17: 1, 32: 1, 48: 2, 64: 3, 96: 4, 128: 5, 256: 6, 257: 7, 1 << 20: 7}
	for size, want := range cases {
		if got := stamp.Bucket(size); got != want {
			t.Errorf("Bucket(%d) = %d, want %d", size, got, want)
		}
	}
}

func TestParseScale(t *testing.T) {
	for _, c := range []struct {
		in   string
		want stamp.Scale
		ok   bool
	}{
		{"quick", stamp.Quick, true},
		{"ref", stamp.Ref, true},
		{"full", stamp.Ref, true},
		{"rfe", 0, false},
		{"Ref", 0, false},
		{"", 0, false},
	} {
		got, err := stamp.ParseScale(c.in)
		if (err == nil) != c.ok || (c.ok && got != c.want) {
			t.Errorf("ParseScale(%q) = %v, %v; want %v, ok %v", c.in, got, err, c.want, c.ok)
		}
		if err != nil && !strings.Contains(err.Error(), "quick, ref, full") {
			t.Errorf("ParseScale(%q) error %q names no allowed values", c.in, err)
		}
	}
}

func TestParseVariant(t *testing.T) {
	for _, c := range []struct {
		in   string
		want stamp.Variant
		ok   bool
	}{
		{"high", stamp.HighContention, true},
		{"low", stamp.LowContention, true},
		{"hi", 0, false},
		{"", 0, false},
	} {
		got, err := stamp.ParseVariant(c.in)
		if (err == nil) != c.ok || (c.ok && got != c.want) {
			t.Errorf("ParseVariant(%q) = %v, %v; want %v, ok %v", c.in, got, err, c.want, c.ok)
		}
		if err != nil && !strings.Contains(err.Error(), "high, low") {
			t.Errorf("ParseVariant(%q) error %q names no allowed values", c.in, err)
		}
	}
}
