package intset_test

import (
	"strings"
	"testing"

	"repro/internal/alloc"
	"repro/internal/core"
	"repro/internal/intset"
	"repro/internal/obs"
)

func uafConfig(allocator string) intset.Config {
	return intset.Config{
		Kind:         intset.LinkedList,
		Allocator:    allocator,
		Threads:      1,
		InitialSize:  32,
		OpsPerThread: 10,
		SeedUAF:      true,
		Policy:       core.Policy{Sanitize: true},
	}
}

// TestSeedUAF is the headline sanitizer demo: the same seeded
// use-after-free fails with a provenance-bearing diagnostic when the
// sanitizer is armed and silently returns recycled memory when it is
// not, under every allocator model.
func TestSeedUAF(t *testing.T) {
	for _, name := range alloc.Names() {
		t.Run(name+"/sanitized", func(t *testing.T) {
			res, err := intset.Run(uafConfig(name))
			if err != nil {
				t.Fatal(err)
			}
			if res.Status != obs.StatusFailed {
				t.Fatalf("status = %q, want %q", res.Status, obs.StatusFailed)
			}
			for _, want := range []string{"sanitizer", "use-after-free", name} {
				if !strings.Contains(res.Failure, want) {
					t.Errorf("failure %q does not mention %q", res.Failure, want)
				}
			}
		})
		t.Run(name+"/unsanitized", func(t *testing.T) {
			cfg := uafConfig(name)
			cfg.Sanitize = false
			res, err := intset.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.Status != obs.StatusOK {
				t.Fatalf("status = %q (%s), want %q", res.Status, res.Failure, obs.StatusOK)
			}
		})
	}
}
