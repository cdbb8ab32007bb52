// Package stamptest provides the shared test helper that runs a STAMP
// application across allocators and thread counts and checks its
// validation, determinism and transactional activity.
package stamptest

import (
	"fmt"
	"testing"

	_ "repro/internal/alloc/glibc"
	_ "repro/internal/alloc/hoard"
	_ "repro/internal/alloc/tbb"
	_ "repro/internal/alloc/tcmalloc"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/stamp"
	"repro/internal/stm"
)

// Check runs app with every allocator at 1 and 4 threads (Quick scale),
// then at 4 threads under every pooling discipline with the sanitizer
// armed, and asserts every run validates with an ok status and sane
// results. wantTx requires at least one committed transaction.
func Check(t *testing.T, app string, wantTx bool) {
	t.Helper()
	for _, name := range allocators {
		for _, threads := range []int{1, 4} {
			check(t, stamp.Config{App: app, Allocator: name, Threads: threads}, wantTx)
		}
	}
	sanitize := core.Policy{Sanitize: true}
	for _, pool := range []stm.Pooling{stm.PoolNone, stm.PoolCache, stm.PoolReuse, stm.PoolBatch} {
		for _, name := range allocators {
			check(t, stamp.Config{App: app, Allocator: name, Threads: 4, Pool: pool, Policy: sanitize}, wantTx)
		}
	}
}

var allocators = []string{"glibc", "hoard", "tbb", "tcmalloc"}

// check runs one configuration. A sanitizer diagnostic or a race
// finding comes back as a failed status, not an error.
func check(t *testing.T, cfg stamp.Config, wantTx bool) {
	t.Helper()
	id := fmt.Sprintf("%s/%s/%d/%v", cfg.App, cfg.Allocator, cfg.Threads, cfg.Pool)
	res, err := stamp.Run(cfg)
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	if res.Status != obs.StatusOK {
		t.Errorf("%s: status %s: %s", id, res.Status, res.Failure)
	}
	if res.Cycles == 0 {
		t.Errorf("%s: zero parallel time", id)
	}
	if wantTx && res.Tx.Commits == 0 {
		t.Errorf("%s: no transactions committed", id)
	}
}

// CheckDeterministic runs app twice with identical configs and compares
// virtual time and abort counts.
func CheckDeterministic(t *testing.T, app string) {
	t.Helper()
	cfg := stamp.Config{App: app, Allocator: "tcmalloc", Threads: 4}
	a, err := stamp.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := stamp.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Cycles != b.Cycles || a.Tx.Aborts != b.Tx.Aborts {
		t.Errorf("%s nondeterministic: cycles %d/%d aborts %d/%d",
			app, a.Cycles, b.Cycles, a.Tx.Aborts, b.Tx.Aborts)
	}
}
