package intset_test

import (
	"fmt"

	_ "repro/internal/alloc/glibc"
	_ "repro/internal/alloc/hoard"

	"repro/internal/core"
	"repro/internal/intset"
)

// One §5 benchmark run: the sorted linked list under the
// write-dominated workload, with the shadow-memory sanitizer checking
// every transactional access. Results are deterministic for a fixed
// configuration, so the derived comparison below is stable.
func ExampleRun() {
	glibc, err := intset.Run(intset.Config{
		Kind: intset.LinkedList, Allocator: "glibc", Threads: 2,
		InitialSize: 256, KeyRange: 512, UpdatePct: 60, OpsPerThread: 100,
		Policy: core.Policy{Sanitize: true},
	})
	if err != nil {
		panic(err)
	}
	hoard, err := intset.Run(intset.Config{
		Kind: intset.LinkedList, Allocator: "hoard", Threads: 2,
		InitialSize: 256, KeyRange: 512, UpdatePct: 60, OpsPerThread: 100,
		Policy: core.Policy{Sanitize: true},
	})
	if err != nil {
		panic(err)
	}
	// The paper's Table 4 trade-off: Glibc aborts less (32-byte chunks
	// keep each node in its own ORT stripe) but misses more.
	fmt.Println("glibc aborts fewer:", glibc.Tx.Aborts < hoard.Tx.Aborts)
	fmt.Println("glibc misses more:", glibc.L1Miss > hoard.L1Miss)
	// Output:
	// glibc aborts fewer: true
	// glibc misses more: true
}
