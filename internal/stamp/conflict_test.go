package stamp_test

import (
	"testing"

	_ "repro/internal/stamp/intruder"

	"repro/internal/core"
	"repro/internal/stamp"
)

// TestStampConflictUsesEffectiveShift pins that a STAMP run with the
// default (zero) Shift classifies its aborts against the lock map the
// STM actually uses. Intruder's cross-word conflicts on tcmalloc's
// densely packed blocks are false sharing; classified against shift 0
// instead of the STM's default 5, every one of them read as ORT stripe
// aliasing.
func TestStampConflictUsesEffectiveShift(t *testing.T) {
	res, err := stamp.Run(stamp.Config{
		App: "intruder", Allocator: "tcmalloc", Threads: 2,
		Scale:  stamp.Quick,
		Policy: core.Policy{Conflict: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	c := res.Conflict
	if c == nil {
		t.Fatal("no conflict block")
	}
	if c.StripeAlias != 0 || c.FalseSharing == 0 {
		t.Errorf("conflicts: %d false sharing, %d stripe alias; want false sharing and no aliasing",
			c.FalseSharing, c.StripeAlias)
	}
}
