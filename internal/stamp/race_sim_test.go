package stamp_test

import (
	"reflect"
	"testing"

	_ "repro/internal/stamp/genome"
	_ "repro/internal/stamp/kmeans"
	_ "repro/internal/stamp/labyrinth"
	_ "repro/internal/stamp/vacation"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/stamp"
)

// TestStampRaceSimClean attaches the happens-before checker to STAMP
// applications covering the port's synchronization idioms: heavy
// transactional allocation (genome, vacation), phase barriers over raw
// inter-phase access (kmeans), and the declared-racy grid snapshot
// (labyrinth's LoadRelaxed). The ports follow the publication/
// privatization discipline, so the checker must stay silent and the
// measurements must match an unchecked run.
func TestStampRaceSimClean(t *testing.T) {
	for _, app := range []string{"genome", "kmeans", "labyrinth", "vacation"} {
		t.Run(app, func(t *testing.T) {
			cfg := stamp.Config{
				App: app, Allocator: "glibc", Threads: 2,
				Scale:  stamp.Quick,
				Policy: core.Policy{Race: true},
			}
			checked, err := stamp.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if checked.Status != obs.StatusOK {
				t.Fatalf("status = %q (%s), want ok", checked.Status, checked.Failure)
			}
			if checked.Race == nil || !checked.Race.Checked || checked.Race.Findings != 0 {
				t.Fatalf("race info = %+v, want checked and clean", checked.Race)
			}
			if checked.Race.Events == 0 || checked.Race.Blocks == 0 {
				t.Fatalf("checker saw no events: %+v", checked.Race)
			}
			plainCfg := cfg
			plainCfg.Race = false
			plain, err := stamp.Run(plainCfg)
			if err != nil {
				t.Fatal(err)
			}
			checked.Race = nil
			checked.Config.Race = false
			if !reflect.DeepEqual(plain, checked) {
				t.Fatalf("checked run diverged from plain run:\nplain:   %+v\nchecked: %+v", plain, checked)
			}
		})
	}
}
