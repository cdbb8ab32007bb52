package cliflags

import (
	"flag"
	"strconv"
	"time"

	"repro/internal/mem"
)

// Stopwatch is the tm* binaries' only sanctioned use of host wall-clock
// time: progress reporting on stderr. Wall time must never reach run
// records, cell hashes or anything else a result depends on — results
// are functions of virtual time alone — and the nodeterm analyzer
// enforces that split structurally by whitelisting this package while
// flagging time.Now anywhere else outside internal/sweep's annotated
// host-scheduling stats.
type Stopwatch struct {
	start time.Time
}

// StartStopwatch begins timing.
func StartStopwatch() Stopwatch { return Stopwatch{start: time.Now()} }

// Elapsed returns the wall time since the stopwatch started, rounded
// for stderr display.
func (s Stopwatch) Elapsed() time.Duration {
	return time.Since(s.start).Round(time.Millisecond)
}

// AddSanitize registers -sanitize on fs. The flag applies as it parses:
// it arms the process-wide sanitize default, so every simulated address
// space the run constructs carries a shadow map (see internal/mem
// shadow.go). Sanitizer state is pure metadata — run-record bytes are
// identical with and without it — so the flag is deliberately kept out
// of specs and cell hashes.
func AddSanitize(fs *flag.FlagSet) {
	fs.BoolFunc("sanitize",
		"attach the shadow-memory sanitizer to every simulated address space; heap-misuse diagnostics fail the run (bypasses the cache)",
		func(v string) error {
			on, err := strconv.ParseBool(v)
			if err != nil {
				return err
			}
			mem.SetSanitizeDefault(on)
			return nil
		})
}
