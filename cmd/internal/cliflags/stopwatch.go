package cliflags

import "time"

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
