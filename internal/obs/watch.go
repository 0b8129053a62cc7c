package obs

import "time"

// Watch is a started wall-clock stopwatch. The few places that
// legitimately measure real time outside a span tree — the planbench
// timing loop, the warm-start speedup test — route through it, so the
// determinism lint can keep every other package off the wall clock.
type Watch struct{ start time.Time }

// StartWatch starts a stopwatch.
func StartWatch() Watch { return Watch{start: time.Now()} }

// ElapsedNs returns nanoseconds since the watch started (monotonic).
func (w Watch) ElapsedNs() int64 { return time.Since(w.start).Nanoseconds() }
