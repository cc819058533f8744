package grid

import "time"

// monotonicClock mirrors the production clock carve-out: grid may read the
// wall clock for reader-local liveness judgements, but only under an
// explicit //st:wallclock justification.
//
//st:wallclock — reader-local liveness judgements; never reaches output
func monotonicClock() func() time.Duration {
	start := time.Now()
	return func() time.Duration { return time.Since(start) }
}

func unjustified() time.Time {
	return time.Now() // want "wall-clock read time.Now"
}
