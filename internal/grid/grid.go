// Package grid holds the pieces a distributed sweep needs beyond the store:
// a grid's identity and point leases. Simulation points are pure functions
// of (Config, Profile), the disk store is crash-safe, content-addressed and
// last-rename-wins under concurrent publication, and sim.EnumerateGrid gives
// every process the same point list. On that substrate a grid is named by
// the hash of its point keys (ID), so a coordinator and its workers can
// check they mean the same grid, and each point is guarded while it computes
// by a lease file over the shared store directory: an atomic O_EXCL claim, a
// steal that installs a fresh fencing token, a read-only check that tells a
// fenced-off holder to stop, and a release. The fleet (internal/fleet)
// dispatches points under these leases; a point that two workers end up
// computing costs wall-clock, never correctness, because both publish the
// same bytes.
package grid

import (
	"crypto/sha256"
	"encoding/hex"
	"time"

	"selthrottle/internal/sim"
)

// ID derives a short stable identifier for a grid: the hash of its point
// keys in enumeration order. Point lease names embed it so two different
// sweeps sharing one store directory cannot collide on a lease, and a
// worker asked for a point of a grid it enumerates differently refuses the
// request instead of computing the wrong point.
func ID(points []sim.GridPoint) string {
	h := sha256.New()
	for _, g := range points {
		k := g.Key()
		h.Write(k[:])
	}
	return hex.EncodeToString(h.Sum(nil))[:12]
}

// Clock is a monotonic time source: readings are durations from an
// arbitrary fixed origin, comparable only to other readings from the same
// Clock. Tests inject warped clocks; production uses MonotonicClock.
type Clock func() time.Duration

// MonotonicClock returns a Clock backed by the runtime monotonic clock
// (time.Since carries the monotonic reading, immune to wall-clock steps):
// the one sanctioned production time source for reader-local liveness
// judgements, such as the fleet's circuit breakers. Dependent packages share
// this annotated wall-clock site instead of growing their own.
//
//st:wallclock — reader-local monotonic readings for liveness judgements; never reaches output
func MonotonicClock() Clock {
	start := time.Now()
	return func() time.Duration { return time.Since(start) }
}
