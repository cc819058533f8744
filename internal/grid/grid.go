// Package grid holds the pieces a distributed sweep needs beyond the store:
// a grid's identity and point leases. Simulation points are pure functions
// of (Config, Profile), the disk store is crash-safe, content-addressed and
// last-rename-wins under concurrent publication, and sim.EnumerateGrid gives
// every process the same point list. On that substrate a grid is named by
// the hash of its point keys (ID), so a coordinator and its workers can
// check they mean the same grid, and each point is guarded while it computes
// by a lease file over the shared store directory: an atomic O_EXCL claim,
// heartbeat renewal, reader-local monotonic TTL expiry and fencing tokens
// for steals. The fleet (internal/fleet) dispatches points under these
// leases; a point that two workers end up computing costs wall-clock, never
// correctness, because both publish the same bytes.
package grid

import (
	"crypto/sha256"
	"encoding/hex"

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
