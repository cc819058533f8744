package grid

// Point-granularity leases: the lease protocol applied to single grid
// points. A fleet dispatches points, so the claim unit is one point — and
// that is what delivers work stealing for free: any idle worker may claim
// an unleased point, and a point whose holder died or stalled mid-compute
// is reclaimable by a steal, which installs a fresh fencing token. The
// holder's next check sees the token and stops, and the purity +
// last-rename-wins store make the residual overlap harmless: a stolen point
// at worst computes twice, bit-identically.

import (
	"fmt"

	"selthrottle/internal/store"
)

// PointLeaseName names the lease file guarding one grid point of one grid:
// the grid ID plus a 12-hex prefix of the point's content address. The
// prefix is ample — a sweep has thousands of points, not 2^48 — and keeps
// lease filenames short enough to eyeball in a directory listing.
func PointLeaseName(gridID string, k store.Key) string {
	return fmt.Sprintf("%s-pt-%x", gridID, k[:6])
}

// ClaimPoint claims the lease for point k of gridID. With steal=false it
// only takes an unclaimed point (ErrHeld when a lease file exists, live or
// stale). With steal=true it forces a Steal: a fresh fencing token fences
// off the current holder, whose next Beat returns ErrLost. Steal-claims are
// provisional until the first successful Beat, per the Steal contract.
func (m *Manager) ClaimPoint(gridID string, k store.Key, owner string, steal bool) (*Lease, error) {
	name := PointLeaseName(gridID, k)
	if steal {
		return m.Steal(name, owner)
	}
	return m.Acquire(name, owner)
}
