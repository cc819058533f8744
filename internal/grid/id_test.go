package grid

import (
	"testing"

	"selthrottle/internal/sim"
)

// testGrid enumerates a small real grid (fig3 under a fast option set).
func testGrid(t *testing.T) []sim.GridPoint {
	t.Helper()
	pts, err := sim.EnumerateGrid("fig3", "", sim.Options{Instructions: 8000, Warmup: 2000})
	if err != nil {
		t.Fatalf("EnumerateGrid: %v", err)
	}
	if len(pts) < 16 {
		t.Fatalf("grid too small: %d points", len(pts))
	}
	return pts
}

// TestGridID: stable for the same grid, distinct for different grids (two
// sweeps sharing a store directory must not collide on lease names).
func TestGridID(t *testing.T) {
	a := testGrid(t)
	b := testGrid(t)
	if ID(a) != ID(b) {
		t.Fatalf("grid ID unstable: %s vs %s", ID(a), ID(b))
	}
	other, err := sim.EnumerateGrid("fig4", "", sim.Options{Instructions: 8000, Warmup: 2000})
	if err != nil {
		t.Fatalf("EnumerateGrid(fig4): %v", err)
	}
	if ID(a) == ID(other) {
		t.Fatalf("different grids share ID %s", ID(a))
	}
}
