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

	// A coordinator and its workers must agree on every selection's grid
	// across builds, so the IDs at n=2000 are pinned. A change to the
	// workload profiles or to the configuration encoding moves them all
	// and regenerates this table; a change that moves only some of them
	// has changed what a selection runs or the order it runs it in.
	for _, tc := range []struct{ exp, id, want string }{
		{"table1", "", "0ce8d2b46c26"},
		{"table2", "", "0ce8d2b46c26"},
		{"conf", "", "d5c6be3690dd"},
		{"fig1", "", "4c0cf5e08006"},
		{"fig3", "", "17b0a63eb6f9"},
		{"fig4", "", "879e2bc18822"},
		{"fig5", "", "0dd7e1fabd0a"},
		{"fig6", "", "91c581db9581"},
		{"fig7", "", "56b4b8b7b973"},
		{"ablation", "", "f8dbddabaada"},
		{"run", "C2", "ff4cd437beb5"},
		{"all", "", "fea1f38f9527"},
	} {
		pts, err := sim.EnumerateGrid(tc.exp, tc.id, sim.Options{Instructions: 2000})
		if err != nil {
			t.Fatalf("EnumerateGrid(%s %s): %v", tc.exp, tc.id, err)
		}
		if got := ID(pts); got != tc.want {
			t.Errorf("grid ID of %s %s = %s, want %s", tc.exp, tc.id, got, tc.want)
		}
	}
}
