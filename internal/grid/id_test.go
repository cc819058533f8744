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
		{"table1", "", "62207e98d902"},
		{"table2", "", "62207e98d902"},
		{"conf", "", "368568e95d56"},
		{"fig1", "", "23c7248928d8"},
		{"fig3", "", "0c0e8b0b3e2f"},
		{"fig4", "", "bec2c39bcee0"},
		{"fig5", "", "b0be244bf6f0"},
		{"fig6", "", "1e2bed66e6c5"},
		{"fig7", "", "6905453cb804"},
		{"ablation", "", "d3a535779c1a"},
		{"run", "C2", "0e28feb44c48"},
		{"all", "", "1031ad7d9e47"},
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
