package sim

import (
	"bytes"
	"context"
	"io"
	"strings"
	"testing"
)

// reportOpts is the small run length the catalogue tests render at.
var reportOpts = Options{Instructions: 2000}

// memoryTierOnly runs the test on the process cache alone, caching on and
// no disk tier, so its miss counter counts exactly the points simulated.
func memoryTierOnly(t *testing.T) {
	t.Helper()
	prevCaching := SetResultCaching(true)
	prevDisk := AttachDiskStore(nil)
	t.Cleanup(func() {
		AttachDiskStore(prevDisk)
		SetResultCaching(prevCaching)
		ClearResultCache()
	})
}

// TestEnumerateGridMatchesReport: the fleet's grid is exactly what the
// report simulates. From a cleared process cache each selection's report
// computes len(EnumerateGrid) points; running the enumerated points after it
// computes none; and with only the enumerated points' results in a cleared
// cache, as the fleet leaves it, the report computes none.
func TestEnumerateGridMatchesReport(t *testing.T) {
	memoryTierOnly(t)
	ctx := context.Background()
	for _, tc := range []struct {
		exp, id string
		points  int
	}{
		{"table1", "", 8},
		{"table2", "", 8},
		{"table3", "", 0},
		{"conf", "", 16},
		{"fig1", "", 32},
		{"fig3", "", 64},
		{"fig4", "", 80},
		{"fig5", "", 64},
		{"fig6", "", 192},
		{"fig7", "", 64},
		{"ablation", "", 80},
		{"run", "C2", 16},
		{"all", "", 408},
	} {
		name := strings.TrimSpace(tc.exp + " " + tc.id)
		pts, err := EnumerateGrid(tc.exp, tc.id, reportOpts)
		if err != nil {
			t.Fatalf("%s: EnumerateGrid: %v", name, err)
		}
		if len(pts) != tc.points {
			t.Errorf("%s: EnumerateGrid has %d points, want %d", name, len(pts), tc.points)
		}
		report := func() (computed uint64) {
			_, before := ResultCacheStats()
			if failed, err := WriteReport(ctx, io.Discard, io.Discard, tc.exp, tc.id, reportOpts); err != nil || failed != 0 {
				t.Fatalf("%s: WriteReport: %d failed, %v", name, failed, err)
			}
			_, after := ResultCacheStats()
			return after - before
		}

		ClearResultCache()
		if computed := report(); computed != uint64(len(pts)) {
			t.Errorf("%s: the report simulated %d points, EnumerateGrid has %d", name, computed, len(pts))
		}
		_, before := ResultCacheStats()
		results := make([]Result, len(pts))
		runJobs(len(pts), func(r *Runner, i int) {
			var err error
			if results[i], err = runCachedE(ctx, r, pts[i].Cfg, pts[i].Profile); err != nil {
				t.Errorf("%s: point %d: %v", name, i, err)
			}
		})
		if _, after := ResultCacheStats(); after != before {
			t.Errorf("%s: EnumerateGrid has %d points the report did not simulate", name, after-before)
		}

		ClearResultCache()
		for i, g := range pts {
			InjectResult(g.Cfg, g.Profile, results[i])
		}
		if computed := report(); computed != 0 {
			t.Errorf("%s: the report simulated %d points EnumerateGrid left out", name, computed)
		}
	}
}

// TestReportAllJoinsItsParts: all is the ten tables, figures and sweeps in
// paper order, one blank line apart.
func TestReportAllJoinsItsParts(t *testing.T) {
	memoryTierOnly(t)
	render := func(exp string) string {
		var out, errw bytes.Buffer
		if failed, err := WriteReport(context.Background(), &out, &errw, exp, "", reportOpts); err != nil || failed != 0 || errw.Len() != 0 {
			t.Fatalf("%s: %d failed, %v, stderr %q", exp, failed, err, errw.String())
		}
		return out.String()
	}
	all := render("all")
	var parts []string
	for _, exp := range []string{"table3", "table2", "table1", "conf", "fig1", "fig3", "fig4", "fig5", "fig6", "fig7"} {
		parts = append(parts, render(exp))
	}
	if want := strings.Join(parts, "\n"); all != want {
		t.Fatalf("all (%d bytes) is not its parts joined by blank lines (%d bytes)", len(all), len(want))
	}
}

// TestReportUnknownSelection: an unknown experiment or id is an error from
// every reader of the catalogue, and the report writes nothing.
func TestReportUnknownSelection(t *testing.T) {
	for _, tc := range []struct{ exp, id, want string }{
		{"bogus", "", `unknown experiment "bogus"`},
		{"fig2", "", `unknown experiment "fig2"`},
		{"run", "bogus", `unknown experiment id "bogus"`},
	} {
		if err := CheckSelection(tc.exp, tc.id); err == nil || err.Error() != tc.want {
			t.Errorf("CheckSelection(%q, %q) = %v, want %s", tc.exp, tc.id, err, tc.want)
		}
		var out, errw bytes.Buffer
		failed, err := WriteReport(context.Background(), &out, &errw, tc.exp, tc.id, reportOpts)
		if err == nil || err.Error() != tc.want || failed != 0 || out.Len()+errw.Len() != 0 {
			t.Errorf("WriteReport(%q, %q) = %d, %v and wrote %q / %q", tc.exp, tc.id, failed, err, out.String(), errw.String())
		}
		if pts, err := EnumerateGrid(tc.exp, tc.id, reportOpts); err == nil || pts != nil {
			t.Errorf("EnumerateGrid(%q, %q) = %d points, %v", tc.exp, tc.id, len(pts), err)
		}
	}
	for _, name := range []string{"fig6", "fig7", "ablation", "table1", "run", "all"} {
		if _, _, ok := FigureByName(name); ok {
			t.Errorf("FigureByName(%q) found a bar-chart figure", name)
		}
	}
	if _, ok := SweepByKind("fig6"); ok {
		t.Error(`SweepByKind("fig6") found a sweep; the kinds are depth and size`)
	}
}
