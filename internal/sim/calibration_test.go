package sim

import (
	"context"
	"testing"

	"selthrottle/internal/power"
	"selthrottle/internal/prog"
)

// The calibration tests assert that the synthetic substrate sits on the
// operating points the reproduction is built around: Table 2 misprediction
// rates, §4.3 estimator quality, and the Table 1 power breakdown. They run
// full simulations and are skipped under -short.

const (
	calibInstructions = 150000
	calibWarmup       = 40000
)

func calibOpts() Options {
	return Options{Instructions: calibInstructions, Warmup: calibWarmup}
}

func TestTable2MissRateCalibration(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration test")
	}
	rows, err := RunTable2E(context.Background(), calibOpts())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		got := 100 * r.MeasuredMiss
		want := r.Profile.PaperMissPct
		tol := r.Profile.TargetMissTol
		if got < want-tol || got > want+tol {
			t.Errorf("%s: gshare miss %.1f%%, paper %.1f%% (tolerance %.1f)",
				r.Profile.Name, got, want, tol)
		}
		if r.BranchFraction < 0.03 || r.BranchFraction > 0.25 {
			t.Errorf("%s: implausible branch fraction %.3f", r.Profile.Name, r.BranchFraction)
		}
		if r.IPC < 0.5 || r.IPC > 6 {
			t.Errorf("%s: implausible IPC %.2f", r.Profile.Name, r.IPC)
		}
	}
}

func TestConfidenceOperatingPoints(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration test")
	}
	crs, err := RunConfidenceE(context.Background(), calibOpts())
	if err != nil {
		t.Fatal(err)
	}
	for _, cr := range crs {
		switch cr.Estimator {
		case EstBPRU:
			// Paper: SPEC = 60 %, PVN = 45 %.
			if cr.SPEC < 0.45 || cr.SPEC > 0.90 {
				t.Errorf("BPRU SPEC %.2f outside [0.45, 0.90] (paper 0.60)", cr.SPEC)
			}
			if cr.PVN < 0.30 || cr.PVN > 0.60 {
				t.Errorf("BPRU PVN %.2f outside [0.30, 0.60] (paper 0.45)", cr.PVN)
			}
		case EstJRS:
			// Paper: SPEC = 90 %, PVN = 24 %.
			if cr.SPEC < 0.80 {
				t.Errorf("JRS SPEC %.2f below 0.80 (paper 0.90)", cr.SPEC)
			}
			if cr.PVN < 0.15 || cr.PVN > 0.40 {
				t.Errorf("JRS PVN %.2f outside [0.15, 0.40] (paper 0.24)", cr.PVN)
			}
		}
	}
	// The paper's key contrast: JRS has higher SPEC, BPRU higher PVN.
	if crs[1].SPEC <= crs[0].SPEC {
		t.Error("JRS should have higher SPEC than BPRU")
	}
	if crs[0].PVN <= crs[1].PVN {
		t.Error("BPRU should have higher PVN than JRS")
	}
}

func TestTable1Breakdown(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration test")
	}
	t1, err := RunTable1E(context.Background(), calibOpts())
	if err != nil {
		t.Fatal(err)
	}
	// Total power within 15 % of the paper's 56.4 W.
	if t1.TotalWatts < power.TotalWatts*0.85 || t1.TotalWatts > power.TotalWatts*1.15 {
		t.Errorf("total power %.1f W, paper %.1f W", t1.TotalWatts, power.TotalWatts)
	}
	// Every unit share within 3.5 percentage points of Table 1.
	for u := power.Unit(0); u < power.NumUnits; u++ {
		got := 100 * t1.Shares[u]
		want := 100 * power.Table1Shares[u]
		if got < want-3.5 || got > want+3.5 {
			t.Errorf("unit %v share %.1f%%, paper %.1f%%", u, got, want)
		}
	}
	// A substantial fraction of power is wasted by mis-speculated
	// instructions (paper: 27.9 %; substrate band: 10-30 %).
	if t1.WastedTotal < 0.10 || t1.WastedTotal > 0.32 {
		t.Errorf("wasted fraction %.1f%%, paper 27.9%%", 100*t1.WastedTotal)
	}
	// The front end dominates the waste, as in the paper.
	front := t1.WastedShares[power.UnitICache] + t1.WastedShares[power.UnitBPred]
	if front < t1.WastedShares[power.UnitALU] {
		t.Error("front-end waste should exceed execution waste")
	}
}

// TestThrottlingShape asserts the qualitative results of the evaluation:
// the orderings the paper's conclusions rest on, independent of exact
// magnitudes.
func TestThrottlingShape(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration test")
	}
	profiles := []prog.Profile{}
	for _, n := range []string{"compress", "go", "gzip", "twolf"} {
		p, _ := prog.ProfileByName(n)
		profiles = append(profiles, p)
	}
	opts := Options{Instructions: 100000, Warmup: 25000, Profiles: profiles}

	a1, _ := ExperimentByID("A1")
	a5, _ := ExperimentByID("A5")
	a6, _ := ExperimentByID("A6")
	c1, _ := ExperimentByID("C1")
	c2, _ := ExperimentByID("C2")
	a7, _ := ExperimentByID("A7")
	fr := RunFigure("shape", []Experiment{a1, a5, a6, a7, c1, c2}, opts)

	row := func(id string) Comparison {
		r, ok := fr.Row(id)
		if !ok {
			t.Fatalf("row %s missing", id)
		}
		return r.Average
	}

	// 1. Graded throttling: the gentlest policy costs the least performance.
	if row("A1").Speedup < row("A6").Speedup {
		t.Error("A1 (gentlest) should cost less performance than A6 (full gating)")
	}
	// 2. More aggressive throttling saves more power.
	if !(row("A1").PowerSaving < row("A5").PowerSaving &&
		row("A5").PowerSaving < row("A6").PowerSaving) {
		t.Errorf("power savings not monotone: A1=%.1f A5=%.1f A6=%.1f",
			row("A1").PowerSaving, row("A5").PowerSaving, row("A6").PowerSaving)
	}
	// 3. Every policy saves energy on average.
	for _, id := range []string{"A1", "A5", "A6", "A7", "C1", "C2"} {
		if row(id).EnergySaving <= 0 {
			t.Errorf("%s average energy saving %.1f%% <= 0", id, row(id).EnergySaving)
		}
	}
	// 4. Selection throttling adds power savings over the same policy
	// without it (paper: ~2 pp) at a small additional slowdown.
	if row("C2").PowerSaving <= row("C1").PowerSaving {
		t.Errorf("no-select did not add power savings: C1=%.1f C2=%.1f",
			row("C1").PowerSaving, row("C2").PowerSaving)
	}
	if row("C1").Speedup-row("C2").Speedup > 0.06 {
		t.Errorf("no-select slowdown too large: C1=%.3f C2=%.3f",
			row("C1").Speedup, row("C2").Speedup)
	}
	// 5. A1's slowdown is small (paper: < 1 %; band: < 3 %).
	if row("A1").Speedup < 0.97 {
		t.Errorf("A1 slowdown %.3f too large", row("A1").Speedup)
	}
}

func TestDepthSweepShape(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration test")
	}
	profiles := []prog.Profile{}
	for _, n := range []string{"go", "twolf"} {
		p, _ := prog.ProfileByName(n)
		profiles = append(profiles, p)
	}
	opts := Options{Instructions: 80000, Warmup: 20000, Profiles: profiles}
	points := DepthSweepE(context.Background(), opts, []int{6, 14, 28})
	if len(points) != 3 {
		t.Fatalf("%d sweep points", len(points))
	}
	// The paper's Figure 6: savings grow with pipeline depth.
	if points[2].Average.PowerSaving <= points[0].Average.PowerSaving {
		t.Errorf("power savings do not grow with depth: %v -> %v",
			points[0].Average.PowerSaving, points[2].Average.PowerSaving)
	}
}

func TestSizeSweepShape(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration test")
	}
	profiles := []prog.Profile{}
	for _, n := range []string{"go", "gcc"} {
		p, _ := prog.ProfileByName(n)
		profiles = append(profiles, p)
	}
	opts := Options{Instructions: 80000, Warmup: 20000, Profiles: profiles}
	points := SizeSweepE(context.Background(), opts, []int{8, 64})
	if len(points) != 2 {
		t.Fatalf("%d sweep points", len(points))
	}
	// The paper's Figure 7: bigger tables leave fewer opportunities, so
	// power savings shrink (20.3 % at 8 KB vs 16.5 % at 64 KB).
	if points[1].Average.PowerSaving >= points[0].Average.PowerSaving+2 {
		t.Errorf("power savings should not grow with table size: %v -> %v",
			points[0].Average.PowerSaving, points[1].Average.PowerSaving)
	}
}

func TestOracleEnergyBounds(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration test")
	}
	profiles := []prog.Profile{}
	for _, n := range []string{"go", "twolf", "gzip"} {
		p, _ := prog.ProfileByName(n)
		profiles = append(profiles, p)
	}
	opts := Options{Instructions: 100000, Warmup: 25000, Profiles: profiles}
	fr := RunFigure("oracles", OracleExperiments(), opts)
	f, _ := fr.Row("oracle-fetch")
	d, _ := fr.Row("oracle-decode")
	s, _ := fr.Row("oracle-select")
	// Section 3's stage ordering: suppressing wrong-path work earlier in
	// the pipeline saves more power.
	if !(f.Average.PowerSaving > d.Average.PowerSaving &&
		d.Average.PowerSaving > s.Average.PowerSaving) {
		t.Errorf("oracle power ordering violated: fetch=%.1f decode=%.1f select=%.1f",
			f.Average.PowerSaving, d.Average.PowerSaving, s.Average.PowerSaving)
	}
	if f.Average.PowerSaving < 8 {
		t.Errorf("oracle fetch power saving %.1f%% too small (paper ~21%%)",
			f.Average.PowerSaving)
	}
}
