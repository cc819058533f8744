package sim

import (
	"math"
	"strings"
	"testing"

	"selthrottle/internal/conf"
	"selthrottle/internal/core"
	"selthrottle/internal/prog"
)

// tinyConfig returns a configuration small enough for unit tests.
func tinyConfig() Config {
	cfg := Default()
	cfg.Instructions = 20000
	cfg.Warmup = 5000
	return cfg
}

func TestDefaultConfigMatchesPaper(t *testing.T) {
	cfg := Default()
	if cfg.PredBytes != 8<<10 || cfg.ConfBytes != 8<<10 {
		t.Error("default table sizes deviate from the paper's 8 KB + 8 KB")
	}
	if cfg.Pipe.Depth() != 14 {
		t.Errorf("default depth %d, want 14", cfg.Pipe.Depth())
	}
	if cfg.JRSThreshold != 12 {
		t.Error("default MDC threshold deviates from 12")
	}
	if cfg.Estimator != EstBPRU {
		t.Error("default estimator should be BPRU")
	}
}

func TestRunProducesConsistentResult(t *testing.T) {
	p, _ := prog.ProfileByName("gzip")
	r := Run(tinyConfig(), p)
	if r.Benchmark != "gzip" {
		t.Fatalf("benchmark = %q", r.Benchmark)
	}
	// The measured interval is a delta between two commit-width-granular
	// stop points, so it can be off by up to one commit group either way.
	if r.Stats.Committed < 20000-8 || r.Stats.Committed > 20000+8 {
		t.Fatalf("committed %d", r.Stats.Committed)
	}
	if r.Energy <= 0 || r.Seconds <= 0 || r.AvgPower <= 0 {
		t.Fatalf("degenerate energy report: %+v", r)
	}
	if math.Abs(r.EDelay-r.Energy*r.Seconds) > 1e-15 {
		t.Fatal("E-D product identity violated")
	}
	if math.Abs(r.AvgPower*r.Seconds-r.Energy) > 1e-9 {
		t.Fatal("power-time-energy identity violated")
	}
}

func TestRunDeterministic(t *testing.T) {
	p, _ := prog.ProfileByName("crafty")
	a := Run(tinyConfig(), p)
	b := Run(tinyConfig(), p)
	if a.Stats.Cycles != b.Stats.Cycles || a.Energy != b.Energy {
		t.Fatal("identical configurations produced different results")
	}
}

func TestCompareMath(t *testing.T) {
	base := Result{Seconds: 2, AvgPower: 50, Energy: 100, EDelay: 200}
	x := Result{Seconds: 2.5, AvgPower: 40, Energy: 100, EDelay: 250}
	c := Compare(base, x)
	if math.Abs(c.Speedup-0.8) > 1e-12 {
		t.Errorf("speedup = %v", c.Speedup)
	}
	if math.Abs(c.PowerSaving-20) > 1e-12 {
		t.Errorf("power saving = %v", c.PowerSaving)
	}
	if math.Abs(c.EnergySaving-0) > 1e-12 {
		t.Errorf("energy saving = %v", c.EnergySaving)
	}
	if math.Abs(c.EDImprovement+25) > 1e-12 {
		t.Errorf("E-D improvement = %v", c.EDImprovement)
	}
}

func TestAverageComparison(t *testing.T) {
	avg := AverageComparison([]Comparison{
		{Speedup: 1.0, PowerSaving: 10, EnergySaving: 20, EDImprovement: 30},
		{Speedup: 0.8, PowerSaving: 20, EnergySaving: 10, EDImprovement: 10},
	})
	if math.Abs(avg.Speedup-0.9) > 1e-12 || math.Abs(avg.PowerSaving-15) > 1e-12 {
		t.Fatalf("average wrong: %+v", avg)
	}
	empty := AverageComparison(nil)
	if empty.Benchmark != "average" {
		t.Fatal("empty average mislabeled")
	}
}

func TestExperimentSeriesComplete(t *testing.T) {
	if len(OracleExperiments()) != 3 {
		t.Error("oracle series incomplete")
	}
	a := FetchExperiments()
	if len(a) != 7 || a[0].ID != "A1" || a[6].ID != "A7" {
		t.Errorf("A-series wrong: %d experiments", len(a))
	}
	b := DecodeExperiments()
	if len(b) != 9 || b[0].ID != "B1" || b[8].ID != "B9" {
		t.Errorf("B-series wrong: %d experiments", len(b))
	}
	c := SelectionExperiments()
	if len(c) != 7 || c[0].ID != "C1" || c[6].ID != "C7" {
		t.Errorf("C-series wrong: %d experiments", len(c))
	}
}

func TestExperimentPolicyEncodings(t *testing.T) {
	// Spot-check the paper's experiment encodings.
	a5, ok := ExperimentByID("A5")
	if !ok {
		t.Fatal("A5 missing")
	}
	if a5.Policy.ByClass[conf.LC].Fetch != core.RateQuarter ||
		a5.Policy.ByClass[conf.VLC].Fetch != core.RateStall {
		t.Error("A5 encoding wrong")
	}
	b7, _ := ExperimentByID("B7")
	if b7.Policy.ByClass[conf.LC].Fetch != core.RateQuarter ||
		b7.Policy.ByClass[conf.LC].Decode != core.RateQuarter ||
		b7.Policy.ByClass[conf.VLC].Fetch != core.RateStall {
		t.Error("B7 encoding wrong")
	}
	c2 := BestExperiment()
	if c2.ID != "C2" {
		t.Fatal("best experiment is not C2")
	}
	if !c2.Policy.ByClass[conf.LC].NoSelect ||
		c2.Policy.ByClass[conf.LC].Fetch != core.RateQuarter ||
		c2.Policy.ByClass[conf.VLC].Fetch != core.RateStall {
		t.Error("C2 encoding wrong")
	}
	// C1 is A5 under another name.
	c1, _ := ExperimentByID("C1")
	if c1.Policy.ByClass != a5.Policy.ByClass {
		t.Error("C1 must equal A5")
	}
	// The gating experiments use JRS.
	for _, id := range []string{"A7", "B9", "C7"} {
		e, _ := ExperimentByID(id)
		if !e.Policy.Gating || e.Estimator != EstJRS || e.Policy.GateThreshold != 2 {
			t.Errorf("%s is not JRS pipeline gating with threshold 2", id)
		}
	}
}

func TestExperimentByIDUnknown(t *testing.T) {
	if _, ok := ExperimentByID("Z9"); ok {
		t.Fatal("found an experiment that should not exist")
	}
}

func TestApplyStampsConfig(t *testing.T) {
	e, _ := ExperimentByID("oracle-fetch")
	cfg := e.Apply(Default())
	if cfg.Pipe.Oracle != core.OracleFetch {
		t.Fatal("oracle mode not applied")
	}
	e2, _ := ExperimentByID("A7")
	cfg = e2.Apply(Default())
	if cfg.Estimator != EstJRS || !cfg.Policy.Gating {
		t.Fatal("gating experiment not applied")
	}
}

func TestRunFigureSmall(t *testing.T) {
	profiles := []prog.Profile{}
	for _, n := range []string{"gzip", "twolf"} {
		p, _ := prog.ProfileByName(n)
		profiles = append(profiles, p)
	}
	opts := Options{Instructions: 15000, Warmup: 4000, Profiles: profiles}
	fr := RunFigure("test", []Experiment{BestExperiment()}, opts)
	if len(fr.Baselines) != 2 || len(fr.Rows) != 1 {
		t.Fatalf("figure shape wrong: %d baselines, %d rows", len(fr.Baselines), len(fr.Rows))
	}
	row, ok := fr.Row("C2")
	if !ok || len(row.PerBench) != 2 {
		t.Fatal("row lookup failed")
	}
	// Throttling must reduce average power against the baseline.
	if row.Average.PowerSaving <= 0 {
		t.Errorf("C2 power saving %.1f%% <= 0", row.Average.PowerSaving)
	}
	var sb strings.Builder
	WriteFigure(&sb, fr)
	if !strings.Contains(sb.String(), "C2") || !strings.Contains(sb.String(), "gzip") {
		t.Error("figure rendering incomplete")
	}
}

func TestWriteTable3Renders(t *testing.T) {
	var sb strings.Builder
	WriteTable3(&sb, Default())
	for _, want := range []string{"BTB", "1024", "128-entry", "gshare", "14 stages"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("Table 3 missing %q", want)
		}
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.Instructions == 0 || o.Depth != 14 || o.PredBytes != 8<<10 || len(o.Profiles) != 8 {
		t.Fatalf("defaults wrong: %+v", o)
	}
	if o.Warmup != o.Instructions/4 {
		t.Fatal("default warmup should be a quarter of the measured window")
	}
}

// TestCheckDepthKB pins the modelled ranges at their edges: 6 to 64 stages
// and 1 to 1024 KB.
func TestCheckDepthKB(t *testing.T) {
	for _, tc := range []struct {
		depth, kb int
		ok        bool
	}{
		{5, 16, false},
		{6, 16, true},
		{64, 16, true},
		{65, 16, false},
		{14, -4, false},
		{14, 0, false},
		{14, 1, true},
		{14, 1024, true},
		{14, 1025, false},
	} {
		if err := CheckDepthKB(tc.depth, tc.kb); (err == nil) != tc.ok {
			t.Errorf("CheckDepthKB(%d, %d) = %v, want ok=%v", tc.depth, tc.kb, err, tc.ok)
		}
	}
}
