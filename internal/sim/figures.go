package sim

import (
	"context"
	"fmt"
	"io"

	"selthrottle/internal/power"
	"selthrottle/internal/prog"
)

// Options controls a figure-level reproduction run.
type Options struct {
	Instructions uint64
	Warmup       uint64
	Depth        int // total pipeline stages (0 = paper baseline, 14)
	PredBytes    int // 0 = 8 KB
	ConfBytes    int // 0 = 8 KB
	Profiles     []prog.Profile

	// Supervise is the per-point run policy (deadline, retries, fault
	// hooks). The zero value isolates failures without deadlines or
	// retries; healthy grids behave identically with or without it.
	Supervise Supervisor
}

// CheckDepthKB validates a requested pipeline depth (stages, fetch to
// commit) and total predictor+estimator budget (KB, split half and half)
// against the ranges hpca03, stserve and the fleet accept: 6 to 64 stages
// and 1 to 1024 KB. Below them a run would silently simulate something
// else: pipe.Config.SetDepth clamps shallower pipes to 6 stages, and a
// budget under 1 KB leaves the predictor and estimator at their minimum
// tables.
func CheckDepthKB(depth, kb int) error {
	if depth < 6 || depth > 64 {
		return fmt.Errorf("bad depth %d (want 6..64)", depth)
	}
	if kb < 1 || kb > 1024 {
		return fmt.Errorf("bad kb %d (want 1..1024)", kb)
	}
	return nil
}

// withDefaults fills unset options with paper-baseline values.
func (o Options) withDefaults() Options {
	if o.Instructions == 0 {
		o.Instructions = prog.DefaultInstructions
	}
	if o.Warmup == 0 {
		o.Warmup = o.Instructions / 4
	}
	if o.Depth == 0 {
		o.Depth = 14
	}
	if o.PredBytes == 0 {
		o.PredBytes = 8 << 10
	}
	if o.ConfBytes == 0 {
		o.ConfBytes = 8 << 10
	}
	if o.Profiles == nil {
		o.Profiles = prog.Profiles()
	}
	return o
}

// BaseConfig resolves the options against the paper defaults and returns
// the baseline run configuration they imply — the exported entry the sweep
// service uses to turn request parameters into a Config.
func (o Options) BaseConfig() Config {
	return o.withDefaults().baseConfig()
}

// baseConfig builds the run configuration implied by the options.
func (o Options) baseConfig() Config {
	cfg := Default()
	cfg.Pipe.SetDepth(o.Depth)
	cfg.PredBytes = o.PredBytes
	cfg.ConfBytes = o.ConfBytes
	cfg.Instructions = o.Instructions
	cfg.Warmup = o.Warmup
	return cfg
}

// ExperimentRow is one experiment's outcome across all benchmarks.
type ExperimentRow struct {
	Experiment Experiment
	PerBench   []Comparison // profile order
	Average    Comparison
}

// FigureResult is the full reproduction of one figure. On a healthy grid
// Statuses and Failures are nil; when supervision isolated failed points,
// Statuses holds the per-point outcomes (config-major: point c*NP+j is
// configuration c — 0 the baseline, c>0 experiment c-1 — on profile j) and
// Failures the report of the failed points. Comparisons involving a failed
// cell (or a failed baseline column) read as zero and are excluded from the
// row averages.
type FigureResult struct {
	Name      string
	Options   Options
	Baselines []Result // per profile
	Rows      []ExperimentRow

	Statuses []PointStatus  // per grid point, config-major; nil when all OK
	Failures []PointFailure // failed points; nil when all OK

	// Points is the raw config-major result grid (Baselines is its first
	// profile-count slots). It is what partitioned runs exchange: a merge of
	// K partial figures recombines their Points/point statuses and
	// re-assembles Rows, so the merged figure is built from the same raw
	// substrate as a single-process run. Cells whose status is failed or
	// unclaimed hold zero Results.
	Points []Result
}

// RunFigure reproduces a bar-chart figure: it runs the baseline and every
// experiment on every profile, producing the paper's four metric groups.
// It is RunFigureE under a background context; see RunFigureE for the grid
// execution and failure-isolation semantics.
func RunFigure(name string, exps []Experiment, opts Options) *FigureResult {
	return RunFigureE(context.Background(), name, exps, opts)
}

// RunFigureE reproduces a figure under ctx with per-point failure isolation.
// The whole (configuration x benchmark) grid is flattened into one job list
// and executed on the shared pool of reusable Runners, so parallelism spans
// the full figure without constructing a simulator per cell; grid cells
// already in the process-wide result cache (shared baselines, repeated
// experiments, earlier figures) are served without re-simulation. Output is
// independent of GOMAXPROCS: every run is deterministic and slot-addressed.
//
// Every point runs under opts.Supervise: a failed point becomes a per-point
// status and a Failures entry instead of a process-killing panic, and the
// healthy points are returned bit-identical to a clean run. Canceling ctx
// stops in-flight points cooperatively and short-circuits the rest; their
// statuses carry the context error.
func RunFigureE(ctx context.Context, name string, exps []Experiment, opts Options) *FigureResult {
	opts = opts.withDefaults()
	sup := &opts.Supervise
	cfgs := figureConfigs(opts, exps)
	np := len(opts.Profiles)
	all := make([]Result, len(cfgs)*np)
	statuses := make([]PointStatus, len(all))
	runJobs(len(all), func(r *Runner, k int) {
		all[k], statuses[k] = sup.runPoint(ctx, r, cfgs[k/np], opts.Profiles[k%np])
	})
	return assembleFigure(name, exps, opts, all, statuses)
}

// figureConfigs expands a figure's experiment list into its config-major
// configuration axis: the baseline first, then each experiment applied to
// it. opts must already be defaulted.
func figureConfigs(opts Options, exps []Experiment) []Config {
	base := opts.baseConfig()
	cfgs := make([]Config, 1+len(exps))
	cfgs[0] = base
	for i, e := range exps {
		cfgs[i+1] = e.Apply(base)
	}
	return cfgs
}

// assembleFigure builds a FigureResult from the raw config-major result and
// status grids — the single assembly path shared by single-process runs,
// partitioned runs, and the coordinator's merge of per-worker partials, so
// all three degrade identically. opts must already be defaulted; all and
// statuses are (1+len(exps))*len(opts.Profiles) slots, config-major.
func assembleFigure(name string, exps []Experiment, opts Options, all []Result, statuses []PointStatus) *FigureResult {
	np := len(opts.Profiles)
	fr := &FigureResult{Name: name, Options: opts}
	fr.Points = all
	fr.Baselines = all[:np]
	nfail := 0
	for _, st := range statuses {
		if !st.OK() {
			nfail++
		}
	}
	if nfail > 0 {
		fr.Statuses = statuses
		fr.Failures = make([]PointFailure, 0, nfail)
		for k, st := range statuses {
			if st.OK() {
				continue
			}
			expID := "baseline"
			if c := k / np; c > 0 {
				expID = exps[c-1].ID
			}
			fr.Failures = append(fr.Failures, PointFailure{
				Figure:     name,
				Experiment: expID,
				Benchmark:  opts.Profiles[k%np].Name,
				Attempts:   st.Attempts,
				Err:        st.Err,
			})
		}
	}
	fr.Rows = make([]ExperimentRow, len(exps))
	for i, e := range exps {
		results := all[(i+1)*np : (i+2)*np]
		row := ExperimentRow{Experiment: e, PerBench: make([]Comparison, np)}
		for j, r := range results {
			if nfail > 0 && (!statuses[j].OK() || !statuses[(i+1)*np+j].OK()) {
				row.PerBench[j] = Comparison{Benchmark: opts.Profiles[j].Name}
				continue
			}
			row.PerBench[j] = Compare(fr.Baselines[j], r)
		}
		if nfail == 0 {
			row.Average = AverageComparison(row.PerBench)
		} else {
			// Degraded grid: average only the cells whose experiment run
			// AND baseline column both succeeded — a failed cell's zero
			// comparison is a placeholder, not a sample.
			ok := make([]Comparison, 0, np)
			for j := range row.PerBench {
				if statuses[j].OK() && statuses[(i+1)*np+j].OK() {
					ok = append(ok, row.PerBench[j])
				}
			}
			row.Average = AverageComparison(ok)
		}
		fr.Rows[i] = row
	}
	return fr
}

// WriteFailures prints the figure's failure report (one line per failed
// point, with its diagnostic error) to w; a healthy figure prints nothing.
func (fr *FigureResult) WriteFailures(w io.Writer) {
	for _, f := range fr.Failures {
		fmt.Fprintf(w, "FAILED %s\n", f)
	}
}

// Row returns the row for an experiment ID, if present.
func (fr *FigureResult) Row(id string) (ExperimentRow, bool) {
	for _, r := range fr.Rows {
		if r.Experiment.ID == id {
			return r, true
		}
	}
	return ExperimentRow{}, false
}

// SweepPoint is one x-axis point of a sensitivity sweep (Figures 6 and 7):
// the average metrics of the best experiment (C2) against the matching
// baseline. Failures is nil on a healthy point; under supervision it lists
// the grid cells that failed (their contribution is excluded from Average).
type SweepPoint struct {
	X        int // depth in stages, or table size in KB
	Average  Comparison
	Failures []PointFailure
}

// DepthSweep reproduces Figure 6: pipeline depths 6..28 (step 2), C2 vs the
// baseline at each depth. It is DepthSweepE under a background context.
func DepthSweep(opts Options, depths []int) []SweepPoint {
	return DepthSweepE(context.Background(), opts, depths)
}

// DepthSweepE reproduces Figure 6 under ctx with per-point failure
// isolation, at the given depths (nil: the paper's).
func DepthSweepE(ctx context.Context, opts Options, depths []int) []SweepPoint {
	return depthAxis.run(ctx, opts, depths)
}

// SizeSweep reproduces Figure 7: total predictor+estimator budgets of 8, 16,
// 32, and 64 KB, split half/half, C2 vs a baseline using the same predictor.
// It is SizeSweepE under a background context.
func SizeSweep(opts Options, totalsKB []int) []SweepPoint {
	return SizeSweepE(context.Background(), opts, totalsKB)
}

// SizeSweepE reproduces Figure 7 under ctx with per-point failure isolation,
// at the given totals (nil: the paper's).
func SizeSweepE(ctx context.Context, opts Options, totalsKB []int) []SweepPoint {
	return sizeAxis.run(ctx, opts, totalsKB)
}

// Table1Result is the reproduction of Table 1: the average baseline power
// breakdown and the fraction of overall power wasted by mis-speculated
// instructions, per unit.
type Table1Result struct {
	TotalWatts   float64
	Shares       [power.NumUnits]float64 // fraction of overall power per unit
	WastedShares [power.NumUnits]float64 // fraction of overall power wasted, per unit
	WastedTotal  float64                 // overall wasted fraction (paper: 27.9 %)
	Utilization  [power.NumUnits]float64 // measured, for calibration
	Results      []Result
}

// RunTable1 reproduces Table 1 from baseline runs across the profiles. It
// is the fail-fast wrapper around RunTable1E.
func RunTable1(opts Options) *Table1Result {
	t1, err := RunTable1E(context.Background(), opts)
	if err != nil {
		panic(err) // fail-fast: legacy contract, typed *RunError for Guard
	}
	return t1
}

// RunTable1E reproduces Table 1 under ctx. The table's averages are
// meaningless with holes, so unlike the figure grids it is all-or-nothing:
// the first failed point's error is returned (context errors included) and
// the table is nil.
func RunTable1E(ctx context.Context, opts Options) (*Table1Result, error) {
	opts = opts.withDefaults()
	results, statuses := RunAllE(ctx, opts.baseConfig(), opts.Profiles)
	if err := firstError(statuses); err != nil {
		return nil, err
	}
	out := &Table1Result{Results: results}
	n := float64(len(results))
	for _, r := range results {
		out.TotalWatts += r.AvgPower / n
		for u := power.Unit(0); u < power.NumUnits; u++ {
			out.Shares[u] += r.Power.UnitEnergy[u] / r.Power.TotalEnergy / n
			out.WastedShares[u] += r.Power.UnitWasted[u] / r.Power.TotalEnergy / n
		}
		out.WastedTotal += r.Power.WastedEnergy / r.Power.TotalEnergy / n
		for u := power.Unit(0); u < power.NumUnits; u++ {
			// Recover the run's average utilization from its energy share.
			out.Utilization[u] += utilOf(r, u) / n
		}
	}
	return out, nil
}

// firstError returns the first failed status's error, if any.
func firstError(statuses []PointStatus) error {
	for _, st := range statuses {
		if !st.OK() {
			return st.Err
		}
	}
	return nil
}

// utilOf back-computes a unit's average utilization from the energy report.
func utilOf(r Result, u power.Unit) float64 {
	params := power.DefaultParams()
	if r.Power.Cycles == 0 {
		return 0
	}
	cyc := float64(r.Power.Cycles)
	e := r.Power.UnitEnergy[u]
	// e = max*(idle + (1-idle)*util)*cyc/f  =>  util = ...
	max := params.MaxWatts[u]
	if max == 0 {
		return 0
	}
	x := e * params.FreqHz / (max * cyc)
	return (x - params.IdleFrac) / (1 - params.IdleFrac)
}

// Table2Row is one benchmark's characteristics: the paper's reported values
// next to the synthetic profile's measured behaviour.
type Table2Row struct {
	Profile        prog.Profile
	MeasuredMiss   float64 // committed-branch misprediction rate
	BranchFraction float64 // conditional branches / committed instructions
	IPC            float64
}

// RunTable2 reproduces Table 2 by measuring each profile under the
// baseline. It is the fail-fast wrapper around RunTable2E.
func RunTable2(opts Options) []Table2Row {
	rows, err := RunTable2E(context.Background(), opts)
	if err != nil {
		panic(err) // fail-fast: legacy contract, typed *RunError for Guard
	}
	return rows
}

// RunTable2E reproduces Table 2 under ctx, all-or-nothing like RunTable1E.
func RunTable2E(ctx context.Context, opts Options) ([]Table2Row, error) {
	opts = opts.withDefaults()
	results, statuses := RunAllE(ctx, opts.baseConfig(), opts.Profiles)
	if err := firstError(statuses); err != nil {
		return nil, err
	}
	rows := make([]Table2Row, len(results))
	for i, r := range results {
		rows[i] = Table2Row{
			Profile:        opts.Profiles[i],
			MeasuredMiss:   r.MissRate,
			BranchFraction: float64(r.Stats.CondBranches) / float64(r.Stats.Committed),
			IPC:            r.IPC,
		}
	}
	return rows, nil
}

// ConfidenceResult reports an estimator's measured operating point.
type ConfidenceResult struct {
	Estimator EstimatorKind
	SPEC      float64
	PVN       float64
	LowFrac   float64
}

// RunConfidence measures SPEC/PVN for both estimators across the profiles
// (paper §4.3: BPRU ≈ 60 %/45 %, JRS ≈ 90 %/24 %). It is the fail-fast
// wrapper around RunConfidenceE.
func RunConfidence(opts Options) []ConfidenceResult {
	out, err := RunConfidenceE(context.Background(), opts)
	if err != nil {
		panic(err) // fail-fast: legacy contract, typed *RunError for Guard
	}
	return out
}

// RunConfidenceE measures SPEC/PVN under ctx, all-or-nothing like
// RunTable1E.
func RunConfidenceE(ctx context.Context, opts Options) ([]ConfidenceResult, error) {
	opts = opts.withDefaults()
	out := make([]ConfidenceResult, 0, 2)
	for _, cfg := range confidenceConfigs(opts) {
		results, statuses := RunAllE(ctx, cfg, opts.Profiles)
		if err := firstError(statuses); err != nil {
			return nil, err
		}
		var cr ConfidenceResult
		cr.Estimator = cfg.Estimator
		n := float64(len(results))
		for _, r := range results {
			cr.SPEC += r.Stats.Quality.SPEC() / n
			cr.PVN += r.Stats.Quality.PVN() / n
			cr.LowFrac += r.Stats.Quality.LowFrac() / n
		}
		out = append(out, cr)
	}
	return out, nil
}

// baseConfigs is the tables' grid: the baseline alone.
func baseConfigs(opts Options) []Config { return []Config{opts.baseConfig()} }

// confidenceConfigs is the estimator-quality grid: the baseline under each
// estimator, BPRU first.
func confidenceConfigs(opts Options) []Config {
	cfgs := make([]Config, 0, 2)
	for _, kind := range []EstimatorKind{EstBPRU, EstJRS} {
		cfg := opts.baseConfig()
		cfg.Estimator = kind
		cfgs = append(cfgs, cfg)
	}
	return cfgs
}
