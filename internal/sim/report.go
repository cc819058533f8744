package sim

// The report catalogue: what each hpca03 experiment selection (-exp, and
// -id for run) prints, written once. A selection maps to its blocks in
// print order; each block is a table, a figure or a sweep, and knows which
// configurations it simulates and how it runs and renders them. hpca03's
// report (WriteReport), the fleet's grid (EnumerateGrid), stserve's
// /v1/figure (FigureByName) and /v1/sweep (SweepByKind) and the sweep
// drivers (DepthSweepE, SizeSweepE) all read it.

import (
	"context"
	"fmt"
	"io"
	"sort"
)

// A block is one table, figure or sweep of the report.
type block struct {
	// configs returns the configurations the block simulates under
	// defaulted opts, each on every profile, in the order it runs them. It
	// is nil for a block that simulates nothing.
	configs func(opts Options) []Config
	// write runs the block under ctx and renders it to out, each failed
	// point's FAILED line to errw; flush pushes out's buffered bytes. It
	// returns the number of failed points.
	write func(ctx context.Context, out, errw io.Writer, flush func(), opts Options) int
}

// paperFigure is one of the paper's bar-chart figures.
type paperFigure struct {
	title string
	exps  func() []Experiment
}

// figures are the paper's bar-chart figures by selection name.
var figures = map[string]paperFigure{
	"fig1": {"Figure 1: oracle fetch/decode/select", OracleExperiments},
	"fig3": {"Figure 3: fetch throttling", FetchExperiments},
	"fig4": {"Figure 4: decode throttling", DecodeExperiments},
	"fig5": {"Figure 5: selection throttling", SelectionExperiments},
}

// The sensitivity sweeps: Figure 6 varies the pipeline depth, Figure 7 the
// predictor+estimator budget.
var (
	depthAxis = SweepAxis{
		X:     []int{6, 8, 10, 12, 14, 16, 18, 20, 22, 24, 26, 28},
		title: "Figure 6: pipeline depth (experiment C2)",
		unit:  "stages",
		name:  "depth-%d",
		set:   func(o Options, d int) Options { o.Depth = d; return o },
	}
	sizeAxis = SweepAxis{
		X:     []int{8, 16, 32, 64},
		title: "Figure 7: predictor+estimator size (experiment C2)",
		unit:  "KB",
		name:  "size-%dKB",
		set:   Options.WithKB,
	}
)

// report maps every selection but run to its blocks, in print order.
var report = func() map[string][]block {
	table3 := block{write: func(_ context.Context, out, _ io.Writer, flush func(), _ Options) int {
		WriteTable3(out, Default())
		flush()
		return 0
	}}
	table2 := tableBlock("table2", baseConfigs, RunTable2E, WriteTable2)
	table1 := tableBlock("table1", baseConfigs, RunTable1E, WriteTable1)
	conf := tableBlock("confidence", confidenceConfigs, RunConfidenceE, WriteConfidence)
	fig := func(name string) block { return figureBlock(figures[name].title, figures[name].exps) }
	fig1, fig3, fig4, fig5 := fig("fig1"), fig("fig3"), fig("fig4"), fig("fig5")
	fig6, fig7 := sweepBlock(depthAxis), sweepBlock(sizeAxis)
	return map[string][]block{
		"table1": {table1},
		"table2": {table2},
		"table3": {table3},
		"conf":   {conf},
		"fig1":   {fig1},
		"fig3":   {fig3},
		"fig4":   {fig4},
		"fig5":   {fig5},
		"fig6":   {fig6},
		"fig7":   {fig7},
		"ablation": {
			figureBlock("Ablation: estimator x mechanism cross", EstimatorCrossExperiments),
			figureBlock("Ablation: Pipeline Gating threshold sweep", GateThresholdExperiments),
			figureBlock("Ablation: C2 per-class contributions", EscalationAblationExperiments),
		},
		"all": {table3, table2, table1, conf, fig1, fig3, fig4, fig5, fig6, fig7},
	}
}()

// reportBlocks looks up a selection's blocks; run is one figure of the
// experiment id names.
func reportBlocks(exp, id string) ([]block, error) {
	if exp == "run" {
		e, ok := ExperimentByID(id)
		if !ok {
			return nil, fmt.Errorf("unknown experiment id %q", id)
		}
		return []block{figureBlock("Experiment "+e.ID+": "+e.Label, func() []Experiment { return []Experiment{e} })}, nil
	}
	if bs, ok := report[exp]; ok {
		return bs, nil
	}
	return nil, fmt.Errorf("unknown experiment %q", exp)
}

// CheckSelection reports whether exp, and id for exp "run", name a report:
// table1, table2, table3, conf, fig1, fig3-fig7, ablation, all or run.
func CheckSelection(exp, id string) error {
	_, err := reportBlocks(exp, id)
	return err
}

// WriteReport runs the blocks of a selection under ctx and writes them to
// out in order, one blank line apart, with each failed point's FAILED line
// on errw. When out has a Flush method (a *bufio.Writer), it is flushed
// after every block, so an interrupted report still shows each finished
// block. It returns the number of failed points; an unknown selection is an
// error and writes nothing.
func WriteReport(ctx context.Context, out, errw io.Writer, exp, id string, opts Options) (failed int, err error) {
	blocks, err := reportBlocks(exp, id)
	if err != nil {
		return 0, err
	}
	flush := func() {}
	if f, ok := out.(interface{ Flush() error }); ok {
		// A bufio.Writer's write error sticks: the caller's last Flush
		// reports any error these flushes meet.
		flush = func() { _ = f.Flush() }
	}
	for i, b := range blocks {
		if i > 0 {
			fmt.Fprintln(out)
		}
		failed += b.write(ctx, out, errw, flush, opts)
	}
	return failed, nil
}

// tableBlock is an all-or-nothing table over the configurations cfgs
// returns: a failed point (or cancellation) prints "FAILED name: err" on
// errw, counts as one failure and prints no partial table.
func tableBlock[T any](name string, cfgs func(Options) []Config, run func(context.Context, Options) (T, error), write func(io.Writer, T)) block {
	return block{
		configs: cfgs,
		write: func(ctx context.Context, out, errw io.Writer, flush func(), opts Options) int {
			v, err := run(ctx, opts)
			if err != nil {
				fmt.Fprintf(errw, "FAILED %s: %v\n", name, err)
				return 1
			}
			write(out, v)
			flush()
			return 0
		},
	}
}

// figureBlock is a supervised figure grid: the healthy results go to out,
// then each failed point's diagnostic to errw.
func figureBlock(title string, exps func() []Experiment) block {
	return block{
		configs: func(opts Options) []Config { return figureConfigs(opts, exps()) },
		write: func(ctx context.Context, out, errw io.Writer, flush func(), opts Options) int {
			fr := RunFigureE(ctx, title, exps(), opts)
			WriteFigure(out, fr)
			flush()
			fr.WriteFailures(errw)
			return len(fr.Failures)
		},
	}
}

// sweepBlock is a sensitivity sweep: the failed points' diagnostics go to
// errw first, then the sweep table to out.
func sweepBlock(a SweepAxis) block {
	return block{
		configs: func(opts Options) []Config {
			var cfgs []Config
			for _, x := range a.X {
				cfgs = append(cfgs, figureConfigs(a.set(opts, x), []Experiment{BestExperiment()})...)
			}
			return cfgs
		},
		write: func(ctx context.Context, out, errw io.Writer, flush func(), opts Options) int {
			points := a.run(ctx, opts, nil)
			failed := 0
			for _, pt := range points {
				for _, f := range pt.Failures {
					fmt.Fprintf(errw, "FAILED %s\n", f)
					failed++
				}
			}
			WriteSweep(out, a.title, a.unit, points)
			flush()
			return failed
		},
	}
}

// FigureByName returns the title and experiment series of one of the
// paper's bar-chart figures: fig1, fig3, fig4 or fig5.
func FigureByName(name string) (title string, exps []Experiment, ok bool) {
	f, ok := figures[name]
	if !ok {
		return "", nil, false
	}
	return f.title, f.exps(), true
}

// SweepAxis is the x axis of a sensitivity sweep: the paper's x values and
// how each one sets the options of its point, experiment C2 against the
// matching baseline.
type SweepAxis struct {
	X []int // the paper's x values, ascending; read-only

	title, unit string // report heading and x column
	name        string // the point figure's name, a format over x
	set         func(Options, int) Options
}

// SweepByKind returns a sweep by its stserve /v1/sweep kind: depth
// (Figure 6, 6 to 28 stages) or size (Figure 7, 8 to 64 KB).
func SweepByKind(kind string) (SweepAxis, bool) {
	switch kind {
	case "depth":
		return depthAxis, true
	case "size":
		return sizeAxis, true
	}
	return SweepAxis{}, false
}

// Point returns the figure name and options of the sweep point at x.
func (a SweepAxis) Point(opts Options, x int) (name string, o Options) {
	return fmt.Sprintf(a.name, x), a.set(opts, x)
}

// run sweeps xs (nil: the paper's X) under ctx with per-point failure
// isolation. Points run back-to-back on the shared Runner pool (each
// point's figure already fans out across the pool), so the sweep reuses
// simulator instances instead of stacking one pool per point.
func (a SweepAxis) run(ctx context.Context, opts Options, xs []int) []SweepPoint {
	if xs == nil {
		xs = a.X
	}
	points := make([]SweepPoint, len(xs))
	for i, x := range xs {
		name, o := a.Point(opts, x)
		fr := RunFigureE(ctx, name, []Experiment{BestExperiment()}, o)
		points[i] = SweepPoint{X: x, Average: fr.Rows[0].Average, Failures: fr.Failures}
	}
	sort.Slice(points, func(i, j int) bool { return points[i].X < points[j].X })
	return points
}

// WithKB returns o with a total predictor+estimator budget of kb KB, split
// half and half.
func (o Options) WithKB(kb int) Options {
	o.PredBytes = kb * 1024 / 2
	o.ConfBytes = kb * 1024 / 2
	return o
}
