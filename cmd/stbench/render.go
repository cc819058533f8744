package main

import (
	"context"
	"fmt"
	"io"
	"math"

	"selthrottle/internal/sim"
)

// render writes the `hpca03 -exp all` report for opts to w in process: the
// same drivers in the same order, so its bytes equal the command's stdout.
// It returns the number of failed grid points.
func render(ctx context.Context, w io.Writer, opts sim.Options) (int, error) {
	opts.Depth, opts.PredBytes, opts.ConfBytes = 14, 8<<10, 8<<10
	sim.WriteTable3(w, sim.Default())
	fmt.Fprintln(w)
	rows, err := sim.RunTable2E(ctx, opts)
	if err != nil {
		return 0, err
	}
	sim.WriteTable2(w, rows)
	fmt.Fprintln(w)
	t1, err := sim.RunTable1E(ctx, opts)
	if err != nil {
		return 0, err
	}
	sim.WriteTable1(w, t1)
	fmt.Fprintln(w)
	crs, err := sim.RunConfidenceE(ctx, opts)
	if err != nil {
		return 0, err
	}
	sim.WriteConfidence(w, crs)
	failed := 0
	for _, f := range []struct {
		name string
		exps []sim.Experiment
	}{
		{"Figure 1: oracle fetch/decode/select", sim.OracleExperiments()},
		{"Figure 3: fetch throttling", sim.FetchExperiments()},
		{"Figure 4: decode throttling", sim.DecodeExperiments()},
		{"Figure 5: selection throttling", sim.SelectionExperiments()},
	} {
		fmt.Fprintln(w)
		fr := sim.RunFigureE(ctx, f.name, f.exps, opts)
		sim.WriteFigure(w, fr)
		failed += len(fr.Failures)
	}
	fmt.Fprintln(w)
	points := sim.DepthSweepE(ctx, opts, nil)
	sim.WriteSweep(w, "Figure 6: pipeline depth (experiment C2)", "stages", points)
	fmt.Fprintln(w)
	sizes := sim.SizeSweepE(ctx, opts, nil)
	sim.WriteSweep(w, "Figure 7: predictor+estimator size (experiment C2)", "KB", sizes)
	for _, p := range append(points, sizes...) {
		failed += len(p.Failures)
	}
	return failed, ctx.Err()
}

// paperResults are the reproduction's numbers the paper states explicitly.
type paperResults struct {
	table2 []sim.Table2Row
	table1 *sim.Table1Result
	conf   []sim.ConfidenceResult
	fig3   *sim.FigureResult
	fig5   *sim.FigureResult
}

// runPaper simulates the tables and figures paperErr compares.
func runPaper(ctx context.Context, tr *tracer, parent int, opts sim.Options) (paperResults, error) {
	var p paperResults
	var err error
	step := func(name string, f func()) {
		if err != nil {
			return
		}
		id := tr.begin(parent, name)
		f()
		tr.end(id, nil)
	}
	step("sim RunTable2E", func() { p.table2, err = sim.RunTable2E(ctx, opts) })
	step("sim RunTable1E", func() { p.table1, err = sim.RunTable1E(ctx, opts) })
	step("sim RunConfidenceE", func() { p.conf, err = sim.RunConfidenceE(ctx, opts) })
	step("sim RunFigureE", func() { p.fig3 = sim.RunFigureE(ctx, "fig3", sim.FetchExperiments(), opts) })
	step("sim RunFigureE", func() { p.fig5 = sim.RunFigureE(ctx, "fig5", sim.SelectionExperiments(), opts) })
	if err == nil && len(p.fig3.Failures)+len(p.fig5.Failures) > 0 {
		err = fmt.Errorf("paper grid: %d failed points", len(p.fig3.Failures)+len(p.fig5.Failures))
	}
	return p, err
}

// paperErr is the mean absolute difference, in percentage points, between
// the reproduction and the paper over: Table 2's eight gshare miss rates;
// Table 1's 27.9 % wasted power; BPRU's SPEC/PVN of 60/45 % and JRS's of
// 90/24 % (section 4.3); Figure 3's A5 energy saving of 11.7 %; and
// Figure 5's C2 energy saving of 13.5 %.
func (p paperResults) paperErr() float64 {
	var errs []float64
	add := func(sim, paper float64) { errs = append(errs, math.Abs(sim-paper)) }
	for _, r := range p.table2 {
		add(100*r.MeasuredMiss, r.Profile.PaperMissPct)
	}
	add(100*p.table1.WastedTotal, 27.9)
	paper := map[sim.EstimatorKind][2]float64{sim.EstBPRU: {60, 45}, sim.EstJRS: {90, 24}}
	for _, c := range p.conf {
		add(100*c.SPEC, paper[c.Estimator][0])
		add(100*c.PVN, paper[c.Estimator][1])
	}
	a5, _ := p.fig3.Row("A5")
	add(a5.Average.EnergySaving, 11.7)
	c2, _ := p.fig5.Row("C2")
	add(c2.Average.EnergySaving, 13.5)
	sum := 0.0
	for _, v := range errs {
		sum += v
	}
	return sum / float64(len(errs))
}
