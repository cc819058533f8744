// Confidence explorer: the SPEC/PVN trade-off that drives every throttling
// decision in the paper. Sweeps the BPRU counter-update steps and the JRS
// MDC threshold, showing how each estimator trades coverage of
// mispredictions (SPEC) against precision of its low-confidence label (PVN)
// — and how many branches it flags at all.
//
// Run with:
//
//	go run ./examples/confidence_explorer [-bench name] [-n instructions]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"text/tabwriter"

	"selthrottle/internal/bpred"
	"selthrottle/internal/conf"
	"selthrottle/internal/prog"
	"selthrottle/internal/sim"
)

// measure trains predictor+estimator on the benchmark's architectural branch
// stream and returns the estimator's quality metrics.
func measure(profile prog.Profile, est conf.Estimator, n int) conf.Quality {
	program := prog.Generate(profile)
	w := prog.NewWalker(program)
	g := bpred.NewGshare(8 << 10)
	var q conf.Quality
	var d prog.DynInst
	for i := 0; i < n; i++ {
		w.Next(&d)
		if d.BrID == prog.NoBranch {
			continue
		}
		pred, ctr, cookie := g.Predict(d.PC)
		class := est.Estimate(d.PC, ctr)
		correct := pred == d.Taken
		q.Record(class, correct)
		est.Train(d.PC, correct)
		g.Update(d.PC, cookie, d.Taken)
		if !correct {
			g.OnMispredict(cookie, d.Taken)
		}
		w.Steer(d.Taken)
		w.Release(&d)
	}
	return q
}

func main() {
	bench := flag.String("bench", "twolf", "benchmark profile")
	n := flag.Int("n", 400000, "instructions to stream")
	verbose := flag.Bool("v", false, "print the process-wide result-cache reuse summary at exit")
	flag.Parse()
	if *verbose {
		defer sim.WriteCacheSummary(os.Stderr)
	}

	profile, ok := prog.ProfileByName(*bench)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown benchmark %q\n", *bench)
		os.Exit(2)
	}

	fmt.Printf("estimator quality on %s (paper targets: BPRU SPEC 60%%/PVN 45%%, JRS SPEC 90%%/PVN 24%%)\n\n", *bench)

	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "estimator\tconfig\tSPEC%\tPVN%\tlow-labeled%")
	for _, steps := range [][2]int{{1, 1}, {2, 1}, {3, 1}, {4, 2}} {
		b := conf.NewBPRU(8 << 10)
		b.SetSteps(steps[0], steps[1])
		q := measure(profile, b, *n)
		fmt.Fprintf(tw, "BPRU\t+%d/-%d\t%.1f\t%.1f\t%.1f\n",
			steps[0], steps[1], 100*q.SPEC(), 100*q.PVN(), 100*q.LowFrac())
	}
	for _, mdc := range []int{4, 8, 12, 15} {
		j := conf.NewJRS(8<<10, mdc)
		q := measure(profile, j, *n)
		fmt.Fprintf(tw, "JRS\tMDC=%d\t%.1f\t%.1f\t%.1f\n",
			mdc, 100*q.SPEC(), 100*q.PVN(), 100*q.LowFrac())
	}
	tw.Flush()

	// Cross-check the trace-level sweep above against the full in-pipeline
	// measurement at the paper's operating points. This goes through the
	// sim harness and therefore the process-wide result cache: re-running
	// the explorer's variations in one process re-simulates nothing.
	crs, err := sim.RunConfidenceE(context.Background(), sim.Options{
		Instructions: uint64(*n) / 4,
		Profiles:     []prog.Profile{profile},
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Println("\nin-pipeline (wrong-path speculation included), paper configs:")
	tw = tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	for _, cr := range crs {
		fmt.Fprintf(tw, "%s\tSPEC %.1f%%\tPVN %.1f%%\tlow-labeled %.1f%%\n",
			cr.Estimator, 100*cr.SPEC, 100*cr.PVN, 100*cr.LowFrac)
	}
	tw.Flush()

	fmt.Println("\nHigher SPEC means more mispredictions are caught by throttling;")
	fmt.Println("higher PVN means fewer correct predictions are punished. Pipeline")
	fmt.Println("Gating wants high SPEC (it gates rarely but hard); Selective")
	fmt.Println("Throttling monetizes high PVN by reserving the harshest heuristic")
	fmt.Println("for the branches most certain to be wrong.")
}
