// Command stcalib is the calibration inspector for the reproduction: it
// measures, per benchmark profile, the quantities the synthetic substrate is
// calibrated against — gshare misprediction rate (Table 2), confidence
// estimator operating points (§4.3), per-unit utilization and the power
// breakdown (Table 1) — and prints them next to the paper's targets.
//
// Usage:
//
//	stcalib [-n instructions] [-warmup instructions]
//
// The utilization column feeds internal/power's baselineUtil constants:
// after a simulator change, run stcalib and paste the new values.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"text/tabwriter"

	"selthrottle/internal/power"
	"selthrottle/internal/prog"
	"selthrottle/internal/sim"
)

func main() {
	// All work happens in run behind sim.Guard: a terminal simulation
	// failure exits nonzero with the machine's diagnostic snapshot instead
	// of a raw panic trace, and deferred cleanup still runs.
	os.Exit(run())
}

func run() int {
	n := flag.Uint64("n", prog.DefaultInstructions, "measured instructions per benchmark")
	warmup := flag.Uint64("warmup", 0, "warmup instructions (default n/4)")
	tune := flag.Bool("tune", false, "grid-search per-profile gate frequencies (HardFreqOverride) hitting Table 2 miss rates")
	verbose := flag.Bool("v", false, "print the process-wide result-cache reuse summary at exit")
	flag.Parse()

	if *verbose {
		// The calibration passes below overlap heavily (Table 2, Table 1,
		// and the BPRU confidence pass all run the baseline grid); the
		// shared result cache simulates each point once.
		defer sim.WriteCacheSummary(os.Stderr)
	}
	if *warmup == 0 {
		*warmup = *n / 4
	}
	// SIGINT/SIGTERM cancels the calibration passes cooperatively; the
	// sections printed so far stay complete.
	ctx, stopSignals := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stopSignals()
	return sim.Guard(os.Stderr, "stcalib", func() int {
		return calibrate(ctx, *n, *warmup, *tune)
	})
}

func calibrate(ctx context.Context, n, warmup uint64, tune bool) int {
	if tune {
		return tuneHardFreq(ctx, n, warmup)
	}

	opts := sim.Options{Instructions: n, Warmup: warmup}

	fmt.Println("== per-benchmark calibration (baseline config)")
	rows, err := sim.RunTable2E(ctx, opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "stcalib: table 2 pass failed: %v\n", err)
		return 1
	}
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprint(tw, "bench\tmiss% meas\tmiss% paper\tbranch frac\tIPC\n")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%.1f\t%.1f\t%.3f\t%.2f\n",
			r.Profile.Name, 100*r.MeasuredMiss, r.Profile.PaperMissPct,
			r.BranchFraction, r.IPC)
	}
	tw.Flush()

	fmt.Println()
	crs, err := sim.RunConfidenceE(ctx, opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "stcalib: confidence pass failed: %v\n", err)
		return 1
	}
	sim.WriteConfidence(os.Stdout, crs)

	fmt.Println()
	t1, err := sim.RunTable1E(ctx, opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "stcalib: table 1 pass failed: %v\n", err)
		return 1
	}
	sim.WriteTable1(os.Stdout, t1)

	fmt.Println("\n== measured baseline utilization (paste into internal/power baselineUtil)")
	tw = tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	for u := power.Unit(0); u < power.NumUnits; u++ {
		fmt.Fprintf(tw, "Unit%s:\t%.3f\n", titled(u.String()), t1.Utilization[u])
	}
	tw.Flush()

	// Wrong-path traffic summary: the paper reports up to 80 % of fetched
	// instructions can be wrong-path on these benchmarks.
	fmt.Println("\n== wrong-path fetch traffic")
	tw = tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprint(tw, "bench\twrong/fetched%\tfetch/commit\twpDecoded\twpDispatched\twpIssued\tperMispredict\n")
	for _, r := range t1.Results {
		mp := float64(r.Stats.Mispredicts)
		if mp == 0 {
			mp = 1
		}
		fmt.Fprintf(tw, "%s\t%.1f\t%.2f\t%.2f\t%.2f\t%.2f\t%.1f\n", r.Benchmark,
			100*float64(r.Stats.WrongPathFetched)/float64(r.Stats.Fetched),
			float64(r.Stats.Fetched)/float64(r.Stats.Committed),
			float64(r.Stats.WrongPathDecoded)/float64(r.Stats.WrongPathFetched+1),
			float64(r.Stats.WrongPathDispatched)/float64(r.Stats.WrongPathFetched+1),
			float64(r.Stats.WrongPathIssued)/float64(r.Stats.WrongPathFetched+1),
			float64(r.Stats.WrongPathFetched)/mp)
	}
	tw.Flush()
	return 0
}

// titled maps a unit name to its Go constant suffix (icache -> ICache, ...).
func titled(name string) string {
	switch name {
	case "icache":
		return "ICache"
	case "bpred":
		return "BPred"
	case "regfile":
		return "Regfile"
	case "rename":
		return "Rename"
	case "window":
		return "Window"
	case "lsq":
		return "LSQ"
	case "alu":
		return "ALU"
	case "dcache":
		return "DCache"
	case "dcache2":
		return "DCache2"
	case "resultbus":
		return "ResultBus"
	case "clock":
		return "Clock"
	}
	return name
}
