// Command hpca03 reproduces the tables and figures of "Power-Aware Control
// Speculation through Selective Throttling" (Aragón, González, González;
// HPCA-9 2003) on the synthetic substrate of this repository.
//
// Usage:
//
//	hpca03 -exp <experiment> [-n instructions] [-warmup instructions]
//	       [-depth stages] [-kb totalKB] [-bench name]
//	       [-store dir] [-workers n] [-fleet host1,host2]
//	       [-cpuprofile file] [-memprofile file]
//
// -workers n and -fleet both need -store. -workers starts n local stworker
// processes for the run and -fleet names running stserve instances; all of
// them serve one fleet dispatch (internal/fleet) before the report renders
// over the filled store. -worker-bin, -worker-fault, -lease-ttl,
// -point-timeout, -hedge-after and -breaker-open tune that dispatch.
//
// Experiments:
//
//	table1   power breakdown + fraction wasted by mis-speculated instructions
//	table2   benchmark characteristics (gshare miss rates vs paper)
//	table3   simulated processor configuration
//	fig1     oracle fetch / decode / select limit study
//	ablation estimator/mechanism cross, gating-threshold sweep, per-class split
//	fig3     fetch throttling (A1-A7)
//	fig4     decode throttling (B1-B9)
//	fig5     selection throttling (C1-C7)
//	fig6     pipeline-depth sensitivity (6-28 stages, experiment C2)
//	fig7     predictor+estimator size sensitivity (8-64 KB, experiment C2)
//	conf     confidence estimator quality (SPEC / PVN)
//	all      everything above, in paper order
//	run      a single experiment id (-id C2) against the baseline
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"syscall"

	"selthrottle/internal/prog"
	"selthrottle/internal/sim"
)

func main() {
	// All work happens in run so deferred cleanup — profile flushing above
	// all — executes on every path, including the error exits. A bare
	// os.Exit in the middle of main skips deferred StopCPUProfile/Close and
	// truncates the profile files, which is exactly the failure mode this
	// structure removes.
	os.Exit(run())
}

func run() int {
	exp := flag.String("exp", "all", "experiment to reproduce (table1|table2|table3|fig1|fig3|fig4|fig5|fig6|fig7|conf|ablation|all|run)")
	id := flag.String("id", "C2", "experiment id for -exp run (e.g. A5, B7, C2, oracle-fetch)")
	n := flag.Uint64("n", prog.DefaultInstructions, "measured instructions per benchmark")
	warmup := flag.Uint64("warmup", 0, "warmup instructions per benchmark (default n/4)")
	depth := flag.Int("depth", 14, "pipeline depth in stages (fetch to commit)")
	kb := flag.Int("kb", 16, "total predictor+estimator budget in KB (split half/half)")
	bench := flag.String("bench", "", "restrict to a comma-separated list of benchmarks")
	verbose := flag.Bool("v", false, "print the process-wide result-cache reuse summary at exit")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file at exit")
	storeDir := flag.String("store", "", "persistent result store directory (crash-safe disk cache tier; empty = memory only)")
	cacheEntries := flag.Int("cache-entries", sim.DefaultCacheEntries, "in-memory result cache entry cap (0 = unbounded)")
	quarWarn := flag.Int("quarantine-warn", 0, "warn once when the store holds more than this many quarantined files (0 = off)")
	var ff fleetFlags
	flag.IntVar(&ff.workers, "workers", 0, "start this many local stworker processes over -store and dispatch the grid to them (0 = in-process)")
	flag.StringVar(&ff.workerBin, "worker-bin", "", "stworker binary path (default: next to this binary)")
	flag.DurationVar(&ff.leaseTTL, "lease-ttl", 0, "point-lease expiry horizon, also handed to local workers (default 3s)")
	flag.StringVar(&ff.workerFault, "worker-fault", "", "per-local-worker fault specs, e.g. '1:kill-after=2;2:freeze-after=2' (test use)")
	flag.StringVar(&ff.hosts, "fleet", "", "comma-separated stserve workers to dispatch the grid to over HTTP (requires -store)")
	flag.DurationVar(&ff.pointTimeout, "point-timeout", 0, "fleet per-request deadline (0 = derived from point cost)")
	flag.DurationVar(&ff.hedgeAfter, "hedge-after", 0, "fleet straggler threshold before hedging a request (0 = derived; negative disables)")
	flag.DurationVar(&ff.breakerOpen, "breaker-open", 0, "fleet circuit-breaker open interval before a readiness probe (0 = default)")
	flag.Parse()
	if err := sim.CheckDepthKB(*depth, *kb); err != nil {
		fmt.Fprintf(os.Stderr, "hpca03: %v\n", err)
		return 2
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "hpca03: -cpuprofile: %v\n", err)
			return 2
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			fmt.Fprintf(os.Stderr, "hpca03: -cpuprofile: %v\n", err)
			return 2
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "hpca03: -memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // materialize the steady-state heap
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "hpca03: -memprofile: %v\n", err)
			}
		}()
	}
	if *verbose {
		// Every experiment below shares one process-wide result cache, so
		// overlapping grids (shared baselines, repeated experiment points
		// across figures and sweeps) simulate once; -exp all exercises this
		// heavily.
		defer sim.WriteCacheSummary(os.Stderr)
	}

	sim.SetResultCacheLimit(*cacheEntries)
	if *storeDir != "" {
		// A disk tier that fails to open degrades to compute-through, never
		// blocks the reproduction: warn and continue on the memory tier.
		held, err := sim.UseDiskStore(*storeDir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "hpca03: -store %s unavailable, continuing without a disk tier: %v\n", *storeDir, err)
		} else {
			fmt.Fprintf(os.Stderr, "hpca03: result store %s: %d entries\n", *storeDir, held)
		}
		if st := sim.DiskStore(); st != nil && *quarWarn > 0 {
			st.SetQuarantineWarn(*quarWarn, func(files int) {
				fmt.Fprintf(os.Stderr, "hpca03: store quarantine holds %d files (threshold %d); inspect %s\n",
					files, *quarWarn, *storeDir)
			})
		}
	}

	// SIGINT/SIGTERM cancels the grid cooperatively: in-flight points stop at
	// their next cancellation check, completed points stay reported, and the
	// process exits with the partial-grid code instead of dying mid-write.
	ctx, stopSignals := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stopSignals()

	opts := sim.Options{
		Instructions: *n,
		Warmup:       *warmup,
		Depth:        *depth,
		PredBytes:    *kb * 1024 / 2,
		ConfBytes:    *kb * 1024 / 2,
	}
	if *bench != "" {
		ps, err := prog.ParseProfiles(*bench)
		if err != nil {
			fmt.Fprintf(os.Stderr, "hpca03: %v\n", err)
			return 2
		}
		opts.Profiles = ps
	}

	// Fleet mode: dispatch the grid to local (-workers) and remote (-fleet)
	// workers first, then fall through to the normal dispatch — which now
	// runs over the warm store and the injected results, computing only
	// what the fleet could not. Same code path, same bytes out.
	if ff.workers > 0 || ff.hosts != "" {
		if *storeDir == "" {
			name := "-fleet"
			if ff.workers > 0 {
				name = "-workers"
			}
			fmt.Fprintf(os.Stderr, "hpca03: %s requires -store\n", name)
			return 2
		}
		if err := runFleet(ctx, ff, *storeDir, *exp, *id, *bench, opts); err != nil {
			fmt.Fprintf(os.Stderr, "hpca03: fleet: %v\n", err)
			return 2
		}
	}

	// The report goes through one buffer, flushed after every table,
	// figure and sweep block (see dispatch) and once more here, whichever
	// way dispatch ended: normally, through Guard's recovery, or cut short
	// by SIGINT. A write error sticks to the buffer, so this last flush
	// reports any the block flushes met. The deferred flush covers a panic
	// Guard re-raises.
	out := bufio.NewWriter(os.Stdout)
	defer out.Flush()

	// Guard converts a fail-fast *pipe.RunError panic (a table or reference
	// run hitting a terminal simulator failure) into a diagnostic snapshot
	// on stderr and a nonzero exit, instead of a raw panic trace killing the
	// process mid-report; supervised figure grids isolate failures per point
	// and report them via runFigure below.
	code := sim.Guard(os.Stderr, "hpca03", func() int { return dispatch(ctx, out, *exp, *id, opts) })
	if err := out.Flush(); err != nil {
		fmt.Fprintf(os.Stderr, "hpca03: writing the report: %v\n", err)
		if code == 0 {
			code = 1
		}
	}
	if ctx.Err() != nil {
		fmt.Fprintln(os.Stderr, "hpca03: interrupted; completed points reported above")
		if code == 0 {
			code = 1
		}
	}
	return code
}

// dispatch runs the selected experiment(s), writing the report to out, and
// returns the process exit code: 0 on full success, 1 when any supervised
// grid point failed, 2 on usage errors. Every table, figure and sweep
// helper flushes out once its block is written, so an interrupted run shows
// every finished block.
func dispatch(ctx context.Context, out *bufio.Writer, exp, id string, opts sim.Options) int {
	failed := 0
	switch exp {
	case "table1":
		failed += runTable1(ctx, out, opts)
	case "table2":
		failed += runTable2(ctx, out, opts)
	case "table3":
		writeTable3(out)
	case "fig1":
		failed += runFigure(ctx, out, "Figure 1: oracle fetch/decode/select", sim.OracleExperiments(), opts)
	case "fig3":
		failed += runFigure(ctx, out, "Figure 3: fetch throttling", sim.FetchExperiments(), opts)
	case "fig4":
		failed += runFigure(ctx, out, "Figure 4: decode throttling", sim.DecodeExperiments(), opts)
	case "fig5":
		failed += runFigure(ctx, out, "Figure 5: selection throttling", sim.SelectionExperiments(), opts)
	case "fig6":
		failed += writeSweep(out, "Figure 6: pipeline depth (experiment C2)", "stages", sim.DepthSweepE(ctx, opts, nil))
	case "fig7":
		failed += writeSweep(out, "Figure 7: predictor+estimator size (experiment C2)", "KB", sim.SizeSweepE(ctx, opts, nil))
	case "conf":
		failed += runConfidence(ctx, out, opts)
	case "ablation":
		failed += runFigure(ctx, out, "Ablation: estimator x mechanism cross", sim.EstimatorCrossExperiments(), opts)
		fmt.Fprintln(out)
		failed += runFigure(ctx, out, "Ablation: Pipeline Gating threshold sweep", sim.GateThresholdExperiments(), opts)
		fmt.Fprintln(out)
		failed += runFigure(ctx, out, "Ablation: C2 per-class contributions", sim.EscalationAblationExperiments(), opts)
	case "run":
		e, ok := sim.ExperimentByID(id)
		if !ok {
			fmt.Fprintf(os.Stderr, "hpca03: unknown experiment id %q\n", id)
			return 2
		}
		failed += runFigure(ctx, out, "Experiment "+e.ID+": "+e.Label, []sim.Experiment{e}, opts)
	case "all":
		writeTable3(out)
		fmt.Fprintln(out)
		failed += runTable2(ctx, out, opts)
		fmt.Fprintln(out)
		failed += runTable1(ctx, out, opts)
		fmt.Fprintln(out)
		failed += runConfidence(ctx, out, opts)
		fmt.Fprintln(out)
		failed += runFigure(ctx, out, "Figure 1: oracle fetch/decode/select", sim.OracleExperiments(), opts)
		fmt.Fprintln(out)
		failed += runFigure(ctx, out, "Figure 3: fetch throttling", sim.FetchExperiments(), opts)
		fmt.Fprintln(out)
		failed += runFigure(ctx, out, "Figure 4: decode throttling", sim.DecodeExperiments(), opts)
		fmt.Fprintln(out)
		failed += runFigure(ctx, out, "Figure 5: selection throttling", sim.SelectionExperiments(), opts)
		fmt.Fprintln(out)
		failed += writeSweep(out, "Figure 6: pipeline depth (experiment C2)", "stages", sim.DepthSweepE(ctx, opts, nil))
		fmt.Fprintln(out)
		failed += writeSweep(out, "Figure 7: predictor+estimator size (experiment C2)", "KB", sim.SizeSweepE(ctx, opts, nil))
	default:
		fmt.Fprintf(os.Stderr, "hpca03: unknown experiment %q\n", exp)
		return 2
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "hpca03: %d grid point(s) failed; healthy points reported above\n", failed)
		return 1
	}
	return 0
}

// writeTable3 writes the static configuration table.
func writeTable3(out *bufio.Writer) {
	sim.WriteTable3(out, sim.Default())
	out.Flush()
}

// runTable1 reproduces Table 1 under ctx; the table is all-or-nothing, so a
// failed point (or cancellation) prints its diagnostic and counts as one
// failure without printing a partial table.
func runTable1(ctx context.Context, out *bufio.Writer, opts sim.Options) int {
	t1, err := sim.RunTable1E(ctx, opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "FAILED table1: %v\n", err)
		return 1
	}
	sim.WriteTable1(out, t1)
	out.Flush()
	return 0
}

// runTable2 reproduces Table 2 under ctx, all-or-nothing like runTable1.
func runTable2(ctx context.Context, out *bufio.Writer, opts sim.Options) int {
	rows, err := sim.RunTable2E(ctx, opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "FAILED table2: %v\n", err)
		return 1
	}
	sim.WriteTable2(out, rows)
	out.Flush()
	return 0
}

// runConfidence measures the estimator operating points under ctx,
// all-or-nothing like the tables.
func runConfidence(ctx context.Context, out *bufio.Writer, opts sim.Options) int {
	crs, err := sim.RunConfidenceE(ctx, opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "FAILED confidence: %v\n", err)
		return 1
	}
	sim.WriteConfidence(out, crs)
	out.Flush()
	return 0
}

// runFigure runs one supervised figure grid under ctx, prints the healthy
// results to out and any per-point failure diagnostics to stderr, and
// returns the number of failed points.
func runFigure(ctx context.Context, out *bufio.Writer, name string, exps []sim.Experiment, opts sim.Options) int {
	fr := sim.RunFigureE(ctx, name, exps, opts)
	sim.WriteFigure(out, fr)
	out.Flush()
	fr.WriteFailures(os.Stderr)
	return len(fr.Failures)
}

// writeSweep prints any per-point failures a sweep isolated to stderr, then
// the sweep to out, and returns the number of failed points.
func writeSweep(out *bufio.Writer, title, unit string, points []sim.SweepPoint) int {
	failed := 0
	for _, pt := range points {
		for _, f := range pt.Failures {
			fmt.Fprintf(os.Stderr, "FAILED %s\n", f)
			failed++
		}
	}
	sim.WriteSweep(out, title, unit, points)
	out.Flush()
	return failed
}
