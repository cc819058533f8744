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
// over the filled store. -worker-bin, -worker-fault, -point-timeout,
// -hedge-after and -breaker-open tune that dispatch.
//
// Usage errors (an unknown experiment, id or benchmark, -depth or -kb out
// of range, -workers or -fleet without -store, a bad -worker-fault) exit 2
// with one message before the run creates anything: no profile file, store
// directory or worker.
//
// Experiments (the report catalogue, internal/sim/report.go):
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
	var ff fleetFlags
	flag.IntVar(&ff.workers, "workers", 0, "start this many local stworker processes over -store and dispatch the grid to them (0 = in-process)")
	flag.StringVar(&ff.workerBin, "worker-bin", "", "stworker binary path (default: next to this binary)")
	flag.StringVar(&ff.workerFault, "worker-fault", "", "per-local-worker fault specs, e.g. '1:kill-after=2;2:freeze-after=2' (test use)")
	flag.StringVar(&ff.hosts, "fleet", "", "comma-separated stserve workers to dispatch the grid to over HTTP (requires -store)")
	flag.DurationVar(&ff.pointTimeout, "point-timeout", 0, "fleet per-request deadline (0 = derived from point cost)")
	flag.DurationVar(&ff.hedgeAfter, "hedge-after", 0, "fleet straggler threshold before hedging a request (0 = derived; negative disables)")
	flag.DurationVar(&ff.breakerOpen, "breaker-open", 0, "fleet circuit-breaker open interval before a readiness probe (0 = default)")
	flag.Parse()
	// Usage errors exit 2, one message each, before the run creates
	// anything: a profile file, the store directory or a worker.
	usage := func(err error) int {
		fmt.Fprintf(os.Stderr, "hpca03: %v\n", err)
		return 2
	}
	if err := sim.CheckDepthKB(*depth, *kb); err != nil {
		return usage(err)
	}
	if err := sim.CheckSelection(*exp, *id); err != nil {
		return usage(err)
	}
	opts := sim.Options{Instructions: *n, Warmup: *warmup, Depth: *depth}.WithKB(*kb)
	if *bench != "" {
		ps, err := prog.ParseProfiles(*bench)
		if err != nil {
			return usage(err)
		}
		opts.Profiles = ps
	}
	fleetMode := ff.workers > 0 || ff.hosts != ""
	var faults map[int]string
	if fleetMode {
		if *storeDir == "" {
			name := "-fleet"
			if ff.workers > 0 {
				name = "-workers"
			}
			return usage(fmt.Errorf("%s requires -store", name))
		}
		var err error
		if faults, err = workerFaults(ff.workerFault, ff.workers); err != nil {
			return usage(err)
		}
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
	}

	// SIGINT/SIGTERM cancels the grid cooperatively: in-flight points stop at
	// their next cancellation check, completed points stay reported, and the
	// process exits with the partial-grid code instead of dying mid-write.
	ctx, stopSignals := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stopSignals()

	// Fleet mode: dispatch the grid to local (-workers) and remote (-fleet)
	// workers first, then fall through to the report — which now runs over
	// the warm store and the injected results, computing only what the
	// fleet could not. Same code path, same bytes out.
	if fleetMode {
		if err := runFleet(ctx, ff, faults, *storeDir, *exp, *id, *bench, opts); err != nil {
			fmt.Fprintf(os.Stderr, "hpca03: fleet: %v\n", err)
			return 2
		}
	}

	// The report goes through one buffer, flushed after every table,
	// figure and sweep block (see sim.WriteReport) and once more here,
	// whichever way the report ended: normally, through Guard's recovery,
	// or cut short by SIGINT. A write error sticks to the buffer, so this
	// last flush reports any the block flushes met. The deferred flush
	// covers a panic Guard re-raises.
	out := bufio.NewWriter(os.Stdout)
	defer out.Flush()

	// Guard converts a fail-fast *pipe.RunError panic (a table or reference
	// run hitting a terminal simulator failure) into a diagnostic snapshot
	// on stderr and a nonzero exit, instead of a raw panic trace killing the
	// process mid-report; supervised figure grids isolate failures per point
	// and print them as FAILED lines.
	code := sim.Guard(os.Stderr, "hpca03", func() int {
		failed, err := sim.WriteReport(ctx, out, os.Stderr, *exp, *id, opts)
		if err != nil {
			return usage(err)
		}
		if failed > 0 {
			fmt.Fprintf(os.Stderr, "hpca03: %d grid point(s) failed; healthy points reported above\n", failed)
			return 1
		}
		return 0
	})
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
