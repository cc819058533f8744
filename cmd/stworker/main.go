// Command stworker runs one partition of an hpca03 experiment grid against
// a shared result store. It is the worker half of the multi-worker sweep:
// the coordinator (hpca03 -workers N) spawns N of these, each enumerates
// the identical grid from its flags, claims its partition's lease, computes
// its points through the store's disk tier, and exits. Workers produce no
// figures — their entire output is content-addressed Results in the store —
// so a worker killed mid-partition wastes only the single in-flight point.
//
// Usage:
//
//	stworker -store dir -part i -of n [-exp experiment] [-id expID]
//	         [-n instructions] [-warmup instructions] [-depth stages]
//	         [-kb totalKB] [-bench list]
//	         [-ttl duration] [-timeout duration] [-retries k]
//	         [-fault spec] [-steal] [-v]
//
// Exit codes:
//
//	0  partition complete, every point published
//	1  partition complete, some points terminally failed
//	2  usage error
//	3  interrupted (signal) before finishing
//	4  the partition lease is held by a live worker
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"selthrottle/internal/faultinject"
	"selthrottle/internal/grid"
	"selthrottle/internal/prog"
	"selthrottle/internal/sim"
	"selthrottle/internal/store"
)

func main() {
	os.Exit(run())
}

func run() int {
	storeDir := flag.String("store", "", "shared result store directory (required)")
	part := flag.Int("part", 0, "partition index (0-based)")
	of := flag.Int("of", 1, "partition count")
	exp := flag.String("exp", "all", "experiment grid to partition (same values as hpca03 -exp)")
	id := flag.String("id", "C2", "experiment id for -exp run")
	n := flag.Uint64("n", prog.DefaultInstructions, "measured instructions per benchmark")
	warmup := flag.Uint64("warmup", 0, "warmup instructions per benchmark (default n/4)")
	depth := flag.Int("depth", 14, "pipeline depth in stages")
	kb := flag.Int("kb", 16, "total predictor+estimator budget in KB")
	bench := flag.String("bench", "", "restrict to a comma-separated list of benchmarks")
	ttl := flag.Duration("ttl", grid.DefaultTTL, "lease expiry horizon (must match the coordinator's)")
	timeout := flag.Duration("timeout", 0, "per-point deadline (0 = none)")
	retries := flag.Int("retries", 0, "per-point retry budget for transient failures")
	fault := flag.String("fault", "", "process fault spec, e.g. kill-after=3,freeze-beats,lease-enospc (test use)")
	steal := flag.Bool("steal", false, "after finishing this partition, steal unleased/expired points from the rest of the grid")
	verbose := flag.Bool("v", false, "log per-point progress and lease events to stderr")
	flag.Parse()

	if *storeDir == "" {
		fmt.Fprintln(os.Stderr, "stworker: -store is required")
		return grid.ExitUsage
	}
	if *of < 1 || *part < 0 || *part >= *of {
		fmt.Fprintf(os.Stderr, "stworker: bad partition %d of %d\n", *part, *of)
		return grid.ExitUsage
	}
	faults, err := faultinject.ParseProcFaults(*fault)
	if err != nil {
		fmt.Fprintf(os.Stderr, "stworker: %v\n", err)
		return grid.ExitUsage
	}

	opts := sim.Options{
		Instructions: *n,
		Warmup:       *warmup,
		Depth:        *depth,
		PredBytes:    *kb * 1024 / 2,
		ConfBytes:    *kb * 1024 / 2,
		Supervise:    sim.Supervisor{Timeout: *timeout, Retries: *retries},
	}
	if *bench != "" {
		var ps []prog.Profile
		for _, name := range strings.Split(*bench, ",") {
			p, ok := prog.ProfileByName(strings.TrimSpace(name))
			if !ok {
				fmt.Fprintf(os.Stderr, "stworker: unknown benchmark %q\n", name)
				return grid.ExitUsage
			}
			ps = append(ps, p)
		}
		opts.Profiles = ps
	}

	points, err := sim.EnumerateGrid(*exp, *id, opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "stworker: %v\n", err)
		return grid.ExitUsage
	}

	// The store and the lease directory share one FS so an injected fault
	// reaches both; lease-enospc targets only lease creation.
	var fsys store.FS = store.OSFS{}
	if faults.LeaseENOSPC {
		fsys = faultinject.NewDiskFS(fsys, faultinject.DiskFault{
			Kind:  faultinject.DiskENOSPC,
			Op:    faultinject.OpCreate,
			Match: grid.LeaseDirName + string(os.PathSeparator),
		})
	}
	st, err := store.Open(*storeDir, fsys)
	if err != nil {
		fmt.Fprintf(os.Stderr, "stworker: store %s: %v\n", *storeDir, err)
		return grid.ExitUsage
	}
	sim.AttachDiskStore(st)
	leases, err := grid.NewManager(*storeDir, fsys, *ttl)
	if err != nil {
		fmt.Fprintf(os.Stderr, "stworker: %v\n", err)
		return grid.ExitUsage
	}

	// SIGTERM/SIGINT cancels cooperatively: the in-flight point stops at its
	// next cancellation check, everything already published stays published,
	// and a later run (or the coordinator's reassignment) resumes from the
	// warm store.
	ctx, stopSignals := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stopSignals()

	logf := func(format string, args ...any) {
		if *verbose {
			fmt.Fprintf(os.Stderr, "stworker: "+format+"\n", args...)
		}
	}
	wopts := grid.WorkerOptions{
		Points:      points,
		Part:        *part,
		Of:          *of,
		Owner:       fmt.Sprintf("stworker-pid%d", os.Getpid()),
		Leases:      leases,
		Supervise:   opts.Supervise,
		Steal:       *steal,
		FreezeBeats: faults.FreezeBeats,
		Logf:        logf,
	}
	if faults.KillAfterPoints > 0 || faults.FreezeAfterPoints > 0 {
		wopts.AfterPoint = func(done int) {
			if faults.KillAfterPoints > 0 && done >= faults.KillAfterPoints {
				faultinject.KillSelf()
			}
			if faults.FreezeAfterPoints > 0 && done >= faults.FreezeAfterPoints {
				select {} // wedged: no beats (frozen from start), no progress, no exit
			}
		}
	}

	rep, err := grid.RunWorker(ctx, wopts)
	logf("p%d/%d: owned %d, computed %d, failed %d, stolen %d", *part, *of, rep.Owned, rep.Computed, rep.Failed, rep.Stolen)
	switch {
	case errors.Is(err, grid.ErrHeld):
		fmt.Fprintf(os.Stderr, "stworker: %v\n", err)
		return grid.ExitLeaseHeld
	case errors.Is(err, grid.ErrInterrupted):
		fmt.Fprintf(os.Stderr, "stworker: %v\n", err)
		return grid.ExitInterrupted
	case err != nil:
		fmt.Fprintf(os.Stderr, "stworker: %v\n", err)
		return grid.ExitInterrupted
	case rep.Failed > 0:
		fmt.Fprintf(os.Stderr, "stworker: p%d: %d point(s) terminally failed\n", *part, rep.Failed)
		return grid.ExitPointFailures
	}
	return grid.ExitOK
}
