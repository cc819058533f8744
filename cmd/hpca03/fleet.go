package main

// Fleet mode (-fleet host1,host2): dispatch the selected experiment grid to
// remote stserve workers over HTTP first, then fall through to the normal
// in-process dispatch — which now runs over the warm store and the injected
// result cache, serving fleet-published points without recomputing. The
// final output is byte-identical to a single-process run by construction:
// results cross the wire as the store codec's exact bytes, and any point
// the fleet could not serve (unreachable workers, opened breakers, steal
// races) is computed locally by the coordinator itself.

import (
	"context"
	"fmt"
	"os"
	"strings"
	"time"

	"selthrottle/internal/fleet"
	"selthrottle/internal/grid"
	"selthrottle/internal/sim"
)

// runFleet drains the grid through the remote workers. Setup failures (bad
// flags, unreachable store) are errors; unreachable or failing workers are
// not — the coordinator degrades to local compute and the in-process
// dispatch remains the floor. Interruption is left to the caller's ctx
// handling, mirroring runWorkers.
func runFleet(ctx context.Context, targets, storeDir, exp, id, bench string, opts sim.Options, ttl, pointTimeout, hedgeAfter, breakerOpen time.Duration) error {
	points, err := sim.EnumerateGrid(exp, id, opts)
	if err != nil {
		return err
	}
	if len(points) == 0 {
		return nil // nothing to dispatch (e.g. -exp table3)
	}
	var workers []string
	for _, t := range strings.Split(targets, ",") {
		if t = strings.TrimSpace(t); t != "" {
			workers = append(workers, t)
		}
	}
	leases, err := grid.NewManager(storeDir, nil, ttl)
	if err != nil {
		return err
	}
	spec := fleet.GridSpec{
		Exp:    exp,
		ID:     id,
		N:      opts.Instructions,
		Warmup: opts.Warmup,
		Depth:  opts.Depth,
		KB:     (opts.PredBytes + opts.ConfBytes) / 1024,
		Bench:  bench,
	}
	fmt.Fprintf(os.Stderr, "hpca03: dispatching %d points to %d fleet worker(s) (grid %s)\n",
		len(points), len(workers), grid.ID(points))
	rep, err := fleet.Run(ctx, fleet.Options{
		Workers:        workers,
		Spec:           spec,
		Points:         points,
		PointTimeout:   pointTimeout,
		HedgeAfter:     hedgeAfter,
		BreakerOpenFor: breakerOpen,
		Leases:         leases,
		Owner:          fmt.Sprintf("hpca03-pid%d", os.Getpid()),
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "hpca03: "+format+"\n", args...)
		},
	})
	fmt.Fprintf(os.Stderr, "hpca03: fleet: %d stored, %d remote, %d local, %d failed (%d hedged, %d hedge wins, %d stolen, %d retries, %d probes)\n",
		rep.Stored, rep.Remote, rep.Local, rep.Failed, rep.Hedges, rep.HedgeWins, rep.Steals, rep.RetriesUsed, rep.Probes)
	for _, w := range rep.PerWorker {
		if w.Failures > 0 || w.BreakerOpens > 0 {
			fmt.Fprintf(os.Stderr, "hpca03: fleet worker %s: %d point(s), %d failure(s), breaker opened %dx, closed %dx\n",
				w.Name, w.Points, w.Failures, w.BreakerOpens, w.BreakerCloses)
		}
	}
	if err != nil && !rep.Interrupted {
		return err
	}
	return nil
}
