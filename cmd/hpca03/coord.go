package main

// Coordinator mode (-workers N): shard the selected experiment grid across
// N stworker processes over the shared store, supervise them (reclaim the
// leases of crashed or frozen workers, respawn within budget), then produce
// the report by running the normal dispatch in-process over the now-warm
// store. The final output is byte-identical to a single-process run by
// construction: every point is either served from the store (published by a
// worker) or recomputed here (a partition the workers lost), and points are
// pure. The coordinator is the survivor of last resort — losing all N
// workers degrades to exactly the single-process behavior.

import (
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"

	"selthrottle/internal/faultinject"
	"selthrottle/internal/grid"
	"selthrottle/internal/sim"
)

// workerFaults decodes the -worker-fault flag: semicolon-separated
// part:spec entries ("1:kill-after=2;2:freeze-beats"); spec commas are the
// fault spec's own separators.
func workerFaults(arg string, parts int) (map[int]string, error) {
	m := make(map[int]string)
	if arg == "" {
		return m, nil
	}
	for _, entry := range strings.Split(arg, ";") {
		idx, spec, ok := strings.Cut(strings.TrimSpace(entry), ":")
		var part int
		if _, err := fmt.Sscanf(idx, "%d", &part); !ok || err != nil || part < 0 || part >= parts {
			return nil, fmt.Errorf("bad -worker-fault entry %q (want part:spec, part < %d)", entry, parts)
		}
		if _, err := faultinject.ParseProcFaults(spec); err != nil {
			return nil, fmt.Errorf("bad -worker-fault entry %q: %v", entry, err)
		}
		m[part] = spec
	}
	return m, nil
}

// workerArgs renders the stworker flag list a partition needs to enumerate
// the coordinator's exact grid.
func workerArgs(storeDir string, part, of int, exp, id string, opts sim.Options, bench string, ttl time.Duration, fault string) []string {
	args := []string{
		"-store", storeDir,
		"-part", fmt.Sprint(part),
		"-of", fmt.Sprint(of),
		"-exp", exp,
		"-id", id,
		"-n", fmt.Sprint(opts.Instructions),
		"-warmup", fmt.Sprint(opts.Warmup),
		"-depth", fmt.Sprint(opts.Depth),
		"-kb", fmt.Sprint((opts.PredBytes + opts.ConfBytes) / 1024),
		"-ttl", ttl.String(),
	}
	if bench != "" {
		args = append(args, "-bench", bench)
	}
	if fault != "" {
		args = append(args, "-fault", fault)
	}
	return args
}

// defaultWorkerBin locates stworker next to the running hpca03 binary.
func defaultWorkerBin() string {
	self, err := os.Executable()
	if err != nil {
		return "stworker"
	}
	return filepath.Join(filepath.Dir(self), "stworker")
}

// runWorkers shards the grid across n stworker processes and supervises
// them to completion. It returns an error only for setup failures (bad
// flags, unreachable worker binary); lost partitions are logged and left
// for the in-process dispatch to compute — degradation, not failure.
func runWorkers(ctx context.Context, n int, workerBin, storeDir, exp, id, bench string, opts sim.Options, ttl time.Duration, respawns int, faultArg string) error {
	points, err := sim.EnumerateGrid(exp, id, opts)
	if err != nil {
		return err
	}
	faults, err := workerFaults(faultArg, n)
	if err != nil {
		return err
	}
	if len(points) == 0 {
		return nil // nothing to shard (e.g. -exp table3)
	}
	leases, err := grid.NewManager(storeDir, nil, ttl)
	if err != nil {
		return err
	}
	gridID := grid.ID(points)
	fmt.Fprintf(os.Stderr, "hpca03: sharding %d points across %d workers (grid %s)\n", len(points), n, gridID)
	outcomes := grid.Coordinate(ctx, grid.CoordinatorOptions{
		Parts:    n,
		GridID:   gridID,
		Leases:   leases,
		Respawns: respawns,
		Spawn: func(part, attempt int) *exec.Cmd {
			// Injected faults arm only the first incarnation: a respawn
			// models recovery from a one-shot crash, resuming the partition
			// from the warm store instead of crash-looping.
			fault := ""
			if attempt == 0 {
				fault = faults[part]
			}
			cmd := exec.Command(workerBin, workerArgs(storeDir, part, n, exp, id, opts, bench, ttl, fault)...)
			cmd.Stderr = os.Stderr
			return cmd
		},
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "hpca03: "+format+"\n", args...)
		},
	})
	for _, out := range outcomes {
		switch out.State {
		case grid.PartLost:
			fmt.Fprintf(os.Stderr, "hpca03: partition %d lost after %d respawn(s) (%v); computing in-process\n",
				out.Part, out.Respawns, out.Err)
		case grid.PartFailed:
			fmt.Fprintf(os.Stderr, "hpca03: partition %d completed with point failures\n", out.Part)
		default:
			if out.Respawns > 0 {
				fmt.Fprintf(os.Stderr, "hpca03: partition %d recovered after %d respawn(s)\n", out.Part, out.Respawns)
			}
		}
	}
	return nil
}
