package main

// Fleet mode (-workers N, -fleet host1,host2): dispatch the selected
// experiment grid to compute workers over HTTP first, then fall through to
// the normal in-process report — which now runs over the warm store and
// the injected result cache, serving fleet-published points without
// recomputing. -workers N starts N local stworker processes on loopback
// for the run and adds them to the -fleet list, so both kinds of worker go
// through one dispatcher: its deadlines, hedging, breakers, steals and
// local floor. The final output is byte-identical to a single-process run
// by construction: results cross the wire as the store codec's exact
// bytes, and any point the fleet could not serve (unreachable or crashed
// workers, opened breakers, steal races) is computed locally by the
// coordinator itself.

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"selthrottle/internal/faultinject"
	"selthrottle/internal/fleet"
	"selthrottle/internal/grid"
	"selthrottle/internal/sim"
)

// fleetFlags carries the scale-out flags from run to runFleet.
type fleetFlags struct {
	hosts        string        // -fleet: remote stserve workers
	workers      int           // -workers: local stworker processes to start
	workerBin    string        // -worker-bin
	workerFault  string        // -worker-fault
	pointTimeout time.Duration // -point-timeout
	hedgeAfter   time.Duration // -hedge-after
	breakerOpen  time.Duration // -breaker-open
}

// Local worker lifetime bounds: how long a started stworker may take to
// print its address, and how long it has to exit after SIGTERM before it
// is killed.
const (
	workerStartTimeout = 10 * time.Second
	workerGrace        = 2 * time.Second
)

// runFleet drains the grid through the local and remote workers, local
// worker i armed with faults[i]. Setup failures (an unusable lease
// directory) are errors; workers that fail to start, die or stop answering
// are not — the coordinator degrades to local compute and the in-process
// report remains the floor. Interruption is left to the caller's ctx
// handling.
func runFleet(ctx context.Context, f fleetFlags, faults map[int]string, storeDir, exp, id, bench string, opts sim.Options) error {
	points, err := sim.EnumerateGrid(exp, id, opts)
	if err != nil {
		return err
	}
	if len(points) == 0 {
		return nil // nothing to dispatch (e.g. -exp table3), so no workers either
	}
	leases, err := grid.NewManager(storeDir, nil, 0)
	if err != nil {
		return err
	}
	var workers []string
	for _, t := range strings.Split(f.hosts, ",") {
		if t = strings.TrimSpace(t); t != "" {
			workers = append(workers, t)
		}
	}
	if f.workers > 0 {
		bin := f.workerBin
		if bin == "" {
			bin = defaultWorkerBin()
		}
		local := startWorkers(bin, f.workers, storeDir, faults)
		defer stopWorkers(local)
		for _, w := range local {
			workers = append(workers, w.addr)
		}
	}
	// The spec carries the defaulted budgets (-n 0 means the default n, as
	// in the report), so the workers enumerate the report's grid.
	base := opts.BaseConfig()
	spec := fleet.GridSpec{
		Exp:    exp,
		ID:     id,
		N:      base.Instructions,
		Warmup: base.Warmup,
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
		PointTimeout:   f.pointTimeout,
		HedgeAfter:     f.hedgeAfter,
		BreakerOpenFor: f.breakerOpen,
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

// workerFaults decodes the -worker-fault flag: semicolon-separated
// index:spec entries ("1:kill-after=2;2:freeze-after=2") for the local
// workers 0..n-1; spec commas are the fault spec's own separators.
func workerFaults(arg string, n int) (map[int]string, error) {
	m := make(map[int]string)
	if arg == "" {
		return m, nil
	}
	for _, entry := range strings.Split(arg, ";") {
		idx, spec, ok := strings.Cut(strings.TrimSpace(entry), ":")
		var i int
		if _, err := fmt.Sscanf(idx, "%d", &i); !ok || err != nil || i < 0 || i >= n {
			return nil, fmt.Errorf("bad -worker-fault entry %q (want index:spec, index < %d)", entry, n)
		}
		if _, err := faultinject.ParseProcFaults(spec); err != nil {
			return nil, fmt.Errorf("bad -worker-fault entry %q: %v", entry, err)
		}
		m[i] = spec
	}
	return m, nil
}

// defaultWorkerBin locates stworker next to the running hpca03 binary.
func defaultWorkerBin() string {
	self, err := os.Executable()
	if err != nil {
		return "stworker"
	}
	return filepath.Join(filepath.Dir(self), "stworker")
}

// localWorker is one stworker process this hpca03 started.
type localWorker struct {
	index  int
	cmd    *exec.Cmd
	stdout *bufio.Reader
	addr   string
}

// startWorkers starts n stworker processes over storeDir and returns those
// that printed their address in time. A worker that fails to start is
// logged, stopped and skipped.
func startWorkers(bin string, n int, storeDir string, faults map[int]string) []*localWorker {
	var started []*localWorker
	for i := 0; i < n; i++ {
		args := []string{"-store", storeDir}
		if spec := faults[i]; spec != "" {
			args = append(args, "-fault", spec)
		}
		w := &localWorker{index: i, cmd: exec.Command(bin, args...)}
		w.cmd.Stderr = os.Stderr
		// The stdin pipe stays open until Wait: its EOF tells the worker
		// that hpca03 is gone, however hpca03 exited.
		_, err := w.cmd.StdinPipe()
		if err == nil {
			var stdout io.Reader
			stdout, err = w.cmd.StdoutPipe()
			w.stdout = bufio.NewReader(stdout)
		}
		if err == nil {
			err = w.cmd.Start()
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "hpca03: worker %d did not start: %v\n", i, err)
			continue
		}
		started = append(started, w)
	}
	var up []*localWorker
	for _, w := range started {
		addr, err := readAddr(w.stdout, workerStartTimeout)
		if err != nil {
			fmt.Fprintf(os.Stderr, "hpca03: worker %d did not start: %v\n", w.index, err)
			stopWorkers([]*localWorker{w})
			continue
		}
		w.addr = addr
		up = append(up, w)
	}
	return up
}

// readAddr reads the worker's first stdout line, its listen address,
// giving up after timeout.
func readAddr(r *bufio.Reader, timeout time.Duration) (string, error) {
	type line struct {
		s   string
		err error
	}
	c := make(chan line, 1)
	go func() {
		s, err := r.ReadString('\n')
		c <- line{strings.TrimSpace(s), err}
	}()
	t := time.NewTimer(timeout)
	defer t.Stop()
	select {
	case l := <-c:
		if l.s == "" {
			return "", fmt.Errorf("no address on stdout: %v", l.err)
		}
		return l.s, nil
	case <-t.C:
		return "", fmt.Errorf("no address within %v", timeout)
	}
}

// stopWorkers sends SIGTERM to every worker, SIGKILLs any still running
// after the grace period, and logs each exit status. Signal, Kill and Wait
// errors are not checked: a worker that already exited fails the first two,
// and the logged ProcessState says how every worker ended.
func stopWorkers(ws []*localWorker) {
	done := make([]chan struct{}, len(ws))
	for i, w := range ws {
		_ = w.cmd.Process.Signal(syscall.SIGTERM)
		done[i] = make(chan struct{})
		go func() {
			_ = w.cmd.Wait()
			close(done[i])
		}()
	}
	grace, cancel := context.WithTimeout(context.Background(), workerGrace)
	defer cancel()
	for i, w := range ws {
		select {
		case <-done[i]:
		case <-grace.Done():
			_ = w.cmd.Process.Kill()
			<-done[i]
		}
		fmt.Fprintf(os.Stderr, "hpca03: worker %d exited: %v\n", w.index, w.cmd.ProcessState)
	}
}
