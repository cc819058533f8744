package main

// The four end-to-end workloads. Each measures for e.dur (at least one
// operation), checks every output, and returns what it measured; run turns
// that into the end-to-end metrics.

import (
	"context"
	"fmt"
	"os"
	"strconv"
	"time"

	"selthrottle/internal/sim"
)

// interval is an amount of time spent between two wall-clock instants: a
// latency, or CPU time used in that stretch. Host-speed scaling uses the
// reference samples of the stretch.
type interval struct {
	from, to time.Time
	d        time.Duration
}

// measurement is what a workload measured: set-up times, operation
// latencies, the CPU time its program processes used with the number of
// units (grid points, renders or requests) it is charged to, and their peak
// resident set.
type measurement struct {
	setup    []time.Duration
	ops, cpu []interval
	units    int
	rssKB    int64
}

// addOp records one operation that ran as the process u: its wall time,
// less the time held to sample the reference kernel, is the latency, and
// its CPU time is charged to units.
func (m *measurement) addOp(u usage, units int) {
	m.ops = append(m.ops, interval{u.start, u.end(), u.wall - u.held})
	m.cpu = append(m.cpu, interval{u.start, u.end(), u.cpu})
	m.units += units
	m.rssKB = max(m.rssKB, u.rssKB)
}

// endToEndValues computes every end-to-end metric from m, multiplying each
// operation's and CPU interval's time by weight(interval), and set-up times
// by setupWeight. Scaled, weight is the host-speed factor of the interval's
// own stretch. Set-up start-ups are too short and too close together for
// the samples around each to tell them apart, so setupWeight is the run's
// overall factor. Unscaled, both are 1.
func endToEndValues(m measurement, weight func(interval) float64, setupWeight float64) map[string]float64 {
	times := func(xs []interval) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = float64(x.d) * weight(x)
		}
		return out
	}
	lat := times(m.ops)
	cpu := 0.0
	for _, c := range times(m.cpu) {
		cpu += c
	}
	return map[string]float64{
		"setup_s":        median(ms(m.setup)) * setupWeight / 1000,
		"latency_p50_ms": median(lat) / float64(time.Millisecond),
		"latency_p99_ms": percentile(lat, 99) / float64(time.Millisecond),
		"cpu_ms_per_op":  cpu / float64(time.Millisecond) / float64(m.units),
		"peak_rss_mb":    float64(m.rssKB) / 1024,
	}
}

// gridPoints is the number of unique simulation points of `-exp all` at n.
func gridPoints(n uint64) (int, error) {
	pts, err := sim.EnumerateGrid("all", "", sim.Options{Instructions: n})
	return len(pts), err
}

// timeStarts times e.sc.setupSpawns runs of `hpca03 -exp table3 [extra]`:
// process start-up plus, with a store, its recovery scan.
func timeStarts(ctx context.Context, e *env, o *outcome, extra ...string) ([]time.Duration, error) {
	var out []time.Duration
	for i := 0; i < e.sc.setupSpawns; i++ {
		p, err := runProc(ctx, e.exe("hpca03"), append([]string{"-exp", "table3"}, extra...)...)
		if err != nil {
			return nil, err
		}
		if err := e.checkOutput(o, "setup table3", p.stdout, 0); err != nil {
			return nil, err
		}
		out = append(out, p.wall)
	}
	return out, nil
}

// timeServeStarts times e.sc.setupSpawns start-ups of n `stserve -queue 2`
// on a fresh shared store each: from the first spawn to the slowest one's
// first /readyz 200.
func timeServeStarts(ctx context.Context, e *env, n int) ([]time.Duration, error) {
	var out []time.Duration
	for i := 0; i < e.sc.setupSpawns; i++ {
		dir, err := e.dir("setup")
		if err != nil {
			return nil, err
		}
		srvs, err := startServers(ctx, e, n, "-store", dir, "-queue", "2")
		if err != nil {
			return nil, err
		}
		out = append(out, maxReady(srvs))
		stopServers(srvs)
	}
	return out, nil
}

// repeatFor runs op until e.dur has elapsed. It starts another repetition
// while at least half of one (as long as the previous) fits before the
// deadline, so a run of long operations makes the nearest whole number of
// them rather than sometimes one fewer; it always runs op once. The
// reference kernel runs in the gaps before, between and after the
// repetitions, and as pauses inside any longer than refEvery (see runOp).
func repeatFor(ctx context.Context, e *env, op func(rep int) error) error {
	deadline := time.Now().Add(e.dur)
	var last time.Duration
	for rep := 0; rep == 0 || time.Now().Add(last/2).Before(deadline); rep++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		e.speed.gap()
		t0 := time.Now()
		if err := op(rep); err != nil {
			return err
		}
		last = time.Since(t0)
	}
	e.speed.sample(refNear)
	return nil
}

// gridCold: the reproduction users run. Each op is one fresh
// `hpca03 -exp all -n 100000` process with no store; latency is its wall
// time and CPU is charged per unique grid point.
func gridCold(ctx context.Context, e *env, o *outcome) (measurement, error) {
	var m measurement
	var err error
	if m.setup, err = timeStarts(ctx, e, o); err != nil {
		return m, err
	}
	n := e.sc.coldN
	points, err := gridPoints(n)
	if err != nil {
		return m, err
	}
	err = repeatFor(ctx, e, func(rep int) error {
		p, err := runOp(ctx, &e.speed, nil, e.exe("hpca03"), "-exp", "all", "-n", strconv.FormatUint(n, 10))
		if err != nil {
			return err
		}
		m.addOp(p.usage, points)
		return e.checkOutput(o, fmt.Sprintf("grid-cold rep %d", rep), p.stdout, n)
	})
	return m, err
}

// gridWarm: re-rendering the figures after a restart. Set-up fills a store
// with the whole grid; each op is one fresh `hpca03 -exp all -n 20000
// -store D` process serving every point from disk.
func gridWarm(ctx context.Context, e *env, o *outcome) (measurement, error) {
	var m measurement
	n := strconv.FormatUint(e.sc.warmN, 10)
	dir, err := e.dir("warm")
	if err != nil {
		return m, err
	}
	p, err := runProc(ctx, e.exe("hpca03"), "-exp", "all", "-n", n, "-store", dir)
	if err != nil {
		return m, err
	}
	if err := e.checkOutput(o, "grid-warm fill", p.stdout, e.sc.warmN); err != nil {
		return m, err
	}
	if m.setup, err = timeStarts(ctx, e, o, "-store", dir); err != nil {
		return m, err
	}
	err = repeatFor(ctx, e, func(rep int) error {
		p, err := runOp(ctx, &e.speed, nil, e.exe("hpca03"), "-exp", "all", "-n", n, "-store", dir)
		if err != nil {
			return err
		}
		m.addOp(p.usage, 1)
		return e.checkOutput(o, fmt.Sprintf("grid-warm render %d", rep), p.stdout, e.sc.warmN)
	})
	return m, err
}

// serveMixed: interactive exploration. Set-up times stserve start-ups on
// fresh stores; the op is one /v1/point request of the open-loop stream
// (see serveLoad), served by a single `stserve -store D -queue 2` whose
// whole CPU time is charged to the requests.
func serveMixed(ctx context.Context, e *env, o *outcome) (measurement, error) {
	var m measurement
	var err error
	if m.setup, err = timeServeStarts(ctx, e, 1); err != nil {
		return m, err
	}
	dir, err := e.dir("serve")
	if err != nil {
		return m, err
	}
	srvs, err := startServers(ctx, e, 1, "-store", dir, "-queue", "2")
	if err != nil {
		return m, err
	}
	srv := srvs[0]
	defer srv.stop()

	load := newServeLoad(e.seed, e.sc.serveRate, e.dur)
	if err := load.warm(ctx, e, srv); err != nil {
		return m, err
	}
	// A burst on each side of the stream; within it, the kernel runs in
	// the stream's idle moments.
	e.speed.sample(refNear)
	replies := load.run(ctx, e, srv, e.sc.serveN, 0, &e.speed)
	u := srv.stop()
	e.speed.sample(refNear)
	if err := ctx.Err(); err != nil {
		return m, err
	}
	if err := load.verify(ctx, e, o, replies, e.sc.serveN); err != nil {
		return m, err
	}
	for _, r := range replies {
		m.ops = append(m.ops, interval{r.due, r.due.Add(r.latency), r.latency})
	}
	m.cpu = []interval{{u.start, u.end(), u.cpu}}
	m.units = len(replies)
	m.rssKB = u.rssKB
	return m, nil
}

// fleet2: scale-out with small points. Set-up times start-ups of a pair of
// `stserve -queue 2` on a fresh shared store. Each op starts such a pair,
// then runs `hpca03 -exp all -n 20000 -store D -fleet a,b`; latency is the
// hpca03 wall time and CPU, over all three processes, is charged per point.
// The pauses that sample the reference kernel hold all three.
func fleet2(ctx context.Context, e *env, o *outcome) (measurement, error) {
	var m measurement
	var err error
	if m.setup, err = timeServeStarts(ctx, e, 2); err != nil {
		return m, err
	}
	n := e.sc.warmN
	points, err := gridPoints(n)
	if err != nil {
		return m, err
	}
	err = repeatFor(ctx, e, func(rep int) error {
		dir, err := e.dir("fleet")
		if err != nil {
			return err
		}
		srvs, err := startServers(ctx, e, 2, "-store", dir, "-queue", "2")
		if err != nil {
			return err
		}
		p, err := runOp(ctx, &e.speed, []*os.Process{srvs[0].cmd.Process, srvs[1].cmd.Process}, e.exe("hpca03"),
			"-exp", "all", "-n", strconv.FormatUint(n, 10), "-store", dir, "-fleet", srvs[0].addr+","+srvs[1].addr)
		su := stopServers(srvs)
		if err != nil {
			return err
		}
		m.addOp(p.usage, points)
		m.cpu = append(m.cpu, interval{su.start, su.end(), su.cpu})
		m.rssKB = max(m.rssKB, su.rssKB)
		return e.checkOutput(o, fmt.Sprintf("fleet-2 rep %d", rep), p.stdout, n)
	})
	return m, err
}
