package main

// The traced run: a fixed probe suite that calls into each module's public
// functions from outside, records a span around every call, and derives the
// per-layer metrics. Every traced run executes the whole suite, so each one
// reports every per-layer metric; --workload only labels the spans.

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"math/rand"
	"net/http"
	"os"
	"regexp"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"selthrottle/internal/fleet"
	"selthrottle/internal/grid"
	"selthrottle/internal/prog"
	"selthrottle/internal/sim"
	"selthrottle/internal/store"
)

// span is one timed call, as written to the NDJSON trace.
type span struct {
	ID       int              `json:"id"`
	Parent   int              `json:"parent"` // 0 for a layer's root span
	Name     string           `json:"name"`   // "<layer>" or "<layer> <call>"
	Start    int64            `json:"start_ns"`
	End      int64            `json:"end_ns"`
	Workload string           `json:"workload"`
	Counts   map[string]int64 `json:"counts,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, which is how the suite times the same calls with tracing off.
type tracer struct {
	workload string
	t0       time.Time
	mu       sync.Mutex
	spans    []span
}

func newTracer(workload string) *tracer { return &tracer{workload: workload, t0: time.Now()} }

// begin opens a span under parent and returns its ID (0 on a nil tracer).
func (t *tracer) begin(parent int, name string) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: now, Workload: t.workload})
	return len(t.spans)
}

// end closes span id with its work counts.
func (t *tracer) end(id int, counts map[string]int64) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = now
	t.spans[id-1].Counts = counts
}

// write flushes the spans to path as NDJSON and prints each layer's span
// count and self time: its spans' durations minus the part of each that
// its child spans cover.
func (t *tracer) write(path string, log io.Writer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(log, "stbench: %d spans written to %s\n", len(t.spans), path)
	counts, self := t.selfTimes()
	fmt.Fprintf(log, "  %-8s %7s %12s\n", "layer", "spans", "self_ms")
	for _, l := range slices.Sorted(maps.Keys(self)) {
		fmt.Fprintf(log, "  %-8s %7d %12.3f\n", l, counts[l], msOf(self[l]))
	}
	return nil
}

// selfTimes sums self time and counts spans per layer.
func (t *tracer) selfTimes() (map[string]int, map[string]time.Duration) {
	kids := map[int][][2]int64{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	counts, self := map[string]int{}, map[string]time.Duration{}
	for _, s := range t.spans {
		iv := kids[s.ID]
		slices.SortFunc(iv, func(a, b [2]int64) int { return int(a[0] - b[0]) })
		covered, reach := int64(0), s.Start
		for _, c := range iv { // union of the children, clipped to s
			lo, hi := max(c[0], reach), min(c[1], s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		layer, _, _ := strings.Cut(s.Name, " ")
		counts[layer]++
		self[layer] += time.Duration(s.End - s.Start - covered)
	}
	return counts, self
}

// layerSuite runs every probe in order; the grid probe's store feeds the
// store and render probes.
func layerSuite(ctx context.Context, e *env, o *outcome) error {
	probeProg(e, o)
	if err := probePipe(ctx, e, o); err != nil {
		return err
	}
	if err := probeSim(ctx, e, o); err != nil {
		return err
	}
	dir, err := probeGrid(ctx, e, o)
	if err != nil {
		return err
	}
	if err := probeStore(e, o, dir); err != nil {
		return err
	}
	if err := probeRender(ctx, e, o, dir); err != nil {
		return err
	}
	if err := probeServe(ctx, e, o); err != nil {
		return err
	}
	return probeFleet(ctx, e, o)
}

// probeProg times workload generation and the walker's correct-path
// stream (NextGroup, then Steer and Release at every conditional branch).
func probeProg(e *env, o *outcome) {
	tr := e.tr
	root := tr.begin(0, "prog")
	defer tr.end(root, nil)
	var programs []*prog.Program
	var gens []float64
	for r := 0; r < e.sc.repeats; r++ {
		programs = programs[:0]
		t0 := time.Now()
		for _, p := range prog.Profiles() {
			id := tr.begin(root, "prog Generate")
			programs = append(programs, prog.Generate(p))
			tr.end(id, nil)
		}
		gens = append(gens, msOf(time.Since(t0)))
	}
	for _, p := range programs {
		err := p.Validate()
		o.check(err == nil, "prog.Generate(%s): %v", p.Profile.Name, err)
	}
	o.set("prog.generate_ms", median(gens))

	insts := 0
	t0 := time.Now()
	for _, p := range programs {
		id := tr.begin(root, "prog NextGroup")
		n := walkCorrectPath(p, e.sc.walkInsts)
		tr.end(id, map[string]int64{"insts": int64(n)})
		insts += n
	}
	o.set("prog.nextgroup_ns_per_inst", float64(time.Since(t0).Nanoseconds())/float64(insts))
}

// walkCorrectPath drives a fresh walker down the correct path for at least
// want instructions, in fetch-width groups, and returns the count.
func walkCorrectPath(p *prog.Program, want int) int {
	w := prog.NewWalker(p)
	buf := make([]prog.DynInst, 8)
	n := 0
	for n < want {
		k := w.NextGroup(buf)
		if last := &buf[k-1]; last.BrID != prog.NoBranch {
			w.Steer(last.Taken)
			w.Release(last)
		}
		n += k
	}
	return n
}

// probePipe runs a sample of the `-exp all` grid, drawn with the run's
// seed, through one sim.Runner with result caching off: once to warm up,
// then four passes in the order untraced, traced, traced, untraced. The
// traced passes give the host-time metrics; the two pairs give the tracing
// overhead. The work counts are the sample's exact measured-interval
// statistics.
func probePipe(ctx context.Context, e *env, o *outcome) error {
	tr := e.tr
	root := tr.begin(0, "pipe")
	defer tr.end(root, nil)
	pts, err := sim.EnumerateGrid("all", "", sim.Options{Instructions: e.sc.sampleN})
	if err != nil {
		return err
	}
	sample := make([]sim.GridPoint, min(e.sc.samplePoints, len(pts)))
	for i, j := range rand.New(rand.NewSource(e.seed)).Perm(len(pts))[:len(sample)] {
		sample[i] = pts[j]
	}
	defer sim.SetResultCaching(sim.SetResultCaching(false))
	r := sim.NewRunner()
	pass := func(t *tracer) (time.Duration, []time.Duration, []sim.Result, error) {
		var total time.Duration
		per := make([]time.Duration, len(sample))
		res := make([]sim.Result, len(sample))
		for i, g := range sample {
			id := t.begin(root, "pipe Runner.RunE")
			t0 := time.Now()
			out, err := r.RunE(ctx, g.Cfg, g.Profile)
			per[i] = time.Since(t0)
			t.end(id, map[string]int64{"cycles": int64(out.Stats.Cycles), "committed": int64(out.Stats.Committed)})
			if err != nil {
				return 0, nil, nil, fmt.Errorf("sample point %s/%s: %w", g.Profile.Name, g.Cfg.Policy.Name, err)
			}
			total += per[i]
			res[i] = out
		}
		return total, per, res, nil
	}
	_, _, ref, err := pass(nil)
	if err != nil {
		return err
	}
	var off, on time.Duration
	var onPer []time.Duration
	for _, traced := range []bool{false, true, true, false} {
		t := tr
		if !traced {
			t = nil
		}
		total, per, res, err := pass(t)
		if err != nil {
			return err
		}
		for i := range res {
			same := res[i].Stats == ref[i].Stats && res[i].Energy == ref[i].Energy
			o.check(same, "sample point %d: a repeated run gave different results", i)
		}
		if traced {
			on += total
			onPer = append(onPer, per...)
		} else {
			off += total
		}
	}
	o.set("bench.trace_overhead_frac", float64(on-off)/float64(off))
	o.set("sim.point_ms_p50", median(ms(onPer)))
	o.set("sim.point_ms_p99", percentile(ms(onPer), 99))

	var st struct{ cycles, committed, fetched, wrongFetched, flushes, gated, noselect uint64 }
	var wasted, energy, insts, cycles float64
	for i, res := range ref {
		s := res.Stats
		st.cycles += s.Cycles
		st.committed += s.Committed
		st.fetched += s.Fetched
		st.wrongFetched += s.WrongPathFetched
		st.flushes += s.TrueFlushes
		st.gated += s.FetchGatedCycles
		st.noselect += s.NoSelectStalls
		wasted += res.Power.WastedEnergy
		energy += res.Power.TotalEnergy
		// Host time covers the warm-up too; its cycles are estimated at
		// the measured interval's cycles per instruction.
		simulated := float64(sample[i].Cfg.Warmup + sample[i].Cfg.Instructions)
		insts += simulated
		cycles += float64(s.Cycles) / float64(s.Committed) * simulated
	}
	host := float64(on.Nanoseconds()) / 2 // two traced passes
	o.set("pipe.host_ns_per_inst", host/insts)
	o.set("pipe.host_ns_per_cycle", host/cycles)
	o.set("pipe.sim_cycles", float64(st.cycles))
	o.set("pipe.committed", float64(st.committed))
	o.set("pipe.fetched_per_committed", float64(st.fetched)/float64(st.committed))
	o.set("pipe.wrong_path_fetch_frac", float64(st.wrongFetched)/float64(st.fetched))
	o.set("pipe.flushes", float64(st.flushes))
	o.set("pipe.fetch_gated_cycles", float64(st.gated))
	o.set("pipe.noselect_stalls", float64(st.noselect))
	o.set("power.wasted_energy_frac", wasted/energy)
	return nil
}

// probeSim times the sim layer's entry points: BenchmarkSingleRun's shape,
// a memoized hit, grid enumeration, and the paper's stated results.
func probeSim(ctx context.Context, e *env, o *outcome) error {
	tr := e.tr
	root := tr.begin(0, "sim")
	defer tr.end(root, nil)
	profile, _ := prog.ProfileByName("go")
	cfg := sim.Default()
	cfg.Instructions, cfg.Warmup = 32000, 8000

	prev := sim.SetResultCaching(false)
	sim.Run(cfg, profile) // warm the program cache and runner pool
	sim.Run(cfg, profile)
	t0 := time.Now()
	for i := 0; i < e.sc.singleRuns; i++ {
		id := tr.begin(root, "sim Run")
		sim.Run(cfg, profile)
		tr.end(id, nil)
	}
	insts := float64(e.sc.singleRuns) * float64(cfg.Instructions+cfg.Warmup)
	o.set("sim.point_minsts_per_s", insts/time.Since(t0).Seconds()/1e6)
	sim.SetResultCaching(prev)

	sim.ClearResultCache()
	sim.Run(cfg, profile) // now resident
	id := tr.begin(root, "sim Run (memoized)")
	var hits []float64
	for b := 0; b < 200; b++ {
		t0 := time.Now()
		for i := 0; i < 50; i++ {
			sim.Run(cfg, profile)
		}
		hits = append(hits, float64(time.Since(t0).Nanoseconds())/50/1000)
	}
	tr.end(id, map[string]int64{"calls": 200 * 50})
	o.set("sim.cache_hit_us", median(hits))

	var enums []float64
	for i := 0; i < e.sc.repeats; i++ {
		id := tr.begin(root, "sim EnumerateGrid")
		t0 := time.Now()
		pts, err := sim.EnumerateGrid("all", "", sim.Options{Instructions: e.sc.warmN})
		enums = append(enums, msOf(time.Since(t0)))
		tr.end(id, map[string]int64{"points": int64(len(pts))})
		if err != nil {
			return err
		}
	}
	o.set("sim.enumerate_ms", median(enums))

	// The paper's numbers need their tables and figures at the paper scale;
	// simulating them in process also measures how busy the figure drivers
	// keep every processor.
	sim.ClearResultCache()
	cpu0, t0 := selfCPU(), time.Now()
	paper, err := runPaper(ctx, tr, root, sim.Options{Instructions: e.sc.paperN, Depth: 14, PredBytes: 8 << 10, ConfBytes: 8 << 10})
	wall, cpu := time.Since(t0), selfCPU()-cpu0
	sim.ClearResultCache()
	if err != nil {
		return err
	}
	o.set("sim.grid_cpu_util", cpu.Seconds()/(wall.Seconds()*float64(runtime.GOMAXPROCS(0))))
	o.set("sim.paper_err_pp", paper.paperErr())
	return nil
}

func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// computedRE finds the computed-point count in hpca03 -v's cache summary.
var computedRE = regexp.MustCompile(`/ (\d+) computed`)

// probeGrid runs `hpca03 -exp all -store D -workers 2 -v` into a fresh store
// (recording how many points the coordinator recomputed after its workers
// published them), then times point-lease claims. It returns the filled
// store.
func probeGrid(ctx context.Context, e *env, o *outcome) (string, error) {
	tr := e.tr
	root := tr.begin(0, "grid")
	defer tr.end(root, nil)
	dir, err := e.dir("workers")
	if err != nil {
		return "", err
	}
	id := tr.begin(root, "hpca03 -workers 2")
	p, err := runProc(ctx, e.exe("hpca03"), "-exp", "all", "-n", strconv.FormatUint(e.sc.warmN, 10),
		"-store", dir, "-workers", "2", "-v")
	tr.end(id, nil)
	if err != nil {
		return "", err
	}
	if err := e.checkOutput(o, "hpca03 -workers 2", p.stdout, e.sc.warmN); err != nil {
		return "", err
	}
	m := computedRE.FindSubmatch(p.stderr)
	if m == nil {
		return "", errors.New("hpca03 -v printed no cache summary")
	}
	recomputed, _ := strconv.Atoi(string(m[1]))
	o.set("grid.workers_wall_s", p.wall.Seconds())
	o.set("grid.coordinator_recomputed_points", float64(recomputed))

	pts, err := sim.EnumerateGrid("all", "", sim.Options{Instructions: e.sc.warmN})
	if err != nil {
		return "", err
	}
	leaseDir, err := e.dir("leases")
	if err != nil {
		return "", err
	}
	leases, err := grid.NewManager(leaseDir, nil, 0)
	if err != nil {
		return "", err
	}
	var claims []float64
	for _, g := range pts {
		id := tr.begin(root, "grid ClaimPoint+Release")
		t0 := time.Now()
		l, err := leases.ClaimPoint("stbench", g.Key(), "stbench", false)
		if err == nil {
			l.Release()
		}
		claims = append(claims, float64(time.Since(t0).Nanoseconds())/1000)
		tr.end(id, nil)
		o.check(err == nil, "ClaimPoint: %v", err)
	}
	o.set("grid.claim_us_p50", median(claims))
	return dir, nil
}

// probeStore times opening the filled store, reading every entry, and
// publishing entries into a fresh store.
func probeStore(e *env, o *outcome, dir string) error {
	tr := e.tr
	root := tr.begin(0, "store")
	defer tr.end(root, nil)
	pts, err := sim.EnumerateGrid("all", "", sim.Options{Instructions: e.sc.warmN})
	if err != nil {
		return err
	}
	var opens []float64
	var st *store.Store
	for i := 0; i < e.sc.repeats; i++ {
		id := tr.begin(root, "store Open")
		t0 := time.Now()
		st, err = store.Open(dir, nil)
		opens = append(opens, msOf(time.Since(t0)))
		if err != nil {
			return err
		}
		tr.end(id, map[string]int64{"entries": int64(st.Len())})
	}
	o.set("store.open_ms", median(opens))

	var gets []float64
	entries := make([]store.Entry, len(pts))
	for i, g := range pts {
		id := tr.begin(root, "store Get")
		t0 := time.Now()
		ent, ok, err := st.Get(g.Key())
		gets = append(gets, float64(time.Since(t0).Nanoseconds())/1000)
		tr.end(id, nil)
		o.check(ok && err == nil, "store.Get(%s): found %v, %v", g.Key(), ok, err)
		entries[i] = ent
	}
	o.set("store.get_us_p50", median(gets))
	o.set("store.get_us_p99", percentile(gets, 99))
	o.set("store.entry_bytes", float64(len(store.EncodeEntry(&entries[0]))))

	fresh, err := e.dir("puts")
	if err != nil {
		return err
	}
	st2, err := store.Open(fresh, nil)
	if err != nil {
		return err
	}
	var puts []float64
	for i := 0; i < min(e.sc.puts, len(pts)); i++ {
		id := tr.begin(root, "store Put")
		t0 := time.Now()
		err := st2.Put(pts[i].Key(), &entries[i])
		puts = append(puts, msOf(time.Since(t0)))
		tr.end(id, nil)
		o.check(err == nil, "store.Put: %v", err)
	}
	o.set("store.put_ms_p50", median(puts))
	o.set("store.put_ms_p99", percentile(puts, 99))
	return nil
}

// probeRender times the whole `-exp all` report over the filled store: in
// process with the memory tier cleared, and as fresh hpca03 processes.
func probeRender(ctx context.Context, e *env, o *outcome, dir string) error {
	tr := e.tr
	root := tr.begin(0, "sim")
	var renders []float64
	var ts sim.CacheTierStats
	for i := 0; i < e.sc.repeats; i++ {
		id := tr.begin(root, "sim render")
		t0 := time.Now()
		sum, stats, err := renderFromStore(ctx, dir, e.sc.warmN)
		renders = append(renders, msOf(time.Since(t0)))
		ts = stats
		tr.end(id, map[string]int64{"mem_hits": int64(ts.MemHits), "disk_hits": int64(ts.DiskHits), "computed": int64(ts.MemMisses)})
		if err != nil {
			return err
		}
		if err := e.checkSum(o, "in-process render", sum, e.sc.warmN); err != nil {
			return err
		}
	}
	tr.end(root, nil)
	o.set("sim.render_ms", median(renders))
	o.set("sim.cache_computed", float64(ts.MemMisses))
	o.set("sim.cache_mem_hits", float64(ts.MemHits))
	o.set("sim.cache_disk_hits", float64(ts.DiskHits))

	root = tr.begin(0, "hpca03")
	defer tr.end(root, nil)
	var walls []float64
	for i := 0; i < e.sc.repeats; i++ {
		id := tr.begin(root, "hpca03 -exp all -store")
		p, err := runProc(ctx, e.exe("hpca03"), "-exp", "all", "-n", strconv.FormatUint(e.sc.warmN, 10), "-store", dir)
		tr.end(id, nil)
		if err != nil {
			return err
		}
		if err := e.checkOutput(o, "hpca03 render", p.stdout, e.sc.warmN); err != nil {
			return err
		}
		walls = append(walls, msOf(p.wall))
	}
	o.set("hpca03.render_ms", median(walls))
	return nil
}

// renderFromStore renders the `-exp all` report at n over the store at dir,
// starting from an empty memory tier, and returns its SHA-256 and the cache
// counters it left.
func renderFromStore(ctx context.Context, dir string, n uint64) ([]byte, sim.CacheTierStats, error) {
	st, err := store.Open(dir, nil)
	if err != nil {
		return nil, sim.CacheTierStats{}, err
	}
	prev := sim.AttachDiskStore(st)
	defer sim.AttachDiskStore(prev)
	sim.ClearResultCache()
	defer sim.ClearResultCache()
	h := sha256.New()
	failed, err := render(ctx, h, sim.Options{Instructions: n})
	ts := sim.ResultCacheTierStats()
	if err == nil && failed > 0 {
		err = fmt.Errorf("render: %d failed points", failed)
	}
	return h.Sum(nil), ts, err
}

// probeServe runs a short serve-mixed stream against a fresh stserve while
// polling its /statsz at 5 Hz, and splits request latency by hit and miss.
func probeServe(ctx context.Context, e *env, o *outcome) error {
	tr := e.tr
	root := tr.begin(0, "stserve")
	defer tr.end(root, nil)
	dir, err := e.dir("serve")
	if err != nil {
		return err
	}
	srvs, err := startServers(ctx, e, 1, "-store", dir, "-queue", "2")
	if err != nil {
		return err
	}
	defer stopServers(srvs)
	srv := srvs[0]
	load := newServeLoad(e.seed, e.sc.serveRate, e.sc.serveProbe)
	if err := load.warm(ctx, e, srv); err != nil {
		return err
	}
	// The poller has a connection of its own, so it never holds or waits
	// for one of the load generator's.
	mon := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, DisableCompression: true}}
	defer mon.CloseIdleConnections()
	stop := make(chan struct{})
	depth := make(chan int)
	go func() {
		deepest := 0
		tick := time.NewTicker(200 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				depth <- deepest
				return
			case <-tick.C:
			}
			if s, err := statsz(ctx, mon, srv); err == nil {
				deepest = max(deepest, s.Queue.Depth)
			}
		}
	}()
	t0 := time.Now()
	replies := load.run(ctx, e, srv, e.sc.serveN, root, nil)
	elapsed := time.Since(t0)
	close(stop)
	o.set("stserve.queue_depth_max", float64(<-depth))
	if err := ctx.Err(); err != nil {
		return err
	}
	if err := load.verify(ctx, e, o, replies, e.sc.serveN); err != nil {
		return err
	}
	var hit, miss, lag []time.Duration
	for i, r := range replies {
		if load.reqs[i].fresh {
			miss = append(miss, r.latency)
		} else {
			hit = append(hit, r.latency)
		}
		lag = append(lag, r.lag)
	}
	o.set("stserve.hit_ms_p50", median(ms(hit)))
	o.set("stserve.hit_ms_p99", percentile(ms(hit), 99))
	o.set("stserve.miss_ms_p50", median(ms(miss)))
	o.set("stserve.miss_ms_p99", percentile(ms(miss), 99))
	o.set("bench.achieved_rps", float64(len(replies))/elapsed.Seconds())
	o.set("bench.gen_lag_p99_ms", percentile(ms(lag), 99))
	s, err := statsz(ctx, mon, srv)
	if err != nil {
		return err
	}
	o.set("stserve.shed", float64(s.Requests.Shed))
	o.set("stserve.retried", float64(s.RetriedAttempts))
	return nil
}

// probeFleet starts two stserve on a fresh shared store and dispatches the
// warm-scale grid to them with an in-process fleet.Run whose transport
// times every request. The store the fleet filled must then render the
// golden report without computing a point.
func probeFleet(ctx context.Context, e *env, o *outcome) error {
	tr := e.tr
	root := tr.begin(0, "fleet")
	defer tr.end(root, nil)
	dir, err := e.dir("fleet")
	if err != nil {
		return err
	}
	id := tr.begin(root, "stserve start")
	srvs, err := startServers(ctx, e, 2, "-store", dir, "-queue", "2")
	tr.end(id, nil)
	if err != nil {
		return err
	}
	defer stopServers(srvs)
	o.set("stserve.ready_ms", msOf(maxReady(srvs)))
	pts, err := sim.EnumerateGrid("all", "", sim.Options{Instructions: e.sc.warmN})
	if err != nil {
		return err
	}
	leases, err := grid.NewManager(dir, nil, 0)
	if err != nil {
		return err
	}
	st, err := store.Open(dir, nil)
	if err != nil {
		return err
	}
	id = tr.begin(root, "fleet Run")
	rt := &timingRT{next: http.DefaultTransport.(*http.Transport).Clone(), tr: tr, parent: id}
	defer rt.next.CloseIdleConnections()
	rep, err := fleet.Run(ctx, fleet.Options{
		Workers:   []string{srvs[0].addr, srvs[1].addr},
		Spec:      fleet.GridSpec{Exp: "all", N: e.sc.warmN, Depth: 14, KB: 16},
		Points:    pts,
		Transport: rt,
		Leases:    leases,
		Store:     st,
		Owner:     fmt.Sprintf("stbench-pid%d", os.Getpid()),
	})
	tr.end(id, map[string]int64{"remote": int64(rep.Remote), "local": int64(rep.Local), "retries": int64(rep.RetriesUsed)})
	if err != nil {
		return err
	}
	o.check(rep.Failed == 0 && rep.Stored+rep.Remote+rep.Local == rep.Points,
		"fleet.Run: %d points, %d stored, %d remote, %d local, %d failed", rep.Points, rep.Stored, rep.Remote, rep.Local, rep.Failed)
	o.set("fleet.request_ms_p50", median(ms(rt.durs)))
	o.set("fleet.request_ms_p99", percentile(ms(rt.durs), 99))
	o.set("fleet.remote_points", float64(rep.Remote))
	o.set("fleet.local_points", float64(rep.Local))
	o.set("fleet.retries", float64(rep.RetriesUsed))
	o.set("fleet.hedges", float64(rep.Hedges))
	o.set("fleet.steals", float64(rep.Steals))

	sum, ts, err := renderFromStore(ctx, dir, e.sc.warmN)
	if err != nil {
		return err
	}
	o.check(ts.MemMisses == 0, "the fleet's store lacked %d points", ts.MemMisses)
	return e.checkSum(o, "render of the fleet's store", sum, e.sc.warmN)
}

// timingRT times every /v1/compute round trip of a fleet run.
type timingRT struct {
	next   *http.Transport
	tr     *tracer
	parent int
	mu     sync.Mutex
	durs   []time.Duration
}

func (t *timingRT) RoundTrip(req *http.Request) (*http.Response, error) {
	id := t.tr.begin(t.parent, "fleet "+req.URL.Path)
	t0 := time.Now()
	resp, err := t.next.RoundTrip(req)
	d := time.Since(t0)
	t.tr.end(id, nil)
	if req.URL.Path == "/v1/compute" {
		t.mu.Lock()
		t.durs = append(t.durs, d)
		t.mu.Unlock()
	}
	return resp, err
}

// statszReply is the part of stserve's /statsz the probe reads.
type statszReply struct {
	Requests struct {
		Shed uint64 `json:"shed"`
	} `json:"requests"`
	Queue struct {
		Depth int `json:"depth"`
	} `json:"queue"`
	RetriedAttempts uint64 `json:"retried_attempts"`
}

func statsz(ctx context.Context, hc *http.Client, s *server) (statszReply, error) {
	var r statszReply
	status, body, err := get(ctx, hc, s.url("/statsz"))
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("/statsz: status %d", status)
	}
	if err == nil {
		err = json.Unmarshal(body, &r)
	}
	return r, err
}
