// Command stbench is the repository's end-to-end benchmark. It builds
// hpca03, stserve and stworker from the current tree, drives one workload
// against those binaries as a user would, checks every output for
// correctness, and prints each metric by name and unit. The last line of
// standard output is one JSON object with the keys correct, attempted,
// failed and metrics.
//
// Usage, from the repository root (run.sh builds the driver first):
//
//	bash cmd/stbench/run.sh --workload grid-warm --seed 1 --seconds 25 --trace 0
//	bash cmd/stbench/run.sh --workload serve-mixed --trace 1
//	bash cmd/stbench/run.sh --runs 5 --seconds 25
//	bash cmd/stbench/run.sh --update-golden
//
// --trace 1 replaces the end-to-end measurement with the per-layer probe
// suite and writes its spans as NDJSON to --trace-file. --runs K repeats the
// end-to-end runs with consecutive seeds and reports each metric's quartiles
// against BENCHMARK.json's bounds. See README.md for the workloads and
// metrics.
package main

import (
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd is what a user of the tools sees; every workload reports all of
// it with tracing off. BENCHMARK.json's end_to_end list mirrors it.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"latency_p50_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"cpu_ms_per_op", "ms"},
	{"peak_rss_mb", "MB"},
}

// perLayer is what the traced run reports; BENCHMARK.json's per_layer list
// mirrors it. README.md says which end-to-end metric each should move.
var perLayer = []metricDef{
	{"prog.nextgroup_ns_per_inst", "ns"},
	{"prog.generate_ms", "ms"},
	{"pipe.host_ns_per_inst", "ns"},
	{"pipe.host_ns_per_cycle", "ns"},
	{"pipe.sim_cycles", "count"},
	{"pipe.committed", "count"},
	{"pipe.fetched_per_committed", "ratio"},
	{"pipe.wrong_path_fetch_frac", "ratio"},
	{"pipe.flushes", "count"},
	{"pipe.fetch_gated_cycles", "count"},
	{"pipe.noselect_stalls", "count"},
	{"power.wasted_energy_frac", "ratio"},
	{"sim.point_ms_p50", "ms"},
	{"sim.point_ms_p99", "ms"},
	{"sim.point_minsts_per_s", "Minst/s"},
	{"sim.cache_hit_us", "us"},
	{"sim.cache_computed", "count"},
	{"sim.cache_mem_hits", "count"},
	{"sim.cache_disk_hits", "count"},
	{"sim.render_ms", "ms"},
	{"sim.enumerate_ms", "ms"},
	{"sim.grid_cpu_util", "ratio"},
	{"sim.paper_err_pp", "pp"},
	{"store.open_ms", "ms"},
	{"store.get_us_p50", "us"},
	{"store.get_us_p99", "us"},
	{"store.put_ms_p50", "ms"},
	{"store.put_ms_p99", "ms"},
	{"store.entry_bytes", "bytes"},
	{"grid.claim_us_p50", "us"},
	{"grid.workers_wall_s", "s"},
	{"grid.coordinator_recomputed_points", "count"},
	{"fleet.request_ms_p50", "ms"},
	{"fleet.request_ms_p99", "ms"},
	{"fleet.remote_points", "count"},
	{"fleet.local_points", "count"},
	{"fleet.retries", "count"},
	{"fleet.hedges", "count"},
	{"fleet.steals", "count"},
	{"stserve.ready_ms", "ms"},
	{"stserve.hit_ms_p50", "ms"},
	{"stserve.hit_ms_p99", "ms"},
	{"stserve.miss_ms_p50", "ms"},
	{"stserve.miss_ms_p99", "ms"},
	{"stserve.shed", "count"},
	{"stserve.retried", "count"},
	{"stserve.queue_depth_max", "count"},
	{"hpca03.render_ms", "ms"},
	{"bench.achieved_rps", "1/s"},
	{"bench.gen_lag_p99_ms", "ms"},
	{"bench.trace_overhead_frac", "ratio"},
	{"bench.host_ref_ms", "ms"},
}

// workloadOrder lists the workloads; workloads maps each to its driver.
var (
	workloadOrder = []string{"grid-cold", "grid-warm", "serve-mixed", "fleet-2"}
	workloads     = map[string]func(context.Context, *env, *outcome) (measurement, error){
		"grid-cold":   gridCold,
		"grid-warm":   gridWarm,
		"serve-mixed": serveMixed,
		"fleet-2":     fleet2,
	}
)

// scale sizes every workload and probe. full is the benchmark; smoke keeps
// the same shapes at tiny instruction counts so the test suite can run all
// of them in seconds.
type scale struct {
	coldN        uint64        // grid-cold instructions per point
	warmN        uint64        // grid-warm, fleet-2 and the traced grid probes
	serveN       uint64        // serve-mixed instructions per point
	serveRate    float64       // serve-mixed Poisson arrivals per second
	setupSpawns  int           // start-ups timed per run for setup_s
	serveProbe   time.Duration // traced stserve probe length
	sampleN      uint64        // traced pipe sample: instructions per point
	samplePoints int           // traced pipe sample size
	walkInsts    int           // walker instructions per profile
	singleRuns   int           // BenchmarkSingleRun-shaped runs
	paperN       uint64        // instructions behind sim.paper_err_pp
	repeats      int           // repetitions of the cheap traced probes
	puts         int           // store puts into a fresh directory
}

var (
	full = scale{
		coldN: 100_000, warmN: 20_000, serveN: 20_000, serveRate: 200, setupSpawns: 50,
		serveProbe: 4 * time.Second, sampleN: 20_000, samplePoints: 48, walkInsts: 1_000_000,
		singleRuns: 50, paperN: 100_000, repeats: 5, puts: 64,
	}
	smoke = scale{
		coldN: 1000, warmN: 1000, serveN: 1000, serveRate: 50, setupSpawns: 3,
		serveProbe: time.Second, sampleN: 1000, samplePoints: 8, walkInsts: 20_000,
		singleRuns: 3, paperN: 1000, repeats: 2, puts: 8,
	}
)

// maxConns caps the load generator's concurrency: requests in flight,
// goroutines issuing them, and connections per server.
var maxConns = min(2, runtime.NumCPU())

// env is one run's context: where the binaries and scratch stores live, the
// scale and seed, the HTTP client every probe shares, and the tracer (nil
// with tracing off).
type env struct {
	root, bin, work string
	sc              scale
	seed            int64
	dur             time.Duration
	tr              *tracer
	speed           hostSpeed
	hc              *http.Client
	log             io.Writer
	golden          map[string]string // expected stdout SHA-256 by output name, this GOARCH
}

func (e *env) exe(name string) string { return filepath.Join(e.bin, name) }

// dir makes a fresh scratch directory under the run's work directory.
func (e *env) dir(name string) (string, error) {
	return os.MkdirTemp(e.work, name+"-")
}

// outcome accumulates one run's checked operations and metric values.
type outcome struct {
	attempted, failed int
	problems          []string
	values            map[string]float64
	unscaled          map[string]float64 // end-to-end values before host-speed scaling
}

// check counts one checked operation, and a failure when ok is false.
func (o *outcome) check(ok bool, format string, args ...any) {
	o.attempted++
	if !ok {
		o.failed++
		if len(o.problems) < 20 {
			o.problems = append(o.problems, fmt.Sprintf(format, args...))
		}
	}
}

func (o *outcome) set(name string, v float64) { o.values[name] = v }

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// result assembles the JSON result; every metric in defs must have been set
// to a finite value.
func (o *outcome) result(defs []metricDef) (result, error) {
	r := result{Attempted: o.attempted, Failed: o.failed, Metrics: map[string]metricValue{}}
	r.Correct = o.failed == 0 && o.attempted > 0
	for _, d := range defs {
		v, ok := o.values[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return r, fmt.Errorf("metric %s not measured (value %v)", d.name, v)
		}
		r.Metrics[d.name] = metricValue{v, d.unit}
	}
	return r, nil
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// run is the whole command; it returns the exit code. Children are stopped
// and scratch directories removed before it returns.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("stbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload: "+strings.Join(workloadOrder, ", ")+" (--runs: empty means all)")
	seed := fs.Int64("seed", 1, "seed of serve-mixed's request stream and the traced run's point sample")
	seconds := fs.Int("seconds", 25, "length of the measured phase in seconds")
	trace := fs.Int("trace", 0, "1 runs the per-layer probe suite instead of the end-to-end measurement")
	traceFile := fs.String("trace-file", "", "NDJSON span file of a traced run (default <build-dir>/trace-<workload>-<seed>.ndjson)")
	runs := fs.Int("runs", 0, "repeat the end-to-end run this many times with consecutive seeds and report quartiles")
	smokeScale := fs.Bool("smoke", false, "tiny instruction counts and short phases (tests)")
	updateGolden := fs.Bool("update-golden", false, "rewrite testdata/golden.json for this GOARCH from the current tree")
	root := fs.String("root", ".", "repository root")
	buildDir := fs.String("build-dir", ".bench_build", "directory for built binaries, scratch stores and traces")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 0 || *seconds < 1 || (*trace != 0 && *trace != 1) || *runs < 0 {
		fmt.Fprintln(stderr, "stbench: bad arguments; see -help")
		return 2
	}
	if !filepath.IsAbs(*buildDir) {
		*buildDir = filepath.Join(*root, *buildDir)
	}
	sc := full
	if *smokeScale {
		sc = smoke
	}
	if *runs > 0 {
		return repeat(ctx, stdout, stderr, repeatArgs{
			root: *root, buildDir: *buildDir, workload: *workload, runs: *runs,
			seed: *seed, seconds: *seconds, smoke: *smokeScale,
		})
	}
	if _, ok := workloads[*workload]; !ok && !*updateGolden {
		fmt.Fprintf(stderr, "stbench: unknown workload %q (want one of %s)\n", *workload, strings.Join(workloadOrder, ", "))
		return 2
	}
	if _, err := readSpec(*root); err != nil {
		fmt.Fprintf(stderr, "stbench: %v\n", err)
		return 1
	}

	e, cleanup, err := newEnv(ctx, *root, *buildDir, sc, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "stbench: %v\n", err)
		return 1
	}
	defer cleanup()
	if *updateGolden {
		if err := writeGolden(ctx, e); err != nil {
			fmt.Fprintf(stderr, "stbench: update golden: %v\n", err)
			return 1
		}
		return 0
	}
	e.seed = *seed
	e.dur = time.Duration(*seconds) * time.Second

	o := &outcome{values: map[string]float64{}}
	stolen := "unknown" // share of the host's CPU time stolen during the workload
	defs := endToEnd
	if *trace == 1 {
		defs = perLayer
		e.tr = newTracer(*workload)
		e.speed.sample(refNear)
		err = layerSuite(ctx, e, o)
		e.speed.sample(refNear)
		o.set("bench.host_ref_ms", msOf(refNominal)/e.speed.runFactor())
		path := *traceFile
		if path == "" {
			path = filepath.Join(*buildDir, fmt.Sprintf("trace-%s-%d.ndjson", *workload, *seed))
		}
		if werr := e.tr.write(path, stderr); werr != nil && err == nil {
			err = werr
		}
	} else {
		var m measurement
		steal0, total0, serr := cpuTicks()
		if m, err = workloads[*workload](ctx, e, o); err == nil {
			o.values = endToEndValues(m, func(x interval) float64 { return e.speed.factor(x.from, x.to) }, e.speed.runFactor())
			o.unscaled = endToEndValues(m, func(interval) float64 { return 1 }, 1)
		}
		steal1, total1, serr1 := cpuTicks()
		if serr == nil && serr1 == nil && total1 > total0 {
			stolen = fmt.Sprintf("%.1f%%", 100*float64(steal1-steal0)/float64(total1-total0))
		}
	}
	if err != nil {
		fmt.Fprintf(stderr, "stbench: %s: %v\n", *workload, err)
		return 1
	}
	res, err := o.result(defs)
	if err != nil {
		fmt.Fprintf(stderr, "stbench: %s: %v\n", *workload, err)
		return 1
	}
	for _, p := range o.problems {
		fmt.Fprintf(stderr, "stbench: FAILED %s\n", p)
	}
	fmt.Fprintf(stdout, "workload %s  seed %d  trace %d  attempted %d  failed %d  correct %v\n",
		*workload, *seed, *trace, res.Attempted, res.Failed, res.Correct)
	if *trace == 0 {
		fmt.Fprintf(stdout, "  times scaled to a nominal host; the run's host speed factor is %.4f (%d reference kernels, median %.4f ms CPU)\n",
			e.speed.runFactor(), len(e.speed.samples), msOf(refNominal)/e.speed.runFactor())
		fmt.Fprintf(stdout, "  CPU time stolen by the hypervisor during the run, not scaled for: %s\n", stolen)
		fmt.Fprintf(stdout, "  %-36s %14s %14s\n", "metric", "scaled", "unscaled")
	}
	for _, d := range defs {
		fmt.Fprintf(stdout, "  %-36s %14.6g", d.name, res.Metrics[d.name].Value)
		if v, ok := o.unscaled[d.name]; ok {
			fmt.Fprintf(stdout, " %14.6g", v)
		}
		fmt.Fprintf(stdout, " %s\n", d.unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "stbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// newEnv builds the binaries from the tree at root into a fresh scratch
// directory under buildDir. The returned cleanup removes that directory.
func newEnv(ctx context.Context, root, buildDir string, sc scale, log io.Writer) (*env, func(), error) {
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return nil, nil, err
	}
	work, err := os.MkdirTemp(buildDir, "run-")
	if err != nil {
		return nil, nil, err
	}
	transport := &http.Transport{MaxConnsPerHost: maxConns, MaxIdleConnsPerHost: maxConns, DisableCompression: true}
	e := &env{
		root: root, bin: filepath.Join(work, "bin"), work: work, sc: sc, log: log,
		hc: &http.Client{Transport: transport},
	}
	cleanup := func() {
		transport.CloseIdleConnections()
		os.RemoveAll(work)
	}
	var all map[string]map[string]string
	if err := json.Unmarshal(goldenFile, &all); err != nil {
		cleanup()
		return nil, nil, fmt.Errorf("testdata/golden.json: %w", err)
	}
	e.golden = all[runtime.GOARCH]
	if e.golden == nil {
		e.golden = map[string]string{}
	}
	cmd := exec.CommandContext(ctx, "go", "build", "-o", e.bin+string(filepath.Separator),
		"./cmd/hpca03", "./cmd/stserve", "./cmd/stworker")
	cmd.Dir = root
	cmd.Stdout, cmd.Stderr = log, log
	if err := cmd.Run(); err != nil {
		cleanup()
		return nil, nil, fmt.Errorf("build the tree at %s: %w", root, err)
	}
	return e, cleanup, nil
}

//go:embed testdata/golden.json
var goldenFile []byte

// goldenName names an hpca03 output in testdata/golden.json: "table3" for
// n == 0, else the -exp all report at -n n.
func goldenName(n uint64) string {
	if n == 0 {
		return "table3"
	}
	return fmt.Sprintf("all-n%d", n)
}

// want returns the expected stdout SHA-256 of goldenName(n).
func (e *env) want(n uint64) (string, error) {
	if h, ok := e.golden[goldenName(n)]; ok {
		return h, nil
	}
	return "", fmt.Errorf("no golden hash for %s on %s; run with --update-golden", goldenName(n), runtime.GOARCH)
}

// checkOutput counts one hpca03 output as an operation, failed unless its
// SHA-256 matches the golden for goldenName(n).
func (e *env) checkOutput(o *outcome, what string, stdout []byte, n uint64) error {
	sum := sha256.Sum256(stdout)
	return e.checkSum(o, what, sum[:], n)
}

// checkSum is checkOutput for an output already hashed.
func (e *env) checkSum(o *outcome, what string, sum []byte, n uint64) error {
	want, err := e.want(n)
	if err != nil {
		return err
	}
	got := hex.EncodeToString(sum)
	o.check(got == want, "%s: stdout sha256 %.12s, want %.12s (%s)", what, got, want, goldenName(n))
	return nil
}

// writeGolden records this GOARCH's hashes of every output the benchmark
// checks, at both scales, keeping other architectures' entries.
func writeGolden(ctx context.Context, e *env) error {
	var all map[string]map[string]string
	if err := json.Unmarshal(goldenFile, &all); err != nil {
		return err
	}
	if all == nil {
		all = map[string]map[string]string{}
	}
	hashes := map[string]string{}
	ns := []uint64{0, full.coldN, full.warmN, smoke.coldN, smoke.warmN}
	slices.Sort(ns)
	for _, n := range slices.Compact(ns) {
		args := []string{"-exp", "all", "-n", strconv.FormatUint(n, 10)}
		if n == 0 {
			args = []string{"-exp", "table3"}
		}
		p, err := runProc(ctx, e.exe("hpca03"), args...)
		if err != nil {
			return err
		}
		sum := sha256.Sum256(p.stdout)
		hashes[goldenName(n)] = hex.EncodeToString(sum[:])
		fmt.Fprintf(e.log, "stbench: %s %x\n", goldenName(n), sum)
	}
	all[runtime.GOARCH] = hashes
	data, err := json.MarshalIndent(all, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(e.root, "cmd", "stbench", "testdata", "golden.json"), append(data, '\n'), 0o644)
}

// repeatArgs configures the --runs repeatability mode.
type repeatArgs struct {
	root, buildDir, workload string
	runs, seconds            int
	seed                     int64
	smoke                    bool
}

// repeat runs the end-to-end benchmark a.runs times per workload, each a
// fresh process with the next seed, and prints every metric's median and
// quartiles. A metric whose spread (interquartile range over median)
// exceeds its BENCHMARK.json bound is flagged.
func repeat(ctx context.Context, stdout, stderr io.Writer, a repeatArgs) int {
	spec, err := readSpec(a.root)
	if err != nil {
		fmt.Fprintf(stderr, "stbench: %v\n", err)
		return 1
	}
	bounds := map[string]float64{}
	for _, m := range spec.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	names := workloadOrder
	if a.workload != "" {
		if _, ok := workloads[a.workload]; !ok {
			fmt.Fprintf(stderr, "stbench: unknown workload %q\n", a.workload)
			return 2
		}
		names = []string{a.workload}
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "stbench: %v\n", err)
		return 1
	}
	for _, w := range names {
		vals := map[string][]float64{}
		for i := 0; i < a.runs; i++ {
			args := []string{"--workload", w, "--seed", strconv.FormatInt(a.seed+int64(i), 10),
				"--seconds", strconv.Itoa(a.seconds), "--trace", "0", "--root", a.root, "--build-dir", a.buildDir}
			if a.smoke {
				args = append(args, "--smoke")
			}
			cmd := exec.CommandContext(ctx, self, args...)
			cmd.Stderr = stderr
			out, err := cmd.Output()
			res, perr := parseResult(out)
			if err == nil {
				err = perr
			}
			if err != nil {
				fmt.Fprintf(stderr, "stbench: %s run %d: %v\n", w, i+1, err)
				return 1
			}
			line := fmt.Sprintf("stbench: %s seed %d:", w, a.seed+int64(i))
			for _, d := range endToEnd {
				vals[d.name] = append(vals[d.name], res.Metrics[d.name].Value)
				line += fmt.Sprintf(" %s=%.6g", d.name, res.Metrics[d.name].Value)
			}
			fmt.Fprintln(stderr, line)
		}
		fmt.Fprintf(stdout, "%s: %d runs, seeds %d..%d\n", w, a.runs, a.seed, a.seed+int64(a.runs)-1)
		fmt.Fprintf(stdout, "  %-16s %12s %12s %12s %8s %6s\n", "metric", "median", "q1", "q3", "spread", "bound")
		for _, d := range endToEnd {
			q1, med, q3 := quartiles(vals[d.name])
			spread := (q3 - q1) / med
			flagged := ""
			if spread > bounds[d.name] {
				flagged = "  SPREAD > BOUND"
			}
			fmt.Fprintf(stdout, "  %-16s %12.6g %12.6g %12.6g %7.1f%% %5.0f%%%s\n",
				d.name, med, q1, q3, 100*spread, 100*bounds[d.name], flagged)
		}
	}
	return 0
}

// benchmarkSpec is the part of BENCHMARK.json that must agree with the
// driver: the workloads, and every metric's name and unit in order.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Bound float64 `json:"bound"` // end-to-end metrics only
}

// readSpec reads root's BENCHMARK.json and checks that it lists exactly
// the workloads and metrics the driver runs and emits, so every run fails
// before measuring when the two drift apart.
func readSpec(root string) (benchmarkSpec, error) {
	var spec benchmarkSpec
	path := filepath.Join(root, "BENCHMARK.json")
	data, err := os.ReadFile(path)
	if err != nil {
		return spec, err
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		return spec, fmt.Errorf("%s: %w", path, err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloadOrder) {
		return spec, fmt.Errorf("%s lists workloads %v, the driver runs %v", path, names, workloadOrder)
	}
	for _, l := range []struct {
		key  string
		spec []specMetric
		code []metricDef
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		same := len(l.spec) == len(l.code)
		for i := 0; same && i < len(l.spec); i++ {
			same = l.spec[i].Name == l.code[i].name && l.spec[i].Unit == l.code[i].unit
		}
		if !same {
			return spec, fmt.Errorf("%s: %s lists %v, the driver emits %v", path, l.key, l.spec, l.code)
		}
	}
	return spec, nil
}

// parseResult decodes the JSON result on the last line of a run's output.
func parseResult(out []byte) (result, error) {
	var r result
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		return r, fmt.Errorf("no result line: %w", err)
	}
	if !r.Correct {
		return r, errors.New("run reported correct=false")
	}
	return r, nil
}
