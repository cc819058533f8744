// Package sim ties the substrates together into runnable experiments: it
// owns the simulation configuration (Table 3 defaults), executes single
// runs (workload + predictor + estimator + policy + pipeline + power meter),
// compares runs against baselines with the paper's metrics (speedup, power
// savings, energy savings, energy-delay improvement), and defines every
// experiment of the evaluation section (Figures 1 and 3-7, Tables 1-3).
//
// # Run contexts
//
// The unit of execution is the Runner, a reusable run context that owns one
// pipeline, branch predictor, confidence estimator, throttle controller, and
// power meter. Runner.Run executes any number of (Config, Profile) pairs
// back-to-back, resetting (rather than reallocating) every component between
// runs; structural pieces are rebuilt only when the configuration they
// depend on actually changes. A reset component restores its exact as-new
// state, so results are bit-identical whether a Runner is fresh or reused —
// determinism tests enforce this.
//
// All experiment drivers (Run, RunAllE, RunFigure, DepthSweep, SizeSweep, and
// the table/confidence harnesses built on them) draw Runners from one shared
// pool: worker goroutines lease a Runner for their lifetime and return it
// when the job list drains, so figure-scale fan-out reuses a handful of
// simulator instances instead of constructing one per (experiment,
// benchmark) pair. Because every run starts from an identical reset state,
// experiment results are independent of GOMAXPROCS and of which pooled
// Runner served them.
//
// # Result memoization
//
// Behind the Runner pool sits a process-wide memoizing result cache keyed by
// canonicalized (Config, Profile) — see resultcache.go. Since runs are pure
// functions of their inputs, every driver consults it before simulating, so
// the overlapping baselines of the figure and sweep grids (and repeated
// invocations in one process) are simulated exactly once. SetResultCaching
// disables it for raw-throughput measurement; WriteCacheSummary reports the
// reuse counters behind the commands' -v flag.
package sim

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"

	"selthrottle/internal/bpred"
	"selthrottle/internal/conf"
	"selthrottle/internal/core"
	"selthrottle/internal/pipe"
	"selthrottle/internal/power"
	"selthrottle/internal/prog"
)

// EstimatorKind selects the confidence estimator for a run.
type EstimatorKind string

// Estimator kinds.
const (
	EstBPRU EstimatorKind = "bpru" // the paper's estimator (Selective Throttling)
	EstJRS  EstimatorKind = "jrs"  // Manne et al.'s estimator (Pipeline Gating)
)

// Config describes one simulation run.
type Config struct {
	Pipe pipe.Config

	PredBytes int // gshare size (paper baseline: 8 KB)
	ConfBytes int // confidence estimator size (paper baseline: 8 KB)

	Estimator    EstimatorKind
	JRSThreshold int // MDC threshold (paper: 12)

	Policy core.Policy

	Instructions uint64 // measured instructions
	Warmup       uint64 // instructions run before measurement starts
}

// Default returns the paper's baseline configuration: Table 3, 14 stages,
// 8 KB gshare, 8 KB BPRU, no throttling.
func Default() Config {
	return Config{
		Pipe:         pipe.Default(),
		PredBytes:    8 << 10,
		ConfBytes:    8 << 10,
		Estimator:    EstBPRU,
		JRSThreshold: 12,
		Policy:       core.Baseline(),
		Instructions: prog.DefaultInstructions,
		Warmup:       prog.DefaultInstructions / 4,
	}
}

// Result is the outcome of one run on one benchmark.
type Result struct {
	Benchmark string
	Config    Config

	Stats pipe.Stats   // measured-interval statistics
	Power power.Report // measured-interval energy breakdown

	IPC      float64
	MissRate float64
	Seconds  float64
	Energy   float64 // joules
	EDelay   float64 // joule-seconds
	AvgPower float64 // watts
}

// newEstimator builds the configured estimator.
func newEstimator(cfg Config) conf.Estimator {
	switch cfg.Estimator {
	case EstJRS:
		return conf.NewJRS(cfg.ConfBytes, cfg.JRSThreshold)
	default:
		return conf.NewBPRU(cfg.ConfBytes)
	}
}

// Runner is a reusable run context: one pipeline plus its collaborators,
// able to execute many (Config, Profile) pairs back-to-back. Between runs
// every component is Reset in place; a component is reconstructed only when
// the part of the configuration it depends on changes (pipeline structure,
// predictor size, estimator kind/size). A Runner is not safe for concurrent
// use; the package's drivers give each worker goroutine its own.
type Runner struct {
	// Construction keys: which configuration the cached components match.
	pipeCfg   pipe.Config
	predBytes int
	estKind   EstimatorKind
	estBytes  int
	estThresh int

	walker *prog.Walker
	pred   *bpred.Gshare
	est    conf.Estimator
	ctrl   *core.Controller
	meter  *power.Meter
	pl     *pipe.Pipeline
}

// NewRunner returns an empty run context; components are built lazily on the
// first Run and recycled afterwards.
func NewRunner() *Runner { return &Runner{} }

// Run executes one configuration on one benchmark profile. The first
// cfg.Warmup instructions train predictors and caches; measurement covers
// the next cfg.Instructions. Results are bit-identical to a run on a freshly
// constructed Runner: every reused component restores its exact as-new
// state. Run is the legacy fail-fast wrapper around RunE: any terminal
// failure is raised as a *pipe.RunError panic.
func (r *Runner) Run(cfg Config, profile prog.Profile) Result {
	res, err := r.RunE(context.Background(), cfg, profile)
	if err != nil {
		panic(err) // fail-fast: legacy contract, typed *RunError for Guard
	}
	return res
}

// RunE executes one configuration on one benchmark profile under ctx,
// returning the result or the terminal failure as an error (a *pipe.RunError
// for simulator failures — deadlock, invariant panic, injected fault — or
// the context's own error if ctx was already done on entry). When ctx
// carries a deadline or cancellation, a watchdog goroutine translates
// ctx.Done into the pipeline's cooperative Cancel, stopping a runaway point
// mid-run; the goroutine provably exits before RunE returns.
//
// On a clean error (deadlock, cancellation) the Runner remains reusable: the
// next run Resets every component as usual. After a recovered panic the
// machine's internal state is undefined, so the Runner discards its cached
// components and the next run rebuilds them from scratch.
func (r *Runner) RunE(ctx context.Context, cfg Config, profile prog.Profile) (res Result, err error) {
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	program := getProgram(profile)
	if r.walker == nil {
		r.walker = prog.NewWalker(program)
	} else {
		r.walker.Reset(program)
	}
	if r.pred == nil || r.predBytes != cfg.PredBytes {
		r.pred, r.predBytes = bpred.NewGshare(cfg.PredBytes), cfg.PredBytes
	} else {
		r.pred.Reset()
	}
	if r.est == nil || r.estKind != cfg.Estimator ||
		r.estBytes != cfg.ConfBytes || r.estThresh != cfg.JRSThreshold {
		r.est = newEstimator(cfg)
		r.estKind, r.estBytes, r.estThresh = cfg.Estimator, cfg.ConfBytes, cfg.JRSThreshold
	} else {
		r.est.Reset()
	}
	if r.ctrl == nil {
		r.ctrl = core.NewController(cfg.Policy)
	} else {
		r.ctrl.Reset(cfg.Policy)
	}
	if r.meter == nil {
		r.meter = &power.Meter{}
	} else {
		r.meter.Reset()
	}
	if r.pl == nil || r.pipeCfg != cfg.Pipe {
		r.pl = pipe.New(cfg.Pipe, r.walker, r.pred, r.est, r.ctrl, r.meter)
		r.pipeCfg = cfg.Pipe
	} else {
		r.pl.Reset(r.walker, r.pred, r.est, r.ctrl, r.meter)
	}

	pl, meter := r.pl, r.meter

	// Deadline watchdog: translate ctx.Done into the pipeline's cooperative
	// Cancel. The stop/exited pair guarantees the goroutine has exited
	// before RunE returns — a canceled grid must not leak watchdogs, and a
	// pooled Runner must not carry one into its next lease. Background-like
	// contexts (nil Done) skip the goroutine entirely, keeping the benchmark
	// hot path allocation- and goroutine-free.
	if done := ctx.Done(); done != nil {
		stop := make(chan struct{})
		exited := make(chan struct{})
		go func() {
			defer close(exited)
			select {
			case <-done:
				pl.Cancel()
			case <-stop:
			}
		}()
		defer func() {
			close(stop)
			<-exited
		}()
	}
	// Safety net for panics outside the pipeline's own recover (component
	// construction, analysis): convert to an error and poison the Runner.
	defer func() {
		if rec := recover(); rec != nil {
			r.discard()
			if e, ok := rec.(error); ok {
				err = e
			} else {
				err = fmt.Errorf("sim: run panicked: %v", rec)
			}
		}
	}()

	if _, err := pl.RunE(cfg.Warmup); err != nil {
		return Result{}, r.failed(ctx, err)
	}
	meterAtWarm := *meter
	statsAtWarm := pl.Stats

	if _, err := pl.RunE(cfg.Warmup + cfg.Instructions); err != nil {
		return Result{}, r.failed(ctx, err)
	}

	delta := subMeter(*meter, meterAtWarm)
	stats := subStats(pl.Stats, statsAtWarm)

	params := power.DefaultParams()
	report := delta.Analyze(params)

	return Result{
		Benchmark: profile.Name,
		Config:    cfg,
		Stats:     stats,
		Power:     report,
		IPC:       stats.IPC(),
		MissRate:  stats.MissRate(),
		Seconds:   report.Seconds,
		Energy:    report.TotalEnergy,
		EDelay:    report.EnergyDelay,
		AvgPower:  report.AvgPower,
	}, nil
}

// failed post-processes a pipeline run error: a cancellation is annotated
// with the context's error (so errors.Is(err, context.DeadlineExceeded)
// works through the RunError), and a recovered panic or wrong-path commit —
// after which the machine's internal state is undefined — poisons the Runner
// so the next run rebuilds every component instead of Resetting corrupt
// state.
func (r *Runner) failed(ctx context.Context, err error) error {
	if re, ok := pipe.AsRunError(err); ok {
		switch re.Kind {
		case pipe.ErrCanceled:
			if re.Cause == nil {
				re.Cause = ctx.Err()
			}
		case pipe.ErrPanic, pipe.ErrWrongPathCommit:
			r.discard()
		}
	}
	return err
}

// discard drops every cached component and construction key: the next run
// builds the Runner from scratch, exactly as if it were new. Used after
// recovered panics, when Reset cannot be trusted to restore a corrupt
// machine.
func (r *Runner) discard() { *r = Runner{} }

// runnerPool shares Runners across every driver in the package. Workers
// lease a Runner for a whole job list; one-shot Run calls borrow and return
// immediately. Pooled Runners carry no observable state between runs (the
// Reset path restores exact as-new behaviour), so sharing is safe.
var runnerPool = sync.Pool{New: func() any { return NewRunner() }}

// Run executes one configuration on one benchmark profile using a pooled
// run context, consulting the process-wide result cache first: a point
// already simulated in this process is returned without re-simulation
// (disable with SetResultCaching for raw-throughput measurements).
func Run(cfg Config, profile prog.Profile) Result {
	r := runnerPool.Get().(*Runner)
	defer runnerPool.Put(r)
	return runCached(r, cfg, profile)
}

// runJobs executes jobs 0..n-1 across a bounded worker pool. Each worker
// leases one pooled Runner for its lifetime, so a job list of any size costs
// at most GOMAXPROCS simulator instances. Job outputs must be written to
// per-index slots by the callback; ordering across workers is unspecified
// but every job's result is deterministic (runs are independent and Runners
// reset fully), so callers' outputs never depend on scheduling.
func runJobs(n int, job func(r *Runner, i int)) {
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		if n > 0 {
			r := runnerPool.Get().(*Runner)
			for i := 0; i < n; i++ {
				job(r, i)
			}
			runnerPool.Put(r)
		}
		return
	}
	jobs := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			r := runnerPool.Get().(*Runner)
			defer runnerPool.Put(r)
			for i := range jobs {
				job(r, i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
}

// programCache memoizes generated programs: every experiment reuses the same
// eight CFGs, and generation cost would otherwise dominate short test runs.
// The key is a comparable struct (not a formatted string) so the per-Run
// lookup allocates nothing.
type programKey struct {
	name        string
	seed        uint64
	noise, hard float64
}

var (
	programMu    sync.RWMutex
	programCache = map[programKey]*prog.Program{}
)

func getProgram(profile prog.Profile) *prog.Program {
	key := programKey{profile.Name, profile.Seed, profile.NoiseScale(), profile.HardFreq()}
	programMu.RLock()
	p := programCache[key]
	programMu.RUnlock()
	if p != nil {
		return p
	}
	generated := prog.Generate(profile)
	programMu.Lock()
	if p = programCache[key]; p == nil {
		p = generated
		programCache[key] = p
	}
	programMu.Unlock()
	return p
}

// subMeter returns a-b field-wise (measurement-interval activity).
func subMeter(a, b power.Meter) power.Meter {
	out := a
	out.Cycles -= b.Cycles
	for u := range out.Events {
		out.Events[u] -= b.Events[u]
		out.Wasted[u] -= b.Wasted[u]
	}
	return out
}

// subStats returns a-b field-wise.
func subStats(a, b pipe.Stats) pipe.Stats {
	out := a
	out.Cycles -= b.Cycles
	out.Committed -= b.Committed
	out.Fetched -= b.Fetched
	out.WrongPathFetched -= b.WrongPathFetched
	out.WrongPathDecoded -= b.WrongPathDecoded
	out.WrongPathDispatched -= b.WrongPathDispatched
	out.WrongPathIssued -= b.WrongPathIssued
	out.CondBranches -= b.CondBranches
	out.Mispredicts -= b.Mispredicts
	out.FetchGatedCycles -= b.FetchGatedCycles
	out.DecodeGatedCycles -= b.DecodeGatedCycles
	out.NoSelectStalls -= b.NoSelectStalls
	out.TrueFlushes -= b.TrueFlushes
	out.ResolveLatTotal -= b.ResolveLatTotal
	out.ResolveWindowWait -= b.ResolveWindowWait
	out.ResolveIssueWait -= b.ResolveIssueWait
	out.FetchIdleHeld -= b.FetchIdleHeld
	out.FetchIdleBackPressure -= b.FetchIdleBackPressure
	out.Quality.Mispred -= b.Quality.Mispred
	out.Quality.MispredLow -= b.Quality.MispredLow
	out.Quality.LowLabeled -= b.Quality.LowLabeled
	out.Quality.Total -= b.Quality.Total
	for i := range out.Quality.PerClassTotal {
		out.Quality.PerClassTotal[i] -= b.Quality.PerClassTotal[i]
		out.Quality.PerClassWrong[i] -= b.Quality.PerClassWrong[i]
	}
	return out
}

// Comparison holds the paper's four headline metrics for one experiment run
// against its baseline (same benchmark, same structural configuration).
type Comparison struct {
	Benchmark string

	Speedup       float64 // baseline time / experiment time (<1 = slowdown)
	PowerSaving   float64 // percent
	EnergySaving  float64 // percent
	EDImprovement float64 // percent
}

// ratio returns a/b, or 0 when the quotient is undefined (zero or
// non-finite operands). Degenerate runs — zero measured cycles, zero energy
// — must yield well-defined zeros rather than NaN/Inf that would leak into
// figure output and poison every average they touch.
func ratio(a, b float64) float64 {
	if b == 0 || math.IsNaN(b) || math.IsInf(b, 0) || math.IsNaN(a) || math.IsInf(a, 0) {
		return 0
	}
	return a / b
}

// savingPct returns the percent saving of x against base (100*(1 - x/base)),
// or 0 when either operand is zero-denominator-degenerate or non-finite (a
// zero-cycle run reports NaN/Inf average power; the saving against or of
// such a run is defined as 0, never NaN/Inf).
func savingPct(base, x float64) float64 {
	if base == 0 || math.IsNaN(base) || math.IsInf(base, 0) || math.IsNaN(x) || math.IsInf(x, 0) {
		return 0
	}
	return 100 * (1 - x/base)
}

// Compare computes the headline metrics of x against base. Zero-baseline
// denominators produce well-defined zeros, never NaN/Inf.
func Compare(base, x Result) Comparison {
	return Comparison{
		Benchmark:     x.Benchmark,
		Speedup:       ratio(base.Seconds, x.Seconds),
		PowerSaving:   savingPct(base.AvgPower, x.AvgPower),
		EnergySaving:  savingPct(base.Energy, x.Energy),
		EDImprovement: savingPct(base.EDelay, x.EDelay),
	}
}

// AverageComparison averages metrics across benchmarks (arithmetic mean of
// percentages and of the speedup ratio, matching the paper's "Average"
// bars). An empty slice yields a zero Comparison, and non-finite entries —
// which can only come from degenerate runs — are excluded per metric so one
// poisoned cell cannot turn a whole figure row into NaN.
func AverageComparison(cs []Comparison) Comparison {
	out := Comparison{Benchmark: "average"}
	var speedup, power, energy, ed mean
	for _, c := range cs {
		speedup.add(c.Speedup)
		power.add(c.PowerSaving)
		energy.add(c.EnergySaving)
		ed.add(c.EDImprovement)
	}
	out.Speedup = speedup.value()
	out.PowerSaving = power.value()
	out.EnergySaving = energy.value()
	out.EDImprovement = ed.value()
	return out
}

// mean accumulates finite samples only.
type mean struct {
	sum float64
	n   int
}

func (m *mean) add(v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return
	}
	m.sum += v
	m.n++
}

func (m *mean) value() float64 {
	if m.n == 0 {
		return 0
	}
	return m.sum / float64(m.n)
}
