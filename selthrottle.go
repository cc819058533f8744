// Package selthrottle is a from-scratch reproduction of "Power-Aware Control
// Speculation through Selective Throttling" (Aragón, González, González;
// HPCA-9, 2003): a cycle-level out-of-order superscalar simulator with a
// Wattch-style power model, branch prediction and confidence estimation
// substrates, the paper's Selective Throttling mechanism, the Pipeline
// Gating baseline, and a harness that regenerates every table and figure of
// the paper's evaluation.
//
// This root package is the public facade: it re-exports the simulation API
// from the internal packages so downstream users can run experiments without
// reaching into internal paths. The building blocks live in:
//
//   - internal/prog: synthetic SPECint-like workload substrate (Table 2)
//   - internal/bpred: gshare / bimodal predictors, BTB, RAS
//   - internal/conf: JRS and BPRU-style confidence estimation (§4.3)
//   - internal/cache: L1/L2 cache hierarchy with bus contention (Table 3)
//   - internal/pipe: the 8-wide out-of-order core, 6-28 stage front end
//   - internal/power: Wattch cc3-style per-unit power accounting (Table 1)
//   - internal/core: Selective Throttling policies, Pipeline Gating, oracles
//   - internal/sim: configurations, runs, metrics, and experiment series
//
// Quick start:
//
//	profile, _ := selthrottle.ProfileByName("go")
//	base := selthrottle.Run(selthrottle.DefaultConfig(), profile)
//	c2 := selthrottle.BestExperiment()
//	thr := selthrottle.Run(c2.Apply(selthrottle.DefaultConfig()), profile)
//	fmt.Println(selthrottle.Compare(base, thr))
//
// Run and the figure harnesses draw reusable run contexts from a shared
// pool, so back-to-back runs recycle the simulator instead of rebuilding it.
// Callers executing many configurations in their own loop can hold a context
// directly:
//
//	r := selthrottle.NewRunner()
//	for _, cfg := range configs {
//		results = append(results, r.Run(cfg, profile))
//	}
//
// A reused Runner resets every component to its exact as-new state between
// runs, so results are bit-identical to fresh construction.
//
// Simulation is a pure function of (Config, Profile), so Run and every
// figure/sweep harness additionally memoizes results in a process-wide
// cache: a point is simulated at most once per process, and the overlapping
// baselines of figure grids and sweeps are shared. Runner.Run bypasses the
// cache; SetResultCaching(false) disables it globally (for raw-throughput
// measurement), and CacheStats/ClearResultCache expose its reuse counters
// and memory bound.
//
// Terminal simulation failures (a deadlocked machine, an internal invariant
// violation) surface from the error-returning entry points — Runner.RunE and
// RunFigureE — as a typed *RunError carrying a diagnostic machine snapshot;
// the legacy Run entry points panic with the same value (wrap a top level in
// Guard to convert that into a report and an exit code). RunFigureE isolates
// failures per grid point and supervises each under Options.Supervise
// (per-point deadlines, bounded retries); see the README's "Failure
// semantics" section.
package selthrottle

import (
	"context"
	"io"

	"selthrottle/internal/core"
	"selthrottle/internal/pipe"
	"selthrottle/internal/prog"
	"selthrottle/internal/sim"
)

// Re-exported simulation types.
type (
	// Config describes one simulation run (processor, tables, policy).
	Config = sim.Config
	// Result is the outcome of one run on one benchmark.
	Result = sim.Result
	// Comparison holds the paper's four headline metrics against a baseline.
	Comparison = sim.Comparison
	// Experiment is one labeled configuration from the paper's evaluation.
	Experiment = sim.Experiment
	// Options controls figure-level reproductions.
	Options = sim.Options
	// Profile describes one synthetic benchmark (Table 2 calibration).
	Profile = prog.Profile
	// Policy maps confidence classes to throttling heuristics.
	Policy = core.Policy
	// Spec is one class's heuristic bundle (fetch/decode rate, no-select).
	Spec = core.Spec
	// Runner is a reusable run context: one simulator instance executing
	// many (Config, Profile) pairs back-to-back with Reset between runs.
	Runner = sim.Runner
	// RunError is a terminal run failure with a diagnostic snapshot of the
	// machine at the moment of failure (cycle, policy, occupancies, epoch
	// state, offending instruction). RunE returns it; Run panics with it.
	RunError = pipe.RunError
	// Supervisor is the per-point run policy of a supervised figure grid:
	// per-attempt deadlines and bounded retries (Options.Supervise).
	Supervisor = sim.Supervisor
	// PointStatus is one grid point's supervision outcome.
	PointStatus = sim.PointStatus
	// PointFailure locates one failed grid point and carries its error.
	PointFailure = sim.PointFailure
	// CacheTierStats is a snapshot of the tiered result cache's counters:
	// memory hits/misses/evictions, disk hits/puts/errors/quarantines.
	CacheTierStats = sim.CacheTierStats
)

// NewRunner returns an empty reusable run context; components are built on
// the first Run and recycled afterwards.
func NewRunner() *Runner { return sim.NewRunner() }

// DefaultConfig returns the paper's baseline configuration: the Table 3
// processor at 14 stages with an 8 KB gshare and an 8 KB BPRU estimator.
func DefaultConfig() Config { return sim.Default() }

// Profiles returns the eight benchmark profiles of Table 2.
func Profiles() []Profile { return prog.Profiles() }

// ProfileByName returns the named benchmark profile.
func ProfileByName(name string) (Profile, bool) { return prog.ProfileByName(name) }

// Run executes one configuration on one benchmark.
func Run(cfg Config, profile Profile) Result { return sim.Run(cfg, profile) }

// Compare computes speedup and power/energy/E-D savings of x against base.
func Compare(base, x Result) Comparison { return sim.Compare(base, x) }

// BestExperiment returns C2, the paper's recommended configuration.
func BestExperiment() Experiment { return sim.BestExperiment() }

// ExperimentByID looks up any experiment of the paper's evaluation
// (A1-A7, B1-B9, C1-C7, oracle-fetch/-decode/-select).
func ExperimentByID(id string) (Experiment, bool) { return sim.ExperimentByID(id) }

// RunFigure reproduces a full figure: every experiment against the baseline
// across all benchmarks.
func RunFigure(name string, exps []Experiment, opts Options) *sim.FigureResult {
	return sim.RunFigure(name, exps, opts)
}

// RunFigureE reproduces a figure under ctx with per-point failure isolation:
// a failed point becomes a per-point status and a Failures entry instead of a
// process-killing panic, healthy points are returned bit-identical to a clean
// run, and canceling ctx stops in-flight points cooperatively.
func RunFigureE(ctx context.Context, name string, exps []Experiment, opts Options) *sim.FigureResult {
	return sim.RunFigureE(ctx, name, exps, opts)
}

// AsRunError extracts a *RunError from err (directly or wrapped).
func AsRunError(err error) (*RunError, bool) { return pipe.AsRunError(err) }

// Guard runs f, converting an escaped *RunError panic (the legacy fail-fast
// API's failure mode) into a diagnostic report on w and exit code 1; other
// panics propagate unchanged.
func Guard(w io.Writer, name string, f func() int) int { return sim.Guard(w, name, f) }

// SetResultCaching enables or disables the process-wide result cache shared
// by Run and every figure/sweep harness, returning the previous setting. The
// cache never changes results (runs are pure), only whether a repeated
// (Config, Profile) point is re-simulated.
func SetResultCaching(on bool) (previous bool) { return sim.SetResultCaching(on) }

// CacheStats reports the process-wide result cache's hit/miss counters.
func CacheStats() (hits, misses uint64) { return sim.ResultCacheStats() }

// ClearResultCache empties the process-wide result cache, bounding memory in
// long-running processes that explore unbounded configuration spaces.
func ClearResultCache() { sim.ClearResultCache() }

// SetResultCacheLimit bounds the in-memory tier of the process-wide result
// cache to n entries (least-recently-used points are evicted past the bound;
// with a disk store attached they remain one disk read away). n <= 0 removes
// the bound: the tier grows without eviction. Returns the previous limit.
func SetResultCacheLimit(n int) (previous int) { return sim.SetResultCacheLimit(n) }

// UseDiskStore attaches a crash-safe persistent result store rooted at dir as
// the second tier of the process-wide result cache: memory, then disk, then
// compute. Completed points are published atomically (temp file, fsync,
// rename); corrupt or torn entries found at open are quarantined, and the
// count of recovered entries is returned. Disk errors after attachment
// degrade the affected point to compute-through — they never fail a run.
func UseDiskStore(dir string) (entries int, err error) { return sim.UseDiskStore(dir) }

// ResultCacheTierStats reports per-tier counters of the process-wide result
// cache (memory hits/misses/evictions, disk hits/puts/errors/quarantines).
func ResultCacheTierStats() CacheTierStats { return sim.ResultCacheTierStats() }
