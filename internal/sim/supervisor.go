package sim

// Run supervision: the failure-isolation layer between the experiment grids
// and the simulator. A figure or sweep fans out over (configuration x
// benchmark) points; before this layer, one deadlocked or buggy point
// panicked inside a worker goroutine and took the whole process down, losing
// every in-flight point. The Supervisor gives each point the failure
// semantics of a production service — isolation (a failed point is a
// per-point status, never a process death), per-attempt deadlines, bounded
// retry with exponential backoff for transient failures, and graceful
// degradation (a grid with K failed points still returns the other points
// plus a failure report) — the same discipline the paper's throttling
// applies inside the pipeline: slow the misbehaving stream, keep the rest at
// full speed.

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"time"

	"selthrottle/internal/pipe"
	"selthrottle/internal/prog"
	"selthrottle/internal/xrand"
)

// Supervisor is the per-point run policy of a figure/sweep grid. The zero
// value supervises minimally: one attempt per point, no deadline — failures
// are still isolated into per-point statuses.
type Supervisor struct {
	// Timeout bounds each attempt of each point (0 = no per-point
	// deadline). The point's pipeline is cooperatively canceled when the
	// deadline expires; the attempt reports a pipe.ErrCanceled RunError
	// wrapping context.DeadlineExceeded.
	Timeout time.Duration

	// Retries is the number of re-attempts after the first failure, granted
	// only to retryable failures (see pipe.RunError.Retryable: the
	// simulator is deterministic, so only causes that declare themselves
	// transient qualify). Terminal failures never retry.
	Retries int

	// Backoff is the delay before the first retry, doubling per subsequent
	// retry up to MaxBackoff (0 selects DefaultBackoff). The wait is
	// context-aware: a
	// canceled grid does not sit out its backoff. Each wait is jittered
	// into [backoff/2, backoff] by a per-point stream seeded from
	// JitterSeed, so a transient failure that hits many grid points at
	// once (one flaky dependency, one injected Scatter round) does not
	// retry in lockstep and re-create the very thundering herd the backoff
	// exists to avoid.
	Backoff time.Duration

	// JitterSeed seeds the backoff jitter (0 selects a fixed default
	// seed). The jitter stream is a pure function of (JitterSeed, point
	// identity), never of wall-clock or scheduling, so retry timing is
	// reproducible under a seed — the same discipline as faultinject's
	// plans.
	JitterSeed uint64

	// PointFault, when set, supplies a fault-injection hook per grid point
	// (nil = healthy). Stress suites use it to force chosen points to
	// deadlock, panic, or stall; production configurations leave it nil.
	PointFault func(cfg Config, profile prog.Profile) pipe.FaultHook
}

// DefaultBackoff is the initial retry backoff when Supervisor.Backoff is 0.
const DefaultBackoff = 10 * time.Millisecond

// PointStatus is the supervision outcome of one grid point: Err is nil iff
// the point's Result is valid, and Attempts counts the runs consumed
// (including retries).
type PointStatus struct {
	Err      error
	Attempts int
}

// OK reports whether the point produced a valid Result.
func (s PointStatus) OK() bool { return s.Err == nil }

// PointFailure is one failed grid point in a figure/sweep failure report,
// locating the point (experiment x benchmark) and carrying its diagnostic
// error (usually a *pipe.RunError with the machine snapshot).
type PointFailure struct {
	Figure     string
	Experiment string // experiment ID, or "baseline"
	Benchmark  string
	Attempts   int
	Err        error
}

func (f PointFailure) String() string {
	return fmt.Sprintf("%s: %s x %s failed after %d attempt(s): %v",
		f.Figure, f.Experiment, f.Benchmark, f.Attempts, f.Err)
}

// retryableError reports whether err is worth re-running: a *pipe.RunError
// whose cause declares itself transient. Context errors and deterministic
// simulator failures are terminal.
func retryableError(err error) bool {
	if re, ok := pipe.AsRunError(err); ok {
		return re.Retryable()
	}
	return false
}

// defaultJitterSeed stands in for a zero Supervisor.JitterSeed: jitter is
// always on, always deterministic.
const defaultJitterSeed = 0x5e1ec7_7412077_1e // "select throttle"

// jitterRand derives the per-point jitter stream: a pure function of the
// supervisor seed and the point's content address, so two points of one
// grid desynchronize while every re-run of one point reproduces exactly.
// The fault hook a stress run arms is cleared first: it is how the point is
// run, not which point it is, and it is a pointer whose address would
// otherwise leak into the stream.
func jitterRand(seed uint64, cfg Config, profile prog.Profile) *xrand.Rand {
	if seed == 0 {
		seed = defaultJitterSeed
	}
	cfg.Pipe.Fault = nil
	k := PointKey(cfg, profile)
	return xrand.New(xrand.Hash2(seed, binary.LittleEndian.Uint64(k[:8])))
}

// Jittered spreads one backoff wait uniformly over [d/2, d].
func Jittered(d time.Duration, rng *xrand.Rand) time.Duration {
	if d <= 1 {
		return d
	}
	half := uint64(d / 2)
	return time.Duration(half + rng.Uint64()%(half+1))
}

// MaxBackoff caps exponential retry backoff. Past ~30s per wait a retry
// loop is indistinguishable from a hang; more importantly, unchecked
// doubling overflows time.Duration after 63 shifts — at Retries=64 the
// naive `backoff *= 2` goes negative, and a negative timer fires
// immediately, turning the backoff into a hot retry loop at exactly the
// moment the system is most stressed.
const MaxBackoff = 30 * time.Second

// NextBackoff doubles a backoff wait, saturating at MaxBackoff. The
// comparison runs BEFORE the multiply — checking the product for overflow
// after the fact is too late, since signed overflow has already produced
// an arbitrary (possibly positive) value.
func NextBackoff(d time.Duration) time.Duration {
	if d >= MaxBackoff/2 {
		return MaxBackoff
	}
	return d * 2
}

// runPoint executes one grid point under the supervisor's policy: arm the
// point's fault hook (stress suites), bound each attempt with the per-point
// deadline, and retry transient failures with exponential backoff. The
// zero-value Supervisor degenerates to a single undeadlined attempt.
func (s *Supervisor) runPoint(ctx context.Context, r *Runner, cfg Config, profile prog.Profile) (Result, PointStatus) {
	if s.PointFault != nil {
		if h := s.PointFault(cfg, profile); h != nil {
			cfg.Pipe.Fault = h
		}
	}
	backoff := s.Backoff
	if backoff <= 0 {
		backoff = DefaultBackoff
	}
	var rng *xrand.Rand // built lazily: only failing points pay for it
	var status PointStatus
	for attempt := 0; ; attempt++ {
		status.Attempts = attempt + 1
		actx, cancel := ctx, context.CancelFunc(nil)
		if s.Timeout > 0 {
			actx, cancel = context.WithTimeout(ctx, s.Timeout)
		}
		res, err := runCachedE(actx, r, cfg, profile)
		if cancel != nil {
			cancel()
		}
		if err == nil {
			status.Err = nil
			return res, status
		}
		status.Err = err
		// Retry only failures that can plausibly differ on a re-run, and
		// only while the grid itself is still live: a per-attempt deadline
		// is retryable policy-wise but deterministic here, and a canceled
		// parent context ends the point immediately.
		if ctx.Err() != nil || attempt >= s.Retries || !retryableError(err) {
			return Result{}, status
		}
		if rng == nil {
			rng = jitterRand(s.JitterSeed, cfg, profile)
		}
		t := time.NewTimer(Jittered(backoff, rng))
		select {
		case <-ctx.Done():
			t.Stop()
			return Result{}, status
		case <-t.C:
		}
		backoff = NextBackoff(backoff)
	}
}

// RunPointE executes one supervised point on a pooled Runner under ctx: the
// single-point entry the sweep service and the trace/calibration commands
// share with the figure grids. The status isolates any failure; the Result
// is valid iff status.OK().
func (s *Supervisor) RunPointE(ctx context.Context, cfg Config, profile prog.Profile) (Result, PointStatus) {
	r := runnerPool.Get().(*Runner)
	defer runnerPool.Put(r)
	return s.runPoint(ctx, r, cfg, profile)
}

// RunAllE executes a configuration across profiles under ctx with per-point
// failure isolation: results are in profile order, and statuses[i].OK()
// reports whether results[i] is valid.
func RunAllE(ctx context.Context, cfg Config, profiles []prog.Profile) ([]Result, []PointStatus) {
	var sup Supervisor
	results := make([]Result, len(profiles))
	statuses := make([]PointStatus, len(profiles))
	runJobs(len(profiles), func(r *Runner, i int) {
		results[i], statuses[i] = sup.runPoint(ctx, r, cfg, profiles[i])
	})
	return results, statuses
}

// Guard runs f, converting an escaped *pipe.RunError panic (the legacy
// fail-fast API's failure mode) into a diagnostic report on w and a nonzero
// exit code. The commands wrap their top level in it, so a terminal
// simulation failure prints the machine snapshot — cycle, policy,
// occupancies, epoch state, offending instruction — instead of a raw panic
// trace. Panics that are not run failures propagate unchanged.
func Guard(w io.Writer, name string, f func() int) (code int) {
	defer func() {
		rec := recover()
		if rec == nil {
			return
		}
		err, ok := rec.(error)
		if !ok {
			panic(rec) // fail-fast: not a run failure, propagate unchanged
		}
		var re *pipe.RunError
		if !errors.As(err, &re) {
			panic(rec) // fail-fast: not a run failure, propagate unchanged
		}
		fmt.Fprintf(w, "%s: simulation failed (%s): %v\n", name, re.Kind, re)
		if len(re.Stack) > 0 {
			fmt.Fprintf(w, "%s\n", re.Stack)
		}
		code = 1
	}()
	return f()
}
