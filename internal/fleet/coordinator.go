package fleet

// The coordinator: drain one grid through a fleet of remote workers, and
// finish no matter what the network does. Dispatch is pull-shaped — a
// shared index queue, per-worker concurrency slots, least-loaded picking —
// so fast workers naturally take more points. Robustness is layered per
// point: a per-request deadline bounds every attempt; retryable failures
// back off exponentially with per-point seeded jitter (the Supervisor's
// discipline, reused); a straggling request is hedged onto a second worker
// with steal=1, so the first response wins and the loser's point lease is
// fenced off; per-worker circuit breakers stop routing to workers that
// keep failing, re-probing them via /readyz after a cooling interval; and
// points that exhaust every remote option are computed locally, in
// process, under the same point leases — an unreachable fleet degrades to
// exactly the single-process run. Interruption is cooperative end to end:
// canceling Run's context cancels every in-flight HTTP request and local
// compute, and Run returns only after every held lease is released, so an
// interrupted fleet leaves no stale lease file behind.

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"selthrottle/internal/grid"
	"selthrottle/internal/sim"
	"selthrottle/internal/store"
	"selthrottle/internal/xrand"
)

// Coordinator defaults.
const (
	// DefaultPointTimeout bounds one remote compute attempt.
	DefaultPointTimeout = 60 * time.Second
	// DefaultRetries is the per-point remote attempt budget past the first.
	DefaultRetries = 3
	// DefaultBackoff seeds the exponential retry backoff.
	DefaultBackoff = 50 * time.Millisecond
	// DefaultPerWorker is the in-flight request cap per worker.
	DefaultPerWorker = 2
	// stealAfterAttempts is the conflict-escalation threshold: a point
	// still 409ing after this many attempts is presumed held by a dead or
	// wedged worker, and the next claim steals (fencing the holder off).
	stealAfterAttempts = 2
)

// Options configures a fleet run.
type Options struct {
	// Workers are the target stserve instances ("host:port" or full URLs).
	// An empty list runs everything locally.
	Workers []string

	// Spec names the grid; every worker re-derives the identical point
	// list from it. Points, when non-nil, is the pre-enumerated list
	// (must equal the Spec enumeration; hpca03 passes it to avoid
	// enumerating twice).
	Spec   GridSpec
	Points []sim.GridPoint

	// Transport, when non-nil, replaces http.DefaultTransport — the seam
	// faultinject.NetFaults plugs into.
	Transport http.RoundTripper

	// PointTimeout bounds each remote attempt; 0 selects a deadline
	// derived from the point cost estimate: simulated instructions at a
	// conservative floor rate, clamped to [5s, DefaultPointTimeout].
	PointTimeout time.Duration

	// HedgeAfter is the straggler threshold: a remote attempt still
	// unanswered after this long gets a hedge twin on another worker
	// (steal=1: the twin fences the straggler's lease). 0 derives
	// PointTimeout/4; negative disables hedging.
	HedgeAfter time.Duration

	// Retries bounds remote attempts per point past the first: 0 selects
	// DefaultRetries, and a negative value allows none.
	Retries int

	// Backoff seeds the per-point exponential retry backoff (0 selects
	// DefaultBackoff), jittered into [b/2, b] by a per-point stream from
	// JitterSeed, capped at sim.MaxBackoff.
	Backoff    time.Duration
	JitterSeed uint64

	// Breaker policy (zero values select the Default* constants).
	BreakerThreshold int
	BreakerOpenFor   time.Duration

	// PerWorker caps concurrent in-flight requests per worker (0 selects
	// DefaultPerWorker).
	PerWorker int

	// Clock is the monotonic source for breakers (nil selects the runtime
	// monotonic clock). Tests inject warped clocks.
	Clock grid.Clock

	// Leases, when non-nil, guards local fallback computes with point
	// leases on the shared store (remote claims are the workers' own).
	Leases *grid.Manager

	// Store, when non-nil, is consulted for already-published points
	// (skip before dispatch, convergence check after conflicts); nil
	// falls back to the process cache's attached disk tier.
	Store *store.Store

	// Sup is the local-fallback per-point policy.
	Sup sim.Supervisor

	// Owner labels this coordinator's lease claims.
	Owner string

	// Logf, when non-nil, receives dispatch events.
	Logf func(format string, args ...any)
}

// WorkerStats is one worker's slice of a fleet Report.
type WorkerStats struct {
	Name          string
	Points        int // points this worker answered
	Failures      int // attempts charged against it
	BreakerOpens  int
	BreakerCloses int
}

// Report summarizes a fleet run.
type Report struct {
	GridID      string
	Points      int // grid points total
	Stored      int // already published before dispatch; skipped
	Remote      int // served by workers (includes conflict-converged points)
	Local       int // computed in-process (fallback)
	Failed      int // terminal simulation failures (remote and local agree)
	Hedges      int // hedge twins launched
	HedgeWins   int // hedges that beat the primary
	Steals      int // claims escalated to steal
	RetriesUsed int // extra remote attempts consumed
	Probes      int // half-open breaker probes issued
	PerWorker   []WorkerStats
	Interrupted bool
}

// worker is the coordinator's per-target state.
type worker struct {
	name     string // display name (the configured target)
	base     string // normalized URL base
	breaker  *Breaker
	inflight atomic.Int64
	points   atomic.Int64
	failures atomic.Int64
}

// coordinator is one Run's live state.
type coordinator struct {
	opts    Options
	hc      *http.Client
	workers []*worker
	gridID  string
	points  []sim.GridPoint

	pointTimeout time.Duration
	hedgeAfter   time.Duration
	retries      int
	backoff      time.Duration

	st *store.Store

	mu    sync.Mutex // guards worker picking
	local []int      // indices that fell back to local compute

	remote    atomic.Int64
	hedges    atomic.Int64
	hedgeWins atomic.Int64
	steals    atomic.Int64
	retried   atomic.Int64
	probes    atomic.Int64
	failed    atomic.Int64
}

func (c *coordinator) logf(format string, args ...any) {
	if c.opts.Logf != nil {
		c.opts.Logf(format, args...)
	}
}

// derivePointTimeout estimates a per-attempt deadline from the point cost:
// simulated instructions at a conservative 100k instructions/second floor
// (two orders under the simulator's real rate, so slow CI machines and
// -race builds fit), clamped to [5s, DefaultPointTimeout]. The estimate
// only bounds patience, never results.
func derivePointTimeout(n, warmup uint64) time.Duration {
	total := n + warmup
	if warmup == 0 {
		total = n + n/4
	}
	d := time.Duration(total/100_000+1) * time.Second
	if d < 5*time.Second {
		d = 5 * time.Second
	}
	if d > DefaultPointTimeout {
		d = DefaultPointTimeout
	}
	return d
}

// Run drains the grid through the fleet. The returned Report is valid even
// on error; the error is non-nil only for spec/setup failures or
// cancellation (Interrupted is also set). Terminally failed points are a
// Report concern, mirroring the process-worker contract.
func Run(ctx context.Context, opts Options) (Report, error) {
	var rep Report
	points := opts.Points
	if points == nil {
		simOpts, err := opts.Spec.SimOptions()
		if err != nil {
			return rep, err
		}
		points, err = sim.EnumerateGrid(opts.Spec.Exp, opts.Spec.ID, simOpts)
		if err != nil {
			return rep, err
		}
	}
	c := &coordinator{
		opts:         opts,
		points:       points,
		gridID:       grid.ID(points),
		pointTimeout: opts.PointTimeout,
		hedgeAfter:   opts.HedgeAfter,
		retries:      opts.Retries,
		backoff:      opts.Backoff,
		st:           opts.Store,
	}
	rep.GridID = c.gridID
	rep.Points = len(points)
	if c.pointTimeout <= 0 {
		c.pointTimeout = derivePointTimeout(opts.Spec.N, opts.Spec.Warmup)
	}
	if c.hedgeAfter == 0 {
		c.hedgeAfter = c.pointTimeout / 4
	}
	if c.retries == 0 {
		c.retries = DefaultRetries
	} else if c.retries < 0 {
		c.retries = 0
	}
	if c.backoff <= 0 {
		c.backoff = DefaultBackoff
	}
	if c.st == nil {
		c.st = sim.DiskStore()
	}
	clock := opts.Clock
	if clock == nil {
		clock = grid.MonotonicClock()
	}
	transport := opts.Transport
	if transport == nil {
		transport = http.DefaultTransport
	}
	c.hc = &http.Client{Transport: transport}
	for _, target := range opts.Workers {
		base, err := normalizeBase(target)
		if err != nil {
			return rep, err
		}
		c.workers = append(c.workers, &worker{
			name:    target,
			base:    base,
			breaker: NewBreaker(opts.BreakerThreshold, opts.BreakerOpenFor, clock),
		})
	}

	// Skip points the shared store already holds; queue the rest.
	var todo []int
	for i := range points {
		if published(c.st, points[i].Key()) {
			rep.Stored++
			continue
		}
		todo = append(todo, i)
	}

	perWorker := opts.PerWorker
	if perWorker <= 0 {
		perWorker = DefaultPerWorker
	}
	if len(c.workers) > 0 && len(todo) > 0 {
		slots := len(c.workers) * perWorker
		if slots > len(todo) {
			slots = len(todo)
		}
		queue := make(chan int)
		var wg sync.WaitGroup
		for s := 0; s < slots; s++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for idx := range queue {
					c.dispatchPoint(ctx, idx, perWorker)
				}
			}()
		}
		for _, idx := range todo {
			if ctx.Err() != nil {
				c.mu.Lock()
				c.local = append(c.local, idx)
				c.mu.Unlock()
				continue
			}
			queue <- idx
		}
		close(queue)
		// The barrier that makes interruption clean: every in-flight
		// request has been canceled via ctx, and no goroutine survives
		// Run, so every remote worker has seen its connection close and
		// every local lease defer has run.
		wg.Wait()
	} else {
		c.local = todo
	}

	// Degradation floor: whatever the fleet could not serve is computed
	// here, in process, under the same point leases.
	if len(c.local) > 0 && ctx.Err() == nil {
		c.logf("fleet: computing %d point(s) locally", len(c.local))
	}
	localDone := 0
	for _, idx := range c.local {
		if ctx.Err() != nil {
			break
		}
		if c.computeLocal(ctx, idx) {
			localDone++
		}
	}
	rep.Local = localDone

	rep.Remote = int(c.remote.Load())
	rep.Hedges = int(c.hedges.Load())
	rep.HedgeWins = int(c.hedgeWins.Load())
	rep.Steals = int(c.steals.Load())
	rep.RetriesUsed = int(c.retried.Load())
	rep.Probes = int(c.probes.Load())
	rep.Failed = int(c.failed.Load())
	for _, w := range c.workers {
		opens, closes := w.breaker.Counters()
		rep.PerWorker = append(rep.PerWorker, WorkerStats{
			Name:          w.name,
			Points:        int(w.points.Load()),
			Failures:      int(w.failures.Load()),
			BreakerOpens:  opens,
			BreakerCloses: closes,
		})
	}
	if ctx.Err() != nil {
		rep.Interrupted = true
		return rep, fmt.Errorf("fleet: interrupted: %w", ctx.Err())
	}
	return rep, nil
}

// pick selects the least-loaded worker whose breaker admits traffic,
// skipping exclude (hedges must land elsewhere) and workers at their
// in-flight cap, and reserves one of its in-flight slots: the caller's
// request call releases it when it returns. A worker whose breaker grants
// a half-open probe is returned with probe=true and no slot reserved; the
// caller must resolve the probe before real traffic flows there. busy
// distinguishes "every healthy worker is at its cap" (transient — in-flight
// requests are deadline-bounded, so waiting resolves it) from "no healthy
// workers at all" (fall back locally).
func (c *coordinator) pick(exclude *worker, cap int) (wk *worker, probe, busy bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var best *worker
	for _, w := range c.workers {
		if w == exclude {
			continue
		}
		if int(w.inflight.Load()) >= cap {
			busy = true
			continue
		}
		ok, pr := w.breaker.Allow()
		if !ok {
			continue
		}
		if pr {
			// Probe grants are exclusive: take it immediately (returning
			// it to "available" would need an un-Allow).
			return w, true, false
		}
		if best == nil || w.inflight.Load() < best.inflight.Load() {
			best = w
		}
	}
	if best != nil {
		// Reserved under c.mu, so no other pick can see the slot free
		// before the request is issued.
		best.inflight.Add(1)
	}
	return best, false, busy && best == nil
}

// dispatchPoint drives one point to completion remotely, or parks it for
// local fallback. It owns the point's whole retry/hedge lifecycle.
func (c *coordinator) dispatchPoint(ctx context.Context, idx, perWorker int) {
	pt := c.points[idx]
	key := pt.Key()
	seed := c.opts.JitterSeed
	if seed == 0 {
		seed = 0x666c656574 // "fleet"
	}
	rng := xrand.New(xrand.Hash2(seed, uint64(idx)))
	backoff := c.backoff
	conflicts := 0

	for attempt := 0; attempt <= c.retries; attempt++ {
		if ctx.Err() != nil {
			c.park(idx)
			return
		}
		if attempt > 0 {
			c.retried.Add(1)
		}
		wk, probe, busy := c.pick(nil, perWorker)
		if wk == nil {
			if busy {
				// Healthy workers exist but every slot is taken (hedges
				// hold slots too); their in-flight requests are
				// deadline-bounded, so wait instead of giving up.
				if c.waitBackoff(ctx, &backoff, rng) {
					attempt--
					continue
				}
			}
			// No healthy worker at all: this point has no remote future.
			c.park(idx)
			return
		}
		if probe {
			c.probes.Add(1)
			err := probeCall(ctx, c.hc, wk.base, wk.name, c.pointTimeout/4)
			wk.breaker.Record(err == nil, true)
			if err != nil {
				c.logf("fleet: %s: probe failed: %v", wk.name, err)
			} else {
				c.logf("fleet: %s: probe ok, breaker closed", wk.name)
			}
			attempt-- // probes spend time, not the point's retry budget
			continue
		}

		steal := conflicts >= stealAfterAttempts
		if steal {
			c.steals.Add(1)
		}
		res, usedWk, err := c.attemptWithHedge(ctx, wk, idx, steal, perWorker)
		if err == nil {
			sim.InjectResult(pt.Cfg, pt.Profile, res)
			usedWk.points.Add(1)
			c.remote.Add(1)
			return
		}
		var ce *CallError
		if errors.As(err, &ce) {
			switch {
			case ce.Conflict():
				conflicts++
				// Someone else is computing the point. Give them a backoff
				// interval, then check whether their result landed.
				if c.waitBackoff(ctx, &backoff, rng) && published(c.st, key) {
					c.remote.Add(1)
					return
				}
				continue
			case ce.Terminal():
				if ce.Status == http.StatusInternalServerError {
					// The simulation itself failed — deterministic, so
					// local compute would fail identically. Count and stop.
					c.logf("fleet: point %d terminally failed remotely: %v", idx, err)
					c.failed.Add(1)
					return
				}
				// Bad request / grid mismatch: a coordinator-side problem
				// remote retries cannot fix; local compute still can.
				c.logf("fleet: point %d rejected (%v), falling back locally", idx, err)
				c.park(idx)
				return
			}
		}
		c.logf("fleet: point %d attempt %d on %s failed: %v", idx, attempt+1, wk.name, err)
		if !c.waitBackoff(ctx, &backoff, rng) {
			c.park(idx)
			return
		}
	}
	c.park(idx)
}

// attemptWithHedge issues one attempt on wk, hedging onto a second worker
// if the first is still unanswered after the straggler threshold; while
// every other healthy worker is at its cap, or the pick was a breaker
// probe, it tries again each threshold interval. The
// hedge goes out with steal=1: if it lands first, its lease claim fences
// the straggler off (the straggler's next lease check sees ErrLost and
// cancels).
// First outcome wins; the loser's request context is canceled and its
// outcome discarded (a cancellation the coordinator caused is not evidence
// against the worker).
func (c *coordinator) attemptWithHedge(ctx context.Context, wk *worker, idx int, steal bool, perWorker int) (sim.Result, *worker, error) {
	type outcome struct {
		res   sim.Result
		err   error
		wk    *worker
		hedge bool
	}
	results := make(chan outcome, 2)
	// launch runs one request on w, whose slot pick reserved, and releases
	// the slot when the call returns.
	launch := func(runCtx context.Context, w *worker, stealFlag, isHedge bool) {
		res, _, err := computeCall(runCtx, c.hc, w.base, w.name, c.opts.Spec, c.gridID, idx, stealFlag, c.pointTimeout)
		w.inflight.Add(-1)
		if runCtx.Err() == nil || err == nil {
			// Only outcomes the coordinator did not itself cancel count
			// toward breaker state.
			var ce *CallError
			fault := err != nil && (!errors.As(err, &ce) || ce.BreakerFault())
			w.breaker.Record(!fault, false)
			if fault {
				w.failures.Add(1)
			}
		}
		results <- outcome{res: res, err: err, wk: w, hedge: isHedge}
	}

	primCtx, primCancel := context.WithCancel(ctx)
	defer primCancel()
	go launch(primCtx, wk, steal, false)

	var hedgeCancel context.CancelFunc
	launched := 1
	var hedgeTimer *time.Timer
	var hedgeC <-chan time.Time
	if c.hedgeAfter > 0 {
		hedgeTimer = time.NewTimer(c.hedgeAfter)
		hedgeC = hedgeTimer.C
		defer hedgeTimer.Stop()
	}

	var firstErr error
	for seen := 0; seen < launched; {
		select {
		case <-hedgeC:
			hedgeC = nil
			hw, probe, busy := c.pick(wk, perWorker)
			if hw == nil || probe {
				if probe {
					// Don't burn the probe grant on a hedge; resolve it
					// cheaply so the next pick can use the worker.
					c.probes.Add(1)
					go func(w *worker) {
						err := probeCall(ctx, c.hc, w.base, w.name, c.pointTimeout/4)
						w.breaker.Record(err == nil, true)
					}(hw)
				}
				if busy || probe {
					// A slot may free up, or the probe close the breaker,
					// long before the primary's deadline: try again.
					hedgeTimer.Reset(c.hedgeAfter)
					hedgeC = hedgeTimer.C
				}
				continue
			}
			c.hedges.Add(1)
			c.logf("fleet: point %d straggling on %s, hedging to %s", idx, wk.name, hw.name)
			var hctx context.Context
			hctx, hedgeCancel = context.WithCancel(ctx)
			defer hedgeCancel()
			launched++
			go launch(hctx, hw, true, true)
		case out := <-results:
			seen++
			if out.err == nil {
				if out.hedge {
					c.hedgeWins.Add(1)
				}
				// Cancel the twin; its lease is already fenced (hedge won)
				// or its result is a harmless duplicate (primary won).
				primCancel()
				if hedgeCancel != nil {
					hedgeCancel()
				}
				// Drain the loser so its goroutine can exit before Run's
				// barrier (the channel is buffered, but a clean drain keeps
				// inflight counters honest at Wait time).
				for ; seen < launched; seen++ {
					<-results
				}
				return out.res, out.wk, nil
			}
			if firstErr == nil {
				firstErr = out.err
			} else {
				// Prefer the more actionable classification: a conflict
				// beats a transport error (it proves a live holder).
				var ce *CallError
				if errors.As(out.err, &ce) && ce.Conflict() {
					firstErr = out.err
				}
			}
		case <-ctx.Done():
			primCancel()
			if hedgeCancel != nil {
				hedgeCancel()
			}
			for ; seen < launched; seen++ {
				<-results
			}
			return sim.Result{}, wk, &CallError{Worker: wk.name, Err: ctx.Err()}
		}
	}
	return sim.Result{}, wk, firstErr
}

// waitBackoff sleeps one jittered backoff interval (doubling the base,
// saturating at sim.MaxBackoff) unless ctx ends first.
func (c *coordinator) waitBackoff(ctx context.Context, backoff *time.Duration, rng *xrand.Rand) bool {
	t := time.NewTimer(sim.Jittered(*backoff, rng))
	defer t.Stop()
	*backoff = sim.NextBackoff(*backoff)
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}

// published reports whether st (nil: no store) holds k's entry. Has knows
// only what this process indexed; Adopt finds, checks and indexes an entry
// another process (a sibling worker, say) published since.
func published(st *store.Store, k store.Key) bool {
	return st != nil && (st.Has(k) || st.Adopt(k))
}

// park queues a point for local fallback.
func (c *coordinator) park(idx int) {
	c.mu.Lock()
	c.local = append(c.local, idx)
	c.mu.Unlock()
}

// computeLocal is the degradation floor: compute one point in process,
// under a point lease when a manager is configured. The claim steals:
// whatever remote worker held this point is unreachable or wedged, and the
// fresh fencing token stops it at its next lease check. A holder that
// publishes before then costs nothing, since publication is
// last-rename-wins over bit-identical bytes. Reports whether the point
// produced a valid Result.
func (c *coordinator) computeLocal(ctx context.Context, idx int) bool {
	pt := c.points[idx]
	key := pt.Key()
	if published(c.st, key) {
		return true // landed while we were dispatching elsewhere
	}
	var lease *grid.Lease
	if c.opts.Leases != nil {
		l, err := c.opts.Leases.ClaimPoint(c.gridID, key, c.opts.Owner, true)
		if err == nil {
			lease = l
			defer lease.Release()
		} else {
			c.logf("fleet: local point %d: lease degraded, computing unprotected: %v", idx, err)
		}
	}
	sup := c.opts.Sup
	_, st := sup.RunPointE(ctx, pt.Cfg, pt.Profile)
	if ctx.Err() != nil && !st.OK() {
		return false // cancellation surfacing as a point error
	}
	if !st.OK() {
		c.logf("fleet: local point %d failed after %d attempt(s): %v", idx, st.Attempts, st.Err)
		c.failed.Add(1)
		return false
	}
	return true
}
