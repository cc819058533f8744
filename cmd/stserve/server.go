package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"sync/atomic"
	"time"

	"selthrottle/internal/fleet"
	"selthrottle/internal/prog"
	"selthrottle/internal/sim"
)

// server is the sweep service: experiment grids over HTTP/JSON on top of
// the supervised, tiered-cache simulation drivers. Its resilience posture
// mirrors the paper's throttling philosophy applied to itself — bound the
// work in flight, shed the excess early (429 + Retry-After) instead of
// queueing into collapse, bound every admitted request with a deadline that
// cancels the simulation cooperatively, and degrade partial failures to
// per-point reports instead of failed responses.
type server struct {
	opts    sim.Options    // request defaults (instructions, warmup, depth, sizes)
	sup     sim.Supervisor // per-point policy for admitted requests
	timeout time.Duration  // per-request deadline
	maxN    uint64         // per-request instruction-budget ceiling
	queue   chan struct{}  // admission semaphore; full = shed
	start   time.Time

	// draining flips at the first SIGTERM/SIGINT, before Shutdown begins:
	// /readyz goes 503 so proxies and fleet coordinators stop routing new
	// work here while in-flight requests finish. /healthz stays green — a
	// draining process is alive, just leaving.
	draining atomic.Bool

	// compute, when non-nil, serves /v1/compute (fleet point dispatch).
	compute *fleet.ComputeServer

	served  atomic.Uint64 // requests that ran to a response (incl. partial grids)
	shed    atomic.Uint64 // requests rejected 429 at admission
	failed  atomic.Uint64 // admitted requests whose every point failed
	retried atomic.Uint64 // extra attempts consumed by supervisor retries

	// runPoint and runFigure are the simulation seams, swappable in tests
	// (a wedged or slow "simulator" without real fault plumbing).
	runPoint  func(ctx context.Context, cfg sim.Config, p prog.Profile) (sim.Result, sim.PointStatus)
	runFigure func(ctx context.Context, name string, exps []sim.Experiment, opts sim.Options) *sim.FigureResult
}

// newServer builds a server with the given request defaults, admission
// queue capacity, and per-request deadline.
func newServer(opts sim.Options, sup sim.Supervisor, queueCap int, timeout time.Duration, maxN uint64) *server {
	if queueCap < 1 {
		queueCap = 1
	}
	s := &server{
		opts:    opts,
		sup:     sup,
		timeout: timeout,
		maxN:    maxN,
		queue:   make(chan struct{}, queueCap),
		start:   time.Now(),
	}
	s.runPoint = func(ctx context.Context, cfg sim.Config, p prog.Profile) (sim.Result, sim.PointStatus) {
		sup := s.sup
		return sup.RunPointE(ctx, cfg, p)
	}
	s.runFigure = func(ctx context.Context, name string, exps []sim.Experiment, opts sim.Options) *sim.FigureResult {
		return sim.RunFigureE(ctx, name, exps, opts)
	}
	return s
}

// routes builds the service's handler tree.
func (s *server) routes() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /statsz", s.handleStatsz)
	mux.HandleFunc("GET /v1/point", s.handlePoint)
	mux.HandleFunc("GET /v1/figure", s.handleFigure)
	mux.HandleFunc("GET /v1/sweep", s.handleSweep)
	if s.compute != nil {
		mux.Handle("GET /v1/compute", s.compute)
		mux.Handle("POST /v1/compute", s.compute)
	}
	return mux
}

// acquire admits one request into the bounded work queue, or sheds it with
// 429 + Retry-After. Shedding at admission — rather than queueing without
// bound — keeps /healthz green and latency sane under overload: the Runner
// pool saturates at GOMAXPROCS simulations, so work beyond the queue cap
// could only wait, and a waiting client is better served by an honest 429.
func (s *server) acquire(w http.ResponseWriter) (release func(), ok bool) {
	select {
	case s.queue <- struct{}{}:
		return func() { <-s.queue }, true
	default:
		s.shed.Add(1)
		w.Header().Set("Retry-After", "1")
		http.Error(w, "saturated: simulation queue full, retry later", http.StatusTooManyRequests)
		return nil, false
	}
}

// requestContext bounds one admitted request: the client's context (so a
// disconnect cancels the simulation) plus the service deadline.
func (s *server) requestContext(r *http.Request) (context.Context, context.CancelFunc) {
	if s.timeout <= 0 {
		return context.WithCancel(r.Context())
	}
	return context.WithTimeout(r.Context(), s.timeout)
}

func (s *server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	// Liveness only: overload sheds at admission, so a saturated server is
	// still a healthy server, and a draining one is still alive. Readiness
	// is /readyz's question.
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// handleReadyz is the readiness probe: 503 while draining, so proxies and
// fleet coordinators stop routing new work to a worker that is leaving,
// instead of discovering the drain by watching their requests fail.
func (s *server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	if s.draining.Load() {
		w.Header().Set("Retry-After", "1")
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ready")
}

// SetDraining flips the readiness gate (idempotent, one-way).
func (s *server) SetDraining() { s.draining.Store(true) }

// statszResponse is the service's observability snapshot.
type statszResponse struct {
	UptimeSeconds float64 `json:"uptime_seconds"`
	Requests      struct {
		Served uint64 `json:"served"`
		Shed   uint64 `json:"shed"`
		Failed uint64 `json:"failed"`
	} `json:"requests"`
	Queue struct {
		Depth    int `json:"depth"`
		Capacity int `json:"capacity"`
	} `json:"queue"`
	RetriedAttempts uint64             `json:"retried_attempts"`
	Cache           sim.CacheTierStats `json:"cache"`
}

func (s *server) handleStatsz(w http.ResponseWriter, _ *http.Request) {
	var resp statszResponse
	resp.UptimeSeconds = time.Since(s.start).Seconds()
	resp.Requests.Served = s.served.Load()
	resp.Requests.Shed = s.shed.Load()
	resp.Requests.Failed = s.failed.Load()
	resp.Queue.Depth = len(s.queue)
	resp.Queue.Capacity = cap(s.queue)
	resp.RetriedAttempts = s.retried.Load()
	resp.Cache = sim.ResultCacheTierStats()
	writeJSON(w, http.StatusOK, resp)
}

// optionsFrom resolves request parameters onto the service defaults:
// n, warmup (instructions), depth (stages), kb (total predictor+estimator
// budget), bench (comma-separated profile names). Depth and kb are checked
// by sim.CheckDepthKB; an unset one stands at the paper baseline.
func (s *server) optionsFrom(q url.Values) (sim.Options, error) {
	opts := s.opts
	base := sim.Default()
	depth, kb := base.Pipe.Depth(), (base.PredBytes+base.ConfBytes)/1024
	if v := q.Get("n"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil || n == 0 {
			return opts, fmt.Errorf("bad n %q", v)
		}
		opts.Instructions = n
		opts.Warmup = 0 // re-derive from n unless given explicitly
	}
	if opts.Instructions > s.maxN {
		return opts, fmt.Errorf("n %d exceeds the per-request ceiling %d", opts.Instructions, s.maxN)
	}
	if v := q.Get("warmup"); v != "" {
		wu, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return opts, fmt.Errorf("bad warmup %q", v)
		}
		opts.Warmup = wu
	}
	if opts.Warmup > s.maxN {
		return opts, fmt.Errorf("warmup %d exceeds the per-request ceiling %d", opts.Warmup, s.maxN)
	}
	if v := q.Get("depth"); v != "" {
		d, err := strconv.Atoi(v)
		if err != nil {
			return opts, fmt.Errorf("bad depth %q (want 6..64)", v)
		}
		depth, opts.Depth = d, d
	}
	if v := q.Get("kb"); v != "" {
		k, err := strconv.Atoi(v)
		if err != nil {
			return opts, fmt.Errorf("bad kb %q (want 1..1024)", v)
		}
		kb = k
		opts = opts.WithKB(k)
	}
	if err := sim.CheckDepthKB(depth, kb); err != nil {
		return opts, err
	}
	if v := q.Get("bench"); v != "" {
		ps, err := prog.ParseProfiles(v)
		if err != nil {
			return opts, err
		}
		opts.Profiles = ps
	}
	return opts, nil
}

// comparisonJSON is one experiment-vs-baseline metric bundle.
type comparisonJSON struct {
	Benchmark     string  `json:"benchmark"`
	Speedup       float64 `json:"speedup"`
	PowerSaving   float64 `json:"power_saving_pct"`
	EnergySaving  float64 `json:"energy_saving_pct"`
	EDImprovement float64 `json:"ed_improvement_pct"`
}

func toComparisonJSON(c sim.Comparison) comparisonJSON {
	return comparisonJSON{
		Benchmark:     c.Benchmark,
		Speedup:       c.Speedup,
		PowerSaving:   c.PowerSaving,
		EnergySaving:  c.EnergySaving,
		EDImprovement: c.EDImprovement,
	}
}

// resultJSON is one run's headline numbers.
type resultJSON struct {
	Benchmark string  `json:"benchmark"`
	IPC       float64 `json:"ipc"`
	MissRate  float64 `json:"miss_rate"`
	Seconds   float64 `json:"seconds"`
	Energy    float64 `json:"energy_j"`
	EDelay    float64 `json:"energy_delay_js"`
	AvgPower  float64 `json:"avg_power_w"`
}

func toResultJSON(r sim.Result) resultJSON {
	return resultJSON{
		Benchmark: r.Benchmark,
		IPC:       r.IPC,
		MissRate:  r.MissRate,
		Seconds:   r.Seconds,
		Energy:    r.Energy,
		EDelay:    r.EDelay,
		AvgPower:  r.AvgPower,
	}
}

// pointResponse is /v1/point's body.
type pointResponse struct {
	Experiment string          `json:"experiment"`
	Attempts   int             `json:"attempts"`
	Result     resultJSON      `json:"result"`
	Comparison *comparisonJSON `json:"comparison,omitempty"`
}

// handlePoint serves one (configuration, benchmark) simulation point:
// bench (required), id (experiment, default baseline), compare=1 to also
// run the baseline and report the paper's four metrics against it.
func (s *server) handlePoint(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	bench := q.Get("bench")
	if bench == "" {
		http.Error(w, "missing bench parameter", http.StatusBadRequest)
		return
	}
	profile, ok := prog.ProfileByName(bench)
	if !ok {
		http.Error(w, fmt.Sprintf("unknown benchmark %q", bench), http.StatusBadRequest)
		return
	}
	opts, err := s.optionsFrom(q)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	id := q.Get("id")
	if id == "" {
		id = "baseline"
	}
	cfg := opts.BaseConfig()
	if id != "baseline" {
		e, ok := sim.ExperimentByID(id)
		if !ok {
			http.Error(w, fmt.Sprintf("unknown experiment id %q", id), http.StatusBadRequest)
			return
		}
		cfg = e.Apply(cfg)
	}

	release, ok := s.acquire(w)
	if !ok {
		return
	}
	defer release()
	ctx, cancel := s.requestContext(r)
	defer cancel()

	res, st := s.runPoint(ctx, cfg, profile)
	s.noteAttempts(st)
	if !st.OK() {
		s.failPoint(w, st.Err)
		return
	}
	resp := pointResponse{Experiment: id, Attempts: st.Attempts, Result: toResultJSON(res)}
	if q.Get("compare") == "1" && id != "baseline" {
		base, bst := s.runPoint(ctx, opts.BaseConfig(), profile)
		s.noteAttempts(bst)
		if !bst.OK() {
			s.failPoint(w, bst.Err)
			return
		}
		cmp := toComparisonJSON(sim.Compare(base, res))
		resp.Comparison = &cmp
	}
	s.served.Add(1)
	writeJSON(w, http.StatusOK, resp)
}

// figureResponse is /v1/figure's body.
type figureResponse struct {
	Name      string       `json:"name"`
	Baselines []resultJSON `json:"baselines"`
	Rows      []figureRow  `json:"rows"`
	Failures  []string     `json:"failures,omitempty"`
}

type figureRow struct {
	ID       string           `json:"id"`
	Label    string           `json:"label"`
	PerBench []comparisonJSON `json:"per_bench"`
	Average  comparisonJSON   `json:"average"`
}

func toFigureResponse(fr *sim.FigureResult) figureResponse {
	resp := figureResponse{Name: fr.Name}
	for _, b := range fr.Baselines {
		resp.Baselines = append(resp.Baselines, toResultJSON(b))
	}
	for _, row := range fr.Rows {
		jr := figureRow{ID: row.Experiment.ID, Label: row.Experiment.Label, Average: toComparisonJSON(row.Average)}
		for _, c := range row.PerBench {
			jr.PerBench = append(jr.PerBench, toComparisonJSON(c))
		}
		resp.Rows = append(resp.Rows, jr)
	}
	for _, f := range fr.Failures {
		resp.Failures = append(resp.Failures, f.String())
	}
	return resp
}

// handleFigure serves one whole figure grid: fig=fig1|fig3|fig4|fig5 plus
// the shared option parameters. Failed grid points degrade to entries in
// failures (their cells read zero and are excluded from averages), matching
// the CLI's supervised semantics.
func (s *server) handleFigure(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	title, exps, ok := sim.FigureByName(q.Get("fig"))
	if !ok {
		http.Error(w, fmt.Sprintf("unknown figure %q (want fig1|fig3|fig4|fig5)", q.Get("fig")), http.StatusBadRequest)
		return
	}
	opts, err := s.optionsFrom(q)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	opts.Supervise = s.sup

	release, okAdmit := s.acquire(w)
	if !okAdmit {
		return
	}
	defer release()
	ctx, cancel := s.requestContext(r)
	defer cancel()

	fr := s.runFigure(ctx, title, exps, opts)
	s.noteFigure(fr)
	if len(fr.Failures) == len(fr.Statuses) && len(fr.Failures) > 0 {
		// Nothing succeeded — report the first failure as the request's.
		s.failed.Add(1)
		s.failPoint(w, fr.Failures[0].Err)
		return
	}
	s.served.Add(1)
	writeJSON(w, http.StatusOK, toFigureResponse(fr))
}

// sweepPointJSON is one NDJSON line of /v1/sweep.
type sweepPointJSON struct {
	X        int            `json:"x"`
	Average  comparisonJSON `json:"average"`
	Failures []string       `json:"failures,omitempty"`
}

// handleSweep streams a sensitivity sweep point-by-point as NDJSON:
// kind=depth (Figure 6, stages 6..28) or kind=size (Figure 7, 8..64 KB).
// Each line is a complete, self-contained point — a slow grid shows
// incremental progress, a partial failure surfaces in that point's failures
// list, and a canceled request simply ends the stream at a line boundary —
// instead of one monolithic response that fails or blocks as a whole.
func (s *server) handleSweep(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	axis, ok := sim.SweepByKind(q.Get("kind"))
	if !ok {
		http.Error(w, fmt.Sprintf("unknown sweep kind %q (want depth|size)", q.Get("kind")), http.StatusBadRequest)
		return
	}
	opts, err := s.optionsFrom(q)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	opts.Supervise = s.sup

	release, okAdmit := s.acquire(w)
	if !okAdmit {
		return
	}
	defer release()
	ctx, cancel := s.requestContext(r)
	defer cancel()

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)

	emit := func(x int, fr *sim.FigureResult) bool {
		s.noteFigure(fr)
		pt := sweepPointJSON{X: x, Average: toComparisonJSON(fr.Rows[0].Average)}
		for _, f := range fr.Failures {
			pt.Failures = append(pt.Failures, f.String())
		}
		if err := enc.Encode(pt); err != nil {
			return false // client went away; stop simulating for it
		}
		if flusher != nil {
			flusher.Flush()
		}
		return true
	}

	best := []sim.Experiment{sim.BestExperiment()}
	for _, x := range axis.X {
		if ctx.Err() != nil {
			break
		}
		name, o := axis.Point(opts, x)
		if !emit(x, s.runFigure(ctx, name, best, o)) {
			return
		}
	}
	s.served.Add(1)
}

// noteAttempts accumulates supervisor retry effort for /statsz.
func (s *server) noteAttempts(st sim.PointStatus) {
	if st.Attempts > 1 {
		s.retried.Add(uint64(st.Attempts - 1))
	}
}

// noteFigure accumulates a grid's retry effort for /statsz.
func (s *server) noteFigure(fr *sim.FigureResult) {
	for _, st := range fr.Statuses {
		s.noteAttempts(st)
	}
}

// failPoint maps a failed point's error onto an HTTP status: deadline →
// 504 (the request's own budget expired), cancellation → 503 (the server
// is going away or the client did), anything else (RunError and kin) → 500
// with the diagnostic line.
func (s *server) failPoint(w http.ResponseWriter, err error) {
	s.failed.Add(1)
	code := http.StatusInternalServerError
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		code = http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		code = http.StatusServiceUnavailable
	}
	http.Error(w, fmt.Sprintf("simulation failed: %v", err), code)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}
