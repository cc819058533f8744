package fleet

// The worker side of networked dispatch: /v1/compute, one grid point per
// request. The endpoint is deliberately tiny and stateless across requests
// — the request names the grid (by enumeration parameters plus the
// expected grid ID) and the point (by index), the worker checks the spec,
// admits the request, recomputes the enumeration (memoized for the few
// most recent grids) and verifies the ID, claims the point's lease
// through the shared store, computes through the tiered cache (publishing
// to the store as always), and returns the Result as the store codec's
// exact bytes. Any worker can therefore serve any point of any grid with
// no session state, which is what makes work stealing trivial: "steal=1"
// is just a claim that fences the current holder instead of yielding.

import (
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"selthrottle/internal/grid"
	"selthrottle/internal/prog"
	"selthrottle/internal/sim"
)

// GridSpec names an experiment grid by its enumeration parameters — the
// complete input to sim.EnumerateGrid, so every worker and the coordinator
// derive the identical point list from one spec. It is a plain comparable
// value, usable as a memoization key.
type GridSpec struct {
	Exp    string // experiment selector (hpca03 -exp)
	ID     string // experiment id for Exp="run"
	N      uint64 // measured instructions
	Warmup uint64 // warmup instructions (0 = derive from N)
	Depth  int    // pipeline depth in stages
	KB     int    // total predictor+estimator budget in KB
	Bench  string // comma-separated benchmark subset ("" = all)
}

// SimOptions expands the spec into simulation options, validating the
// selection and the ranges.
func (g GridSpec) SimOptions() (sim.Options, error) {
	if err := sim.CheckSelection(g.Exp, g.ID); err != nil {
		return sim.Options{}, fmt.Errorf("fleet: grid spec: %w", err)
	}
	if g.N == 0 {
		return sim.Options{}, fmt.Errorf("fleet: grid spec: n must be positive")
	}
	if err := sim.CheckDepthKB(g.Depth, g.KB); err != nil {
		return sim.Options{}, fmt.Errorf("fleet: grid spec: %w", err)
	}
	opts := sim.Options{Instructions: g.N, Warmup: g.Warmup, Depth: g.Depth}.WithKB(g.KB)
	if g.Bench != "" {
		ps, err := prog.ParseProfiles(g.Bench)
		if err != nil {
			return sim.Options{}, fmt.Errorf("fleet: grid spec: %w", err)
		}
		opts.Profiles = ps
	}
	return opts, nil
}

// Query renders the spec as /v1/compute request parameters.
func (g GridSpec) Query() url.Values {
	q := url.Values{}
	q.Set("exp", g.Exp)
	if g.ID != "" {
		q.Set("id", g.ID)
	}
	q.Set("n", strconv.FormatUint(g.N, 10))
	if g.Warmup != 0 {
		q.Set("warmup", strconv.FormatUint(g.Warmup, 10))
	}
	q.Set("depth", strconv.Itoa(g.Depth))
	q.Set("kb", strconv.Itoa(g.KB))
	if g.Bench != "" {
		q.Set("bench", g.Bench)
	}
	return q
}

// gridSpecFrom parses a spec out of request parameters.
func gridSpecFrom(q url.Values) (GridSpec, error) {
	g := GridSpec{
		Exp:   q.Get("exp"),
		ID:    q.Get("id"),
		Bench: q.Get("bench"),
	}
	if g.Exp == "" {
		return g, fmt.Errorf("missing exp parameter")
	}
	var err error
	if g.N, err = strconv.ParseUint(q.Get("n"), 10, 64); err != nil {
		return g, fmt.Errorf("bad n %q", q.Get("n"))
	}
	if v := q.Get("warmup"); v != "" {
		if g.Warmup, err = strconv.ParseUint(v, 10, 64); err != nil {
			return g, fmt.Errorf("bad warmup %q", v)
		}
	}
	if g.Depth, err = strconv.Atoi(q.Get("depth")); err != nil {
		return g, fmt.Errorf("bad depth %q", q.Get("depth"))
	}
	if g.KB, err = strconv.Atoi(q.Get("kb")); err != nil {
		return g, fmt.Errorf("bad kb %q", q.Get("kb"))
	}
	return g, nil
}

// ComputeResponse is /v1/compute's success body. The Result itself crosses
// as base64 of the store codec's exact binary framing (see sim.
// EncodeResultEntry): bit-identical floats, CRC-checked, never JSON
// decimals.
type ComputeResponse struct {
	Key       string `json:"key"`      // point content address (hex)
	Index     int    `json:"index"`    // echo of the requested index
	Attempts  int    `json:"attempts"` // supervisor attempts consumed
	Stolen    bool   `json:"stolen"`   // the claim fenced off a prior holder
	Worker    string `json:"worker"`   // serving worker's owner label
	ResultB64 string `json:"result_b64"`
}

// ComputeServer serves /v1/compute. Mounted by stserve next to its other
// endpoints; tests mount it on a bare mux. The zero value is unusable —
// populate the policy fields before serving.
type ComputeServer struct {
	// Sup is the per-point run policy (deadline, retries).
	Sup sim.Supervisor
	// Leases, when non-nil, guards each computed point with a point lease
	// on the shared store; nil computes leaseless (duplicates stay
	// harmless, stealing degrades to "everyone computes").
	Leases *grid.Manager
	// Owner labels this worker's lease claims and responses.
	Owner string
	// MaxN bounds the per-request instruction budget, n and warmup each
	// (0 = unbounded).
	MaxN uint64
	// Ready gates admission: when it reports false (stserve draining), new
	// compute requests are refused 503 so coordinators route elsewhere.
	Ready func() bool
	// Admit, when non-nil, is the host server's admission control (stserve
	// plugs its bounded queue in); it either admits (release, true) or
	// writes its own rejection and reports false.
	Admit func(w http.ResponseWriter) (release func(), ok bool)
	// Logf, when non-nil, receives per-point serving events.
	Logf func(format string, args ...any)

	mu    sync.Mutex
	grids []*gridMemo // most recently used last, at most maxGrids

	served    atomic.Uint64 // points computed (or cache-served) to a 200
	conflicts atomic.Uint64 // claims refused 409 (lease held elsewhere)
	steals    atomic.Uint64 // claims that fenced off a prior holder
}

// gridMemo is one memoized enumeration (grids are re-requested per point,
// re-enumerating thousands of times would dominate serving cost).
type gridMemo struct {
	spec   GridSpec
	once   sync.Once
	points []sim.GridPoint
	id     string
	err    error
}

// maxGrids bounds the enumeration memo. A coordinator dispatches one grid
// at a time, so a few recent grids serve every live fleet; an evicted grid
// is enumerated again if it comes back.
const maxGrids = 4

// ServerStats is the endpoint's observability counters.
type ServerStats struct {
	Served    uint64 `json:"served"`
	Conflicts uint64 `json:"conflicts"`
	Steals    uint64 `json:"steals"`
}

// Stats snapshots the serving counters.
func (s *ComputeServer) Stats() ServerStats {
	return ServerStats{Served: s.served.Load(), Conflicts: s.conflicts.Load(), Steals: s.steals.Load()}
}

func (s *ComputeServer) logf(format string, args ...any) {
	if s.Logf != nil {
		s.Logf(format, args...)
	}
}

// grid returns the memoized enumeration for spec, whose options opts the
// caller has already checked. The memo keeps the maxGrids most recently
// used grids and evicts the least recently used one.
func (s *ComputeServer) grid(spec GridSpec, opts sim.Options) ([]sim.GridPoint, string, error) {
	s.mu.Lock()
	var m *gridMemo
	for i, g := range s.grids {
		if g.spec == spec {
			m = g
			s.grids = append(s.grids[:i], s.grids[i+1:]...)
			break
		}
	}
	if m == nil {
		m = &gridMemo{spec: spec}
		if len(s.grids) == maxGrids {
			s.grids = append(s.grids[:0], s.grids[1:]...)
		}
	}
	s.grids = append(s.grids, m)
	s.mu.Unlock()
	m.once.Do(func() {
		pts, err := sim.EnumerateGrid(spec.Exp, spec.ID, opts)
		if err != nil {
			m.err = err
			return
		}
		m.points, m.id = pts, grid.ID(pts)
	})
	return m.points, m.id, m.err
}

// ServeHTTP handles one compute request (GET or POST, parameters in the
// query string either way).
func (s *ComputeServer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if s.Ready != nil && !s.Ready() {
		w.Header().Set("Retry-After", "1")
		http.Error(w, "draining: not accepting new points", http.StatusServiceUnavailable)
		return
	}
	q := r.URL.Query()
	spec, err := gridSpecFrom(q)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if s.MaxN > 0 && spec.N > s.MaxN {
		http.Error(w, fmt.Sprintf("n %d exceeds the per-request ceiling %d", spec.N, s.MaxN), http.StatusBadRequest)
		return
	}
	if s.MaxN > 0 && spec.Warmup > s.MaxN {
		http.Error(w, fmt.Sprintf("warmup %d exceeds the per-request ceiling %d", spec.Warmup, s.MaxN), http.StatusBadRequest)
		return
	}
	opts, err := spec.SimOptions()
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}

	// Admit before enumerating: a shed request costs no enumeration and
	// leaves nothing in the memo.
	if s.Admit != nil {
		release, ok := s.Admit(w)
		if !ok {
			return
		}
		defer release()
	}

	points, gridID, err := s.grid(spec, opts)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if want := q.Get("grid"); want != "" && want != gridID {
		// The coordinator and this worker disagree about what the grid IS —
		// version skew or flag mismatch. Computing would be wrong twice
		// over: wasted work here, silent nonsense there.
		http.Error(w, fmt.Sprintf("grid mismatch: have %s, want %s", gridID, want), http.StatusPreconditionFailed)
		return
	}
	index, err := strconv.Atoi(q.Get("index"))
	if err != nil || index < 0 || index >= len(points) {
		http.Error(w, fmt.Sprintf("bad index %q (grid has %d points)", q.Get("index"), len(points)), http.StatusBadRequest)
		return
	}
	steal := q.Get("steal") == "1"

	pt := points[index]
	key := pt.Key()
	resp := ComputeResponse{Key: key.String(), Index: index, Worker: s.Owner}

	// Fast path: a point already published needs no lease — the compute
	// below will be served from the store through the cache tiers.
	stored := published(sim.DiskStore(), key)

	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()

	var lease *grid.Lease
	if s.Leases != nil && !stored {
		l, err := s.Leases.ClaimPoint(gridID, key, s.Owner, steal)
		if err == nil {
			defer l.Release()
			if steal {
				// A steal is provisional until a check confirms its fencing
				// token survived; racing stealers converge to one winner.
				err = l.Beat()
			}
		}
		switch {
		case err == nil:
			lease = l
			if steal {
				resp.Stolen = true
				s.steals.Add(1)
			}
		case errors.Is(err, grid.ErrHeld), errors.Is(err, grid.ErrLost):
			s.conflicts.Add(1)
			w.Header().Set("Retry-After", "1")
			http.Error(w, fmt.Sprintf("point lease held: %v", err), http.StatusConflict)
			return
		default:
			// Lease I/O degraded (ENOSPC, a failed check and kin): compute
			// unprotected — the lease only prevents duplicate work, and
			// duplicates are harmless.
			s.logf("compute %s: lease degraded, running unprotected: %v", resp.Key[:12], err)
		}
	}

	// Check the lease while computing; a lost lease (someone stole the
	// point — e.g. a hedge fencing us off as the straggler) cancels the
	// compute.
	checkDone := make(chan struct{})
	if lease != nil {
		go func() {
			defer close(checkDone)
			t := time.NewTicker(s.Leases.BeatInterval())
			defer t.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-t.C:
				}
				if err := lease.Beat(); err != nil {
					if errors.Is(err, grid.ErrLost) {
						s.logf("compute %s: lease lost, canceling", resp.Key[:12])
						cancel()
						return
					}
					s.logf("compute %s: lease check error (will retry): %v", resp.Key[:12], err)
				}
			}
		}()
	} else {
		close(checkDone)
	}

	sup := s.Sup
	res, st := sup.RunPointE(ctx, pt.Cfg, pt.Profile)
	cancel()
	<-checkDone

	if !st.OK() {
		s.failCompute(w, st.Err)
		return
	}
	resp.Attempts = st.Attempts
	resp.ResultB64 = base64.StdEncoding.EncodeToString(sim.EncodeResultEntry(&res))
	s.served.Add(1)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	json.NewEncoder(w).Encode(resp)
}

// failCompute maps a failed point onto HTTP: deadline → 504, cancellation
// (drain, client gone, fenced off) → 503, terminal simulation failure →
// 500 with the diagnostic.
func (s *ComputeServer) failCompute(w http.ResponseWriter, err error) {
	code := http.StatusInternalServerError
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		code = http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		code = http.StatusServiceUnavailable
	}
	http.Error(w, fmt.Sprintf("compute failed: %v", err), code)
}
