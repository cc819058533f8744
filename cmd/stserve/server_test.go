package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"selthrottle/internal/fleet"
	"selthrottle/internal/prog"
	"selthrottle/internal/sim"
)

func testServer(queueCap int, timeout time.Duration) *server {
	opts := sim.Options{Instructions: 6000, Warmup: 1500}
	return newServer(opts, sim.Supervisor{}, queueCap, timeout, 1_000_000)
}

// stubPoint installs a runPoint stub returning a fixed Result.
func stubPoint(s *server, ipc float64) {
	s.runPoint = func(_ context.Context, _ sim.Config, p prog.Profile) (sim.Result, sim.PointStatus) {
		return sim.Result{Benchmark: p.Name, IPC: ipc, Seconds: 0.5}, sim.PointStatus{Attempts: 1}
	}
}

func get(t *testing.T, h http.Handler, url string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", url, nil))
	return rec
}

func TestHealthz(t *testing.T) {
	s := testServer(1, 0)
	rec := get(t, s.routes(), "/healthz")
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), "ok") {
		t.Fatalf("healthz: %d %q", rec.Code, rec.Body.String())
	}
}

func TestPointHappyPathAndParams(t *testing.T) {
	s := testServer(2, 0)
	stubPoint(s, 1.75)
	h := s.routes()

	rec := get(t, h, "/v1/point?bench=gzip&id=C2")
	if rec.Code != 200 {
		t.Fatalf("point: %d %s", rec.Code, rec.Body.String())
	}
	var resp pointResponse
	if err := json.NewDecoder(rec.Body).Decode(&resp); err != nil {
		t.Fatal(err)
	}
	if resp.Experiment != "C2" || resp.Result.IPC != 1.75 || resp.Result.Benchmark != "gzip" {
		t.Fatalf("point body: %+v", resp)
	}

	for _, bad := range []string{
		"/v1/point",                       // missing bench
		"/v1/point?bench=nope",            // unknown benchmark
		"/v1/point?bench=gzip&id=zzz",     // unknown experiment
		"/v1/point?bench=gzip&n=0",        // bad n
		"/v1/point?bench=gzip&n=99999999", // over the per-request ceiling (maxN 1e6)
		"/v1/point?bench=gzip&depth=99",   // depth out of range
		"/v1/point?bench=gzip&kb=9999",    // kb out of range
	} {
		if rec := get(t, h, bad); rec.Code != 400 {
			t.Fatalf("%s: %d, want 400", bad, rec.Code)
		}
	}
}

// TestWarmupCeiling: an explicit warmup is held to the per-request ceiling
// (-max-n) like n, on every endpoint that simulates. Over the ceiling is a
// 400 before admission; at the ceiling the request runs with that warmup.
func TestWarmupCeiling(t *testing.T) {
	s := testServer(2, 0) // ceiling 1,000,000
	s.compute = &fleet.ComputeServer{Owner: "w-test", MaxN: s.maxN, Admit: s.acquire}
	var seen []uint64 // warmups that reached the simulation seams
	s.runPoint = func(_ context.Context, cfg sim.Config, p prog.Profile) (sim.Result, sim.PointStatus) {
		seen = append(seen, cfg.Warmup)
		return sim.Result{Benchmark: p.Name, IPC: 1, Seconds: 1}, sim.PointStatus{Attempts: 1}
	}
	s.runFigure = func(_ context.Context, name string, _ []sim.Experiment, opts sim.Options) *sim.FigureResult {
		seen = append(seen, opts.Warmup)
		return &sim.FigureResult{Name: name, Rows: []sim.ExperimentRow{{}}}
	}
	h := s.routes()

	for _, tc := range []struct {
		path   string
		warmup uint64
		want   int
	}{
		{"/v1/point?bench=gzip", 1_000_000, 200},
		{"/v1/point?bench=gzip", 1_000_001, 400},
		{"/v1/point?bench=gzip&n=6000", 100_000_000_000_000, 400},
		{"/v1/figure?fig=fig3", 1_000_000, 200},
		{"/v1/figure?fig=fig3", 1_000_001, 400},
		{"/v1/sweep?kind=size", 1_000_000, 200},
		{"/v1/sweep?kind=depth", 1_000_001, 400},
		{"/v1/compute?exp=run&id=C2&n=6000&depth=14&kb=16&index=0", 1_000_001, 400},
	} {
		seen = nil
		url := fmt.Sprintf("%s&warmup=%d", tc.path, tc.warmup)
		rec := get(t, h, url)
		if rec.Code != tc.want {
			t.Fatalf("%s: %d, want %d (%s)", url, rec.Code, tc.want, rec.Body.String())
		}
		if tc.want != 200 {
			if len(seen) != 0 {
				t.Fatalf("%s: rejected request still simulated (warmups %v)", url, seen)
			}
			continue
		}
		if len(seen) == 0 {
			t.Fatalf("%s: accepted request never simulated", url)
		}
		for _, wu := range seen {
			if wu != tc.warmup {
				t.Fatalf("%s: simulated with warmup %d, want %d", url, wu, tc.warmup)
			}
		}
	}
}

func TestPointCompareRunsBaseline(t *testing.T) {
	s := testServer(2, 0)
	calls := 0
	s.runPoint = func(_ context.Context, cfg sim.Config, p prog.Profile) (sim.Result, sim.PointStatus) {
		calls++
		ipc := 1.0
		if cfg.Policy.Name != "" && calls == 1 {
			ipc = 1.2 // the experiment request comes first
		}
		return sim.Result{Benchmark: p.Name, IPC: ipc, Seconds: 1 / ipc, Energy: 1, EDelay: 1, AvgPower: 1}, sim.PointStatus{Attempts: 1}
	}
	rec := get(t, s.routes(), "/v1/point?bench=gzip&id=C2&compare=1")
	if rec.Code != 200 {
		t.Fatalf("compare: %d %s", rec.Code, rec.Body.String())
	}
	var resp pointResponse
	json.NewDecoder(rec.Body).Decode(&resp)
	if calls != 2 || resp.Comparison == nil {
		t.Fatalf("compare ran %d points, comparison %v", calls, resp.Comparison)
	}
}

// TestShedWith429: with the single queue slot held, the next request is
// rejected immediately with 429 + Retry-After and counted as shed.
func TestShedWith429(t *testing.T) {
	s := testServer(1, 0)
	admitted := make(chan struct{})
	release := make(chan struct{})
	s.runPoint = func(_ context.Context, _ sim.Config, p prog.Profile) (sim.Result, sim.PointStatus) {
		close(admitted)
		<-release
		return sim.Result{Benchmark: p.Name}, sim.PointStatus{Attempts: 1}
	}
	h := s.routes()
	done := make(chan *httptest.ResponseRecorder)
	go func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/point?bench=gzip", nil))
		done <- rec
	}()
	<-admitted

	rec := get(t, h, "/v1/point?bench=gzip")
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("saturated request: %d, want 429", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	close(release)
	if first := <-done; first.Code != 200 {
		t.Fatalf("admitted request: %d", first.Code)
	}
	if s.shed.Load() != 1 || s.served.Load() != 1 {
		t.Fatalf("counters: shed %d served %d", s.shed.Load(), s.served.Load())
	}
	// The slot is free again: no lingering saturation.
	stubPoint(s, 1)
	if rec := get(t, h, "/v1/point?bench=gzip"); rec.Code != 200 {
		t.Fatalf("after release: %d", rec.Code)
	}
}

// TestDeadlineMapsTo504: a point that only completes when its context
// expires surfaces as 504, not 500 and not a hang.
func TestDeadlineMapsTo504(t *testing.T) {
	s := testServer(1, 20*time.Millisecond)
	s.runPoint = func(ctx context.Context, _ sim.Config, _ prog.Profile) (sim.Result, sim.PointStatus) {
		<-ctx.Done()
		return sim.Result{}, sim.PointStatus{Err: ctx.Err(), Attempts: 1}
	}
	rec := get(t, s.routes(), "/v1/point?bench=gzip")
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("deadline: %d %s, want 504", rec.Code, rec.Body.String())
	}
	if s.failed.Load() != 1 {
		t.Fatalf("failed counter = %d", s.failed.Load())
	}
}

func TestCanceledMapsTo503(t *testing.T) {
	s := testServer(1, 0)
	s.runPoint = func(_ context.Context, _ sim.Config, _ prog.Profile) (sim.Result, sim.PointStatus) {
		return sim.Result{}, sim.PointStatus{Err: context.Canceled, Attempts: 1}
	}
	if rec := get(t, s.routes(), "/v1/point?bench=gzip"); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("canceled: %d, want 503", rec.Code)
	}
}

// TestSweepStreamsNDJSON: the depth and size sweeps stream one
// self-contained JSON line per x value, each point simulated at its own
// depth or budget, and a point's grid failures ride along on its line
// instead of failing the response.
func TestSweepStreamsNDJSON(t *testing.T) {
	s := testServer(1, 0)
	var names []string
	s.runFigure = func(_ context.Context, name string, exps []sim.Experiment, opts sim.Options) *sim.FigureResult {
		names = append(names, name)
		fr := &sim.FigureResult{
			Name: name,
			Rows: []sim.ExperimentRow{{Average: sim.Comparison{
				Speedup:     float64(opts.Depth),
				PowerSaving: float64(opts.PredBytes+opts.ConfBytes) / 1024,
			}}},
		}
		if opts.Depth == 10 {
			fr.Statuses = make([]sim.PointStatus, 1)
			fr.Failures = []sim.PointFailure{{Figure: name, Experiment: "C2", Benchmark: "gzip", Attempts: 1}}
		}
		return fr
	}
	sweep := func(kind string) []sweepPointJSON {
		t.Helper()
		names = nil
		rec := get(t, s.routes(), "/v1/sweep?kind="+kind)
		if rec.Code != 200 {
			t.Fatalf("%s sweep: %d %s", kind, rec.Code, rec.Body.String())
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/x-ndjson" {
			t.Fatalf("%s sweep: content type %q", kind, ct)
		}
		var lines []sweepPointJSON
		sc := bufio.NewScanner(rec.Body)
		for sc.Scan() {
			var pt sweepPointJSON
			if err := json.Unmarshal(sc.Bytes(), &pt); err != nil {
				t.Fatalf("non-JSON %s sweep line %q: %v", kind, sc.Text(), err)
			}
			lines = append(lines, pt)
		}
		return lines
	}

	lines := sweep("depth")
	if len(lines) != 12 { // depths 6..28 step 2
		t.Fatalf("%d depth sweep lines, want 12", len(lines))
	}
	for i, pt := range lines {
		wantX := 6 + 2*i
		if pt.X != wantX || pt.Average.Speedup != float64(wantX) || names[i] != fmt.Sprintf("depth-%d", wantX) {
			t.Fatalf("depth line %d: %+v from figure %q", i, pt, names[i])
		}
		if (pt.X == 10) != (len(pt.Failures) == 1) {
			t.Fatalf("depth line %d failures: %v", i, pt.Failures)
		}
	}

	lines = sweep("size")
	wantKB := []int{8, 16, 32, 64}
	if len(lines) != len(wantKB) {
		t.Fatalf("%d size sweep lines, want %d", len(lines), len(wantKB))
	}
	for i, pt := range lines {
		kb := wantKB[i]
		if pt.X != kb || pt.Average.PowerSaving != float64(kb) || names[i] != fmt.Sprintf("size-%dKB", kb) || len(pt.Failures) != 0 {
			t.Fatalf("size line %d: %+v from figure %q", i, pt, names[i])
		}
	}

	if rec := get(t, s.routes(), "/v1/sweep?kind=nope"); rec.Code != 400 {
		t.Fatalf("bad sweep kind: %d", rec.Code)
	}
}

// TestFigureEndpointDegradesPartially: a grid with some failed points still
// returns 200 with the failures listed; a grid where everything failed maps
// to the failure's status code.
func TestFigureEndpointDegradesPartially(t *testing.T) {
	s := testServer(1, 0)
	s.runFigure = func(_ context.Context, name string, exps []sim.Experiment, _ sim.Options) *sim.FigureResult {
		return &sim.FigureResult{
			Name:      name,
			Baselines: []sim.Result{{Benchmark: "gzip", IPC: 1}},
			Rows:      []sim.ExperimentRow{{Experiment: exps[0], PerBench: []sim.Comparison{{Benchmark: "gzip"}}}},
			Statuses:  make([]sim.PointStatus, 4),
			Failures:  []sim.PointFailure{{Figure: name, Experiment: "A1", Benchmark: "gzip", Attempts: 2}},
		}
	}
	rec := get(t, s.routes(), "/v1/figure?fig=fig3")
	if rec.Code != 200 {
		t.Fatalf("degraded figure: %d", rec.Code)
	}
	var resp figureResponse
	json.NewDecoder(rec.Body).Decode(&resp)
	if len(resp.Failures) != 1 || !strings.Contains(resp.Failures[0], "A1") {
		t.Fatalf("failures: %v", resp.Failures)
	}
	for fig, title := range map[string]string{
		"fig1": "Figure 1: oracle", "fig3": "Figure 3: fetch", "fig4": "Figure 4: decode", "fig5": "Figure 5: selection",
	} {
		rec := get(t, s.routes(), "/v1/figure?fig="+fig)
		var resp figureResponse
		json.NewDecoder(rec.Body).Decode(&resp)
		if rec.Code != 200 || !strings.HasPrefix(resp.Name, title) {
			t.Fatalf("fig=%s: %d %q, want 200 %q...", fig, rec.Code, resp.Name, title)
		}
	}

	s.runFigure = func(_ context.Context, name string, _ []sim.Experiment, _ sim.Options) *sim.FigureResult {
		st := []sim.PointStatus{{Err: context.DeadlineExceeded, Attempts: 1}}
		return &sim.FigureResult{Name: name, Statuses: st,
			Failures: []sim.PointFailure{{Figure: name, Err: context.DeadlineExceeded, Attempts: 1}}}
	}
	if rec := get(t, s.routes(), "/v1/figure?fig=fig3"); rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("all-failed figure: %d, want 504", rec.Code)
	}
	// Only the bar-chart figures are figures: a sweep, the ablation blocks,
	// a table or a single experiment is not.
	for _, fig := range []string{"bogus", "fig6", "ablation", "table1", "run"} {
		if rec := get(t, s.routes(), "/v1/figure?fig="+fig); rec.Code != 400 {
			t.Fatalf("fig=%s: %d, want 400", fig, rec.Code)
		}
	}
}

func TestStatszShape(t *testing.T) {
	s := testServer(3, 0)
	stubPoint(s, 1)
	h := s.routes()
	get(t, h, "/v1/point?bench=gzip")
	rec := get(t, h, "/statsz")
	if rec.Code != 200 {
		t.Fatalf("statsz: %d", rec.Code)
	}
	var resp statszResponse
	if err := json.NewDecoder(rec.Body).Decode(&resp); err != nil {
		t.Fatal(err)
	}
	if resp.Requests.Served != 1 || resp.Queue.Capacity != 3 || resp.Queue.Depth != 0 {
		t.Fatalf("statsz body: %+v", resp)
	}
}

// TestPointEndToEnd runs one real (small) simulation through the full
// handler stack — no stubs — to pin the wiring between HTTP parameters,
// BaseConfig, the supervisor, and the shared cache.
func TestPointEndToEnd(t *testing.T) {
	s := testServer(1, 30*time.Second)
	rec := get(t, s.routes(), "/v1/point?bench=gzip&n=6000&warmup=1500")
	if rec.Code != 200 {
		t.Fatalf("end-to-end point: %d %s", rec.Code, rec.Body.String())
	}
	var resp pointResponse
	if err := json.NewDecoder(rec.Body).Decode(&resp); err != nil {
		t.Fatal(err)
	}
	if resp.Result.IPC <= 0 || resp.Result.Benchmark != "gzip" {
		t.Fatalf("end-to-end result: %+v", resp.Result)
	}
}

// TestReadyzDrainSplit pins the liveness/readiness split: before draining
// both probes are 200; after SetDraining, /readyz refuses with 503 +
// Retry-After (stop routing here) while /healthz stays 200 (still alive,
// just leaving) — the distinction fleet breaker probes and process
// supervisors each depend on.
func TestReadyzDrainSplit(t *testing.T) {
	s := testServer(1, 0)
	h := s.routes()

	if rec := get(t, h, "/readyz"); rec.Code != 200 {
		t.Fatalf("fresh readyz: %d, want 200", rec.Code)
	}
	s.SetDraining()
	s.SetDraining() // idempotent
	rec := get(t, h, "/readyz")
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("draining readyz: %d, want 503", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("draining readyz carries no Retry-After")
	}
	if rec := get(t, h, "/healthz"); rec.Code != 200 {
		t.Fatalf("draining healthz: %d, want 200 (alive, just leaving)", rec.Code)
	}
}
