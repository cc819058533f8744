package fleet

import (
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"selthrottle/internal/faultinject"
	"selthrottle/internal/grid"
	"selthrottle/internal/pipe"
	"selthrottle/internal/prog"
	"selthrottle/internal/sim"
	"selthrottle/internal/store"
)

// testSpec builds a tiny one-benchmark grid. Varying n keeps each test's
// points distinct, so the process-wide result cache never carries state
// from one test into another's assertions.
func testSpec(n uint64) GridSpec {
	return GridSpec{Exp: "run", ID: "C2", N: n, Warmup: n / 4, Depth: 14, KB: 16, Bench: "gzip"}
}

// attachTestStore attaches a fresh disk store for the test and restores the
// previous one afterwards. Returns the store and its directory (which the
// lease manager shares). The process-wide result cache starts empty, so a
// repeated test (-count) computes and publishes its points again instead
// of serving them from the previous iteration's memory tier.
func attachTestStore(t *testing.T) (*store.Store, string) {
	t.Helper()
	sim.ClearResultCache()
	dir := t.TempDir()
	st, err := store.Open(dir, nil)
	if err != nil {
		t.Fatalf("store.Open: %v", err)
	}
	prev := sim.AttachDiskStore(st)
	t.Cleanup(func() { sim.AttachDiskStore(prev) })
	return st, dir
}

func specPoints(t *testing.T, spec GridSpec) []sim.GridPoint {
	t.Helper()
	opts, err := spec.SimOptions()
	if err != nil {
		t.Fatalf("SimOptions: %v", err)
	}
	pts, err := sim.EnumerateGrid(spec.Exp, spec.ID, opts)
	if err != nil {
		t.Fatalf("EnumerateGrid: %v", err)
	}
	if len(pts) == 0 {
		t.Fatal("empty test grid")
	}
	return pts
}

func computeURL(spec GridSpec, gridID string, index int, steal bool) string {
	q := spec.Query()
	if gridID != "" {
		q.Set("grid", gridID)
	}
	q.Set("index", strconv.Itoa(index))
	if steal {
		q.Set("steal", "1")
	}
	return "/v1/compute?" + q.Encode()
}

func serveCompute(t *testing.T, cs *ComputeServer, url string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	cs.ServeHTTP(rec, httptest.NewRequest("GET", url, nil))
	return rec
}

// TestComputeServerHappyPath: a valid request computes the point, publishes
// it to the shared store, and returns the Result as exact codec bytes.
func TestComputeServerHappyPath(t *testing.T) {
	st, dir := attachTestStore(t)
	leases, err := grid.NewManager(dir, nil, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	spec := testSpec(6010)
	pts := specPoints(t, spec)
	cs := &ComputeServer{Leases: leases, Owner: "w-test"}

	rec := serveCompute(t, cs, computeURL(spec, grid.ID(pts), 0, false))
	if rec.Code != 200 {
		t.Fatalf("compute: %d %s", rec.Code, rec.Body.String())
	}
	var resp ComputeResponse
	if err := json.NewDecoder(rec.Body).Decode(&resp); err != nil {
		t.Fatal(err)
	}
	if resp.Key != pts[0].Key().String() || resp.Worker != "w-test" || resp.Stolen {
		t.Fatalf("response = %+v", resp)
	}
	raw, err := base64.StdEncoding.DecodeString(resp.ResultB64)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.DecodeResultEntry(raw)
	if err != nil {
		t.Fatalf("wire bytes do not round-trip the store codec: %v", err)
	}
	if res.IPC <= 0 {
		t.Fatalf("decoded result has no IPC: %+v", res)
	}
	if !st.Has(pts[0].Key()) {
		t.Fatal("computed point was not published to the shared store")
	}
	if s := cs.Stats(); s.Served != 1 || s.Conflicts != 0 {
		t.Fatalf("stats = %+v", s)
	}
}

// TestComputeServerRejections: malformed or mismatched requests map to the
// right status codes — 400 for bad parameters, 412 for grid disagreement,
// 503 while not ready.
func TestComputeServerRejections(t *testing.T) {
	attachTestStore(t)
	spec := testSpec(6020)
	pts := specPoints(t, spec)
	gridID := grid.ID(pts)
	cs := &ComputeServer{Owner: "w-test", MaxN: 1_000_000}

	for _, tc := range []struct {
		name string
		url  string
		want int
	}{
		{"missing exp", "/v1/compute?index=0", 400},
		{"bad n", "/v1/compute?exp=run&id=C2&n=zap&depth=14&kb=16&index=0", 400},
		{"depth out of range", "/v1/compute?exp=run&id=C2&n=6020&depth=99&kb=16&index=0", 400},
		{"unknown experiment id", "/v1/compute?exp=run&id=zzz&n=6020&depth=14&kb=16&index=0", 400},
		{"over instruction ceiling", "/v1/compute?exp=run&id=C2&n=99999999&depth=14&kb=16&index=0", 400},
		{"index out of bounds", computeURL(spec, gridID, len(pts), false), 400},
		{"negative index", computeURL(spec, gridID, -1, false), 400},
		{"grid mismatch", computeURL(spec, "feedfeedfeed", 0, false), 412},
	} {
		if rec := serveCompute(t, cs, tc.url); rec.Code != tc.want {
			t.Fatalf("%s: %d, want %d (%s)", tc.name, rec.Code, tc.want, rec.Body.String())
		}
	}

	cs.Ready = func() bool { return false }
	rec := serveCompute(t, cs, computeURL(spec, gridID, 0, false))
	if rec.Code != 503 || rec.Header().Get("Retry-After") == "" {
		t.Fatalf("draining: %d, want 503 + Retry-After", rec.Code)
	}
}

// TestComputeServerWarmupCeiling: MaxN caps an explicit warmup as well as
// n. Over the ceiling is a 400 before any lease or simulation; at the
// ceiling the point computes.
func TestComputeServerWarmupCeiling(t *testing.T) {
	attachTestStore(t)
	const ceiling = 8000
	cs := &ComputeServer{Owner: "w-test", MaxN: ceiling}
	for _, tc := range []struct {
		name   string
		warmup uint64
		want   int
	}{
		{"at the ceiling", ceiling, 200},
		{"one over the ceiling", ceiling + 1, 400},
		{"far over the ceiling", 100_000_000_000_000, 400},
	} {
		spec := GridSpec{Exp: "run", ID: "C2", N: 6030, Warmup: tc.warmup, Depth: 14, KB: 16, Bench: "gzip"}
		rec := serveCompute(t, cs, computeURL(spec, "", 0, false))
		if rec.Code != tc.want {
			t.Fatalf("%s: %d, want %d (%s)", tc.name, rec.Code, tc.want, rec.Body.String())
		}
	}
	if s := cs.Stats(); s.Served != 1 {
		t.Fatalf("served %d points, want 1 (rejections must not compute)", s.Served)
	}
}

// TestComputeServerLeaseConflictAndSteal: a held point lease yields 409 +
// Retry-After; steal=1 fences the holder off (its next Beat fails ErrLost)
// and serves the point.
func TestComputeServerLeaseConflictAndSteal(t *testing.T) {
	_, dir := attachTestStore(t)
	leases, err := grid.NewManager(dir, nil, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	spec := testSpec(6030)
	pts := specPoints(t, spec)
	gridID := grid.ID(pts)
	cs := &ComputeServer{Leases: leases, Owner: "w-test"}

	held, err := leases.ClaimPoint(gridID, pts[0].Key(), "straggler", false)
	if err != nil {
		t.Fatalf("ClaimPoint: %v", err)
	}

	rec := serveCompute(t, cs, computeURL(spec, gridID, 0, false))
	if rec.Code != 409 || rec.Header().Get("Retry-After") == "" {
		t.Fatalf("held lease: %d, want 409 + Retry-After", rec.Code)
	}
	if s := cs.Stats(); s.Conflicts != 1 {
		t.Fatalf("stats = %+v, want 1 conflict", s)
	}

	rec = serveCompute(t, cs, computeURL(spec, gridID, 0, true))
	if rec.Code != 200 {
		t.Fatalf("steal: %d %s", rec.Code, rec.Body.String())
	}
	var resp ComputeResponse
	json.NewDecoder(rec.Body).Decode(&resp)
	if !resp.Stolen {
		t.Fatalf("response = %+v, want Stolen", resp)
	}
	if err := held.Beat(); err == nil {
		t.Fatal("fenced-off holder's Beat still succeeds")
	}
	if s := cs.Stats(); s.Steals != 1 {
		t.Fatalf("stats = %+v, want 1 steal", s)
	}
}

// TestComputeServerStealCheckErrorReleases: a steal whose confirming check
// hits an I/O error computes unprotected, like any other lease I/O error,
// answers 200 and releases its claim, so the point is not left held by a
// worker that has moved on.
func TestComputeServerStealCheckErrorReleases(t *testing.T) {
	_, dir := attachTestStore(t)
	fsys := faultinject.NewDiskFS(store.OSFS{}, faultinject.DiskFault{
		Kind:  faultinject.DiskReadError,
		Op:    faultinject.OpRead,
		Match: grid.LeaseDirName + string(os.PathSeparator),
		Once:  true,
	})
	leases, err := grid.NewManager(dir, fsys, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	spec := testSpec(6070)
	pts := specPoints(t, spec)
	gridID := grid.ID(pts)
	if _, err := leases.ClaimPoint(gridID, pts[0].Key(), "other", false); err != nil {
		t.Fatalf("ClaimPoint: %v", err)
	}
	cs := &ComputeServer{Leases: leases, Owner: "w-test"}

	rec := serveCompute(t, cs, computeURL(spec, gridID, 0, true))
	if rec.Code != 200 {
		t.Fatalf("steal with a failing check: %d %s, want 200", rec.Code, rec.Body.String())
	}
	file := filepath.Join(dir, grid.LeaseDirName, grid.PointLeaseName(gridID, pts[0].Key())+grid.LeaseSuffix)
	if data, err := os.ReadFile(file); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("lease file left behind (%v):\n%s", err, data)
	}
}

// TestComputeServerCheckLoopCancelsFencedCompute: a worker whose point is
// stolen while it computes sees the foreign token at its next lease check,
// cancels the compute and answers 503 long before the point would finish,
// and its release leaves the thief's lease alone.
func TestComputeServerCheckLoopCancelsFencedCompute(t *testing.T) {
	_, dir := attachTestStore(t)
	leases, err := grid.NewManager(dir, nil, 100*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	// At 50µs or more per cycle, a million instructions take minutes.
	spec := testSpec(1_000_000)
	pts := specPoints(t, spec)
	gridID := grid.ID(pts)
	computing := make(chan struct{})
	var once sync.Once
	var logMu sync.Mutex
	var logs strings.Builder
	cs := &ComputeServer{
		Leases: leases,
		Owner:  "w-slow",
		Sup: sim.Supervisor{PointFault: func(sim.Config, prog.Profile) pipe.FaultHook {
			once.Do(func() { close(computing) })
			return faultinject.NewPlan(faultinject.Fault{Kind: faultinject.KindSlow, Stage: pipe.StageStep, Delay: 50 * time.Microsecond})
		}},
		Logf: func(format string, args ...any) {
			logMu.Lock()
			defer logMu.Unlock()
			fmt.Fprintf(&logs, format+"\n", args...)
		},
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rec := httptest.NewRecorder()
	done := make(chan struct{})
	go func() {
		defer close(done)
		cs.ServeHTTP(rec, httptest.NewRequest("GET", computeURL(spec, gridID, 0, false), nil).WithContext(ctx))
	}()
	select {
	case <-computing:
	case <-done:
		t.Fatalf("request ended before computing: %d %s", rec.Code, rec.Body.String())
	}

	thieves, err := grid.NewManager(dir, nil, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	thief, err := thieves.ClaimPoint(gridID, pts[0].Key(), "thief", true)
	if err != nil {
		t.Fatalf("steal: %v", err)
	}
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		cancel()
		<-done
		t.Fatal("the fenced-off compute was still running 10s after the steal")
	}
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("fenced-off compute: %d %s, want 503", rec.Code, rec.Body.String())
	}
	logMu.Lock()
	if !strings.Contains(logs.String(), "lease lost, canceling") {
		t.Errorf("no lease-lost event logged:\n%s", logs.String())
	}
	logMu.Unlock()
	if err := thief.Beat(); err != nil {
		t.Fatalf("thief's check after the worker released: %v", err)
	}
	thief.Release()
}

// TestComputeServerFastPathSkipsLease: a published point is served without
// touching its lease — even a held lease does not block a store hit.
func TestComputeServerFastPathSkipsLease(t *testing.T) {
	_, dir := attachTestStore(t)
	leases, err := grid.NewManager(dir, nil, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	spec := testSpec(6040)
	pts := specPoints(t, spec)
	gridID := grid.ID(pts)
	cs := &ComputeServer{Leases: leases, Owner: "w-test"}

	// Publish the point, then hold its lease as a third party.
	if rec := serveCompute(t, cs, computeURL(spec, gridID, 0, false)); rec.Code != 200 {
		t.Fatalf("publish: %d", rec.Code)
	}
	if _, err := leases.ClaimPoint(gridID, pts[0].Key(), "other", false); err != nil {
		t.Fatalf("ClaimPoint: %v", err)
	}
	if rec := serveCompute(t, cs, computeURL(spec, gridID, 0, false)); rec.Code != 200 {
		t.Fatalf("published point behind a held lease: %d, want 200", rec.Code)
	}
}

// foreignPut computes pt outside the process cache and returns a function
// that publishes it through a second handle on the store at dir, as another
// process sharing the store would: the attached store's index never learns
// of the entry.
func foreignPut(t *testing.T, dir string, pt sim.GridPoint) func() error {
	t.Helper()
	other, err := store.Open(dir, nil)
	if err != nil {
		t.Fatalf("store.Open (second handle): %v", err)
	}
	res, err := sim.NewRunner().RunE(context.Background(), pt.Cfg, pt.Profile)
	if err != nil {
		t.Fatal(err)
	}
	e, err := store.DecodeEntry(sim.EncodeResultEntry(&res))
	if err != nil {
		t.Fatalf("DecodeEntry: %v", err)
	}
	return func() error { return other.Put(pt.Key(), &e) }
}

// TestComputeServerFastPathAdoptsForeignEntry: a point another process
// published after this worker opened the store takes the fast path too —
// no lease claim (a held lease does not block it), no compute, no put.
func TestComputeServerFastPathAdoptsForeignEntry(t *testing.T) {
	st, dir := attachTestStore(t)
	leases, err := grid.NewManager(dir, nil, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	spec := testSpec(6060)
	pts := specPoints(t, spec)
	gridID := grid.ID(pts)
	if err := foreignPut(t, dir, pts[0])(); err != nil {
		t.Fatalf("foreign publish: %v", err)
	}
	if st.Has(pts[0].Key()) {
		t.Fatal("the attached store already indexes the foreign entry")
	}
	if _, err := leases.ClaimPoint(gridID, pts[0].Key(), "other", false); err != nil {
		t.Fatalf("ClaimPoint: %v", err)
	}
	cs := &ComputeServer{Leases: leases, Owner: "w-test"}

	before := sim.ResultCacheTierStats()
	if rec := serveCompute(t, cs, computeURL(spec, gridID, 0, false)); rec.Code != 200 {
		t.Fatalf("foreign-published point behind a held lease: %d, want 200 (%s)", rec.Code, rec.Body.String())
	}
	after := sim.ResultCacheTierStats()
	if after.MemMisses != before.MemMisses || after.DiskPuts != before.DiskPuts || after.DiskHits != before.DiskHits+1 {
		t.Fatalf("cache tiers moved %+v -> %+v, want one disk hit, no compute, no put", before, after)
	}
}

// TestComputeServerAdmission: the host's admission hook runs and its
// rejection short-circuits the compute.
func TestComputeServerAdmission(t *testing.T) {
	attachTestStore(t)
	spec := testSpec(6050)
	pts := specPoints(t, spec)
	admitted, released := 0, 0
	cs := &ComputeServer{
		Owner: "w-test",
		Admit: func(w http.ResponseWriter) (func(), bool) {
			admitted++
			if admitted > 1 {
				w.Header().Set("Retry-After", "1")
				http.Error(w, "shed", http.StatusTooManyRequests)
				return nil, false
			}
			return func() { released++ }, true
		},
	}
	if rec := serveCompute(t, cs, computeURL(spec, grid.ID(pts), 0, false)); rec.Code != 200 {
		t.Fatalf("admitted request: %d", rec.Code)
	}
	if rec := serveCompute(t, cs, computeURL(spec, grid.ID(pts), 0, false)); rec.Code != 429 {
		t.Fatalf("shed request: %d, want 429", rec.Code)
	}
	if released != 1 {
		t.Fatalf("release ran %d times, want 1", released)
	}
}

// TestComputeServerGridMemoBounded: a request the host sheds enumerates
// nothing, and the enumeration memo holds at most maxGrids grids however
// many distinct specs are admitted.
func TestComputeServerGridMemoBounded(t *testing.T) {
	shed := true
	cs := &ComputeServer{
		Owner: "w-test",
		Admit: func(w http.ResponseWriter) (func(), bool) {
			if shed {
				http.Error(w, "shed", http.StatusTooManyRequests)
				return nil, false
			}
			return func() {}, true
		},
	}
	memo := func() int {
		cs.mu.Lock()
		defer cs.mu.Unlock()
		return len(cs.grids)
	}
	for n := uint64(6400); n < 6410; n++ {
		if rec := serveCompute(t, cs, computeURL(testSpec(n), "", 0, false)); rec.Code != 429 {
			t.Fatalf("shed request: %d, want 429", rec.Code)
		}
	}
	if got := memo(); got != 0 {
		t.Fatalf("shed requests left %d grids in the memo, want 0", got)
	}

	shed = false
	for n := uint64(6400); n < 6400+3*maxGrids; n++ {
		// An index past the grid's end is refused after the enumeration,
		// so the request simulates nothing.
		if rec := serveCompute(t, cs, computeURL(testSpec(n), "", 1<<20, false)); rec.Code != 400 {
			t.Fatalf("admitted request: %d, want 400", rec.Code)
		}
		if got := memo(); got > maxGrids {
			t.Fatalf("memo holds %d grids after %d specs, want at most %d", got, n-6399, maxGrids)
		}
	}
}

// TestGridSpecRoundTrip: a spec survives the wire — it encodes into the
// query, parses back identically, and expands into the sim.Options a local
// run of the same grid would use.
func TestGridSpecRoundTrip(t *testing.T) {
	spec := testSpec(6300)
	back, err := gridSpecFrom(spec.Query())
	if err != nil {
		t.Fatalf("gridSpecFrom: %v", err)
	}
	if back != spec {
		t.Fatalf("spec did not round-trip: got %+v, want %+v", back, spec)
	}
	opts, err := spec.SimOptions()
	if err != nil {
		t.Fatalf("SimOptions: %v", err)
	}
	if opts.Instructions != spec.N || opts.Warmup != spec.Warmup || opts.Depth != spec.Depth ||
		opts.PredBytes+opts.ConfBytes != spec.KB*1024 || len(opts.Profiles) != 1 {
		t.Fatalf("spec %+v expanded to %+v", spec, opts)
	}
}

func TestNormalizeBase(t *testing.T) {
	for _, tc := range []struct{ in, want string }{
		{"localhost:8080", "http://localhost:8080"},
		{"http://w0:9999", "http://w0:9999"},
		{"http://w0:9999/some/path?q=1", "http://w0:9999"},
		{"https://w0", "https://w0"},
	} {
		got, err := normalizeBase(tc.in)
		if err != nil || got != tc.want {
			t.Fatalf("normalizeBase(%q) = %q, %v; want %q", tc.in, got, err, tc.want)
		}
	}
	for _, bad := range []string{"", "http://"} {
		if _, err := normalizeBase(bad); err == nil {
			t.Fatalf("normalizeBase(%q) succeeded", bad)
		}
	}
}

// FuzzGridSpecFrom fuzzes /v1/compute's parser: gridSpecFrom, then
// GridSpec.SimOptions. ComputeServer has no simulation seam, so the target
// stops before any compute. Every input must give an error or options
// inside the simulator's bounds — n ≥ 1, depth and kb inside
// sim.CheckDepthKB, known profiles only — that mirror the parsed spec.
func FuzzGridSpecFrom(f *testing.F) {
	// TestWarmupCeiling's rows, as /v1/compute parameters.
	for _, row := range [][5]string{
		{"6000", "1000000", "14", "16", "gzip"},
		{"6000", "1000001", "14", "16", "gzip"},
		{"6000", "100000000000000", "14", "16", "gzip"},
		{"6000", "1000001", "14", "16", ""},
	} {
		f.Add(row[0], row[1], row[2], row[3], row[4])
	}
	f.Fuzz(func(t *testing.T, n, warmup, depth, kb, bench string) {
		q := url.Values{"exp": {"run"}, "id": {"C2"}, "n": {n}, "warmup": {warmup}, "depth": {depth}, "kb": {kb}, "bench": {bench}}
		spec, err := gridSpecFrom(q)
		if err != nil {
			return
		}
		opts, err := spec.SimOptions()
		if err != nil {
			return
		}
		if opts.Instructions < 1 || opts.Instructions != spec.N || opts.Warmup != spec.Warmup {
			t.Errorf("spec %+v gave n %d, warmup %d", spec, opts.Instructions, opts.Warmup)
		}
		if err := sim.CheckDepthKB(opts.Depth, (opts.PredBytes+opts.ConfBytes)/1024); err != nil {
			t.Errorf("spec %+v passed with %v", spec, err)
		}
		if (spec.Bench == "") != (opts.Profiles == nil) {
			t.Errorf("spec %+v gave profiles %v", spec, opts.Profiles)
		}
		for _, p := range opts.Profiles {
			if _, ok := prog.ProfileByName(p.Name); !ok {
				t.Errorf("spec %+v passed unknown profile %q", spec, p.Name)
			}
		}
	})
}
