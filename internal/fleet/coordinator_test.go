package fleet

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sync"
	"testing"
	"time"

	"selthrottle/internal/faultinject"
	"selthrottle/internal/grid"
)

// fleetWorker mounts a compute handler (a ComputeServer, or a wrapper
// around one) plus /readyz on a real HTTP listener — one simulated stserve
// instance.
func fleetWorker(t *testing.T, compute http.Handler) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.Handle("/v1/compute", compute)
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(200)
		w.Write([]byte("ready\n"))
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

// TestFleetRunNoWorkersDegradesLocal: the degradation floor — an empty
// worker list (and an unreachable one) still completes the whole grid, in
// process.
func TestFleetRunNoWorkersDegradesLocal(t *testing.T) {
	st, dir := attachTestStore(t)
	leases, err := grid.NewManager(dir, nil, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	spec := testSpec(6110)
	pts := specPoints(t, spec)

	rep, err := Run(context.Background(), Options{
		Spec: spec, Points: pts, Leases: leases, Owner: "coord-test",
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.Local != len(pts) || rep.Remote != 0 || rep.Failed != 0 {
		t.Fatalf("report = %+v, want all %d points local", rep, len(pts))
	}
	for _, pt := range pts {
		if k := pt.Key(); !st.Has(k) {
			t.Fatalf("point %x not published", k[:6])
		}
	}
}

// TestFleetRunAllWorkersUnreachable: every dispatch fails at the transport;
// the coordinator parks the grid and computes it locally — completion, not
// failure.
func TestFleetRunAllWorkersUnreachable(t *testing.T) {
	st, dir := attachTestStore(t)
	leases, err := grid.NewManager(dir, nil, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	spec := testSpec(6120)
	pts := specPoints(t, spec)

	rep, err := Run(context.Background(), Options{
		// Reserved port 1: connection refused immediately.
		Workers:          []string{"127.0.0.1:1"},
		Spec:             spec,
		Points:           pts,
		Retries:          -1,
		HedgeAfter:       -1,
		Backoff:          time.Millisecond,
		BreakerThreshold: 1,
		Leases:           leases,
		Owner:            "coord-test",
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.Local != len(pts) || rep.Remote != 0 {
		t.Fatalf("report = %+v, want all %d points local", rep, len(pts))
	}
	if len(rep.PerWorker) != 1 || rep.PerWorker[0].Failures == 0 {
		t.Fatalf("per-worker stats = %+v, want recorded failures", rep.PerWorker)
	}
	for _, pt := range pts {
		if k := pt.Key(); !st.Has(k) {
			t.Fatalf("point %x not published", k[:6])
		}
	}
}

// TestFleetRunRemote: the happy path — a healthy worker serves every point,
// results land in the shared store AND the coordinator's process cache.
func TestFleetRunRemote(t *testing.T) {
	st, dir := attachTestStore(t)
	leases, err := grid.NewManager(dir, nil, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	spec := testSpec(6130)
	pts := specPoints(t, spec)
	cs := &ComputeServer{Leases: leases, Owner: "w0"}
	srv := fleetWorker(t, cs)

	rep, err := Run(context.Background(), Options{
		Workers: []string{srv.URL},
		Spec:    spec, Points: pts,
		Leases: leases, Owner: "coord-test",
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.Remote != len(pts) || rep.Local != 0 || rep.Failed != 0 {
		t.Fatalf("report = %+v, want all %d points remote", rep, len(pts))
	}
	if cs.Stats().Served != uint64(len(pts)) {
		t.Fatalf("worker served %d, want %d", cs.Stats().Served, len(pts))
	}
	for _, pt := range pts {
		if k := pt.Key(); !st.Has(k) {
			t.Fatalf("point %x not in the shared store", k[:6])
		}
	}
	// Second run over the warm store dispatches nothing.
	rep2, err := Run(context.Background(), Options{
		Workers: []string{srv.URL}, Spec: spec, Points: pts, Leases: leases, Owner: "coord-test",
	})
	if err != nil || rep2.Stored != len(pts) || rep2.Remote != 0 || rep2.Local != 0 {
		t.Fatalf("warm rerun = %+v, %v; want all stored", rep2, err)
	}
}

// TestFleetRunSeesLateForeignPublication: a point whose lease a third
// party holds answers 409; when that party's result lands in the store
// during dispatch — published by another process, so the coordinator's
// index never saw it — the coordinator's post-conflict check finds it and
// counts the point served, instead of escalating to a steal that computes
// it again.
func TestFleetRunSeesLateForeignPublication(t *testing.T) {
	_, dir := attachTestStore(t)
	leases, err := grid.NewManager(dir, nil, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	spec := testSpec(6170)
	pts := specPoints(t, spec)
	if _, err := leases.ClaimPoint(grid.ID(pts), pts[0].Key(), "other", false); err != nil {
		t.Fatalf("ClaimPoint: %v", err)
	}
	cs := &ComputeServer{Leases: leases, Owner: "w0"}
	publish := foreignPut(t, dir, pts[0])
	var once sync.Once
	srv := fleetWorker(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		cs.ServeHTTP(w, r)
		if r.URL.Query().Get("index") == "0" {
			// The lease holder publishes only after the first conflict.
			once.Do(func() {
				if err := publish(); err != nil {
					t.Errorf("foreign publish: %v", err)
				}
			})
		}
	}))

	rep, err := Run(context.Background(), Options{
		Workers: []string{srv.URL},
		Spec:    spec, Points: pts,
		Backoff: time.Millisecond,
		Leases:  leases, Owner: "coord-test",
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.Stored != 0 || rep.Steals != 0 || rep.Local != 0 || rep.Remote != len(pts) {
		t.Fatalf("report = %+v, want all %d points remote, none stolen or local", rep, len(pts))
	}
	if s := cs.Stats(); s.Conflicts == 0 || s.Served != uint64(len(pts)-1) {
		t.Fatalf("worker stats = %+v, want a conflict and the held point never served", s)
	}
}

// TestFleetRunHedgesStraggler: worker A's responses are delayed far past
// the hedge threshold; the hedge twin on worker B wins while A straggles.
func TestFleetRunHedgesStraggler(t *testing.T) {
	st, dir := attachTestStore(t)
	leases, err := grid.NewManager(dir, nil, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	spec := testSpec(6140)
	pts := specPoints(t, spec)
	slow := fleetWorker(t, &ComputeServer{Leases: leases, Owner: "w-slow"})
	fast := fleetWorker(t, &ComputeServer{Leases: leases, Owner: "w-fast"})

	slowHost, _ := url.Parse(slow.URL)
	// Every compute request to the slow worker hangs ~2s before forwarding;
	// probes to /readyz stay fast so its breaker never interferes.
	nf := faultinject.NewNetFaults(nil, faultinject.NetFault{
		Kind:  faultinject.NetDelay,
		Match: slowHost.Host + "/v1/compute",
		Delay: 2 * time.Second,
	})

	rep, err := Run(context.Background(), Options{
		Workers:    []string{slow.URL, fast.URL},
		Spec:       spec,
		Points:     pts,
		Transport:  nf,
		HedgeAfter: 30 * time.Millisecond,
		// A cap far above the point count: the fast worker always has a free
		// slot for a hedge, so every slow-worker primary is hedgeable.
		PerWorker: 64,
		Leases:    leases,
		Owner:     "coord-test",
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.Remote+rep.Local != len(pts) || rep.Failed != 0 {
		t.Fatalf("report = %+v, want %d points served", rep, len(pts))
	}
	if rep.Hedges == 0 || rep.HedgeWins == 0 {
		t.Fatalf("report = %+v, want at least one hedge and one hedge win", rep)
	}
	for _, pt := range pts {
		if k := pt.Key(); !st.Has(k) {
			t.Fatalf("point %x not published", k[:6])
		}
	}
}

// TestFleetRunHedgesWhenSlotFrees: the primary worker is wedged, and when
// the hedge threshold first passes the only other worker is at its cap,
// busy with the grid's other point. The hedge must go out once that worker
// frees its slot, so the point finishes long before the wedged request's
// deadline instead of waiting it out.
func TestFleetRunHedgesWhenSlotFrees(t *testing.T) {
	st, dir := attachTestStore(t)
	leases, err := grid.NewManager(dir, nil, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	spec := testSpec(6180)
	pts := specPoints(t, spec)
	if len(pts) != 2 {
		t.Fatalf("test grid has %d points, want 2 (one per worker)", len(pts))
	}
	wedged := fleetWorker(t, &ComputeServer{Leases: leases, Owner: "w-wedged"})
	busy := fleetWorker(t, &ComputeServer{Leases: leases, Owner: "w-busy"})
	wedgedHost, _ := url.Parse(wedged.URL)
	busyHost, _ := url.Parse(busy.URL)
	// With one slot per worker, the first point goes to the wedged worker
	// and never comes back; the second goes to the other worker, whose
	// first answer is held for several hedge intervals.
	nf := faultinject.NewNetFaults(nil,
		faultinject.NetFault{Kind: faultinject.NetBlackhole, Match: wedgedHost.Host + "/v1/compute"},
		faultinject.NetFault{Kind: faultinject.NetDelay, Match: busyHost.Host + "/v1/compute", Delay: 500 * time.Millisecond, Once: true},
	)

	const pointTimeout = 10 * time.Second
	start := time.Now()
	rep, err := Run(context.Background(), Options{
		Workers:      []string{wedged.URL, busy.URL},
		Spec:         spec,
		Points:       pts,
		Transport:    nf,
		PointTimeout: pointTimeout,
		HedgeAfter:   100 * time.Millisecond,
		PerWorker:    1,
		Leases:       leases,
		Owner:        "coord-test",
	})
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.Remote != len(pts) || rep.Failed != 0 {
		t.Fatalf("report = %+v, want all %d points remote", rep, len(pts))
	}
	if rep.Hedges < 1 || rep.RetriesUsed != 0 {
		t.Fatalf("report = %+v, want the wedged point hedged on its first attempt", rep)
	}
	if elapsed > pointTimeout/2 {
		t.Fatalf("grid took %v, want well inside the %v point timeout", elapsed, pointTimeout)
	}
	for _, pt := range pts {
		if k := pt.Key(); !st.Has(k) {
			t.Fatalf("point %x not published", k[:6])
		}
	}
}

// TestFleetRunBreakerCycle: consecutive transport failures open the one
// worker's breaker; once the open interval elapses, a /readyz probe closes
// it and dispatch resumes remotely — open → half-open → closed, observed
// through the report counters.
func TestFleetRunBreakerCycle(t *testing.T) {
	_, dir := attachTestStore(t)
	leases, err := grid.NewManager(dir, nil, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	spec := testSpec(6150)
	pts := specPoints(t, spec)
	srv := fleetWorker(t, &ComputeServer{Leases: leases, Owner: "w0"})

	// The first two connections reset (two one-shot faults); everything
	// after — including the breaker probe — succeeds.
	nf := faultinject.NewNetFaults(nil,
		faultinject.NetFault{Kind: faultinject.NetConnReset, Match: "/v1/compute", After: 0, Once: true},
		faultinject.NetFault{Kind: faultinject.NetConnReset, Match: "/v1/compute", After: 0, Once: true},
	)

	rep, err := Run(context.Background(), Options{
		Workers:          []string{srv.URL},
		Spec:             spec,
		Points:           pts,
		Transport:        nf,
		Retries:          6,
		Backoff:          60 * time.Millisecond,
		BreakerThreshold: 2,
		BreakerOpenFor:   20 * time.Millisecond,
		HedgeAfter:       -1,
		Leases:           leases,
		Owner:            "coord-test",
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.Remote+rep.Local != len(pts) || rep.Failed != 0 {
		t.Fatalf("report = %+v, want %d points served", rep, len(pts))
	}
	ws := rep.PerWorker[0]
	if ws.BreakerOpens == 0 || ws.BreakerCloses == 0 {
		t.Fatalf("worker stats = %+v, want an open → close cycle", ws)
	}
	if rep.Probes == 0 {
		t.Fatalf("report = %+v, want at least one half-open probe", rep)
	}
	if rep.Remote == 0 {
		t.Fatalf("report = %+v, want remote dispatch to resume after the probe", rep)
	}
}

// TestFleetRunInterrupted: canceling the context mid-dispatch cancels the
// blackholed in-flight requests and Run returns promptly with Interrupted —
// the signal-forwarding contract.
func TestFleetRunInterrupted(t *testing.T) {
	_, dir := attachTestStore(t)
	leases, err := grid.NewManager(dir, nil, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	spec := testSpec(6160)
	pts := specPoints(t, spec)
	srv := fleetWorker(t, &ComputeServer{Leases: leases, Owner: "w0"})

	// Every compute request disappears into a blackhole: only cancellation
	// can end them.
	nf := faultinject.NewNetFaults(nil, faultinject.NetFault{Kind: faultinject.NetBlackhole, Match: "/v1/compute"})

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	done := make(chan struct{})
	var rep Report
	go func() {
		defer close(done)
		rep, err = Run(ctx, Options{
			Workers:      []string{srv.URL},
			Spec:         spec,
			Points:       pts,
			Transport:    nf,
			PointTimeout: time.Hour, // only cancellation may end the requests
			HedgeAfter:   -1,
			Leases:       leases,
			Owner:        "coord-test",
		})
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Run did not return after cancellation: in-flight requests were not canceled")
	}
	if !rep.Interrupted {
		t.Fatalf("report = %+v, want Interrupted", rep)
	}
	if err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestPickReservesSlot: pick reserves the in-flight slot it hands out, so
// with one worker capped at one request, a second pick before the first
// request returns finds the worker busy instead of over-subscribing it.
// The request call frees the slot when it returns, and a half-open probe
// grant reserves nothing.
func TestPickReservesSlot(t *testing.T) {
	base, err := normalizeBase("127.0.0.1:1") // reserved port: refused at once
	if err != nil {
		t.Fatal(err)
	}
	w := &worker{name: "w", base: base, breaker: NewBreaker(100, time.Second, nil)}
	c := &coordinator{workers: []*worker{w}, hc: &http.Client{}, pointTimeout: time.Second}

	if got, probe, busy := c.pick(nil, 1); got != w || probe || busy {
		t.Fatalf("first pick: worker=%v probe=%v busy=%v, want the worker", got != nil, probe, busy)
	}
	if got, _, busy := c.pick(nil, 1); got != nil || !busy {
		t.Fatalf("second pick before the call returned: worker=%v busy=%v, want none and busy", got != nil, busy)
	}
	if _, _, err := c.attemptWithHedge(context.Background(), w, 0, false, 1); err == nil {
		t.Fatal("request to a refused port succeeded")
	}
	if n := w.inflight.Load(); n != 0 {
		t.Fatalf("%d slot(s) held after the call returned, want 0", n)
	}
	if got, _, _ := c.pick(nil, 1); got != w {
		t.Fatal("slot not free after the call returned")
	}

	var now time.Duration
	pw := &worker{name: "p", breaker: NewBreaker(1, time.Second, func() time.Duration { return now })}
	pw.breaker.Record(false, false) // opens the breaker
	now += time.Second
	pc := &coordinator{workers: []*worker{pw}}
	if got, probe, _ := pc.pick(nil, 1); got != pw || !probe {
		t.Fatalf("pick after the open interval: worker=%v probe=%v, want a probe grant", got != nil, probe)
	}
	if n := pw.inflight.Load(); n != 0 {
		t.Fatalf("probe grant reserved %d slot(s), want 0", n)
	}
}
