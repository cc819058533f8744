package grid_test

// Work stealing on the fleet path. These tests live outside package grid
// because internal/fleet, whose coordinator and compute server do the
// stealing, imports grid.

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"selthrottle/internal/fleet"
	"selthrottle/internal/grid"
	"selthrottle/internal/sim"
	"selthrottle/internal/store"
)

// stealFixture enumerates a small grid, attaches a fresh disk store, and
// mounts one healthy compute worker over it. Instructions vary per test and
// the process-wide result cache starts empty, so every point is computed,
// and published to this test's store, even when the test repeats (-count).
func stealFixture(t *testing.T, n uint64) (fleet.GridSpec, []sim.GridPoint, *store.Store, *grid.Manager, string) {
	t.Helper()
	sim.ClearResultCache()
	dir := t.TempDir()
	st, err := store.Open(dir, nil)
	if err != nil {
		t.Fatalf("store.Open: %v", err)
	}
	prev := sim.AttachDiskStore(st)
	t.Cleanup(func() { sim.AttachDiskStore(prev) })
	spec := fleet.GridSpec{Exp: "run", ID: "C2", N: n, Warmup: n / 4, Depth: 14, KB: 16}
	opts, err := spec.SimOptions()
	if err != nil {
		t.Fatalf("SimOptions: %v", err)
	}
	pts, err := sim.EnumerateGrid(spec.Exp, spec.ID, opts)
	if err != nil {
		t.Fatalf("EnumerateGrid: %v", err)
	}
	if len(pts) < 2 {
		t.Fatalf("grid too small for a steal test: %d points", len(pts))
	}
	m, err := grid.NewManager(dir, nil, 100*time.Millisecond)
	if err != nil {
		t.Fatalf("NewManager: %v", err)
	}
	mux := http.NewServeMux()
	mux.Handle("/v1/compute", &fleet.ComputeServer{Leases: m, Owner: "w0"})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, _ *http.Request) { w.Write([]byte("ready\n")) })
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return spec, pts, st, m, srv.URL
}

// requirePublished fails unless every grid point is in the store.
func requirePublished(t *testing.T, st *store.Store, pts []sim.GridPoint) {
	t.Helper()
	for _, g := range pts {
		if k := g.Key(); !st.Has(k) {
			t.Fatalf("point %x missing from the store", k[:6])
		}
	}
}

// TestWorkerStealPassDrainsAbsentPartition: a worker that never comes up
// costs nothing but its failed attempts — the fleet takes every point it
// would have served elsewhere, and every point of the grid is published.
func TestWorkerStealPassDrainsAbsentPartition(t *testing.T) {
	spec, pts, st, m, healthy := stealFixture(t, 6210)

	rep, err := fleet.Run(context.Background(), fleet.Options{
		// Reserved port 1: the absent worker refuses every connection.
		Workers:          []string{"127.0.0.1:1", healthy},
		Spec:             spec,
		Points:           pts,
		Backoff:          time.Millisecond,
		BreakerThreshold: 1,
		Leases:           m,
		Owner:            "coord",
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.Remote+rep.Local != len(pts) || rep.Failed != 0 {
		t.Fatalf("report = %+v, want all %d points served", rep, len(pts))
	}
	requirePublished(t, st, pts)
}

// TestWorkerStealPassWaitsOutExpiredLease: a point still guarded by a dead
// holder's lease (claimed, never checked, never released) answers 409
// until the coordinator escalates to a steal, which fences the dead holder
// off and publishes the point.
func TestWorkerStealPassWaitsOutExpiredLease(t *testing.T) {
	spec, pts, st, m, healthy := stealFixture(t, 6220)

	heldKey := pts[0].Key()
	if _, err := m.ClaimPoint(grid.ID(pts), heldKey, "dead-worker", false); err != nil {
		t.Fatalf("ClaimPoint: %v", err)
	}

	rep, err := fleet.Run(context.Background(), fleet.Options{
		Workers: []string{healthy},
		Spec:    spec,
		Points:  pts,
		Backoff: time.Millisecond,
		Leases:  m,
		Owner:   "coord",
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !st.Has(heldKey) {
		t.Fatal("the dead holder's point was never rescued")
	}
	if rep.Steals == 0 || rep.Local != 0 {
		t.Fatalf("report = %+v, want the point stolen remotely", rep)
	}
	requirePublished(t, st, pts)
}
