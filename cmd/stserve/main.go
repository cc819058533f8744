// Command stserve exposes the selective-throttling reproduction as a
// resilient HTTP/JSON sweep service: single simulation points, whole figure
// grids, and NDJSON-streamed sensitivity sweeps, backed by the tiered result
// cache (bounded memory LRU over the crash-safe persistent store) and the
// run supervisor (sim.Supervisor). Overload sheds with 429 + Retry-After
// instead of queueing without bound; SIGTERM/SIGINT drains in-flight
// requests before exiting.
//
// Usage:
//
//	stserve -addr :8080 -store /var/cache/selthrottle -n 2000000
//
// Endpoints: /healthz (liveness), /readyz (readiness; 503 while draining),
// /statsz, /v1/point, /v1/figure, /v1/sweep (NDJSON), /v1/compute (fleet
// point dispatch). See README.md for the API.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"selthrottle/internal/fleet"
	"selthrottle/internal/grid"
	"selthrottle/internal/sim"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		addr    = flag.String("addr", ":8080", "listen address")
		n       = flag.Uint64("n", 200_000, "default instructions per run")
		warmup  = flag.Uint64("warmup", 0, "default warmup instructions (0 = n/4)")
		maxN    = flag.Uint64("max-n", 50_000_000, "per-request instruction ceiling")
		queue   = flag.Int("queue", 4, "admitted requests in flight before shedding with 429")
		timeout = flag.Duration("timeout", 5*time.Minute, "per-request deadline (0 = none)")
		drain   = flag.Duration("drain", 30*time.Second, "in-flight drain budget on SIGTERM/SIGINT")
		retries = flag.Int("retries", 1, "per-point retry budget for transient failures")
		storeD  = flag.String("store", "", "persistent result store directory (empty = memory tier only)")
		entries = flag.Int("cache-entries", sim.DefaultCacheEntries, "in-memory result cache entry cap (0 = unbounded)")
	)
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "stserve: unexpected arguments %q\n", flag.Args())
		return 2
	}

	sim.SetResultCacheLimit(*entries)
	if *storeD != "" {
		held, err := sim.UseDiskStore(*storeD)
		if err != nil {
			fmt.Fprintf(os.Stderr, "stserve: open result store: %v\n", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "stserve: result store %s: %d entries\n", *storeD, held)
	}

	opts := sim.Options{Instructions: *n, Warmup: *warmup}
	sup := sim.Supervisor{Timeout: *timeout, Retries: *retries}
	s := newServer(opts, sup, *queue, *timeout, *maxN)

	// /v1/compute: fleet point dispatch. With a store, each computed point
	// is guarded by a point lease (work stealing and hedge fencing run
	// through it); without one, the endpoint still serves points leaseless
	// and results travel in the response body only.
	var leases *grid.Manager
	if *storeD != "" {
		var err error
		if leases, err = grid.NewManager(*storeD, nil, 0); err != nil {
			fmt.Fprintf(os.Stderr, "stserve: lease manager: %v\n", err)
			return 1
		}
	}
	s.compute = &fleet.ComputeServer{
		Sup:    sup,
		Leases: leases,
		Owner:  fmt.Sprintf("stserve-pid%d", os.Getpid()),
		MaxN:   *maxN,
		Ready:  func() bool { return !s.draining.Load() },
		Admit:  s.acquire,
		Logf:   func(format string, args ...any) { fmt.Fprintf(os.Stderr, "stserve: "+format+"\n", args...) },
	}

	srv := &http.Server{
		Addr:              *addr,
		Handler:           s.routes(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	// Serve until the first SIGTERM/SIGINT, then drain: stop accepting,
	// finish in-flight requests within the drain budget, and exit 0 clean
	// or 1 if the budget expired with requests still running.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "stserve: listening on %s (queue %d, timeout %v)\n", *addr, *queue, *timeout)

	select {
	case err := <-errc:
		fmt.Fprintf(os.Stderr, "stserve: serve: %v\n", err)
		return 1
	case <-ctx.Done():
	}
	stop()          // second signal kills immediately via default disposition
	s.SetDraining() // /readyz goes 503 before the listener starts refusing
	fmt.Fprintf(os.Stderr, "stserve: draining (up to %v)\n", *drain)

	dctx := context.Background()
	if *drain > 0 {
		var cancel context.CancelFunc
		dctx, cancel = context.WithTimeout(dctx, *drain)
		defer cancel()
	}
	if err := srv.Shutdown(dctx); err != nil {
		srv.Close()
		fmt.Fprintf(os.Stderr, "stserve: drain expired with requests in flight: %v\n", err)
		return 1
	}
	fmt.Fprintln(os.Stderr, "stserve: drained, exiting")
	return 0
}
