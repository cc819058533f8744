// Command stworker is the local compute worker behind hpca03 -workers N.
// hpca03 starts N of them over its -store directory and adds their
// addresses to its fleet: each serves /v1/compute (one grid point per
// request, computed under a point lease and published to the shared store,
// as stserve does) and /readyz for the fleet's breaker probes. Unlike
// stserve it listens on loopback only, on an ephemeral port whose address
// it writes as the first line of stdout, and it lives no longer than its
// parent: EOF on stdin (the parent is gone) stops it like SIGTERM does. It
// has no admission queue; the coordinator's per-worker cap already bounds
// the requests in flight.
//
// Usage:
//
//	stworker -store dir [-fault spec]
//
// -fault arms process faults for crash tests (faultinject.ProcFaults,
// comma-separated): kill-after=k SIGKILLs the worker after its k-th served
// point, freeze-after=k wedges every later request, and lease-enospc makes
// lease creation fail with ENOSPC.
//
// Exit codes:
//
//	0  stopped by SIGTERM, SIGINT or EOF on stdin
//	1  the store, the lease directory or the listener failed, or serving failed
//	2  usage error
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"selthrottle/internal/faultinject"
	"selthrottle/internal/fleet"
	"selthrottle/internal/grid"
	"selthrottle/internal/sim"
	"selthrottle/internal/store"
)

func main() {
	os.Exit(run())
}

func run() int {
	storeDir := flag.String("store", "", "shared result store directory (required)")
	fault := flag.String("fault", "", "process fault spec, e.g. kill-after=3 or freeze-after=2,lease-enospc (test use)")
	flag.Parse()

	if *storeDir == "" || flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "usage: stworker -store dir [-fault spec]")
		return 2
	}
	faults, err := faultinject.ParseProcFaults(*fault)
	if err != nil {
		fmt.Fprintf(os.Stderr, "stworker: %v\n", err)
		return 2
	}

	// The store and the lease directory share one FS so an injected fault
	// reaches both; lease-enospc targets only lease creation.
	var fsys store.FS = store.OSFS{}
	if faults.LeaseENOSPC {
		fsys = faultinject.NewDiskFS(fsys, faultinject.DiskFault{
			Kind:  faultinject.DiskENOSPC,
			Op:    faultinject.OpCreate,
			Match: grid.LeaseDirName + string(os.PathSeparator),
		})
	}
	st, err := store.Open(*storeDir, fsys)
	if err != nil {
		fmt.Fprintf(os.Stderr, "stworker: store %s: %v\n", *storeDir, err)
		return 1
	}
	sim.AttachDiskStore(st)
	leases, err := grid.NewManager(*storeDir, fsys, 0)
	if err != nil {
		fmt.Fprintf(os.Stderr, "stworker: %v\n", err)
		return 1
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fmt.Fprintf(os.Stderr, "stworker: listen: %v\n", err)
		return 1
	}
	fmt.Println(ln.Addr().String())

	// SIGTERM, SIGINT and EOF on stdin all stop the worker: the last means
	// the parent that started it has exited, however it exited.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	go func() {
		_, _ = io.Copy(io.Discard, os.Stdin) // EOF or a read error: stdin is gone either way
		stop()
	}()

	ready := func() bool { return ctx.Err() == nil }
	cs := &fleet.ComputeServer{
		Leases: leases,
		Owner:  fmt.Sprintf("stworker-pid%d", os.Getpid()),
		Ready:  ready,
	}
	mux := http.NewServeMux()
	mux.Handle("/v1/compute", cs)
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, _ *http.Request) {
		if !ready() {
			http.Error(w, "stopping", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ready")
	})
	srv := &http.Server{Handler: withFaults(ctx, mux, cs, faults), ReadHeaderTimeout: 10 * time.Second}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	select {
	case err := <-errc:
		fmt.Fprintf(os.Stderr, "stworker: serve: %v\n", err)
		return 1
	case <-ctx.Done():
	}
	// A point still computing for a coordinator that has gone away is
	// canceled with its connection; give its lease release a moment.
	sctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if srv.Shutdown(sctx) != nil {
		srv.Close()
	}
	return 0
}

// withFaults arms the worker's process faults around h: kill-after=k
// SIGKILLs the process once k points have been served, and freeze-after=k
// blocks every request that arrives after the k-th served point until the
// worker is told to stop.
func withFaults(ctx context.Context, h http.Handler, cs *fleet.ComputeServer, f faultinject.ProcFaults) http.Handler {
	if f.KillAfterPoints == 0 && f.FreezeAfterPoints == 0 {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if k := f.FreezeAfterPoints; k > 0 && cs.Stats().Served >= uint64(k) {
			<-ctx.Done()
			return
		}
		h.ServeHTTP(w, r)
		if k := f.KillAfterPoints; k > 0 && cs.Stats().Served >= uint64(k) {
			faultinject.KillSelf()
		}
	})
}
