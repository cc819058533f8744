package main

// serve-mixed's load generator: an open loop of Poisson arrivals over a
// space of 8 benchmarks x 23 throttling experiments x 12 pipeline depths,
// issued by maxConns goroutines over at most maxConns connections.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"selthrottle/internal/prog"
	"selthrottle/internal/sim"
)

const (
	newFrac      = 0.2 // share of requests that ask for a point not requested before
	recheckEvery = 20  // one new point in this many is re-simulated in process
)

var serveDepths = []int{6, 8, 10, 12, 14, 16, 18, 20, 22, 24, 26, 28}

// serveReq is one request of the stream.
type serveReq struct {
	due   time.Duration // offset of its send time from the stream's start
	point int           // index into the point space
	fresh bool          // the first request for this point
}

// serveReply is one request's outcome. Latency runs from the due time, not
// the send time, so a stalled server also charges the requests queued
// behind the stall.
type serveReply struct {
	due     time.Time
	latency time.Duration
	lag     time.Duration // how late the generator sent it
	status  int
	body    []byte
	err     error
}

// serveLoad is one seeded request stream.
type serveLoad struct {
	benches, ids []string
	reqs         []serveReq
}

// newServeLoad draws the stream for seed: rate*dur Poisson arrivals over
// dur (uniform send times, sorted). A seeded newFrac of the requests, and
// the first, ask for a new point, the next of a seeded permutation of the
// space; the rest repeat a uniformly chosen earlier point. Fixing the
// request and new-point counts keeps the work of a run independent of the
// seed.
func newServeLoad(seed int64, rate float64, dur time.Duration) *serveLoad {
	l := &serveLoad{}
	for _, p := range prog.Profiles() {
		l.benches = append(l.benches, p.Name)
	}
	for _, set := range [][]sim.Experiment{sim.FetchExperiments(), sim.DecodeExperiments(), sim.SelectionExperiments()} {
		for _, x := range set {
			l.ids = append(l.ids, x.ID)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	count := max(1, int(rate*dur.Seconds()))
	dues := make([]float64, count)
	for i := range dues {
		dues[i] = rng.Float64() * dur.Seconds()
	}
	slices.Sort(dues)
	perm := rng.Perm(len(l.benches) * len(l.ids) * len(serveDepths))
	fresh := make([]bool, count)
	for _, i := range rng.Perm(count)[:min(int(newFrac*float64(count)), len(perm))] {
		fresh[i] = true
	}
	var seen []int
	for i, t := range dues {
		r := serveReq{due: time.Duration(t * float64(time.Second))}
		if len(seen) == 0 || (fresh[i] && len(seen) < len(perm)) {
			r.point, r.fresh = perm[len(seen)], true
			seen = append(seen, r.point)
		} else {
			r.point = seen[rng.Intn(len(seen))]
		}
		l.reqs = append(l.reqs, r)
	}
	return l
}

// point decodes a point index into its request parameters.
func (l *serveLoad) point(p int) (bench, id string, depth int) {
	nb, ni := len(l.benches), len(l.ids)
	return l.benches[p%nb], l.ids[p/nb%ni], serveDepths[p/(nb*ni)]
}

func (l *serveLoad) path(p int, n uint64) string {
	bench, id, depth := l.point(p)
	return fmt.Sprintf("/v1/point?bench=%s&id=%s&depth=%d&n=%d", bench, id, depth, n)
}

// warm makes the server generate every benchmark's program before timing,
// with baseline points outside the request space.
func (l *serveLoad) warm(ctx context.Context, e *env, srv *server) error {
	for _, b := range l.benches {
		status, _, err := get(ctx, e.hc, srv.url("/v1/point?n=1000&bench="+b))
		if err != nil || status != http.StatusOK {
			return fmt.Errorf("warm %s: status %d, %v", b, status, err)
		}
	}
	return nil
}

// run sends the stream to srv at n instructions per point and returns one
// reply per request, tracing each under parent. With speed set, the
// reference kernel runs in the stream's idle moments: while every sender
// waits for a request not due within the kernel's margin, so that no
// request is in flight or starts while it runs.
func (l *serveLoad) run(ctx context.Context, e *env, srv *server, n uint64, parent int, speed *hostSpeed) []serveReply {
	out := make([]serveReply, len(l.reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	// waitsFor[w] is the due offset sender w waits for, busy while it has a
	// request in flight, and math.MaxInt64 once it has finished.
	const busy = -1
	waitsFor := make([]atomic.Int64, maxConns)
	for w := 0; w < maxConns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer waitsFor[w].Store(math.MaxInt64)
			for i := int(next.Add(1)) - 1; i < len(l.reqs); i = int(next.Add(1)) - 1 {
				waitsFor[w].Store(int64(l.reqs[i].due))
				due := start.Add(l.reqs[i].due)
				if d := time.Until(due); d > 0 {
					t := time.NewTimer(d)
					select {
					case <-ctx.Done():
						t.Stop()
						return
					case <-t.C:
					}
				}
				waitsFor[w].Store(busy)
				sent := time.Now()
				id := e.tr.begin(parent, "stserve GET /v1/point")
				status, body, err := get(ctx, e.hc, srv.url(l.path(l.reqs[i].point, n)))
				e.tr.end(id, nil)
				out[i] = serveReply{due: due, latency: time.Since(due), lag: sent.Sub(due), status: status, body: body, err: err}
			}
		}()
	}
	if speed != nil {
		stop, sampled := make(chan struct{}), make(chan struct{})
		go func() {
			defer close(sampled)
			speed.sampleIdle(stop, func(margin time.Duration) bool {
				now := int64(time.Since(start))
				for w := range waitsFor {
					if waitsFor[w].Load()-now < int64(margin) {
						return false
					}
				}
				return true
			})
		}()
		defer func() {
			close(stop)
			<-sampled
		}()
	}
	wg.Wait()
	return out
}

func get(ctx context.Context, hc *http.Client, url string) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return 0, nil, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// verify checks every reply: status 200; a repeat byte-identical to the
// point's first response; and for one new point in recheckEvery, numbers
// equal to an in-process Runner.RunE of the same configuration.
func (l *serveLoad) verify(ctx context.Context, e *env, o *outcome, replies []serveReply, n uint64) error {
	first := map[int][]byte{}
	for i, r := range replies {
		if _, ok := first[l.reqs[i].point]; !ok && r.err == nil && r.status == http.StatusOK {
			first[l.reqs[i].point] = r.body
		}
	}
	bad := map[int]string{} // point -> recheck mismatch
	runner := sim.NewRunner()
	fresh := 0
	for _, q := range l.reqs {
		if !q.fresh {
			continue
		}
		if fresh++; (fresh-1)%recheckEvery != 0 || first[q.point] == nil {
			continue
		}
		msg, err := recheck(ctx, runner, l, q.point, n, first[q.point])
		if err != nil {
			return err
		}
		if msg != "" {
			bad[q.point] = msg
		}
	}
	for i, r := range replies {
		p := l.reqs[i].point
		switch {
		case r.err != nil || r.status != http.StatusOK:
			o.check(false, "GET %s: status %d, %v", l.path(p, n), r.status, r.err)
		case !bytes.Equal(r.body, first[p]):
			o.check(false, "GET %s: response differs from the point's first response", l.path(p, n))
		default:
			o.check(bad[p] == "", "GET %s: %s", l.path(p, n), bad[p])
		}
	}
	return nil
}

// recheck re-simulates point p in process and compares it with the served
// body, returning a description of any mismatch.
func recheck(ctx context.Context, r *sim.Runner, l *serveLoad, p int, n uint64, body []byte) (string, error) {
	bench, id, depth := l.point(p)
	profile, _ := prog.ProfileByName(bench)
	x, _ := sim.ExperimentByID(id)
	want, err := r.RunE(ctx, x.Apply(sim.Options{Instructions: n, Depth: depth}.BaseConfig()), profile)
	if err != nil {
		return "", fmt.Errorf("recheck %s: %w", l.path(p, n), err)
	}
	var got struct {
		Result struct {
			Benchmark string  `json:"benchmark"`
			IPC       float64 `json:"ipc"`
			MissRate  float64 `json:"miss_rate"`
			Seconds   float64 `json:"seconds"`
			Energy    float64 `json:"energy_j"`
			EDelay    float64 `json:"energy_delay_js"`
			AvgPower  float64 `json:"avg_power_w"`
		} `json:"result"`
	}
	if err := json.Unmarshal(body, &got); err != nil {
		return "undecodable response: " + err.Error(), nil
	}
	g := got.Result
	if g.Benchmark != want.Benchmark || g.IPC != want.IPC || g.MissRate != want.MissRate ||
		g.Seconds != want.Seconds || g.Energy != want.Energy || g.EDelay != want.EDelay || g.AvgPower != want.AvgPower {
		return fmt.Sprintf("served %+v, in-process run gives ipc %v miss %v energy %v", g, want.IPC, want.MissRate, want.Energy), nil
	}
	return "", nil
}
