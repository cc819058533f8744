package main

import (
	"context"
	"net/url"
	"testing"

	"selthrottle/internal/prog"
	"selthrottle/internal/sim"
)

// FuzzOptionsFrom drives /v1/point, /v1/figure and /v1/sweep with arbitrary
// n, warmup, depth, kb and bench strings, the simulation seams stubbed.
// Every request must end 200 or 4xx, never a panic, and an accepted one
// must reach the seams inside the service's bounds: 1 ≤ n ≤ max-n,
// warmup ≤ max-n, depth and kb inside sim.CheckDepthKB, known profiles
// only.
func FuzzOptionsFrom(f *testing.F) {
	// TestWarmupCeiling's rows.
	for _, row := range [][5]string{
		{"", "1000000", "", "", "gzip"},
		{"", "1000001", "", "", "gzip"},
		{"6000", "100000000000000", "", "", "gzip"},
		{"", "1000000", "", "", ""},
		{"", "1000001", "", "", ""},
		{"6000", "1000001", "14", "16", ""},
	} {
		f.Add(row[0], row[1], row[2], row[3], row[4])
	}
	f.Fuzz(func(t *testing.T, n, warmup, depth, kb, bench string) {
		s := testServer(1, 0)
		reached := 0
		check := func(cfg sim.Config, profiles []prog.Profile) {
			reached++
			if cfg.Instructions < 1 || cfg.Instructions > s.maxN {
				t.Errorf("n %d reached the simulator (want 1..%d)", cfg.Instructions, s.maxN)
			}
			if cfg.Warmup > s.maxN {
				t.Errorf("warmup %d reached the simulator (ceiling %d)", cfg.Warmup, s.maxN)
			}
			if err := sim.CheckDepthKB(cfg.Pipe.Depth(), (cfg.PredBytes+cfg.ConfBytes)/1024); err != nil {
				t.Errorf("reached the simulator with %v", err)
			}
			for _, p := range profiles {
				if _, ok := prog.ProfileByName(p.Name); !ok {
					t.Errorf("unknown profile %q reached the simulator", p.Name)
				}
			}
		}
		s.runPoint = func(_ context.Context, cfg sim.Config, p prog.Profile) (sim.Result, sim.PointStatus) {
			check(cfg, []prog.Profile{p})
			return sim.Result{Benchmark: p.Name, IPC: 1, Seconds: 1}, sim.PointStatus{Attempts: 1}
		}
		s.runFigure = func(_ context.Context, name string, _ []sim.Experiment, opts sim.Options) *sim.FigureResult {
			check(opts.BaseConfig(), opts.Profiles)
			return &sim.FigureResult{Name: name, Rows: []sim.ExperimentRow{{}}}
		}
		h := s.routes()

		for _, ep := range [][3]string{
			{"/v1/point", "", ""},
			{"/v1/figure", "fig", "fig3"},
			{"/v1/sweep", "kind", "depth"},
			{"/v1/sweep", "kind", "size"},
		} {
			q := url.Values{"n": {n}, "warmup": {warmup}, "depth": {depth}, "kb": {kb}, "bench": {bench}}
			if ep[1] != "" {
				q.Set(ep[1], ep[2])
			}
			u := ep[0] + "?" + q.Encode()
			reached = 0
			rec := get(t, h, u)
			switch {
			case rec.Code == 200 && reached == 0:
				t.Errorf("%s: accepted but never simulated", u)
			case rec.Code != 200 && (rec.Code < 400 || rec.Code > 499):
				t.Errorf("%s: status %d, want 200 or 4xx (%s)", u, rec.Code, rec.Body.String())
			case rec.Code != 200 && reached != 0:
				t.Errorf("%s: rejected %d after simulating", u, rec.Code)
			}
		}
	})
}
