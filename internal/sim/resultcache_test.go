package sim

import (
	"context"
	"reflect"
	"strings"
	"sync"
	"testing"

	"selthrottle/internal/faultinject"
	"selthrottle/internal/pipe"
	"selthrottle/internal/prog"
)

// cacheTestProfiles returns a two-profile set for fast sweep tests.
func cacheTestProfiles() []prog.Profile {
	var out []prog.Profile
	for _, n := range []string{"gzip", "twolf"} {
		p, _ := prog.ProfileByName(n)
		out = append(out, p)
	}
	return out
}

// TestCachedSweepsMatchUncached is the cache's correctness gate: the figure
// and sweep harnesses must produce bit-identical output with the cache cold,
// with it warm (every point a hit), and with caching disabled entirely.
func TestCachedSweepsMatchUncached(t *testing.T) {
	opts := Options{Instructions: 8000, Warmup: 2000, Profiles: cacheTestProfiles()}
	depths := []int{6, 10, 14}

	prev := SetResultCaching(false)
	defer SetResultCaching(prev)
	ctx := context.Background()
	uncached := DepthSweepE(ctx, opts, depths)
	uncachedSize := SizeSweepE(ctx, opts, []int{8, 16})

	SetResultCaching(true)
	ClearResultCache()
	cold := DepthSweepE(ctx, opts, depths)
	h0, m0 := ResultCacheStats()
	warm := DepthSweepE(ctx, opts, depths)
	h1, m1 := ResultCacheStats()
	warmSize := SizeSweepE(ctx, opts, []int{8, 16})

	if !reflect.DeepEqual(uncached, cold) {
		t.Fatal("cold cached DepthSweep diverged from uncached")
	}
	if !reflect.DeepEqual(uncached, warm) {
		t.Fatal("warm cached DepthSweep diverged from uncached")
	}
	if !reflect.DeepEqual(uncachedSize, warmSize) {
		t.Fatal("cached SizeSweep diverged from uncached")
	}
	if m1 != m0 {
		t.Fatalf("repeated sweep re-simulated %d points", m1-m0)
	}
	if wantHits := h0 + m0; h1-h0 != wantHits {
		t.Fatalf("repeated sweep hit %d of %d points", h1-h0, wantHits)
	}
}

// TestCacheSharesBaselinesAcrossFigures pins the headline reuse effect: two
// figures over the same options share their baseline grid (and any repeated
// experiment), so the second figure simulates only its new cells.
func TestCacheSharesBaselinesAcrossFigures(t *testing.T) {
	opts := Options{Instructions: 8000, Warmup: 2000, Profiles: cacheTestProfiles()}
	prev := SetResultCaching(true)
	defer SetResultCaching(prev)
	ClearResultCache()

	RunFigure("first", []Experiment{BestExperiment()}, opts)
	_, m0 := ResultCacheStats()
	fr := RunFigure("second", []Experiment{pipelineGating("PG")}, opts)
	_, m1 := ResultCacheStats()

	np := len(opts.Profiles)
	if int(m1-m0) != np {
		t.Fatalf("second figure simulated %d points, want %d (baseline shared)", m1-m0, np)
	}
	if len(fr.Baselines) != np {
		t.Fatal("figure shape wrong")
	}
}

// TestCacheCanonicalization: configurations that differ only in
// simulation-irrelevant fields (policy display name, JRS threshold under
// BPRU, gate threshold of a non-gating policy) must share one entry — and
// the returned Result must still carry the caller's exact Config.
func TestCacheCanonicalization(t *testing.T) {
	p, _ := prog.ProfileByName("gzip")
	cfg := Default()
	cfg.Instructions = 6000
	cfg.Warmup = 1500

	prev := SetResultCaching(true)
	defer SetResultCaching(prev)
	ClearResultCache()

	a := cfg
	a.Policy.Name = "spelled-one-way"
	a.JRSThreshold = 12
	b := cfg
	b.Policy.Name = "spelled-differently"
	b.JRSThreshold = 99        // ignored: estimator is BPRU
	b.Policy.GateThreshold = 7 // ignored: policy is not gating

	ra := Run(a, p)
	_, m0 := ResultCacheStats()
	rb := Run(b, p)
	h1, m1 := ResultCacheStats()
	if m1 != m0 || h1 == 0 {
		t.Fatal("canonically equal configurations were simulated twice")
	}
	if ra.Config != a || rb.Config != b {
		t.Fatal("cached results must carry the caller's exact Config")
	}
	ra.Config, rb.Config = Config{}, Config{}
	if ra != rb {
		t.Fatal("shared entry returned different results")
	}

	// The JRS threshold is semantic under the JRS estimator: no sharing.
	ja := cfg
	ja.Estimator = EstJRS
	ja.JRSThreshold = 4
	jb := ja
	jb.JRSThreshold = 12
	Run(ja, p)
	_, m2 := ResultCacheStats()
	Run(jb, p)
	if _, m3 := ResultCacheStats(); m3 != m2+1 {
		t.Fatal("distinct JRS thresholds must not share an entry")
	}
}

func TestCacheClearAndSummary(t *testing.T) {
	p, _ := prog.ProfileByName("gzip")
	cfg := Default()
	cfg.Instructions = 6000
	cfg.Warmup = 1500

	prev := SetResultCaching(true)
	defer SetResultCaching(prev)
	ClearResultCache()
	Run(cfg, p)
	Run(cfg, p)
	h, m := ResultCacheStats()
	if h != 1 || m != 1 {
		t.Fatalf("stats = %d hits / %d misses, want 1/1", h, m)
	}
	var sb strings.Builder
	WriteCacheSummary(&sb)
	if !strings.Contains(sb.String(), "1 mem hits / 0 disk hits / 1 computed") {
		t.Fatalf("summary missing counters: %q", sb.String())
	}
	ClearResultCache()
	if h, m = ResultCacheStats(); h != 0 || m != 0 {
		t.Fatal("clear kept statistics")
	}
	Run(cfg, p)
	if _, m = ResultCacheStats(); m != 1 {
		t.Fatal("cleared cache did not re-simulate")
	}
}

// TestCacheConcurrentSingleFlight: hammering one point from many goroutines
// simulates it exactly once and returns identical results everywhere.
func TestCacheConcurrentSingleFlight(t *testing.T) {
	p, _ := prog.ProfileByName("twolf")
	cfg := Default()
	cfg.Instructions = 6000
	cfg.Warmup = 1500

	c := NewResultCache()
	const workers = 8
	results := make([]Result, workers)
	done := make(chan int, workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			var err error
			results[w], err = c.RunE(context.Background(), NewRunner(), cfg, p)
			if err != nil {
				t.Error(err)
			}
			done <- w
		}(w)
	}
	for i := 0; i < workers; i++ {
		<-done
	}
	if _, m := c.Stats(); m != 1 {
		t.Fatalf("point simulated %d times under contention", m)
	}
	for w := 1; w < workers; w++ {
		if results[w] != results[0] {
			t.Fatal("concurrent callers observed different results")
		}
	}
	if c.Len() != 1 {
		t.Fatalf("cache holds %d entries, want 1", c.Len())
	}
}

// TestCacheSingleFlightPanickingCompute: when the compute panics (here via a
// persistently-injected fault), every concurrent caller of the point — the
// leader and all its waiters — receives the error rather than hanging or
// reading a zero Result, nothing is counted as a hit, and the failure is
// never memoized.
func TestCacheSingleFlightPanickingCompute(t *testing.T) {
	p, _ := prog.ProfileByName("gzip")
	cfg := Default()
	cfg.Instructions, cfg.Warmup = 6000, 1500
	cfg.Pipe.Fault = faultinject.NewPlan(faultinject.Fault{
		Kind: faultinject.KindPanic, Stage: pipe.StageIssue, Cycle: 200,
	})

	c := NewResultCache()
	const workers = 8
	errs := make([]error, workers)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			_, errs[w] = c.RunE(context.Background(), NewRunner(), cfg, p)
		}(w)
	}
	close(start)
	wg.Wait()

	for w, err := range errs {
		re, ok := pipe.AsRunError(err)
		if !ok || re.Kind != pipe.ErrPanic {
			t.Fatalf("worker %d: err %v, want ErrPanic RunError", w, err)
		}
	}
	if h, _ := c.Stats(); h != 0 {
		t.Fatalf("%d hits on an always-failing point", h)
	}
	if c.Len() != 0 {
		t.Fatalf("failure memoized: cache holds %d entries", c.Len())
	}
}

// TestCacheRecomputesAfterFailure: a failed run leaves no entry behind, so
// the next request for the same point recomputes it — and succeeds when the
// failure was transient.
func TestCacheRecomputesAfterFailure(t *testing.T) {
	p, _ := prog.ProfileByName("twolf")
	cfg := Default()
	cfg.Instructions, cfg.Warmup = 6000, 1500
	cfg.Pipe.Fault = faultinject.NewPlan(faultinject.Fault{
		Kind: faultinject.KindPanic, Stage: pipe.StageIssue, Cycle: 200, Once: true,
	})

	c := NewResultCache()
	if _, err := c.RunE(context.Background(), NewRunner(), cfg, p); err == nil {
		t.Fatal("first attempt did not observe the injected fault")
	}
	if c.Len() != 0 {
		t.Fatal("failed run was memoized")
	}
	res, err := c.RunE(context.Background(), NewRunner(), cfg, p)
	if err != nil {
		t.Fatalf("recompute after transient failure: %v", err)
	}
	if res.Stats.Committed == 0 {
		t.Fatal("recomputed result is empty")
	}
	if _, m := c.Stats(); m != 2 {
		t.Fatalf("%d misses, want 2 (failure plus recompute)", m)
	}
	if c.Len() != 1 {
		t.Fatalf("cache holds %d entries, want 1", c.Len())
	}
}
