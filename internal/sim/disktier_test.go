package sim

import (
	"context"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"selthrottle/internal/faultinject"
	"selthrottle/internal/pipe"
	"selthrottle/internal/prog"
	"selthrottle/internal/store"
	"selthrottle/internal/xrand"
)

// diskTestConfigs returns n distinct small configurations.
func diskTestConfigs(n int) []Config {
	cfgs := make([]Config, n)
	for i := range cfgs {
		cfg := Default()
		cfg.Instructions = 6000 + uint64(i)*500
		cfg.Warmup = 1500
		cfgs[i] = cfg
	}
	return cfgs
}

// entryFiles lists every published entry file under a store directory.
func entryFiles(t *testing.T, dir string) []string {
	t.Helper()
	var files []string
	err := filepath.Walk(dir, func(path string, info fs.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if !info.IsDir() && strings.HasSuffix(path, store.EntrySuffix) &&
			!strings.Contains(path, "quarantine") {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// TestDiskTierServesAcrossProcesses: results computed through one cache are
// served bit-identically by a second cache (a "new process": cold memory
// tier) over the same store directory, without re-simulation.
func TestDiskTierServesAcrossProcesses(t *testing.T) {
	dir := t.TempDir()
	profiles := cacheTestProfiles()
	cfgs := diskTestConfigs(2)

	st1, err := store.Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	c1 := NewResultCache()
	c1.SetDisk(st1)
	var want []Result
	for _, cfg := range cfgs {
		for _, p := range profiles {
			res, err := c1.RunE(context.Background(), NewRunner(), cfg, p)
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, res)
		}
	}
	ts := c1.TierStats()
	if int(ts.DiskPuts) != len(want) || ts.DiskHits != 0 {
		t.Fatalf("first process: %d disk puts / %d disk hits, want %d / 0", ts.DiskPuts, ts.DiskHits, len(want))
	}

	st2, err := store.Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st2.Len() != len(want) {
		t.Fatalf("reopened store holds %d entries, want %d", st2.Len(), len(want))
	}
	c2 := NewResultCache()
	c2.SetDisk(st2)
	i := 0
	for _, cfg := range cfgs {
		for _, p := range profiles {
			res, err := c2.RunE(context.Background(), NewRunner(), cfg, p)
			if err != nil {
				t.Fatal(err)
			}
			if res != want[i] {
				t.Fatalf("disk-served result for %s diverged from computed", p.Name)
			}
			i++
		}
	}
	ts = c2.TierStats()
	if int(ts.DiskHits) != len(want) || ts.MemMisses != 0 {
		t.Fatalf("second process: %d disk hits / %d computed, want %d / 0", ts.DiskHits, ts.MemMisses, len(want))
	}
}

// TestDiskCorruptionRecomputesBitIdentically is the end-to-end recovery
// property: persist N real simulation points, corrupt a random k of the
// entry files, reopen — exactly k are quarantined, and re-requesting all N
// yields bit-identical results, with only the k victims re-simulated.
func TestDiskCorruptionRecomputesBitIdentically(t *testing.T) {
	dir := t.TempDir()
	profiles := cacheTestProfiles()
	cfgs := diskTestConfigs(3)

	st, err := store.Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	c := NewResultCache()
	c.SetDisk(st)
	var want []Result
	for _, cfg := range cfgs {
		for _, p := range profiles {
			res, err := c.RunE(context.Background(), NewRunner(), cfg, p)
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, res)
		}
	}
	n := len(want)

	files := entryFiles(t, dir)
	if len(files) != n {
		t.Fatalf("store holds %d entry files, want %d", len(files), n)
	}
	rng := xrand.New(0xd15c)
	k := int(rng.Uint64()%uint64(n-1)) + 1
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		perm[i], perm[j] = perm[j], perm[i]
	}
	for _, idx := range perm[:k] {
		data, err := os.ReadFile(files[idx])
		if err != nil {
			t.Fatal(err)
		}
		if rng.Uint64()%2 == 0 {
			data = data[:rng.Uint64()%uint64(len(data))] // torn tail
		} else {
			data[rng.Uint64()%uint64(len(data))] ^= 1 << (rng.Uint64() % 8)
		}
		if err := os.WriteFile(files[idx], data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	st2, err := store.Open(dir, nil)
	if err != nil {
		t.Fatalf("reopen over %d corruptions: %v", k, err)
	}
	if got := st2.Stats().QuarantinedAtOpen; got != k {
		t.Fatalf("quarantined %d at open, want exactly %d", got, k)
	}
	c2 := NewResultCache()
	c2.SetDisk(st2)
	i := 0
	for _, cfg := range cfgs {
		for _, p := range profiles {
			res, err := c2.RunE(context.Background(), NewRunner(), cfg, p)
			if err != nil {
				t.Fatal(err)
			}
			if res != want[i] {
				t.Fatalf("post-corruption result for %s diverged", p.Name)
			}
			i++
		}
	}
	ts := c2.TierStats()
	if int(ts.MemMisses) != k || int(ts.DiskHits) != n-k {
		t.Fatalf("recomputed %d / disk-served %d, want %d / %d", ts.MemMisses, ts.DiskHits, k, n-k)
	}
	// The recomputed victims were re-published; a third pass is all hits.
	if st2.Len() != n {
		t.Fatalf("store holds %d entries after recompute, want %d", st2.Len(), n)
	}
}

// TestDiskErrorsDegradeToCompute: a store on a failing device (injected read
// errors and a full disk) never fails a request — every point still computes
// and returns correct results, with the degradations counted.
func TestDiskErrorsDegradeToCompute(t *testing.T) {
	p := cacheTestProfiles()[0]
	cfg := diskTestConfigs(1)[0]

	// Reference result, no disk tier.
	ref := NewResultCache()
	want, err := ref.RunE(context.Background(), NewRunner(), cfg, p)
	if err != nil {
		t.Fatal(err)
	}

	// Every write fails with ENOSPC: compute succeeds, nothing persists.
	dfs := faultinject.NewDiskFS(nil, faultinject.DiskFault{
		Kind: faultinject.DiskENOSPC, Op: faultinject.OpWrite,
	})
	st, err := store.Open(t.TempDir(), dfs)
	if err != nil {
		t.Fatal(err)
	}
	c := NewResultCache()
	c.SetDisk(st)
	got, err := c.RunE(context.Background(), NewRunner(), cfg, p)
	if err != nil {
		t.Fatalf("full disk failed the request: %v", err)
	}
	if got != want {
		t.Fatal("full-disk result diverged")
	}
	if ts := c.TierStats(); ts.DiskErrors != 1 || ts.DiskPuts != 0 {
		t.Fatalf("full disk: %d errors / %d puts, want 1 / 0", ts.DiskErrors, ts.DiskPuts)
	}

	// Entry reads fail: the persisted point is recomputed, not an outage.
	dir2 := t.TempDir()
	st2, err := store.Open(dir2, nil)
	if err != nil {
		t.Fatal(err)
	}
	c2 := NewResultCache()
	c2.SetDisk(st2)
	if _, err := c2.RunE(context.Background(), NewRunner(), cfg, p); err != nil {
		t.Fatal(err)
	}
	// After: 1 lets the open scan's validation read pass, so the fault
	// fires on the Get-path read — the degradation under test.
	dfs3 := faultinject.NewDiskFS(nil, faultinject.DiskFault{
		Kind: faultinject.DiskReadError, Op: faultinject.OpRead, Match: store.EntrySuffix, After: 1,
	})
	st3, err := store.Open(dir2, dfs3)
	if err != nil {
		t.Fatal(err)
	}
	if st3.Len() != 1 {
		t.Fatalf("scan read faulted early: %d entries indexed", st3.Len())
	}
	c3 := NewResultCache()
	c3.SetDisk(st3)
	got, err = c3.RunE(context.Background(), NewRunner(), cfg, p)
	if err != nil {
		t.Fatalf("failing reads failed the request: %v", err)
	}
	if got != want {
		t.Fatal("degraded-read result diverged")
	}
	if ts := c3.TierStats(); ts.DiskErrors == 0 || ts.MemMisses != 1 {
		t.Fatalf("degraded read: %d errors / %d computed, want >0 / 1", ts.DiskErrors, ts.MemMisses)
	}
}

// TestFaultedRunsNeverPersisted: a configuration carrying a fault-injection
// hook bypasses both cache tiers — its outcome is impure by design, so
// neither a failed nor a "lucky" faulted run may be served to healthy
// requests or written to disk.
func TestFaultedRunsNeverPersisted(t *testing.T) {
	p := cacheTestProfiles()[0]
	cfg := diskTestConfigs(1)[0]
	cfg.Pipe.Fault = faultinject.NewPlan(faultinject.Fault{
		Kind: faultinject.KindPanic, Stage: pipe.StageIssue, Cycle: 200,
	})

	st, err := store.Open(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	prevStore := AttachDiskStore(st)
	prevCaching := SetResultCaching(true)
	defer func() {
		AttachDiskStore(prevStore)
		SetResultCaching(prevCaching)
	}()

	r := NewRunner()
	if _, err := runCachedE(context.Background(), r, cfg, p); err == nil {
		t.Fatal("injected panic did not surface")
	}
	if st.Len() != 0 || st.Stats().Puts != 0 {
		t.Fatalf("faulted run persisted: %d entries, %d puts", st.Len(), st.Stats().Puts)
	}
}

// TestLRUEvictionBoundsMemoryAndFallsBackToDisk: with the memory tier
// bounded below the working set, eviction keeps Len within the limit; an
// evicted point is served from the disk tier (no re-simulation), and with no
// disk tier it is recomputed — bit-identically either way.
func TestLRUEvictionBoundsMemoryAndFallsBackToDisk(t *testing.T) {
	p := cacheTestProfiles()[0]
	cfgs := diskTestConfigs(4)

	st, err := store.Open(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	c := NewResultCache()
	c.SetDisk(st)
	if prev := c.SetLimit(2); prev != DefaultCacheEntries {
		t.Fatalf("default limit = %d, want %d", prev, DefaultCacheEntries)
	}
	want := make([]Result, len(cfgs))
	for i, cfg := range cfgs {
		res, err := c.RunE(context.Background(), NewRunner(), cfg, p)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res
	}
	if c.Len() > 2 {
		t.Fatalf("memory tier holds %d entries over a limit of 2", c.Len())
	}
	ts := c.TierStats()
	if ts.Evictions != 2 {
		t.Fatalf("evictions = %d, want 2", ts.Evictions)
	}
	// cfgs[0] was evicted: served again from disk, not recomputed.
	res, err := c.RunE(context.Background(), NewRunner(), cfgs[0], p)
	if err != nil {
		t.Fatal(err)
	}
	if res != want[0] {
		t.Fatal("evicted point served differently")
	}
	ts2 := c.TierStats()
	if ts2.MemMisses != ts.MemMisses || ts2.DiskHits != ts.DiskHits+1 {
		t.Fatalf("evicted point recomputed (misses %d→%d, disk hits %d→%d)",
			ts.MemMisses, ts2.MemMisses, ts.DiskHits, ts2.DiskHits)
	}

	// Same working set, no disk tier: eviction costs recomputation only.
	c2 := NewResultCache()
	c2.SetLimit(2)
	for i, cfg := range cfgs {
		res, err := c2.RunE(context.Background(), NewRunner(), cfg, p)
		if err != nil {
			t.Fatal(err)
		}
		if res != want[i] {
			t.Fatal("bounded cache diverged")
		}
	}
	res, err = c2.RunE(context.Background(), NewRunner(), cfgs[0], p)
	if err != nil || res != want[0] {
		t.Fatalf("recomputed evicted point diverged (err %v)", err)
	}
	if h, m := c2.Stats(); m != uint64(len(cfgs))+1 || h != 0 {
		t.Fatalf("bounded no-disk cache: %d hits / %d misses", h, m)
	}
}

// TestSetLimitBytesConverts: the byte-based limit maps onto entries and
// evicts immediately.
func TestSetLimitBytesConverts(t *testing.T) {
	c := NewResultCache()
	if c.SetLimitBytes(1) != DefaultCacheEntries {
		t.Fatal("previous limit wrong")
	}
	if got := c.SetLimit(0); got != 1 {
		t.Fatalf("1-byte budget maps to %d entries, want 1 (floor)", got)
	}
}

// TestJitterDeterministicAndBounded: the backoff jitter is a pure function
// of (seed, point), always within [d/2, d], and distinct points
// desynchronize. An armed fault hook is not part of the point.
func TestJitterDeterministicAndBounded(t *testing.T) {
	profiles := cacheTestProfiles()
	cfg := Default()
	const d = 80 * time.Millisecond

	a1 := jitterRand(0, cfg, profiles[0])
	a2 := jitterRand(0, cfg, profiles[0])
	b := jitterRand(0, cfg, profiles[1])
	sameAsB := true
	for i := 0; i < 64; i++ {
		ja, jb := Jittered(d, a1), Jittered(d, a2)
		if ja != jb {
			t.Fatal("jitter stream is not reproducible")
		}
		if ja < d/2 || ja > d {
			t.Fatalf("jitter %v outside [%v, %v]", ja, d/2, d)
		}
		if Jittered(d, b) != ja {
			sameAsB = false
		}
	}
	if sameAsB {
		t.Fatal("distinct points share one jitter stream")
	}
	if jitterRand(0, cfg, profiles[0]).Uint64() == jitterRand(7, cfg, profiles[0]).Uint64() {
		t.Fatal("seed does not perturb the stream")
	}
	// The supervisor seeds the stream after arming the point's fault hook.
	// Two separately allocated, identical plans are the same point, and so
	// is the unfaulted config: no heap address may reach the stream.
	plan := func() pipe.FaultHook {
		return faultinject.NewPlan(faultinject.Fault{
			Kind: faultinject.KindPanic, Stage: pipe.StageIssue, Cycle: 100, Once: true,
		})
	}
	f1, f2 := cfg, cfg
	f1.Pipe.Fault, f2.Pipe.Fault = plan(), plan()
	want := jitterRand(0, cfg, profiles[0]).Uint64()
	if d1, d2 := jitterRand(0, f1, profiles[0]).Uint64(), jitterRand(0, f2, profiles[0]).Uint64(); d1 != d2 || d1 != want {
		t.Fatalf("first draws %x and %x under identical plans, %x unfaulted", d1, d2, want)
	}
	// Degenerate durations pass through untouched.
	if Jittered(1, a1) != 1 || Jittered(0, a1) != 0 {
		t.Fatal("degenerate backoff mangled")
	}
}

// TestSupervisorRetriesWithJitteredBackoff: a transient injected fault heals
// on retry and the retry consumed a jittered, non-zero wait.
func TestSupervisorRetriesWithJitteredBackoff(t *testing.T) {
	p := cacheTestProfiles()[0]
	cfg := Default()
	cfg.Instructions, cfg.Warmup = 6000, 1500

	sup := Supervisor{
		Retries: 2,
		Backoff: 4 * time.Millisecond,
		PointFault: func(Config, prog.Profile) pipe.FaultHook {
			return faultinject.NewPlan(faultinject.Fault{
				Kind: faultinject.KindPanic, Stage: pipe.StageIssue, Cycle: 100, Once: true,
			})
		},
	}
	start := time.Now()
	res, st := sup.RunPointE(context.Background(), cfg, p)
	if !st.OK() || st.Attempts != 2 {
		t.Fatalf("status = %+v, want recovery on attempt 2", st)
	}
	if res.Stats.Committed == 0 {
		t.Fatal("recovered result is empty")
	}
	if elapsed := time.Since(start); elapsed < 2*time.Millisecond {
		t.Fatalf("retry did not back off (elapsed %v)", elapsed)
	}
}
