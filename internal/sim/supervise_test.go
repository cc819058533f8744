package sim

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"selthrottle/internal/faultinject"
	"selthrottle/internal/pipe"
	"selthrottle/internal/prog"
)

// stressOpts is the small, fast grid shape the supervision tests share.
func stressOpts() Options {
	return Options{Instructions: 20000, Warmup: 5000}
}

// TestSupervisedGridDegradesGracefully is the headline stress scenario: a
// 32-point grid (baseline + 3 experiments x 8 benchmarks) with 4 points
// forced to fail by a seeded fault plan must complete the other 28 points
// bit-identically to a clean run, report exactly the 4 failures with their
// diagnostic snapshots, and never kill the process.
func TestSupervisedGridDegradesGracefully(t *testing.T) {
	prev := SetResultCaching(false)
	defer SetResultCaching(prev)

	exps := FetchExperiments()[:3]
	opts := stressOpts()
	clean := RunFigure("stress-grid", exps, opts)
	if clean.Failures != nil || clean.Statuses != nil {
		t.Fatalf("clean grid reported failures: %v", clean.Failures)
	}

	full := opts.withDefaults()
	profiles := full.Profiles
	np := len(profiles)
	ncfg := 1 + len(exps)
	n := ncfg * np
	if n != 32 {
		t.Fatalf("grid is %d points, want 32", n)
	}
	const faulted = 4
	plans := faultinject.Scatter(0xBEEF, n, faulted, 2000)

	// Map each supervised point back to its grid index the same way
	// RunFigureE lays the grid out (config-major), so the seeded fault
	// assignment lands on deterministic points.
	base := full.baseConfig()
	cfgIdx := map[Config]int{base: 0}
	for i, e := range exps {
		cfgIdx[e.Apply(base)] = i + 1
	}
	profIdx := map[string]int{}
	for j, p := range profiles {
		profIdx[p.Name] = j
	}

	sopts := opts
	sopts.Supervise = Supervisor{
		PointFault: func(cfg Config, profile prog.Profile) pipe.FaultHook {
			c, ok := cfgIdx[cfg]
			if !ok {
				t.Errorf("unexpected grid config for %s", profile.Name)
				return nil
			}
			if pl := plans[c*np+profIdx[profile.Name]]; pl != nil {
				return pl
			}
			return nil // untyped nil: a typed-nil *Plan would arm the hook
		},
	}
	fr := RunFigure("stress-grid", exps, sopts)

	if got := len(fr.Failures); got != faulted {
		t.Fatalf("%d failures, want %d: %v", got, faulted, fr.Failures)
	}
	if len(fr.Statuses) != n {
		t.Fatalf("%d statuses, want %d", len(fr.Statuses), n)
	}
	for _, f := range fr.Failures {
		re, ok := pipe.AsRunError(f.Err)
		if !ok {
			t.Fatalf("failure without RunError snapshot: %v", f)
		}
		if re.Kind != pipe.ErrDeadlock && re.Kind != pipe.ErrPanic {
			t.Fatalf("unexpected failure kind %v: %v", re.Kind, f)
		}
		if re.Cycle == 0 || re.Policy == "" {
			t.Fatalf("empty machine snapshot: %+v", re)
		}
	}
	// Every injected point failed, every healthy point matches the clean run
	// bit for bit.
	nfail := 0
	for k, st := range fr.Statuses {
		if plans[k] != nil {
			if st.OK() {
				t.Fatalf("faulted point %d reported OK", k)
			}
			nfail++
			continue
		}
		if !st.OK() {
			t.Fatalf("healthy point %d failed: %v", k, st.Err)
		}
	}
	if nfail != faulted {
		t.Fatalf("%d faulted statuses, want %d", nfail, faulted)
	}
	for j := range profiles {
		if plans[j] != nil {
			continue
		}
		if !reflect.DeepEqual(fr.Baselines[j], clean.Baselines[j]) {
			t.Fatalf("healthy baseline %s diverged from clean run", profiles[j].Name)
		}
	}
	for i := range fr.Rows {
		for j := range profiles {
			cellOK := plans[j] == nil && plans[(i+1)*np+j] == nil
			got, want := fr.Rows[i].PerBench[j], clean.Rows[i].PerBench[j]
			if cellOK {
				if got != want {
					t.Fatalf("healthy cell (%s, %s) diverged: %+v vs %+v",
						fr.Rows[i].Experiment.ID, profiles[j].Name, got, want)
				}
			} else if (got != Comparison{Benchmark: profiles[j].Name}) {
				t.Fatalf("failed cell (%s, %s) not a placeholder: %+v",
					fr.Rows[i].Experiment.ID, profiles[j].Name, got)
			}
		}
	}
}

// TestSupervisorDeadlineCancelsRunawayPoint forces one point to run
// artificially slowly and bounds it with a per-point deadline: the attempt
// must come back as a canceled RunError wrapping context.DeadlineExceeded,
// promptly, without leaking the watchdog goroutine, and the Runner must
// remain fully reusable afterwards.
func TestSupervisorDeadlineCancelsRunawayPoint(t *testing.T) {
	prev := SetResultCaching(false)
	defer SetResultCaching(prev)

	profile, _ := prog.ProfileByName("gzip")
	cfg := Default()
	cfg.Instructions, cfg.Warmup = 20000, 5000

	before := runtime.NumGoroutine()
	sup := Supervisor{
		Timeout: 20 * time.Millisecond,
		PointFault: func(Config, prog.Profile) pipe.FaultHook {
			return faultinject.NewPlan(faultinject.Fault{
				Kind: faultinject.KindSlow, Stage: pipe.StageStep,
				Delay: 50 * time.Microsecond,
			})
		},
	}
	r := NewRunner()
	start := time.Now()
	_, status := sup.runPoint(context.Background(), r, cfg, profile)
	elapsed := time.Since(start)

	if status.OK() {
		t.Fatal("slow point succeeded under a 20ms deadline")
	}
	re, ok := pipe.AsRunError(status.Err)
	if !ok || re.Kind != pipe.ErrCanceled {
		t.Fatalf("err %v, want canceled RunError", status.Err)
	}
	if !errors.Is(status.Err, context.DeadlineExceeded) {
		t.Fatalf("cause %v, want DeadlineExceeded through Unwrap", status.Err)
	}
	// Cancellation is amortized: the machine may overshoot the deadline by at
	// most ~one check interval of slowed cycles (~50ms here). Anything in the
	// seconds is a lost cancel.
	if elapsed > 2*time.Second {
		t.Fatalf("cancellation took %v", elapsed)
	}
	waitGoroutines(t, before)

	// The Runner survives a cancellation: the same instance completes a clean
	// run bit-identical to a fresh Runner's, with machine invariants intact.
	res, err := r.RunE(context.Background(), cfg, profile)
	if err != nil {
		t.Fatalf("post-cancel run failed: %v", err)
	}
	want, err := NewRunner().RunE(context.Background(), cfg, profile)
	if err != nil {
		t.Fatalf("reference run failed: %v", err)
	}
	if !reflect.DeepEqual(res, want) {
		t.Fatal("post-cancel run diverged from a fresh Runner")
	}
	if err := r.pl.CheckInvariants(); err != nil {
		t.Fatalf("machine invariants after cancel+reuse: %v", err)
	}
}

// TestSupervisorRetriesTransientFault injects a once-only panic: the first
// attempt fails retryably, the retry completes, and the recovered result is
// identical to an unfaulted run.
func TestSupervisorRetriesTransientFault(t *testing.T) {
	prev := SetResultCaching(false)
	defer SetResultCaching(prev)

	profile, _ := prog.ProfileByName("parser")
	cfg := Default()
	cfg.Instructions, cfg.Warmup = 20000, 5000

	plan := faultinject.NewPlan(faultinject.Fault{
		Kind: faultinject.KindPanic, Stage: pipe.StageIssue, Cycle: 500, Once: true,
	})
	sup := Supervisor{
		Retries: 2,
		Backoff: time.Millisecond,
		PointFault: func(Config, prog.Profile) pipe.FaultHook {
			return plan
		},
	}
	res, status := sup.runPoint(context.Background(), NewRunner(), cfg, profile)
	if !status.OK() {
		t.Fatalf("transient fault not recovered: %v", status.Err)
	}
	if status.Attempts != 2 {
		t.Fatalf("%d attempts, want 2", status.Attempts)
	}
	want, err := NewRunner().RunE(context.Background(), cfg, profile)
	if err != nil {
		t.Fatalf("reference run failed: %v", err)
	}
	res.Config.Pipe.Fault = nil // the supervised copy carries the armed hook
	if !reflect.DeepEqual(res, want) {
		t.Fatal("retried result diverged from an unfaulted run")
	}

	// The same shape without the Once latch is terminal: no retry is spent.
	hard := faultinject.NewPlan(faultinject.Fault{
		Kind: faultinject.KindPanic, Stage: pipe.StageIssue, Cycle: 500,
	})
	sup.PointFault = func(Config, prog.Profile) pipe.FaultHook { return hard }
	_, status = sup.runPoint(context.Background(), NewRunner(), cfg, profile)
	if status.OK() || status.Attempts != 1 {
		t.Fatalf("persistent fault: ok=%v attempts=%d, want failure on attempt 1",
			status.OK(), status.Attempts)
	}
}

// TestRunFigureEGridCancellation cancels a whole grid mid-flight: RunFigureE
// must return promptly with every unfinished point carrying a cancellation
// status, leak no goroutines, and leave the shared Runner pool reusable for a
// healthy grid afterwards.
func TestRunFigureEGridCancellation(t *testing.T) {
	prev := SetResultCaching(false)
	defer SetResultCaching(prev)

	before := runtime.NumGoroutine()
	exps := FetchExperiments()[:1]
	sopts := stressOpts()
	sopts.Supervise = Supervisor{
		PointFault: func(Config, prog.Profile) pipe.FaultHook {
			// Every point crawls, so none can finish before the cancel.
			return faultinject.NewPlan(faultinject.Fault{
				Kind: faultinject.KindSlow, Stage: pipe.StageStep,
				Delay: 20 * time.Microsecond,
			})
		},
	}

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan *FigureResult, 1)
	go func() { done <- RunFigureE(ctx, "cancel-grid", exps, sopts) }()
	time.Sleep(30 * time.Millisecond)
	cancel()

	var fr *FigureResult
	select {
	case fr = <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("grid did not return after cancellation")
	}
	if len(fr.Failures) == 0 {
		t.Fatal("canceled grid reported no failures")
	}
	canceled := 0
	for _, f := range fr.Failures {
		if errors.Is(f.Err, context.Canceled) {
			canceled++
		}
	}
	if canceled == 0 {
		t.Fatalf("no failure carries the context error: %v", fr.Failures)
	}
	waitGoroutines(t, before)

	// The pool is reusable: a healthy grid after the cancellation completes
	// with no failures.
	clean := RunFigure("post-cancel", exps, stressOpts())
	if clean.Failures != nil {
		t.Fatalf("post-cancel grid failed: %v", clean.Failures)
	}
}

// TestGuardConvertsRunErrorPanics: the drivers' top-level wrapper turns an
// escaped RunError panic into a diagnostic report and exit code 1, passes
// clean exit codes through, and re-raises foreign panics.
func TestGuardConvertsRunErrorPanics(t *testing.T) {
	var sb strings.Builder
	code := Guard(&sb, "toolname", func() int {
		panic(&pipe.RunError{Kind: pipe.ErrDeadlock, Cycle: 123, Policy: "baseline", StuckLimit: 100})
	})
	if code != 1 {
		t.Fatalf("exit code %d, want 1", code)
	}
	if !strings.Contains(sb.String(), "toolname: simulation failed (deadlock)") {
		t.Fatalf("report missing diagnosis: %q", sb.String())
	}
	if got := Guard(&sb, "toolname", func() int { return 7 }); got != 7 {
		t.Fatalf("clean exit code %d, want 7", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("foreign panic swallowed by Guard")
		}
	}()
	Guard(&sb, "toolname", func() int { panic("not a run failure") })
}

// waitGoroutines waits for the goroutine count to settle back to at most
// before (watchdogs and workers must exit with their runs, not linger).
func waitGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestNextBackoffSaturatesWithoutOverflow is the Retries=64 regression: 64
// iterated doublings (one per retry of a maximal budget) must saturate at
// MaxBackoff, never overflow time.Duration into a negative wait — a
// negative timer fires immediately, which would turn the backoff into a hot
// retry loop exactly when the system is most stressed.
func TestNextBackoffSaturatesWithoutOverflow(t *testing.T) {
	d := DefaultBackoff
	for i := 0; i < 64; i++ {
		d = NextBackoff(d)
		if d <= 0 || d > MaxBackoff {
			t.Fatalf("retry %d: backoff %v escaped (0, %v]", i+1, d, MaxBackoff)
		}
	}
	if d != MaxBackoff {
		t.Fatalf("backoff after 64 doublings = %v, want saturation at %v", d, MaxBackoff)
	}
	if got := NextBackoff(MaxBackoff); got != MaxBackoff {
		t.Fatalf("NextBackoff(MaxBackoff) = %v, want %v", got, MaxBackoff)
	}
	// One nanosecond under half the cap is the last value allowed to double.
	if got := NextBackoff(MaxBackoff/2 - 1); got != MaxBackoff-2 {
		t.Fatalf("NextBackoff(cap/2-1) = %v, want %v", got, MaxBackoff-2)
	}
}
