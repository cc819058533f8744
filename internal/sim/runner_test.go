package sim

import (
	"context"
	"reflect"
	"runtime"
	"testing"

	"selthrottle/internal/prog"
)

// runOn runs cfg on p with r and fails the test on a run error.
func runOn(t *testing.T, r *Runner, cfg Config, p prog.Profile) Result {
	t.Helper()
	res, err := r.RunE(context.Background(), cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestRunnerReuseBitIdentical is the refactor's correctness gate: a reused
// run context must produce exactly the Result a freshly constructed one
// does, field for field (Result is comparable, so == is a bit-level check
// over stats, energy breakdown, and headline metrics).
func TestRunnerReuseBitIdentical(t *testing.T) {
	p, _ := prog.ProfileByName("gzip")
	cfg := tinyConfig()
	fresh := runOn(t, NewRunner(), cfg, p)

	r := NewRunner()
	first := runOn(t, r, cfg, p)
	second := runOn(t, r, cfg, p)
	if first != fresh {
		t.Fatal("first run on a new runner diverged from an independent fresh runner")
	}
	if second != first {
		t.Fatal("rerun on a reused runner diverged from its first run")
	}
}

// TestRunnerReuseAcrossConfigsAndProfiles drives one context through
// different policies, estimators, depths, and programs, then re-runs the
// original pair: any state leaking across runs would show up as a changed
// Result.
func TestRunnerReuseAcrossConfigsAndProfiles(t *testing.T) {
	gz, _ := prog.ProfileByName("gzip")
	tw, _ := prog.ProfileByName("twolf")
	base := tinyConfig()

	r := NewRunner()
	want := runOn(t, r, base, gz)

	c2 := BestExperiment().Apply(base)
	deep := base
	deep.Pipe.SetDepth(20)
	jrs := base
	jrs.Estimator = EstJRS

	runOn(t, r, c2, tw)
	runOn(t, r, deep, gz)
	runOn(t, r, jrs, tw)

	if got := runOn(t, r, base, gz); got != want {
		t.Fatal("runner state leaked across intervening runs with other configurations")
	}
}

// TestRunFigureIndependentOfGOMAXPROCS pins the figure harness's
// scheduling-independence: the same figure computed serially and with a
// parallel worker pool must match exactly.
func TestRunFigureIndependentOfGOMAXPROCS(t *testing.T) {
	var profiles []prog.Profile
	for _, n := range []string{"gzip", "twolf"} {
		p, _ := prog.ProfileByName(n)
		profiles = append(profiles, p)
	}
	opts := Options{Instructions: 8000, Warmup: 2000, Profiles: profiles}
	exps := []Experiment{BestExperiment(), pipelineGating("PG")}

	prev := runtime.GOMAXPROCS(1)
	serial := RunFigure("gmp", exps, opts)
	runtime.GOMAXPROCS(4)
	parallel := RunFigure("gmp", exps, opts)
	runtime.GOMAXPROCS(prev)

	if !reflect.DeepEqual(serial, parallel) {
		t.Fatal("RunFigure output depends on GOMAXPROCS")
	}
}
