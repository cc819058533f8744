package grid

// Real-subprocess crash-recovery tests: build the actual hpca03 and
// stworker binaries, dispatch a figure to 3 local workers over a shared
// store (hpca03 -workers 3, the fleet path with local stworker processes),
// kill or wedge one mid-grid through the injected process fault, and
// require the final report to be byte-identical to a clean single-process
// run. Real processes, real signals, real point leases on a real
// filesystem.

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
)

var (
	buildOnce sync.Once
	buildDir  string
	buildErr  error
)

// binaries builds hpca03 and stworker once per test process.
func binaries(t *testing.T) (hpca03, stworker string) {
	t.Helper()
	buildOnce.Do(func() {
		buildDir, buildErr = os.MkdirTemp("", "grid-crash-bin")
		if buildErr != nil {
			return
		}
		for _, pkg := range []string{"hpca03", "stworker"} {
			out, err := exec.Command("go", "build", "-o",
				filepath.Join(buildDir, pkg), "selthrottle/cmd/"+pkg).CombinedOutput()
			if err != nil {
				buildErr = fmt.Errorf("go build %s: %v\n%s", pkg, err, out)
				return
			}
		}
	})
	if buildErr != nil {
		t.Fatalf("building binaries: %v", buildErr)
	}
	return filepath.Join(buildDir, "hpca03"), filepath.Join(buildDir, "stworker")
}

// fastArgs is the shared fast grid selection: fig3 (64 points) at a small
// instruction budget.
func fastArgs(storeDir string) []string {
	return []string{"-exp", "fig3", "-n", "8000", "-warmup", "2000", "-store", storeDir}
}

// runBin runs a binary capturing stdout and stderr separately.
func runBin(t *testing.T, bin string, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	err := cmd.Run()
	code = 0
	if err != nil {
		xerr, ok := err.(*exec.ExitError)
		if !ok {
			t.Fatalf("run %s: %v", bin, err)
		}
		code = xerr.ExitCode()
	}
	return out.String(), errb.String(), code
}

// TestWorkerCrashRecoveryByteIdentical is the headline invariant: 3 local
// workers serve the grid, worker 1 SIGKILLs itself after 2 points, the
// fleet routes its points elsewhere, and the final report is
// byte-identical to a clean single-process run.
func TestWorkerCrashRecoveryByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess crash test")
	}
	hpca03, stworker := binaries(t)

	refOut, _, code := runBin(t, hpca03, fastArgs(t.TempDir())...)
	if code != 0 {
		t.Fatalf("single-process reference run exited %d", code)
	}
	if !strings.Contains(refOut, "Figure 3") {
		t.Fatalf("reference run produced no figure:\n%s", refOut)
	}

	args := append(fastArgs(t.TempDir()),
		"-workers", "3",
		"-worker-bin", stworker,
		"-worker-fault", "1:kill-after=2",
	)
	gotOut, gotErr, code := runBin(t, hpca03, args...)
	if code != 0 {
		t.Fatalf("multi-worker crash run exited %d\nstderr:\n%s", code, gotErr)
	}
	if !strings.Contains(gotErr, "worker 1 exited: signal: killed") {
		t.Fatalf("worker 1 was never killed; stderr:\n%s", gotErr)
	}
	if gotOut != refOut {
		t.Fatalf("multi-worker output diverges from single-process run\n--- single-process ---\n%s\n--- multi-worker ---\n%s", refOut, gotOut)
	}
}

// hedgedRE and breakerRE read the hedge count and the per-worker breaker
// lines of hpca03's fleet summary.
var (
	hedgedRE  = regexp.MustCompile(`\((\d+) hedged`)
	breakerRE = regexp.MustCompile(`breaker opened [1-9]\d*x`)
)

// TestWorkerFrozenHeartbeatRecovery: a worker that stops answering after 2
// points (every later request, readiness probes included, hangs) must be
// routed around by the fleet's hedges or breakers, with the final report
// still byte-identical.
func TestWorkerFrozenHeartbeatRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess crash test")
	}
	hpca03, stworker := binaries(t)

	refOut, _, code := runBin(t, hpca03, fastArgs(t.TempDir())...)
	if code != 0 {
		t.Fatalf("single-process reference run exited %d", code)
	}

	args := append(fastArgs(t.TempDir()),
		"-workers", "3",
		"-worker-bin", stworker,
		"-worker-fault", "2:freeze-after=2",
	)
	gotOut, gotErr, code := runBin(t, hpca03, args...)
	if code != 0 {
		t.Fatalf("frozen-worker run exited %d\nstderr:\n%s", code, gotErr)
	}
	m := hedgedRE.FindStringSubmatch(gotErr)
	if m == nil {
		t.Fatalf("no fleet summary; stderr:\n%s", gotErr)
	}
	if m[1] == "0" && !breakerRE.MatchString(gotErr) {
		t.Fatalf("frozen worker never hedged around nor broken off; stderr:\n%s", gotErr)
	}
	if gotOut != refOut {
		t.Fatalf("frozen-worker output diverges from single-process run\n--- single-process ---\n%s\n--- multi-worker ---\n%s", refOut, gotOut)
	}
}

// TestMultiWorkerCleanRun: no faults — 3 local workers serve the grid and
// the output matches the single-process run (the boring path must work
// too, and the workers must actually be used: hpca03 logs the dispatch).
func TestMultiWorkerCleanRun(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test")
	}
	hpca03, stworker := binaries(t)

	refOut, _, code := runBin(t, hpca03, fastArgs(t.TempDir())...)
	if code != 0 {
		t.Fatalf("single-process reference run exited %d", code)
	}
	args := append(fastArgs(t.TempDir()),
		"-workers", "3", "-worker-bin", stworker)
	gotOut, gotErr, code := runBin(t, hpca03, args...)
	if code != 0 {
		t.Fatalf("clean multi-worker run exited %d\nstderr:\n%s", code, gotErr)
	}
	if !strings.Contains(gotErr, "dispatching 64 points to 3 fleet worker(s)") {
		t.Fatalf("hpca03 never dispatched to its 3 workers; stderr:\n%s", gotErr)
	}
	if gotOut != refOut {
		t.Fatalf("clean multi-worker output diverges from single-process run")
	}
}

// TestWorkerResumesFromWarmStore: a second -workers run over the SAME store
// computes nothing — every point is already published, so the fleet skips
// them all and the report renders from the store — and leaves the store
// byte-for-byte unchanged. Resumability is what makes crash recovery cheap.
func TestWorkerResumesFromWarmStore(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test")
	}
	hpca03, stworker := binaries(t)
	storeDir := t.TempDir()
	args := append(fastArgs(storeDir), "-workers", "3", "-worker-bin", stworker)
	coldOut, stderr, code := runBin(t, hpca03, args...)
	if code != 0 {
		t.Fatalf("cold run exited %d\nstderr:\n%s", code, stderr)
	}
	before := storeSnapshot(t, storeDir)
	warmOut, stderr, code := runBin(t, hpca03, append(args, "-v")...)
	if code != 0 {
		t.Fatalf("warm run exited %d\nstderr:\n%s", code, stderr)
	}
	if !strings.Contains(stderr, "/ 0 computed") || !strings.Contains(stderr, "64 stored") {
		t.Fatalf("warm run recomputed or redispatched points; stderr:\n%s", stderr)
	}
	if warmOut != coldOut {
		t.Fatal("warm run output diverges from the cold run")
	}
	after := storeSnapshot(t, storeDir)
	if len(before) == 0 {
		t.Fatal("cold run published nothing")
	}
	if len(before) != len(after) {
		t.Fatalf("warm re-run changed the store: %d entries before, %d after", len(before), len(after))
	}
	for name, sum := range before {
		if after[name] != sum {
			t.Fatalf("warm re-run rewrote %s", name)
		}
	}
}

// storeSnapshot maps every .res entry to its content for identity checks.
func storeSnapshot(t *testing.T, dir string) map[string]string {
	t.Helper()
	snap := make(map[string]string)
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".res") {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		snap[filepath.Base(path)] = string(data)
		return nil
	})
	if err != nil {
		t.Fatalf("walk store: %v", err)
	}
	return snap
}
