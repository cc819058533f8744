package fleet

// The chaos acceptance test: real hpca03 and stserve binaries, a real
// shared store, and an in-process TCP chaos proxy in front of every worker.
// One worker is blackholed outright (its points must hedge elsewhere), one
// resets every connection until it is healed mid-run (its breaker must
// complete a full open → half-open → closed cycle and dispatch must resume),
// and the healthy one absorbs a truncated response plus seeded delays. The
// invariant under all of it is the repository's headline one: stdout is
// byte-identical to a clean single-process run, and the exit code is 0.

import (
	"bytes"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"selthrottle/internal/faultinject"
)

var (
	buildOnce sync.Once
	buildDir  string
	buildErr  error
)

// binaries builds hpca03 and stserve once per test process.
func binaries(t *testing.T) (hpca03, stserve string) {
	t.Helper()
	buildOnce.Do(func() {
		buildDir, buildErr = os.MkdirTemp("", "fleet-chaos-bin")
		if buildErr != nil {
			return
		}
		for _, pkg := range []string{"hpca03", "stserve"} {
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
	return filepath.Join(buildDir, "hpca03"), filepath.Join(buildDir, "stserve")
}

// TestMain removes the directory the binaries were built into once the
// package's tests have run.
func TestMain(m *testing.M) {
	code := m.Run()
	if buildDir != "" {
		os.RemoveAll(buildDir)
	}
	os.Exit(code)
}

// freePort reserves an ephemeral 127.0.0.1 port and releases it for the
// subprocess to bind.
func freePort(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// startWorker launches one stserve on addr over the shared store and waits
// for liveness. Cleanup SIGTERMs it and requires a clean drain (exit 0).
func startWorker(t *testing.T, stserve, addr, storeDir string) {
	t.Helper()
	cmd := exec.Command(stserve, "-addr", addr, "-store", storeDir)
	var logs bytes.Buffer
	cmd.Stdout, cmd.Stderr = &logs, &logs
	if err := cmd.Start(); err != nil {
		t.Fatalf("start stserve: %v", err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	t.Cleanup(func() {
		cmd.Process.Signal(syscall.SIGTERM)
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("stserve %s did not drain cleanly: %v\n%s", addr, err, logs.String())
			}
		case <-time.After(10 * time.Second):
			cmd.Process.Kill()
			t.Errorf("stserve %s did not exit within the drain window\n%s", addr, logs.String())
		}
	})

	hc := &http.Client{Timeout: 250 * time.Millisecond}
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := hc.Get("http://" + addr + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == 200 {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("stserve %s never became live\n%s", addr, logs.String())
		}
		time.Sleep(25 * time.Millisecond)
	}
}

// chaosProxy fronts backend with the given fault schedule.
func chaosProxy(t *testing.T, backend string, faults ...faultinject.NetFault) *faultinject.ChaosProxy {
	t.Helper()
	p, err := faultinject.NewChaosProxy(backend, faults...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	return p
}

// runHpca runs the hpca03 binary capturing stdout and stderr separately.
func runHpca(t *testing.T, bin string, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	err := cmd.Run()
	if err != nil {
		xerr, ok := err.(*exec.ExitError)
		if !ok {
			t.Fatalf("run %s: %v", bin, err)
		}
		code = xerr.ExitCode()
	}
	return out.String(), errb.String(), code
}

// chaosArgs is the shared grid selection: fig3 (64 points) at an
// instruction budget small enough to be quick but large enough that the
// sweep outlives the mid-run heal of worker B.
func chaosArgs(storeDir string) []string {
	return []string{"-exp", "fig3", "-n", "20000", "-warmup", "5000", "-store", storeDir}
}

// TestFleetChaosByteIdentical is the acceptance gauntlet described above.
func TestFleetChaosByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess chaos test")
	}
	hpca03, stserve := binaries(t)

	refOut, _, code := runHpca(t, hpca03, chaosArgs(t.TempDir())...)
	if code != 0 {
		t.Fatalf("single-process reference run exited %d", code)
	}
	if !strings.Contains(refOut, "Figure 3") {
		t.Fatalf("reference run produced no figure:\n%s", refOut)
	}

	storeDir := t.TempDir()
	addrA, addrB, addrC := freePort(t), freePort(t), freePort(t)
	startWorker(t, stserve, addrA, storeDir)
	startWorker(t, stserve, addrB, storeDir)
	startWorker(t, stserve, addrC, storeDir)

	// Worker A: a network partition — every connection is silence. Its
	// breaker opens and stays open; its points hedge to the others.
	proxyA := chaosProxy(t, addrA, faultinject.NetFault{Kind: faultinject.NetBlackhole})
	// Worker B: RST on every connection until healed below. Guaranteed
	// consecutive failures (no connection can succeed), so its breaker
	// opens; after the heal, a readiness probe closes it and dispatch
	// resumes — the full cycle.
	proxyB := chaosProxy(t, addrB, faultinject.NetFault{Kind: faultinject.NetConnReset})
	// Worker C: one truncated response plus seeded scattered delays — the
	// retry and hedge paths on an otherwise healthy worker.
	faultsC := append([]faultinject.NetFault{{Kind: faultinject.NetTruncate, TruncAt: 64, Once: true}},
		faultinject.ScatterNet(42, 6, 2, 150*time.Millisecond, faultinject.NetDelay)...)
	proxyC := chaosProxy(t, addrC, faultsC...)

	heal := time.AfterFunc(250*time.Millisecond, func() { proxyB.SetFaults() })
	defer heal.Stop()

	args := append(chaosArgs(storeDir),
		"-fleet", proxyA.Addr()+","+proxyB.Addr()+","+proxyC.Addr(),
		"-point-timeout", "1s",
		"-hedge-after", "100ms",
		"-breaker-open", "150ms",
	)
	gotOut, gotErr, code := runHpca(t, hpca03, args...)
	if code != 0 {
		t.Fatalf("fleet chaos run exited %d\nstderr:\n%s", code, gotErr)
	}
	if gotOut != refOut {
		t.Fatalf("fleet output diverges from single-process run\n--- single-process ---\n%s\n--- fleet ---\n%s\nstderr:\n%s", refOut, gotOut, gotErr)
	}
	if !strings.Contains(gotErr, "hedging to") {
		t.Fatalf("no hedge was launched; stderr:\n%s", gotErr)
	}
	// Worker B's summary line must show a completed breaker cycle.
	cycle := regexp.MustCompile(regexp.QuoteMeta(proxyB.Addr()) + `: \d+ point\(s\), \d+ failure\(s\), breaker opened ([1-9]\d*)x, closed ([1-9]\d*)x`)
	if !cycle.MatchString(gotErr) {
		t.Fatalf("worker B never completed a breaker open/close cycle; stderr:\n%s", gotErr)
	}
}

// TestFleetUnreachableDegradesLocal: with every fleet target refusing
// connections, the run must still complete — locally — with byte-identical
// output and exit 0.
func TestFleetUnreachableDegradesLocal(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test")
	}
	hpca03, _ := binaries(t)

	refOut, _, code := runHpca(t, hpca03, chaosArgs(t.TempDir())...)
	if code != 0 {
		t.Fatalf("single-process reference run exited %d", code)
	}

	args := append(chaosArgs(t.TempDir()),
		"-fleet", "127.0.0.1:1,127.0.0.1:2",
		"-point-timeout", "1s",
		"-hedge-after", "-1ms",
	)
	gotOut, gotErr, code := runHpca(t, hpca03, args...)
	if code != 0 {
		t.Fatalf("unreachable-fleet run exited %d\nstderr:\n%s", code, gotErr)
	}
	if gotOut != refOut {
		t.Fatalf("degraded output diverges from single-process run\nstderr:\n%s", gotErr)
	}
	if !strings.Contains(gotErr, "computing") || !strings.Contains(gotErr, "locally") {
		t.Fatalf("no local-compute degradation reported; stderr:\n%s", gotErr)
	}
}
