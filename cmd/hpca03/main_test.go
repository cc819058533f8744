package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestUsageErrorsCreateNothing drives the binary with bad flag sets: each
// must exit 2 with exactly one message on stderr, in-process and in fleet
// mode alike, and leave behind no -store directory and no -cpuprofile
// file — the flags are checked before the run creates anything.
func TestUsageErrorsCreateNothing(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test")
	}
	bin := filepath.Join(t.TempDir(), "hpca03")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-exp", "bogus", "-store", "D1", "-cpuprofile", "p1.prof"}, `hpca03: unknown experiment "bogus"`},
		{[]string{"-exp", "fig3", "-bench", "nope", "-store", "D2"}, `hpca03: unknown benchmark "nope"`},
		{[]string{"-exp", "fig3", "-workers", "2", "-cpuprofile", "p3.prof"}, `hpca03: -workers requires -store`},
		{[]string{"-exp", "bogus", "-store", "D", "-workers", "1"}, `hpca03: unknown experiment "bogus"`},
		{[]string{"-exp", "run", "-id", "bogus", "-store", "D", "-fleet", "127.0.0.1:1"}, `hpca03: unknown experiment id "bogus"`},
		{[]string{"-exp", "fig3", "-kb", "0", "-store", "D", "-memprofile", "m.prof"}, `hpca03: bad kb 0 (want 1..1024)`},
	} {
		work := t.TempDir()
		cmd := exec.Command(bin, tc.args...)
		cmd.Dir = work
		var stdout, stderr strings.Builder
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("%v: exit %v, want 2", tc.args, err)
		}
		if got := stderr.String(); got != tc.want+"\n" {
			t.Errorf("%v: stderr %q, want the one line %q", tc.args, got, tc.want)
		}
		if stdout.Len() != 0 {
			t.Errorf("%v: stdout %q, want nothing", tc.args, stdout.String())
		}
		if left, _ := os.ReadDir(work); len(left) != 0 {
			t.Errorf("%v: left %s behind", tc.args, left[0].Name())
		}
	}
}

// TestWorkersDefaultN: -n 0 selects the default instruction budget for the
// workers as it does for the report, so the local worker serves both points
// of a one-benchmark run and rejects neither.
func TestWorkersDefaultN(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test")
	}
	dir := t.TempDir() // hpca03 finds stworker beside itself
	for _, pkg := range []string{"hpca03", "stworker"} {
		out, err := exec.Command("go", "build", "-o", filepath.Join(dir, pkg), "selthrottle/cmd/"+pkg).CombinedOutput()
		if err != nil {
			t.Fatalf("go build %s: %v\n%s", pkg, err, out)
		}
	}
	cmd := exec.Command(filepath.Join(dir, "hpca03"), "-exp", "run", "-id", "C2", "-n", "0", "-bench", "gzip",
		"-store", t.TempDir(), "-workers", "1", "-v")
	var stderr strings.Builder
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("hpca03: %v\nstderr:\n%s", err, stderr.String())
	}
	if got := stderr.String(); !strings.Contains(got, " 2 remote, 0 local,") || strings.Contains(got, "rejected") {
		t.Fatalf("want both points served remotely and none rejected; stderr:\n%s", got)
	}
}
