package main

import (
	"bufio"
	"net/http"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestServesUntilStdinCloses drives the binary's whole lifetime: it prints
// a loopback address, answers /readyz there, and exits 0 once its stdin
// closes — the parent that started it is gone.
func TestServesUntilStdinCloses(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test")
	}
	bin := filepath.Join(t.TempDir(), "stworker")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	cmd := exec.Command(bin, "-store", t.TempDir())
	stdin, err := cmd.StdinPipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	var stderr strings.Builder
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		addr, _ := bufio.NewReader(stdout).ReadString('\n')
		addr = strings.TrimSpace(addr)
		if !strings.HasPrefix(addr, "127.0.0.1:") {
			cmd.Process.Kill()
			t.Errorf("first stdout line %q is not a loopback address", addr)
		} else if resp, err := (&http.Client{Timeout: 5 * time.Second}).Get("http://" + addr + "/readyz"); err != nil {
			t.Errorf("GET /readyz: %v", err)
		} else if resp.Body.Close(); resp.StatusCode != http.StatusOK {
			t.Errorf("GET /readyz: %d, want 200", resp.StatusCode)
		}
		stdin.Close()
		done <- cmd.Wait()
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("stworker exited %v after its stdin closed, want exit 0\nstderr:\n%s", err, stderr.String())
		}
	case <-time.After(5 * time.Second):
		cmd.Process.Kill()
		<-done
		t.Fatalf("stworker still running after 5s\nstderr:\n%s", stderr.String())
	}
}
