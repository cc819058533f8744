package main

// Program processes: one-shot hpca03 runs and stserve instances, each with
// its wall time, CPU time and peak resident set from the kernel's rusage.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"syscall"
	"time"
)

// usage is the resource cost of one or more program processes.
type usage struct {
	start time.Time
	wall  time.Duration // from the first start to the last exit
	held  time.Duration // of wall, paused to sample the reference kernel
	cpu   time.Duration // user + system
	rssKB int64         // peak resident set, the maximum over the processes
}

func (u usage) end() time.Time { return u.start.Add(u.wall) }

// add folds an exited process's rusage into u.
func (u *usage) add(ps *os.ProcessState) {
	if ps == nil {
		return
	}
	u.cpu += ps.UserTime() + ps.SystemTime()
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok && ru.Maxrss > u.rssKB {
		u.rssKB = ru.Maxrss // kilobytes on Linux
	}
}

// proc is one finished program run.
type proc struct {
	usage
	stdout, stderr []byte
}

// runProc runs a program to completion. A nonzero exit is an error that
// carries the last line of its standard error.
func runProc(ctx context.Context, bin string, args ...string) (proc, error) {
	return runOp(ctx, nil, nil, bin, args...)
}

// runOp is runProc for a measured operation: with speed set, the program
// is paused every refEvery, together with the operation's other processes,
// to sample the reference kernel, and its usage records the time held.
func runOp(ctx context.Context, speed *hostSpeed, others []*os.Process, bin string, args ...string) (proc, error) {
	cmd := command(ctx, bin, args...)
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	t0 := time.Now()
	var wall, held time.Duration
	err := cmd.Start()
	if err == nil {
		stop, done := make(chan struct{}), make(chan time.Duration, 1)
		if speed != nil {
			go func() { done <- speed.pausing(append(slices.Clip(others), cmd.Process), stop) }()
		} else {
			done <- 0
		}
		err = cmd.Wait()
		wall = time.Since(t0)
		close(stop)
		held = <-done
	}
	p := proc{usage: usage{start: t0, wall: wall, held: held}, stdout: out.Bytes(), stderr: errb.Bytes()}
	p.add(cmd.ProcessState)
	if err != nil {
		return p, fmt.Errorf("%s %s: %w: %s", filepath.Base(bin), strings.Join(args, " "), err, lastLine(p.stderr))
	}
	return p, nil
}

// command is exec.CommandContext with a graceful cancel: SIGTERM, which
// hpca03 and stserve handle by stopping their own children, then SIGKILL
// after 10s.
func command(ctx context.Context, bin string, args ...string) *exec.Cmd {
	cmd := exec.CommandContext(ctx, bin, args...)
	cmd.Cancel = func() error { return cmd.Process.Signal(syscall.SIGTERM) }
	cmd.WaitDelay = 10 * time.Second
	return cmd
}

func lastLine(b []byte) string {
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	return lines[len(lines)-1]
}

// server is one running stserve process.
type server struct {
	cmd    *exec.Cmd
	addr   string // host:port
	start  time.Time
	ready  time.Duration // spawn to first /readyz 200
	exited chan struct{} // closed once the process has been waited for
	stderr bytes.Buffer  // read only after exited
}

func (s *server) url(path string) string { return "http://" + s.addr + path }

// startServers spawns n stserve processes with args on fresh loopback
// ports and waits until each answers /readyz with 200. A port taken between
// choosing and binding makes stserve exit; the whole set is then retried.
func startServers(ctx context.Context, e *env, n int, args ...string) ([]*server, error) {
	for attempt := 1; ; attempt++ {
		var srvs []*server
		var err error
		for i := 0; i < n && err == nil; i++ {
			var s *server
			if s, err = spawnServer(ctx, e.exe("stserve"), args); err == nil {
				srvs = append(srvs, s)
			}
		}
		if err == nil {
			if err = waitReady(ctx, srvs); err == nil {
				return srvs, nil
			}
		}
		stopServers(srvs)
		if ctx.Err() != nil || attempt == 3 {
			return nil, err
		}
	}
}

func spawnServer(ctx context.Context, bin string, args []string) (*server, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := l.Addr().String()
	l.Close()
	s := &server{addr: addr, exited: make(chan struct{})}
	s.cmd = command(ctx, bin, append([]string{"-addr", addr}, args...)...)
	s.cmd.Stderr = &s.stderr
	s.start = time.Now()
	if err := s.cmd.Start(); err != nil {
		return nil, err
	}
	go func() {
		s.cmd.Wait()
		close(s.exited)
	}()
	return s, nil
}

// readyPoll spaces waitReady's /readyz polls.
const readyPoll = 50 * time.Microsecond

// waitReady polls every server's /readyz until each has answered 200,
// recording each one's ready time from its own spawn.
func waitReady(ctx context.Context, srvs []*server) error {
	hc := &http.Client{Timeout: time.Second, Transport: &http.Transport{DisableKeepAlives: true}}
	defer hc.CloseIdleConnections()
	deadline := time.Now().Add(15 * time.Second)
	for pending := len(srvs); pending > 0; {
		for _, s := range srvs {
			if s.ready > 0 {
				continue
			}
			select {
			case <-s.exited:
				return fmt.Errorf("stserve on %s exited before ready: %s", s.addr, lastLine(s.stderr.Bytes()))
			default:
			}
			if readyz(ctx, hc, s) {
				s.ready = time.Since(s.start)
				pending--
			}
		}
		if time.Now().After(deadline) {
			return errors.New("stserve not ready within 15s")
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		nanosleep(readyPoll) // time.Sleep would quantize a ~3 ms ready time to 1 ms
	}
	return nil
}

func readyz(ctx context.Context, hc *http.Client, s *server) bool {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.url("/readyz"), nil)
	if err != nil {
		return false
	}
	resp, err := hc.Do(req)
	if err != nil {
		return false
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// stop drains the server with SIGTERM (killing it after 10s) and returns
// its resource usage.
func (s *server) stop() usage {
	s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.exited:
	case <-time.After(10 * time.Second):
		s.cmd.Process.Kill()
		<-s.exited
	}
	u := usage{start: s.start, wall: time.Since(s.start)}
	u.add(s.cmd.ProcessState)
	return u
}

// stopServers stops every server and sums their usage.
func stopServers(srvs []*server) usage {
	var total usage
	for i, s := range srvs {
		u := s.stop()
		if i == 0 || u.start.Before(total.start) {
			total.start = u.start
		}
		total.wall = max(total.wall, u.end().Sub(total.start))
		total.cpu += u.cpu
		total.rssKB = max(total.rssKB, u.rssKB)
	}
	return total
}

// maxReady is the ready time of the slowest of srvs.
func maxReady(srvs []*server) time.Duration {
	var d time.Duration
	for _, s := range srvs {
		d = max(d, s.ready)
	}
	return d
}
