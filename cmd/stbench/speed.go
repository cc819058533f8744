package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

const (
	// refNominal is the reference kernel's CPU time on a host of nominal
	// speed: about its median on an idle vCPU of the 2-core x86-64 VM the
	// bounds in BENCHMARK.json were set on.
	refNominal = time.Millisecond
	// refEvery spaces the kernel's runs, so that they take about 2% of a
	// run: between short operations, and as pauses inside long ones.
	refEvery = 50 * time.Millisecond
	// refNear is how many samples scale an interval on each side: the last
	// refNear before it began and the first refNear after it ended. A burst
	// is refNear samples in a row.
	refNear = 5
	// idleMargin is how long nothing may be due to run before the kernel
	// starts in the middle of a stream: two to three kernel runs.
	idleMargin = 3 * time.Millisecond
	// idlePoll spaces the checks for such a moment.
	idlePoll = 200 * time.Microsecond
)

// hostSpeed samples a fixed reference kernel through a run. A shared host's
// speed drifts by tens of percent within seconds, moving every time
// measured in that stretch by about the same factor. Each time a run
// reports is therefore scaled by refNominal over the median kernel time
// around it, which cancels the drift. The kernel is stbench's own code,
// identical for every tree measured. It runs only while no program process
// works, never alongside one: between operations, while a long operation's
// processes are paused, or in a stream's idle moments. The workload's own
// use of processors and caches therefore cannot move the factor. It is
// timed in thread CPU time.
type hostSpeed struct{ samples []refSample }

type refSample struct {
	at  time.Time
	cpu time.Duration
}

// sample runs the kernel k times in a row on a locked thread.
func (h *hostSpeed) sample(k int) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	for ; k > 0; k-- {
		at, c0 := time.Now(), threadCPU()
		refKernel()
		h.samples = append(h.samples, refSample{at, threadCPU() - c0})
	}
}

// gap samples between two operations: one kernel run per refEvery since
// the last sample, at most a burst, so the first operation gets a burst
// before it and back-to-back short ones share samples.
func (h *hostSpeed) gap() {
	k := refNear
	if n := len(h.samples); n > 0 {
		k = min(k, int(time.Since(h.samples[n-1].at)/refEvery))
	}
	h.sample(k)
}

// sampleIdle runs the kernel about every refEvery until stop is closed,
// each time first waiting until idle reports that no program process will
// work for the next idleMargin.
func (h *hostSpeed) sampleIdle(stop <-chan struct{}, idle func(margin time.Duration) bool) {
	tick := time.NewTicker(refEvery)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
		}
		for !idle(idleMargin) {
			select {
			case <-stop:
				return
			default:
			}
			nanosleep(idlePoll)
		}
		h.sample(1)
	}
}

// pausing samples the kernel inside a long operation without running it
// alongside: every refEvery until stop is closed, it stops every process of
// the operation with SIGSTOP, waits until all their threads have stopped,
// runs the kernel once and resumes them with SIGCONT. It returns how long
// the processes were held, which the caller leaves out of the operation's
// time.
func (h *hostSpeed) pausing(procs []*os.Process, stop <-chan struct{}) time.Duration {
	tick := time.NewTicker(refEvery)
	defer tick.Stop()
	var held time.Duration
	for {
		select {
		case <-stop:
			return held
		case <-tick.C:
		}
		t0 := time.Now()
		stopped := signalAll(procs, syscall.SIGSTOP)
		if stopped && allStopped(procs) {
			h.sample(1)
		}
		// Read the clock before resuming: the resumed threads may preempt
		// this one, and they are not held while they run.
		t1 := time.Now()
		signalAll(procs, syscall.SIGCONT)
		if stopped { // else a process has exited, and the operation is over
			held += t1.Sub(t0)
		}
	}
}

// signalAll sends sig to every process and reports whether each took it; a
// process that has exited does not.
func signalAll(procs []*os.Process, sig os.Signal) bool {
	ok := true
	for _, p := range procs {
		ok = p.Signal(sig) == nil && ok
	}
	return ok
}

// allStopped waits up to 5 ms until every thread of every process is in
// the stopped state, and reports whether they all got there.
func allStopped(procs []*os.Process) bool {
	for deadline := time.Now().Add(5 * time.Millisecond); ; {
		done := true
		for _, p := range procs {
			done = done && threadsStopped(p.Pid)
		}
		if done || time.Now().After(deadline) {
			return done
		}
		nanosleep(idlePoll / 10)
	}
}

// threadsStopped reports whether every thread of process pid is stopped,
// from the state field of /proc/<pid>/task/<tid>/stat.
func threadsStopped(pid int) bool {
	dir := fmt.Sprintf("/proc/%d/task", pid)
	tasks, err := os.ReadDir(dir)
	if err != nil || len(tasks) == 0 {
		return false
	}
	for _, t := range tasks {
		stat, err := os.ReadFile(filepath.Join(dir, t.Name(), "stat"))
		i := bytes.LastIndexByte(stat, ')') // the command name may hold spaces
		if err != nil || i < 0 || i+2 >= len(stat) || stat[i+2] != 'T' {
			return false
		}
	}
	return true
}

// factor is refNominal over the median kernel time of the samples taken
// between from and to, the refNear taken last before from and the refNear
// taken first after to.
func (h *hostSpeed) factor(from, to time.Time) float64 {
	lo := sort.Search(len(h.samples), func(i int) bool { return !h.samples[i].at.Before(from) })
	hi := sort.Search(len(h.samples), func(i int) bool { return h.samples[i].at.After(to) })
	return h.factorOf(h.samples[max(0, lo-refNear):min(len(h.samples), hi+refNear)])
}

// runFactor is the factor over every sample of the run.
func (h *hostSpeed) runFactor() float64 { return h.factorOf(h.samples) }

func (h *hostSpeed) factorOf(samples []refSample) float64 {
	if len(samples) == 0 {
		return 1
	}
	cpus := make([]float64, len(samples))
	for i, s := range samples {
		cpus[i] = float64(s.cpu)
	}
	return float64(refNominal) / median(cpus)
}

// cpuTicks returns the host's cumulative stolen and total CPU time, in
// clock ticks, from the first line of /proc/stat. Thread CPU time leaves
// out time the hypervisor gave to other guests, so the factor cannot see
// steal; the run prints its share instead.
func cpuTicks() (steal, total uint64, err error) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	line, _, _ := bytes.Cut(data, []byte("\n"))
	fields := strings.Fields(string(line))
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0, fmt.Errorf("/proc/stat: unexpected first line %q", line)
	}
	// user nice system idle iowait irq softirq steal; guest time that may
	// follow is already counted in user and nice.
	for i, f := range fields[1:9] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0, fmt.Errorf("/proc/stat: %w", err)
		}
		if i == 7 {
			steal = v
		}
		total += v
	}
	return steal, total, nil
}

// nanosleep blocks the calling thread for d. A sub-millisecond time.Sleep
// can last a millisecond or more, because it waits on the runtime's network
// poller.
func nanosleep(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	syscall.Nanosleep(&ts, nil)
}

// threadCPU is the calling thread's CPU time, from Linux's
// CLOCK_THREAD_CPUTIME_ID (getrusage's per-thread times are too coarse).
func threadCPU() time.Duration {
	const clockThreadCPUTime = 3
	var ts syscall.Timespec
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

var refSink byte

// refKernel is a fixed mix of sorting, byte-slice filling, SHA-256 and map
// inserts: branchy, memory-bound and arithmetic work.
func refKernel() {
	rng := rand.New(rand.NewSource(1))
	xs := make([]int, 8000)
	for i := range xs {
		xs[i] = rng.Int()
	}
	slices.Sort(xs)
	buf := make([]byte, 64<<10)
	for i := range buf {
		buf[i] = byte(xs[i%len(xs)])
	}
	sum := sha256.Sum256(buf)
	m := make(map[int]int)
	for i := 0; i < 4000; i++ {
		m[xs[i]^i] += i
	}
	refSink ^= sum[0] ^ byte(len(m))
}
