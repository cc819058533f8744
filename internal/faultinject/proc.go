package faultinject

// Process-level faults: deterministic ways for a worker PROCESS to die or
// wedge, complementing the point-level Plan (panics, deadlocks) and the
// disk-level DiskFS (torn writes, ENOSPC). hpca03 -workers hands one spec
// to each local stworker (-worker-fault '1:kill-after=2'). A worker that
// SIGKILLs itself after k served points is an abrupt crash
// indistinguishable from an OOM kill; a worker that stops answering after k
// points is the hung process that only request deadlines, hedges and
// circuit breakers can route around.

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"syscall"
)

// ProcFaults is a deterministic process-level fault specification, parsed
// from the comma-separated form workers accept on the command line.
type ProcFaults struct {
	// KillAfterPoints, when > 0, SIGKILLs the process once that many grid
	// points have been served — an abrupt crash with no cleanup, no lease
	// release, no deferred handlers.
	KillAfterPoints int
	// FreezeAfterPoints, when > 0, wedges the process once that many
	// points have been served: every later request, readiness probes
	// included, blocks without an answer until the process is told to stop.
	FreezeAfterPoints int
	// LeaseENOSPC injects ENOSPC into lease-file creation (OpCreate under
	// the leases directory), forcing the leaseless degradation path.
	LeaseENOSPC bool
}

// ParseProcFaults decodes a spec like "kill-after=3,lease-enospc" or
// "freeze-after=2". The empty string is the zero (no-fault) spec.
func ParseProcFaults(spec string) (ProcFaults, error) {
	var p ProcFaults
	if spec == "" {
		return p, nil
	}
	for _, tok := range strings.Split(spec, ",") {
		tok = strings.TrimSpace(tok)
		switch {
		case tok == "lease-enospc":
			p.LeaseENOSPC = true
		case strings.HasPrefix(tok, "kill-after="):
			n, err := strconv.Atoi(strings.TrimPrefix(tok, "kill-after="))
			if err != nil || n <= 0 {
				return p, fmt.Errorf("faultinject: bad kill-after count in %q", tok)
			}
			p.KillAfterPoints = n
		case strings.HasPrefix(tok, "freeze-after="):
			n, err := strconv.Atoi(strings.TrimPrefix(tok, "freeze-after="))
			if err != nil || n <= 0 {
				return p, fmt.Errorf("faultinject: bad freeze-after count in %q", tok)
			}
			p.FreezeAfterPoints = n
		default:
			return p, fmt.Errorf("faultinject: unknown process fault %q", tok)
		}
	}
	return p, nil
}

// KillSelf terminates the process with SIGKILL: no deferred functions, no
// exit handlers, no flushing — the most faithful stand-in for a crash the
// process can arrange for itself. It does not return; the os.Exit fallback
// exists only for platforms where the signal cannot be delivered.
func KillSelf() {
	// invariant: SIGKILL cannot be caught or ignored, so delivery ends the
	// process before this function returns.
	_ = syscall.Kill(os.Getpid(), syscall.SIGKILL)
	os.Exit(137)
}
