package grid

import (
	"errors"
	"strings"
	"sync"
	"testing"

	"selthrottle/internal/faultinject"
	"selthrottle/internal/store"
)

// newTestManager builds a manager over a temp store dir.
func newTestManager(t *testing.T, fsys store.FS) *Manager {
	t.Helper()
	m, err := NewManager(t.TempDir(), fsys, 0)
	if err != nil {
		t.Fatalf("NewManager: %v", err)
	}
	return m
}

// TestLeaseAcquireHeldRelease: a claim writes the three-line v2 file, a
// second claim answers ErrHeld, and release frees the name.
func TestLeaseAcquireHeldRelease(t *testing.T) {
	m := newTestManager(t, nil)
	l, err := m.Acquire("g-p0-of1", "w0")
	if err != nil {
		t.Fatalf("Acquire: %v", err)
	}
	data, err := (store.OSFS{}).ReadFile(m.path("g-p0-of1"))
	if err != nil {
		t.Fatalf("read lease file: %v", err)
	}
	lines := strings.Split(string(data), "\n")
	if len(lines) != 4 || lines[0] != "stlease v2" || lines[1] != "owner w0" ||
		!strings.HasPrefix(lines[2], "token ") || len(lines[2]) <= len("token ") || lines[3] != "" {
		t.Fatalf("lease file = %q, want stlease v2, owner, token lines", data)
	}
	if _, err := m.Acquire("g-p0-of1", "w1"); !errors.Is(err, ErrHeld) {
		t.Fatalf("second Acquire = %v, want ErrHeld", err)
	}
	l.Release()
	if _, err := m.Acquire("g-p0-of1", "w1"); err != nil {
		t.Fatalf("Acquire after Release: %v", err)
	}
}

// TestLeaseStealFencing: after a steal, the old holder's next Beat returns
// ErrLost — the at-most-one-live-holder guarantee.
func TestLeaseStealFencing(t *testing.T) {
	m := newTestManager(t, nil)
	old, err := m.Acquire("g-p1-of3", "w-old")
	if err != nil {
		t.Fatalf("Acquire: %v", err)
	}
	thief, err := m.Steal("g-p1-of3", "w-new")
	if err != nil {
		t.Fatalf("Steal: %v", err)
	}
	if err := old.Beat(); !errors.Is(err, ErrLost) {
		t.Fatalf("old holder Beat = %v, want ErrLost", err)
	}
	if !old.Lost() {
		t.Fatal("old holder not marked lost")
	}
	if err := thief.Beat(); err != nil {
		t.Fatalf("thief Beat: %v", err)
	}
	// Once lost, the old holder's Release must not destroy the thief's lease.
	old.Release()
	if err := thief.Beat(); err != nil {
		t.Fatalf("thief Beat after old Release: %v", err)
	}
}

// TestLeaseStealRace is the no-two-live-holders stress check: racing
// stealers over one held lease all believe they won (a steal is
// provisional), but the file keeps only the last rename's token, so one
// round of checks leaves exactly one survivor — every other holder's Beat
// returns ErrLost. Run under -race this also exercises the protocol's
// concurrency.
func TestLeaseStealRace(t *testing.T) {
	m := newTestManager(t, nil)
	if _, err := m.Acquire("g-p0-of4", "w-dead"); err != nil {
		t.Fatalf("Acquire: %v", err)
	}
	const thieves = 8
	var wg sync.WaitGroup
	leases := make([]*Lease, thieves)
	for i := 0; i < thieves; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			l, err := m.Steal("g-p0-of4", "thief")
			if err != nil {
				t.Errorf("Steal: %v", err)
			}
			leases[i] = l
		}(i)
	}
	wg.Wait()
	for _, l := range leases {
		if l != nil {
			if err := l.Beat(); err != nil && !errors.Is(err, ErrLost) {
				t.Fatalf("Beat: %v", err)
			}
		}
	}
	live := 0
	for _, l := range leases {
		if l != nil && !l.Lost() {
			live++
		}
	}
	if live != 1 {
		t.Fatalf("%d live holders after one round of checks, want exactly 1", live)
	}
}

// TestLeaseENOSPC: injected ENOSPC on lease creation surfaces as a plain
// I/O error (not ErrHeld) — the signal the worker uses to degrade to
// leaseless operation instead of dying.
func TestLeaseENOSPC(t *testing.T) {
	fsys := faultinject.NewDiskFS(store.OSFS{}, faultinject.DiskFault{
		Kind:  faultinject.DiskENOSPC,
		Op:    faultinject.OpCreate,
		Match: LeaseDirName,
	})
	m := newTestManager(t, fsys)
	_, err := m.Acquire("g-p0-of1", "w0")
	if err == nil {
		t.Fatal("Acquire succeeded under ENOSPC")
	}
	if errors.Is(err, ErrHeld) {
		t.Fatalf("ENOSPC misreported as ErrHeld: %v", err)
	}
}

// TestLeaseBeatOnReadOnlyDir: a holder's check only reads its lease, so it
// passes on a lease directory that refuses every write.
func TestLeaseBeatOnReadOnlyDir(t *testing.T) {
	fsys := faultinject.NewDiskFS(store.OSFS{}, faultinject.DiskFault{
		Kind:  faultinject.DiskENOSPC,
		Op:    faultinject.OpWrite,
		Match: LeaseDirName,
	})
	m := newTestManager(t, fsys)
	l, err := m.Acquire("g-p0-of1", "w0")
	if err != nil {
		t.Fatalf("Acquire: %v", err)
	}
	for i := 0; i < 3; i++ {
		if err := l.Beat(); err != nil {
			t.Fatalf("Beat %d on a write-refusing lease dir: %v", i, err)
		}
	}
}

// TestLeaseUnparsableExpires: a torn or foreign lease file belongs to no
// holder. A claim on it answers ErrHeld like any held lease, a steal
// replaces it, and the thief's check passes.
func TestLeaseUnparsableExpires(t *testing.T) {
	m := newTestManager(t, nil)
	if err := (store.OSFS{}).WriteFile(m.path("g-p0-of2"), []byte("junk\x00bytes")); err != nil {
		t.Fatalf("write junk: %v", err)
	}
	if _, err := m.Acquire("g-p0-of2", "w-new"); !errors.Is(err, ErrHeld) {
		t.Fatalf("Acquire over junk = %v, want ErrHeld", err)
	}
	l, err := m.Steal("g-p0-of2", "w-new")
	if err != nil {
		t.Fatalf("Steal over junk: %v", err)
	}
	if err := l.Beat(); err != nil {
		t.Fatalf("Beat after steal-over-junk: %v", err)
	}
}
