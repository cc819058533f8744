package grid

// Lease files: claim-and-fence ownership of grid points over the shared
// store directory. A lease is a tiny file under <store>/leases/ holding the
// holder's owner label and a fencing token. The protocol has four moves:
//
//   - Claim (Acquire): an atomic O_EXCL create. The kernel picks exactly one
//     winner among racing processes; every other claim gets ErrHeld.
//   - Steal: rename a file carrying a fresh token over the lease. The last
//     rename wins, so the file always names exactly one holder.
//   - Check (Beat): the holder reads the file and compares it with what it
//     wrote. Another token, or no file at all, means a steal fenced it off:
//     Beat returns ErrLost and the holder stops. A check writes nothing.
//   - Release: the holder removes the file if it still carries its token.
//
// Nothing waits for a lease to expire, so the file carries no timestamps and
// no counters: a dead holder's file stays until a steal replaces it (the
// fleet steals a point still answering 409 after two attempts). Between a
// steal and the fenced holder's next check both may compute the point; the
// overlap is harmless because points are pure and store publication is
// last-rename-wins. All I/O goes through the store.FS seam, so
// faultinject.DiskFS can subject the protocol to ENOSPC, torn writes and
// read errors like any other store traffic.

import (
	"bytes"
	"crypto/rand"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"selthrottle/internal/store"
)

// Lease file locations.
const (
	// LeaseDirName is the subdirectory of the store root holding leases.
	LeaseDirName = "leases"
	// LeaseSuffix is the lease file extension.
	LeaseSuffix = ".lease"
)

// Lease errors.
var (
	// ErrHeld reports a claim attempt on a lease another holder won.
	ErrHeld = errors.New("grid: lease held")
	// ErrLost reports a check that found the lease stolen or destroyed:
	// the holder must stop treating the point as its own.
	ErrLost = errors.New("grid: lease lost")
)

// Manager owns the lease directory of one store. Safe for concurrent use.
type Manager struct {
	fs    store.FS
	dir   string
	check time.Duration
	seq   atomic.Uint64 // temp-file uniquifier
}

// NewManager opens (creating if necessary) the lease directory under
// storeDir on fsys (nil selects the real filesystem). Holders check their
// leases every quarter of ttl (<= 0 selects 3s, so every 750ms); nothing
// expires, so ttl sets only that cadence.
func NewManager(storeDir string, fsys store.FS, ttl time.Duration) (*Manager, error) {
	if fsys == nil {
		fsys = store.OSFS{}
	}
	if ttl <= 0 {
		ttl = 3 * time.Second
	}
	m := &Manager{fs: fsys, dir: filepath.Join(storeDir, LeaseDirName), check: ttl / 4}
	if err := fsys.MkdirAll(m.dir); err != nil {
		return nil, fmt.Errorf("grid: lease dir %s: %w", m.dir, err)
	}
	return m, nil
}

// BeatInterval returns how often a holder should check its lease.
func (m *Manager) BeatInterval() time.Duration { return m.check }

// path returns the lease file location for name.
func (m *Manager) path(name string) string {
	return filepath.Join(m.dir, name+LeaseSuffix)
}

// Lease is a held claim: the handle the holder checks and releases. Safe
// for concurrent use.
type Lease struct {
	m    *Manager
	name string
	data []byte // the file this holder wrote: a v2 lease with its token
	lost atomic.Bool
}

// newLease draws a fresh fencing token for owner's claim on name. The lease
// file is three lines, trivially inspectable with cat during an incident.
// Any other content (a torn write, foreign junk, a v1 file from an older
// binary) belongs to no holder: Acquire answers ErrHeld and a steal
// replaces it.
func (m *Manager) newLease(name, owner string) *Lease {
	data := fmt.Sprintf("stlease v2\nowner %s\ntoken %s\n", owner, rand.Text())
	return &Lease{m: m, name: name, data: []byte(data)}
}

// Lost reports whether a check discovered the lease stolen.
func (l *Lease) Lost() bool { return l.lost.Load() }

// Acquire claims name with an atomic exclusive create. If the lease file
// already exists, live or stale, Acquire fails with ErrHeld wrapped over
// fs.ErrExist. Other I/O errors (ENOSPC and kin) are returned as-is for the
// caller's degradation policy.
func (m *Manager) Acquire(name, owner string) (*Lease, error) {
	l := m.newLease(name, owner)
	if err := m.fs.CreateExclusive(m.path(name), l.data); err != nil {
		if errors.Is(err, fs.ErrExist) {
			return nil, fmt.Errorf("%w: %s: %w", ErrHeld, name, err)
		}
		return nil, fmt.Errorf("grid: acquire %s: %w", name, err)
	}
	return l, nil
}

// Steal takes name over whoever holds it: an O_EXCL create when no lease
// file exists, otherwise a temp file with a fresh token renamed over the
// lease. The temp name carries the PID because racing stealers are often
// different processes, and colliding temp paths would let one consume the
// other's file. A steal is provisional until the thief's first Beat: racing
// stealers' renames land in some order, the file keeps the last one's token,
// and every other thief's first Beat returns ErrLost.
func (m *Manager) Steal(name, owner string) (*Lease, error) {
	l, err := m.Acquire(name, owner)
	if !errors.Is(err, ErrHeld) {
		return l, err
	}
	l = m.newLease(name, owner)
	tmp := filepath.Join(m.dir, fmt.Sprintf(".tmp-%s.%d.%d", name, os.Getpid(), m.seq.Add(1)))
	err = m.fs.WriteFile(tmp, l.data)
	if err == nil {
		err = m.fs.Rename(tmp, m.path(name))
	}
	if err != nil {
		_ = m.fs.Remove(tmp) // best effort: a leftover temp file blocks no claim
		return nil, fmt.Errorf("grid: steal %s: %w", name, err)
	}
	return l, nil
}

// Beat checks the lease: it reads the file and compares it with the one
// this holder wrote, and writes nothing. A file that is gone or carries
// another token marks the lease lost and returns ErrLost: the holder must
// stop. A read error leaves ownership undecided and is returned for retry
// at the next check.
func (l *Lease) Beat() error {
	if l.lost.Load() {
		return ErrLost
	}
	cur, err := l.m.fs.ReadFile(l.m.path(l.name))
	switch {
	case errors.Is(err, fs.ErrNotExist):
		l.lost.Store(true)
		return fmt.Errorf("%w: %s: lease file removed", ErrLost, l.name)
	case err != nil:
		return fmt.Errorf("grid: beat %s: %w", l.name, err)
	case !bytes.Equal(cur, l.data):
		l.lost.Store(true)
		return fmt.Errorf("%w: %s: token changed", ErrLost, l.name)
	}
	return nil
}

// Release removes the lease file if it still carries this holder's token.
// Safe to call after losing the lease, and more than once.
func (l *Lease) Release() {
	if l.lost.Swap(true) {
		return
	}
	p := l.m.path(l.name)
	if cur, err := l.m.fs.ReadFile(p); err == nil && bytes.Equal(cur, l.data) {
		_ = l.m.fs.Remove(p) // a file left behind is a stale lease the next steal replaces
	}
}
