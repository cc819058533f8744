package grid

// Lease files: crash-detectable ownership of grid points over the
// shared store directory. A lease is a tiny file under <store>/leases/
// holding (owner, fencing token, heartbeat counter). Claiming is an atomic
// O_EXCL create — the kernel picks exactly one winner among racing
// processes — and renewal rewrites the file via the store's temp+rename
// protocol, bumping the counter. All I/O goes through the store.FS seam, so
// faultinject.DiskFS can subject the lease protocol to ENOSPC, torn writes,
// and read errors like any other store traffic.
//
// Expiry is decided entirely on the reader's monotonic clock: an observer
// records the local monotonic time at which it last saw the lease file's
// bytes CHANGE, and declares the lease expired when TTL elapses with no
// change. The lease file deliberately contains no timestamps — two
// processes' wall clocks never meet in a comparison, so clock skew, NTP
// steps, and suspend/resume warps cannot revive a dead worker or kill a
// live one. (The holder's own renewal cadence uses its own monotonic
// clock; the TTL must comfortably exceed the beat interval, which
// NewManager enforces by construction: beats run at TTL/4.)
//
// The fencing token is what keeps "at most one live holder" honest across
// takeovers: a stealer installs a fresh token, and every subsequent renewal
// by the old holder re-reads the file, sees a token it does not own, and
// returns ErrLost — the holder's signal to stop immediately. Between the
// steal and the old holder's next beat there is a bounded overlap window
// (inherent to leases without shared memory); it is harmless here because
// simulation points are pure and publication is last-rename-wins, but the
// ownership check still bounds it to one beat interval.

import (
	"bytes"
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"selthrottle/internal/store"
	"selthrottle/internal/xrand"
)

// Lease protocol constants.
const (
	// LeaseDirName is the subdirectory of the store root holding leases.
	LeaseDirName = "leases"
	// LeaseSuffix is the lease file extension.
	LeaseSuffix = ".lease"
	// DefaultTTL is the default expiry horizon: a lease whose file does not
	// change for this long (on the observer's monotonic clock) is dead.
	DefaultTTL = 3 * time.Second
)

// Lease errors.
var (
	// ErrHeld reports a claim attempt on a lease another holder won.
	ErrHeld = errors.New("grid: lease held")
	// ErrLost reports a renewal that found the lease stolen or destroyed:
	// the holder must stop treating the point as its own.
	ErrLost = errors.New("grid: lease lost")
)

// Clock is a monotonic time source: readings are durations from an
// arbitrary fixed origin, comparable only to other readings from the same
// Clock. Tests inject warped clocks; production uses the runtime's
// monotonic reading.
type Clock func() time.Duration

// monotonicClock returns a Clock backed by the runtime monotonic clock
// (time.Since carries the monotonic reading, immune to wall-clock steps).
// The reading is reader-local and never written to disk or output: lease
// expiry is each observer's own judgement, so this is the grid package's
// one sanctioned clock read.
//
//st:wallclock — reader-local monotonic lease expiry; never reaches output
func monotonicClock() Clock {
	start := time.Now()
	return func() time.Duration { return time.Since(start) }
}

// Manager owns the lease directory of one store and the expiry policy
// (TTL, clock) its observers apply. Safe for concurrent use.
type Manager struct {
	fs  store.FS
	dir string
	ttl time.Duration

	mu  sync.Mutex
	now Clock

	seq atomic.Uint64 // temp-file uniquifier
}

// NewManager opens (creating if necessary) the lease directory under
// storeDir on fsys (nil selects the real filesystem) with the given TTL
// (<= 0 selects DefaultTTL).
func NewManager(storeDir string, fsys store.FS, ttl time.Duration) (*Manager, error) {
	if fsys == nil {
		fsys = store.OSFS{}
	}
	if ttl <= 0 {
		ttl = DefaultTTL
	}
	m := &Manager{fs: fsys, dir: filepath.Join(storeDir, LeaseDirName), ttl: ttl, now: monotonicClock()}
	if err := fsys.MkdirAll(m.dir); err != nil {
		return nil, fmt.Errorf("grid: lease dir %s: %w", m.dir, err)
	}
	return m, nil
}

// TTL returns the manager's expiry horizon.
func (m *Manager) TTL() time.Duration { return m.ttl }

// BeatInterval returns the renewal cadence heartbeat loops should use: a
// quarter of the TTL, so a live holder beats several times per horizon.
func (m *Manager) BeatInterval() time.Duration { return m.ttl / 4 }

// SetClock installs a replacement monotonic source (tests warp it to force
// expiry without waiting). It must be called before observers are created.
func (m *Manager) SetClock(c Clock) {
	m.mu.Lock()
	m.now = c
	m.mu.Unlock()
}

func (m *Manager) clock() Clock {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.now
}

// path returns the lease file location for name.
func (m *Manager) path(name string) string {
	return filepath.Join(m.dir, name+LeaseSuffix)
}

// leaseInfo is the decoded content of a lease file.
type leaseInfo struct {
	Owner string
	Token uint64
	Beat  uint64
}

// encodeLease renders the v1 lease format: a short line-oriented text file,
// trivially inspectable with cat during an incident.
func encodeLease(li leaseInfo) []byte {
	return []byte(fmt.Sprintf("stlease v1\nowner %s\ntoken %016x\nbeat %d\n", li.Owner, li.Token, li.Beat))
}

// parseLease decodes a lease file. Any deviation — torn write, foreign
// junk, future version — is an error the caller treats as an invalid
// (reclaimable-after-TTL) lease, never a crash.
func parseLease(data []byte) (leaseInfo, error) {
	var li leaseInfo
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	if len(lines) != 4 || lines[0] != "stlease v1" {
		return li, fmt.Errorf("grid: bad lease format")
	}
	for _, ln := range lines[1:] {
		field, val, ok := strings.Cut(ln, " ")
		if !ok {
			return li, fmt.Errorf("grid: bad lease line %q", ln)
		}
		switch field {
		case "owner":
			li.Owner = val
		case "token":
			t, err := strconv.ParseUint(val, 16, 64)
			if err != nil {
				return li, fmt.Errorf("grid: bad lease token %q", val)
			}
			li.Token = t
		case "beat":
			b, err := strconv.ParseUint(val, 10, 64)
			if err != nil {
				return li, fmt.Errorf("grid: bad lease beat %q", val)
			}
			li.Beat = b
		default:
			return li, fmt.Errorf("grid: unknown lease field %q", field)
		}
	}
	if li.Owner == "" {
		return li, fmt.Errorf("grid: lease missing owner")
	}
	return li, nil
}

// TokenFallbackSeed is the documented seed of the fencing-token fallback
// stream: when crypto/rand is unavailable, tokens are drawn from a
// process-local splitmix64 stream seeded xrand.Hash2(TokenFallbackSeed,
// pid). Mixing the PID keeps two degraded processes from colliding, while
// the fixed seed makes a process's token sequence reproducible under test
// (seed the stream yourself via fallbackTokens to pin it exactly).
// (Simulation determinism is untouched either way — tokens never influence
// results, only who may keep computing them.)
const TokenFallbackSeed = 0x73746c6561736531 // "stlease1"

// tokenFallback is the lazily seeded degraded entropy stream; guarded by a
// mutex because several heartbeat goroutines may hit the fallback at once.
var tokenFallback struct {
	sync.Mutex
	rng *xrand.Rand
}

// fallbackTokens reseeds the fallback stream (tests pin it) and returns the
// generator for inspection.
func fallbackTokens(seed uint64) *xrand.Rand {
	tokenFallback.Lock()
	defer tokenFallback.Unlock()
	tokenFallback.rng = xrand.New(seed)
	return tokenFallback.rng
}

// newToken draws a fencing token. Uniqueness across processes is what
// matters; crypto/rand provides it without coordination, and the degraded
// fallback is the documented deterministic stream above.
func newToken() uint64 {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		tokenFallback.Lock()
		defer tokenFallback.Unlock()
		if tokenFallback.rng == nil {
			tokenFallback.rng = xrand.New(xrand.Hash2(TokenFallbackSeed, uint64(os.Getpid())))
		}
		return tokenFallback.rng.Uint64()
	}
	return binary.LittleEndian.Uint64(b[:])
}

// Lease is a held claim: the handle the holder renews, checks, and
// releases. Not safe for concurrent use by multiple goroutines without
// external ordering (the worker's single heartbeat loop is that ordering).
type Lease struct {
	m     *Manager
	name  string
	owner string
	token uint64
	beat  uint64
	lost  atomic.Bool
}

// Name returns the lease's name.
func (l *Lease) Name() string { return l.name }

// Token returns the lease's fencing token.
func (l *Lease) Token() uint64 { return l.token }

// Lost reports whether a renewal discovered the lease stolen.
func (l *Lease) Lost() bool { return l.lost.Load() }

// Acquire claims name with an atomic exclusive create. If the lease file
// already exists — live or stale — Acquire fails with ErrHeld wrapped over
// fs.ErrExist; callers that may be recovering from their own crash use
// Takeover to wait out the TTL and steal. Other I/O errors (ENOSPC and
// kin) are returned as-is for the caller's degradation policy.
func (m *Manager) Acquire(name, owner string) (*Lease, error) {
	l := &Lease{m: m, name: name, owner: owner, token: newToken(), beat: 1}
	data := encodeLease(leaseInfo{Owner: owner, Token: l.token, Beat: l.beat})
	if err := m.fs.CreateExclusive(m.path(name), data); err != nil {
		if errors.Is(err, fs.ErrExist) {
			return nil, fmt.Errorf("%w: %s: %w", ErrHeld, name, err)
		}
		return nil, fmt.Errorf("grid: acquire %s: %w", name, err)
	}
	return l, nil
}

// Beat renews the lease: it verifies the file still carries the holder's
// token, rewrites it with the counter bumped (temp + atomic rename), and
// verifies again after the rename — closing the window where a concurrent
// steal's rename and the holder's rename race. A verification failure
// (either side) marks the lease lost and returns ErrLost: the holder must
// stop. I/O errors leave ownership undecided and are returned for retry at
// the next beat; the file's previous content remains valid, so a transient
// write failure costs liveness slack, not correctness.
func (l *Lease) Beat() error {
	if l.lost.Load() {
		return ErrLost
	}
	m := l.m
	cur, err := m.fs.ReadFile(m.path(l.name))
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			l.lost.Store(true)
			return fmt.Errorf("%w: %s: lease file removed", ErrLost, l.name)
		}
		return fmt.Errorf("grid: beat %s: %w", l.name, err)
	}
	li, perr := parseLease(cur)
	if perr != nil || li.Token != l.token {
		l.lost.Store(true)
		return fmt.Errorf("%w: %s: token changed", ErrLost, l.name)
	}
	next := leaseInfo{Owner: l.owner, Token: l.token, Beat: l.beat + 1}
	if err := l.m.writeLease(l.name, next); err != nil {
		return fmt.Errorf("grid: beat %s: %w", l.name, err)
	}
	// Post-rename verification: if a stealer's rename landed after ours, the
	// file no longer carries our token and the steal won.
	after, err := m.fs.ReadFile(m.path(l.name))
	if err == nil {
		if li2, perr := parseLease(after); perr == nil && li2.Token != l.token {
			l.lost.Store(true)
			return fmt.Errorf("%w: %s: stolen during renewal", ErrLost, l.name)
		}
	}
	l.beat = next.Beat
	return nil
}

// Release removes the lease file if this holder still owns it. Safe to call
// after losing the lease (no-op).
func (l *Lease) Release() {
	if l.lost.Load() {
		return
	}
	m := l.m
	if cur, err := m.fs.ReadFile(m.path(l.name)); err == nil {
		if li, perr := parseLease(cur); perr == nil && li.Token == l.token {
			m.fs.Remove(m.path(l.name))
		}
	}
	l.lost.Store(true)
}

// writeLease publishes lease content via the temp + atomic-rename protocol.
// The temp name carries the PID for the same reason the store's does: a
// stealer and a renewing holder are different processes writing one lease,
// and colliding temp paths would let one consume the other's temp file.
func (m *Manager) writeLease(name string, li leaseInfo) error {
	tmp := filepath.Join(m.dir, fmt.Sprintf(".tmp-%s.%d.%d", name, os.Getpid(), m.seq.Add(1)))
	if err := m.fs.WriteFile(tmp, encodeLease(li)); err != nil {
		m.fs.Remove(tmp)
		return err
	}
	if err := m.fs.Rename(tmp, m.path(name)); err != nil {
		m.fs.Remove(tmp)
		return err
	}
	return nil
}

// Remove deletes a lease file outright. Only for callers that have
// established the holder's death by means stronger than observation — a
// coordinator that has waited on the worker process itself.
func (m *Manager) Remove(name string) error {
	err := m.fs.Remove(m.path(name))
	if err != nil && errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	return err
}

// LeaseState classifies an observation.
type LeaseState uint8

// Lease observation states.
const (
	// StateLive: the lease file changed within TTL on the observer's clock
	// (or was observed too recently to judge).
	StateLive LeaseState = iota + 1
	// StateExpired: no change for at least TTL — the holder is dead or
	// frozen; the lease is reclaimable.
	StateExpired
	// StateMissing: no lease file exists.
	StateMissing
)

// String names the state.
func (s LeaseState) String() string {
	switch s {
	case StateLive:
		return "live"
	case StateExpired:
		return "expired"
	case StateMissing:
		return "missing"
	}
	return "unknown"
}

// Observer tracks one lease's liveness using only bytes-changed events and
// the observer's own monotonic clock. An unparsable (torn, foreign) lease
// file is just bytes that never change: it expires after TTL like any
// other dead lease, instead of crashing or being trusted.
type Observer struct {
	m          *Manager
	name       string
	lastRaw    []byte
	lastChange time.Duration
	seen       bool
	changes    int // observed byte-change events (first sighting included)
}

// Changes counts the byte-change events observed so far (the first sighting
// counts as one). A count that advances between Checks is proof of a live
// writer.
func (o *Observer) Changes() int { return o.changes }

// Observe starts watching name. The first Check starts the TTL clock.
func (m *Manager) Observe(name string) *Observer {
	return &Observer{m: m, name: name}
}

// Check reads the lease and classifies it. Read errors report StateLive
// with the error (an unreadable disk must not look like a dead worker).
func (o *Observer) Check() (LeaseState, error) {
	now := o.m.clock()
	data, err := o.m.fs.ReadFile(o.m.path(o.name))
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			o.seen = false
			return StateMissing, nil
		}
		return StateLive, fmt.Errorf("grid: observe %s: %w", o.name, err)
	}
	if !o.seen || !bytes.Equal(data, o.lastRaw) {
		o.lastRaw = append(o.lastRaw[:0], data...)
		o.lastChange = now()
		o.seen = true
		o.changes++
		return StateLive, nil
	}
	if now()-o.lastChange >= o.m.ttl {
		return StateExpired, nil
	}
	return StateLive, nil
}

// Steal takes over a lease the caller has established is reclaimable
// (expired by observation, or missing): O_EXCL create when missing, atomic
// rename-over with a fresh fencing token when present, then a read-back
// that rejects steals that have visibly already lost (ErrHeld). The
// read-back is a fast filter, not an arbiter — two racing stealers'
// rename/read pairs can interleave so both transiently believe they won.
// The fencing protocol is the arbiter: the lease file holds exactly one
// token (last rename wins), so every holder's next Beat converges the race
// to exactly one survivor, all others getting ErrLost within one beat
// interval. Callers therefore treat a successful Steal as provisional until
// the first Beat — which the worker's heartbeat loop does by construction.
func (m *Manager) Steal(name, owner string) (*Lease, error) {
	l, err := m.Acquire(name, owner)
	if err == nil {
		return l, nil
	}
	if !errors.Is(err, ErrHeld) {
		return nil, err
	}
	l = &Lease{m: m, name: name, owner: owner, token: newToken(), beat: 1}
	if err := m.writeLease(name, leaseInfo{Owner: owner, Token: l.token, Beat: l.beat}); err != nil {
		return nil, fmt.Errorf("grid: steal %s: %w", name, err)
	}
	after, err := m.fs.ReadFile(m.path(name))
	if err != nil {
		return nil, fmt.Errorf("grid: steal %s: verify: %w", name, err)
	}
	if li, perr := parseLease(after); perr != nil || li.Token != l.token {
		return nil, fmt.Errorf("%w: %s: lost steal race", ErrHeld, name)
	}
	return l, nil
}

// Takeover claims name, waiting out a stale holder: Acquire first; on
// ErrHeld, observe the lease on the local monotonic clock and steal once it
// expires. It gives up with ErrHeld as soon as the lease proves live (the
// file changes), and with ctx's error on cancellation. This is the restart
// path: a worker re-run over its own crash remnant must not be locked out
// forever by a file no one will ever renew.
func (m *Manager) Takeover(ctx interface{ Done() <-chan struct{} }, name, owner string) (*Lease, error) {
	l, err := m.Acquire(name, owner)
	if err == nil || !errors.Is(err, ErrHeld) {
		return l, err
	}
	obs := m.Observe(name)
	poll := m.ttl / 8
	if poll < time.Millisecond {
		poll = time.Millisecond
	}
	baseline := -1 // Changes() after the first sighting; an advance past it is a renewal
	for {
		st, err := obs.Check()
		if err == nil {
			switch st {
			case StateExpired, StateMissing:
				return m.Steal(name, owner)
			case StateLive:
				if baseline < 0 {
					baseline = obs.Changes()
				} else if obs.Changes() > baseline && obs.parsable() {
					return nil, fmt.Errorf("%w: %s: live holder", ErrHeld, name)
				}
			}
		}
		t := time.NewTimer(poll)
		select {
		case <-ctx.Done():
			t.Stop()
			return nil, fmt.Errorf("grid: takeover %s: canceled", name)
		case <-t.C:
		}
	}
}

// parsable reports whether the last observed bytes decode as a lease — a
// change to unparsable junk is damage, not a renewal, and must not convince
// a takeover that a live holder exists.
func (o *Observer) parsable() bool {
	if !o.seen {
		return false
	}
	_, err := parseLease(o.lastRaw)
	return err == nil
}
