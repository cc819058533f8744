// Package store is a crash-safe, content-addressed on-disk result store:
// the persistence tier under internal/sim's memoizing result cache. Entries
// are keyed by the SHA-256 of the canonicalized (Config, Profile) cache key,
// framed by a versioned binary codec with a trailing CRC32-C, and published
// atomically (temp file in the destination shard, fsync, rename, directory
// sync), so a process killed at any byte of any write leaves either the old
// entry, the new entry, or an orphaned temp file — never a half-visible one.
//
// Robustness contract: Open always succeeds on any directory MkdirAll can
// create. The open-time recovery scan validates every entry and moves
// anything it cannot decode — truncated files, bit flips, foreign junk,
// entries from other codec versions — into quarantine/ instead of failing;
// orphaned temp files are deleted. An entry that rots after open (the scan
// cannot see future corruption) is quarantined at Get time and reported as
// a miss, so callers recompute through rather than erroring. All I/O goes
// through the FS seam, which is how the fault-injection suite proves these
// properties against torn writes, read errors, and a full disk.
package store

import (
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
)

// Key addresses one entry: the SHA-256 of the canonical simulation point.
type Key [32]byte

// String returns the key's lowercase hex form (also its filename stem).
func (k Key) String() string { return hex.EncodeToString(k[:]) }

// ParseKey parses a lowercase-hex key name.
func ParseKey(s string) (Key, bool) {
	var k Key
	if len(s) != 2*len(k) {
		return Key{}, false
	}
	if _, err := hex.Decode(k[:], []byte(s)); err != nil {
		return Key{}, false
	}
	return k, true
}

const (
	EntrySuffix = ".res"
	TmpPrefix   = ".tmp-"
	// quarantineDir collects entries the store could not validate, for
	// post-mortem inspection; nothing in the store ever reads it back.
	quarantineDir = "quarantine"
)

// Stats is a snapshot of the store's counters.
type Stats struct {
	Entries           int    // valid entries currently indexed
	QuarantinedAtOpen int    // entries quarantined by the last Open's scan
	Quarantined       uint64 // total quarantined since Open (scan + Get-time)
	QuarantineFiles   int    // files accumulated in quarantine/ (all opens)
	Hits              uint64 // Gets served from disk
	Misses            uint64 // Gets with no (valid) entry
	Puts              uint64 // successful publishes
	ReadErrors        uint64 // Get-time I/O failures (degraded to compute)
	WriteErrors       uint64 // Put-time I/O failures (degraded to memory-only)
}

// Store is a content-addressed result store rooted at one directory.
// Entries live in 256 two-hex-digit shard subdirectories. Store is safe for
// concurrent use: the index is mutex-guarded and file publication is atomic,
// so concurrent Puts of one key both succeed (last rename wins; both files
// are valid) and a Get racing a Put sees the old or the new entry, never a
// torn one.
type Store struct {
	dir string
	fs  FS

	mu    sync.Mutex
	index map[Key]struct{}

	quarantinedAtOpen int
	quarantined       atomic.Uint64
	quarantineFiles   atomic.Int64 // files resident in quarantine/ (counted at Open, bumped per move)
	hits, misses      atomic.Uint64
	puts              atomic.Uint64
	readErrs          atomic.Uint64
	writeErrs         atomic.Uint64
	tmpSeq            atomic.Uint64
}

// Open opens (creating if necessary) the store rooted at dir on fsys (nil
// selects the real filesystem) and runs the recovery scan: every entry is
// read and validated; entries that fail validation are moved to quarantine/
// and orphaned temp files from interrupted writes are removed. Open fails
// only when the root or quarantine directory cannot be created — never
// because of what the directory contains.
//
// The scan reads the shard directories concurrently, on GOMAXPROCS
// goroutines. Its outcome does not depend on the order, but the order in
// which entry reads reach fsys does: a faultinject.DiskFS fault aimed at
// open-time reads must pick its victim by path (Match), not by position
// (After).
func Open(dir string, fsys FS) (*Store, error) {
	if fsys == nil {
		fsys = OSFS{}
	}
	s := &Store{dir: dir, fs: fsys, index: map[Key]struct{}{}}
	if err := fsys.MkdirAll(dir); err != nil {
		return nil, fmt.Errorf("store: open %s: %w", dir, err)
	}
	if err := fsys.MkdirAll(filepath.Join(dir, quarantineDir)); err != nil {
		return nil, fmt.Errorf("store: open %s: %w", dir, err)
	}
	if names, err := fsys.ReadDir(filepath.Join(dir, quarantineDir)); err == nil {
		s.quarantineFiles.Store(int64(len(names)))
	}
	s.recover()
	return s, nil
}

// recover is the open-time scan, spread over GOMAXPROCS goroutines that
// take shard directories in turn. Every failure mode is contained: an
// unreadable shard directory is skipped, an unreadable or undecodable entry
// is quarantined, a quarantine move that itself fails falls back to
// deletion, and a deletion that fails is simply left behind (the file stays
// out of the index, so it cannot serve corrupt data).
func (s *Store) recover() {
	names, err := s.fs.ReadDir(s.dir)
	if err != nil {
		return
	}
	var shards []string
	for _, name := range names {
		if len(name) != 2 || !isHex(name) {
			continue // quarantine/, foreign files: not entry shards
		}
		shards = append(shards, name)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for range min(runtime.GOMAXPROCS(0), len(shards)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(shards) {
					return
				}
				s.recoverShard(shards[i])
			}
		}()
	}
	wg.Wait()
	s.quarantinedAtOpen = int(s.quarantined.Load())
}

// recoverShard scans one shard directory for recover.
func (s *Store) recoverShard(shard string) {
	shardPath := filepath.Join(s.dir, shard)
	files, err := s.fs.ReadDir(shardPath)
	if err != nil {
		return
	}
	for _, name := range files {
		path := filepath.Join(shardPath, name)
		if strings.HasPrefix(name, TmpPrefix) {
			// Temp file of an interrupted OR in-flight write. Multiple
			// processes share one store (multi-worker sweeps), so
			// "orphan" must mean "its writer is dead": the name carries
			// the writer's PID, and only temp files whose writer no
			// longer exists are dropped. A live writer's temp file is
			// about to be renamed into place — deleting it here would
			// fail that writer's publish out from under it.
			if tmpWriterDead(name) {
				s.fs.Remove(path)
			}
			continue
		}
		key, ok := ParseKey(strings.TrimSuffix(name, EntrySuffix))
		if !ok || !strings.HasSuffix(name, EntrySuffix) || shard != name[:2] {
			s.quarantine(path, "open")
			continue
		}
		data, err := s.fs.ReadFile(path)
		if err != nil {
			s.readErrs.Add(1)
			s.quarantine(path, "open")
			continue
		}
		if _, err := DecodeEntry(data); err != nil {
			s.quarantine(path, "open")
			continue
		}
		s.mu.Lock()
		s.index[key] = struct{}{}
		s.mu.Unlock()
	}
}

// quarantine moves the file at path into quarantine/ under a unique name
// (falling back to deletion if the move fails) and counts it.
func (s *Store) quarantine(path, when string) {
	dest := filepath.Join(s.dir, quarantineDir,
		fmt.Sprintf("%s.%s.%d", filepath.Base(path), when, s.tmpSeq.Add(1)))
	if err := s.fs.Rename(path, dest); err != nil {
		s.fs.Remove(path)
	} else {
		s.quarantineFiles.Add(1)
	}
	s.quarantined.Add(1)
}

// tmpWriterDead reports whether a temp file's writing process is gone. The
// name encodes the writer's PID (.tmp-<key16>.<pid>.<seq>); a missing or
// unparsable PID field (old-format or foreign temp files) counts as dead.
// PID reuse can make a stale temp look alive — the cost is a leftover temp
// file until a later open, never a lost entry.
func tmpWriterDead(name string) bool {
	parts := strings.Split(name, ".")
	if len(parts) != 4 {
		return true
	}
	pid, err := strconv.Atoi(parts[2])
	if err != nil || pid <= 0 {
		return true
	}
	if pid == os.Getpid() {
		// Our own in-flight writes cannot exist during open; any temp file
		// bearing our PID is a recycled-PID leftover.
		return true
	}
	p, err := os.FindProcess(pid)
	if err != nil {
		return true
	}
	// Signal 0 probes existence without delivering anything; EPERM still
	// proves the process exists.
	err = p.Signal(syscall.Signal(0))
	return err != nil && !errors.Is(err, syscall.EPERM)
}

func isHex(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// path returns an entry's location: <dir>/<first key byte>/<hex key>.res.
func (s *Store) path(k Key) string {
	name := k.String()
	return filepath.Join(s.dir, name[:2], name+EntrySuffix)
}

// Get returns the entry stored under k. A missing entry is (zero, false,
// nil). An I/O error reading an indexed entry is returned as err (the
// caller degrades to computing the point); an indexed entry that fails
// validation is quarantined on the spot and reported as a plain miss, so
// one rotten file costs one recomputation, never an outage.
func (s *Store) Get(k Key) (Entry, bool, error) {
	s.mu.Lock()
	_, ok := s.index[k]
	s.mu.Unlock()
	if !ok {
		s.misses.Add(1)
		return Entry{}, false, nil
	}
	data, err := s.fs.ReadFile(s.path(k))
	if err != nil {
		s.readErrs.Add(1)
		return Entry{}, false, fmt.Errorf("store: read %s: %w", k, err)
	}
	e, err := DecodeEntry(data)
	if err != nil {
		s.mu.Lock()
		delete(s.index, k)
		s.mu.Unlock()
		s.quarantine(s.path(k), "get")
		s.misses.Add(1)
		return Entry{}, false, nil
	}
	s.hits.Add(1)
	return e, true, nil
}

// Put durably publishes e under k: encode, write to a temp file in the
// destination shard (fsync'd), rename over the final name, sync the shard
// directory. A failure at any step leaves the previous state intact (any
// temp remnant is cleaned by the next Open) and counts as a write error;
// the store never indexes an entry it did not fully publish.
func (s *Store) Put(k Key, e *Entry) error {
	data := EncodeEntry(e)
	name := k.String()
	shardPath := filepath.Join(s.dir, name[:2])
	if err := s.fs.MkdirAll(shardPath); err != nil {
		s.writeErrs.Add(1)
		return fmt.Errorf("store: put %s: %w", k, err)
	}
	// invariant: the temp name must be unique across PROCESSES, not just
	// goroutines — concurrent writers of one key in different processes
	// would otherwise collide on the temp path, and one writer's rename
	// would consume the other's temp file out from under it. The PID makes
	// names disjoint per process; the sequence makes them disjoint within.
	tmp := filepath.Join(shardPath, fmt.Sprintf("%s%s.%d.%d", TmpPrefix, name[:16], os.Getpid(), s.tmpSeq.Add(1)))
	if err := s.fs.WriteFile(tmp, data); err != nil {
		s.fs.Remove(tmp)
		s.writeErrs.Add(1)
		return fmt.Errorf("store: put %s: %w", k, err)
	}
	if err := s.fs.Rename(tmp, s.path(k)); err != nil {
		s.fs.Remove(tmp)
		s.writeErrs.Add(1)
		return fmt.Errorf("store: put %s: %w", k, err)
	}
	if err := s.fs.SyncDir(shardPath); err != nil {
		// The rename landed, so the entry is visible (and valid — it was
		// fully written and fsync'd); only its durability across a crash is
		// in doubt. Index it for this process but report the degradation.
		s.mu.Lock()
		s.index[k] = struct{}{}
		s.mu.Unlock()
		s.writeErrs.Add(1)
		return fmt.Errorf("store: put %s: sync dir: %w", k, err)
	}
	s.mu.Lock()
	s.index[k] = struct{}{}
	s.mu.Unlock()
	s.puts.Add(1)
	return nil
}

// Adopt indexes the entry for k if its file is already on disk and valid,
// and reports whether it did. It reads and validates the file as Get does;
// it is how a process takes up an entry another process sharing the store
// has published, without writing the same bytes again. A missing, unreadable
// or invalid file is left alone and reported false: the caller's Put
// replaces it.
func (s *Store) Adopt(k Key) bool {
	data, err := s.fs.ReadFile(s.path(k))
	if err != nil {
		return false
	}
	if _, err := DecodeEntry(data); err != nil {
		return false
	}
	s.mu.Lock()
	s.index[k] = struct{}{}
	s.mu.Unlock()
	return true
}

// Has reports whether k is indexed, without reading or validating the
// entry. It is the cheap pre-claim check for distributed dispatch: a point
// another worker already published needs no lease and no compute. A true
// answer can still miss at Get time (the file may rot in between), so
// callers treat Has as a hint, never a guarantee.
func (s *Store) Has(k Key) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.index[k]
	return ok
}

// Len reports the number of valid entries currently indexed.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.index)
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Stats returns a snapshot of the store's counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	entries := len(s.index)
	s.mu.Unlock()
	return Stats{
		Entries:           entries,
		QuarantinedAtOpen: s.quarantinedAtOpen,
		Quarantined:       s.quarantined.Load(),
		QuarantineFiles:   int(s.quarantineFiles.Load()),
		Hits:              s.hits.Load(),
		Misses:            s.misses.Load(),
		Puts:              s.puts.Load(),
		ReadErrors:        s.readErrs.Load(),
		WriteErrors:       s.writeErrs.Load(),
	}
}
