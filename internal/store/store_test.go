package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"selthrottle/internal/xrand"
)

// fillValue writes a distinct, deterministic nonzero value into every
// numeric field reachable from v, so a round-trip that drops or reorders any
// field cannot still compare equal.
func fillValue(v reflect.Value, next *uint64) {
	switch v.Kind() {
	case reflect.Uint64:
		*next++
		v.SetUint(*next)
	case reflect.Float64:
		*next++
		v.SetFloat(float64(*next) + 0.5)
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			fillValue(v.Index(i), next)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fillValue(v.Field(i), next)
		}
	default:
		panic("unexpected field kind " + v.Kind().String()) // fail-fast: codec shape drifted
	}
}

// filledEntry returns an Entry with every field set to a unique value.
func filledEntry() Entry {
	var e Entry
	var next uint64
	fillValue(reflect.ValueOf(&e).Elem(), &next)
	return e
}

// TestCodecCoversEveryField: the encode/decode pair enumerates fields by
// hand, so this guards the codec against silently dropping a field added to
// pipe.Stats or power.Report later — the reflective fill gives every field a
// unique value, and a dropped field decodes as zero and fails the compare.
func TestCodecCoversEveryField(t *testing.T) {
	e := filledEntry()
	got, err := DecodeEntry(EncodeEntry(&e))
	if err != nil {
		t.Fatalf("round trip: %v", err)
	}
	if got != e {
		t.Fatal("round trip dropped or reordered a field")
	}
}

// TestDecodeRejectsEveryTruncation: a valid entry cut at any byte boundary
// must decode to an error, never a panic or a silently wrong Entry.
func TestDecodeRejectsEveryTruncation(t *testing.T) {
	e := filledEntry()
	data := EncodeEntry(&e)
	for n := 0; n < len(data); n++ {
		if _, err := DecodeEntry(data[:n]); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("truncation at %d of %d: err = %v, want ErrCorrupt", n, len(data), err)
		}
	}
}

// TestDecodeRejectsEveryBitFlip: flipping any single bit of a valid entry
// must be caught — by the magic, the length check, the CRC, or the version
// gate — never decoded as data.
func TestDecodeRejectsEveryBitFlip(t *testing.T) {
	e := filledEntry()
	data := EncodeEntry(&e)
	for i := range data {
		for bit := 0; bit < 8; bit++ {
			mut := append([]byte(nil), data...)
			mut[i] ^= 1 << bit
			if _, err := DecodeEntry(mut); err == nil {
				t.Fatalf("bit flip at byte %d bit %d decoded cleanly", i, bit)
			}
		}
	}
}

// TestDecodeRejectsForeignVersion: a structurally sound entry from another
// codec version is ErrVersion (quarantine), not ErrCorrupt and not data.
func TestDecodeRejectsForeignVersion(t *testing.T) {
	e := filledEntry()
	data := EncodeEntry(&e)
	data[4] = CodecVersion + 1 // bump version, then re-seal the checksum
	reseal(data)
	if _, err := DecodeEntry(data); !errors.Is(err, ErrVersion) {
		t.Fatalf("foreign version: err = %v, want ErrVersion", err)
	}
	data = EncodeEntry(&e)
	data[6] = 1 // unknown flag bit
	reseal(data)
	if _, err := DecodeEntry(data); !errors.Is(err, ErrVersion) {
		t.Fatalf("unknown flags: err = %v, want ErrVersion", err)
	}
}

// reseal recomputes a mutated entry's trailing CRC so only the intended
// field differs from a valid entry.
func reseal(data []byte) {
	crc := crc32.Checksum(data[:len(data)-crcSize], castagnoli)
	binary.LittleEndian.PutUint32(data[len(data)-crcSize:], crc)
}

func testKey(i uint64) Key {
	var k Key
	k[0] = byte(i)
	k[1] = byte(i >> 8)
	k[31] = byte(i) ^ 0xa5
	return k
}

func TestStoreRoundTripAndReopen(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	e := filledEntry()
	k := testKey(1)
	if err := st.Put(k, &e); err != nil {
		t.Fatal(err)
	}
	got, ok, err := st.Get(k)
	if err != nil || !ok || got != e {
		t.Fatalf("get after put: ok=%v err=%v equal=%v", ok, err, got == e)
	}
	if _, ok, _ := st.Get(testKey(2)); ok {
		t.Fatal("absent key reported present")
	}

	// A second open of the same directory sees the entry (durability).
	st2, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st2.Len() != 1 {
		t.Fatalf("reopen indexed %d entries, want 1", st2.Len())
	}
	got, ok, err = st2.Get(k)
	if err != nil || !ok || got != e {
		t.Fatal("reopened store lost the entry")
	}
	s := st2.Stats()
	if s.QuarantinedAtOpen != 0 || s.Hits != 1 {
		t.Fatalf("stats after clean reopen: %+v", s)
	}
}

// TestOpenCleansOrphansAndQuarantinesJunk: an interrupted write's temp file
// is removed at open; undecodable files in entry shards are quarantined;
// Open never fails because of directory contents.
func TestOpenCleansOrphansAndQuarantinesJunk(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	e := filledEntry()
	k := testKey(3)
	if err := st.Put(k, &e); err != nil {
		t.Fatal(err)
	}
	shard := filepath.Dir(filepathOf(st, k))

	// A temp orphan (crash between write and rename), a truncated entry
	// under a valid-looking name, and foreign junk.
	orphan := filepath.Join(shard, TmpPrefix+"deadbeef.1")
	os.WriteFile(orphan, []byte("partial"), 0o644)
	torn := testKey(4)
	tornPath := filepath.Join(dir, torn.String()[:2], torn.String()+EntrySuffix)
	os.MkdirAll(filepath.Dir(tornPath), 0o755)
	os.WriteFile(tornPath, EncodeEntry(&e)[:20], 0o644)
	junk := filepath.Join(shard, "notakey"+EntrySuffix)
	os.WriteFile(junk, []byte("junk"), 0o644)

	st2, err := Open(dir, nil)
	if err != nil {
		t.Fatalf("open over damage: %v", err)
	}
	if st2.Len() != 1 {
		t.Fatalf("indexed %d entries, want 1 (the valid one)", st2.Len())
	}
	if got, ok, _ := st2.Get(k); !ok || got != e {
		t.Fatal("valid entry lost during recovery")
	}
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Fatal("temp orphan survived recovery")
	}
	if st2.Stats().QuarantinedAtOpen != 2 {
		t.Fatalf("quarantined %d at open, want 2", st2.Stats().QuarantinedAtOpen)
	}
	qnames, _ := os.ReadDir(filepath.Join(dir, quarantineDir))
	if len(qnames) != 2 {
		t.Fatalf("quarantine/ holds %d files, want 2", len(qnames))
	}
}

// TestGetQuarantinesRotAfterOpen: an entry corrupted after the open scan is
// quarantined by the Get that discovers it and reported as a miss — one
// recomputation, not an error and not repeated rereads — and the file it
// moved counts in QuarantineFiles.
func TestGetQuarantinesRotAfterOpen(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	e := filledEntry()
	k := testKey(5)
	if err := st.Put(k, &e); err != nil {
		t.Fatal(err)
	}
	// Rot: flip a payload bit in place behind the store's back.
	path := filepathOf(st, k)
	data, _ := os.ReadFile(path)
	data[headerSize+3] ^= 0x40
	os.WriteFile(path, data, 0o644)

	if _, ok, err := st.Get(k); ok || err != nil {
		t.Fatalf("rotten entry: ok=%v err=%v, want counted miss", ok, err)
	}
	if _, ok, _ := st.Get(k); ok {
		t.Fatal("rotten entry served on second get")
	}
	s := st.Stats()
	if s.Quarantined != 1 || s.QuarantineFiles != 1 || s.Entries != 0 {
		t.Fatalf("stats after rot: %+v", s)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("rotten entry still at its shard path")
	}
}

// TestCorruptKofNQuarantinesExactlyK is the randomized recovery property:
// write N entries, corrupt a random k of them (truncation or bit flip,
// chosen per victim), reopen — the store must quarantine exactly the k
// victims, serve the N-k survivors byte-identically, and count the damage.
func TestCorruptKofNQuarantinesExactlyK(t *testing.T) {
	const N = 40
	for _, seed := range []uint64{1, 2, 3} {
		rng := xrand.New(seed)
		dir := t.TempDir()
		st, err := Open(dir, nil)
		if err != nil {
			t.Fatal(err)
		}
		entries := make(map[Key]Entry, N)
		for i := uint64(0); i < N; i++ {
			e := filledEntry()
			e.IPC = float64(i) * 1.25 // distinguish entries
			k := testKey(100 + i)
			if err := st.Put(k, &e); err != nil {
				t.Fatal(err)
			}
			entries[k] = e
		}
		k := int(rng.Uint64()%(N/2)) + 1
		victims := map[Key]struct{}{}
		for len(victims) < k {
			victim := testKey(100 + rng.Uint64()%N)
			if _, dup := victims[victim]; dup {
				continue
			}
			victims[victim] = struct{}{}
			path := filepathOf(st, victim)
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if rng.Uint64()%2 == 0 {
				// Truncate at a random byte (possibly to empty).
				data = data[:rng.Uint64()%uint64(len(data))]
			} else {
				// Flip one random bit.
				data[rng.Uint64()%uint64(len(data))] ^= 1 << (rng.Uint64() % 8)
			}
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}

		st2, err := Open(dir, nil)
		if err != nil {
			t.Fatalf("seed %d: reopen over %d corruptions: %v", seed, k, err)
		}
		if st2.Stats().QuarantinedAtOpen != k {
			t.Fatalf("seed %d: quarantined %d, want exactly %d", seed, st2.Stats().QuarantinedAtOpen, k)
		}
		if st2.Len() != N-k {
			t.Fatalf("seed %d: %d survivors indexed, want %d", seed, st2.Len(), N-k)
		}
		for key, want := range entries {
			got, ok, err := st2.Get(key)
			if _, corrupted := victims[key]; corrupted {
				if ok {
					t.Fatalf("seed %d: corrupted entry %s served", seed, key)
				}
				continue
			}
			if err != nil || !ok || got != want {
				t.Fatalf("seed %d: survivor %s: ok=%v err=%v identical=%v", seed, key, ok, err, got == want)
			}
		}
	}
}

// TestConcurrentOpenScanIsOrderFree: the open scan reads shard directories
// concurrently, so its outcome must not depend on which goroutine reaches
// which shard first. Each round builds a ~500-entry store across every
// shard with K corrupt entries, foreign junk and dead writers' temp files,
// opens it with eight scan goroutines whatever the CPU count, and requires
// the exact index, quarantine count and cleanup; a second open of the
// repaired directory must index the same entries and quarantine nothing.
func TestConcurrentOpenScanIsOrderFree(t *testing.T) {
	const N = 500
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	for _, seed := range []uint64{1, 2, 3} {
		rng := xrand.New(seed)
		dir := t.TempDir()
		write := func(path string, data []byte) {
			t.Helper()
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		entryPath := func(k Key) string {
			return filepath.Join(dir, k.String()[:2], k.String()+EntrySuffix)
		}
		entries := make(map[Key]Entry, N)
		for i := uint64(0); i < N; i++ {
			e := filledEntry()
			e.IPC = float64(i) * 1.25
			k := testKey(1000 + i)
			entries[k] = e
			write(entryPath(k), EncodeEntry(&e))
		}
		k := int(rng.Uint64()%40) + 10
		victims := map[Key]bool{}
		for len(victims) < k {
			victim := testKey(1000 + rng.Uint64()%N)
			if victims[victim] {
				continue
			}
			victims[victim] = true
			data := EncodeEntry(new(Entry))
			if rng.Uint64()%2 == 0 {
				data = data[:rng.Uint64()%uint64(len(data))]
			} else {
				data[rng.Uint64()%uint64(len(data))] ^= 1 << (rng.Uint64() % 8)
			}
			write(entryPath(victim), data)
		}
		// Junk inside shards is quarantined; a foreign root file and a
		// non-shard directory are not the scan's business.
		misplaced := testKey(5000)
		junk := []string{
			filepath.Join(dir, "00", "notakey"+EntrySuffix),
			filepath.Join(dir, "7f", "README"),
			filepath.Join(dir, "ff", misplaced.String()+EntrySuffix),
		}
		for _, j := range junk {
			write(j, []byte("junk"))
		}
		write(filepath.Join(dir, "NOTES"), []byte("keep"))
		write(filepath.Join(dir, "zz", "keep"+EntrySuffix), []byte("keep"))
		var temps []string
		for i := 0; i < 8; i++ {
			name := fmt.Sprintf("%s%016x.%d.%d", TmpPrefix, i, os.Getpid(), i) // our PID: a recycled leftover
			if i%2 == 1 {
				name = fmt.Sprintf("%s%016x.%d", TmpPrefix, i, i) // old format
			}
			temps = append(temps, filepath.Join(dir, fmt.Sprintf("%02x", i*31), name))
			write(temps[i], []byte("partial"))
		}

		st, err := Open(dir, nil)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if got, want := st.Len(), N-k; got != want {
			t.Fatalf("seed %d: indexed %d, want %d", seed, got, want)
		}
		s := st.Stats()
		if s.QuarantinedAtOpen != k+len(junk) || s.QuarantineFiles != k+len(junk) {
			t.Fatalf("seed %d: quarantined %d at open (%d files), want %d", seed, s.QuarantinedAtOpen, s.QuarantineFiles, k+len(junk))
		}
		for key := range entries {
			if st.Has(key) == victims[key] {
				t.Fatalf("seed %d: entry %s indexed=%v, corrupt=%v", seed, key, st.Has(key), victims[key])
			}
		}
		for _, tmp := range temps {
			if _, err := os.Stat(tmp); !os.IsNotExist(err) {
				t.Fatalf("seed %d: dead writer's temp file %s survived", seed, tmp)
			}
		}
		for _, kept := range []string{filepath.Join(dir, "NOTES"), filepath.Join(dir, "zz", "keep"+EntrySuffix)} {
			if _, err := os.Stat(kept); err != nil {
				t.Fatalf("seed %d: non-shard file touched: %v", seed, err)
			}
		}

		again, err := Open(dir, nil)
		if err != nil {
			t.Fatal(err)
		}
		if again.Len() != N-k || again.Stats().QuarantinedAtOpen != 0 {
			t.Fatalf("seed %d: reopen indexed %d and quarantined %d, want %d and 0",
				seed, again.Len(), again.Stats().QuarantinedAtOpen, N-k)
		}
		for key, want := range entries {
			if victims[key] {
				continue
			}
			if got, ok, err := again.Get(key); !ok || err != nil || got != want {
				t.Fatalf("seed %d: survivor %s: ok=%v err=%v identical=%v", seed, key, ok, err, got == want)
			}
		}
	}
}

// filepathOf exposes the store's entry layout to tests in this package.
func filepathOf(s *Store, k Key) string { return s.path(k) }

// TestParseKeyRejectsMalformed guards the recovery scan's name parsing.
func TestParseKeyRejectsMalformed(t *testing.T) {
	k := testKey(9)
	rt, ok := ParseKey(k.String())
	if !ok || rt != k {
		t.Fatal("hex round trip failed")
	}
	for _, bad := range []string{"", "ab", strings.Repeat("g", 64), strings.Repeat("a", 63), strings.Repeat("a", 65)} {
		if _, ok := ParseKey(bad); ok {
			t.Fatalf("ParseKey(%q) accepted", bad)
		}
	}
}
