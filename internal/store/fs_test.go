package store

import (
	"bytes"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// TestOSFSReadFileMatchesOS: OSFS.ReadFile reads what os.ReadFile reads,
// including files larger than its starting buffer, and fails where it
// fails, with a missing path still matching fs.ErrNotExist (the lease code
// depends on that).
func TestOSFSReadFileMatchesOS(t *testing.T) {
	dir := t.TempDir()
	e := filledEntry()
	big := bytes.Repeat([]byte("0123456789abcdef"), 100_000/16+1)[:100_000]
	for _, tc := range []struct {
		name string
		data []byte // nil: no file is written
	}{
		{"empty", []byte{}},
		{"entry", EncodeEntry(&e)},
		{"100KB", big},
		{"missing", nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(dir, tc.name)
			if tc.data != nil {
				if err := os.WriteFile(path, tc.data, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			got, err := OSFS{}.ReadFile(path)
			want, werr := os.ReadFile(path)
			if tc.data == nil {
				var pe *os.PathError
				if !errors.Is(err, fs.ErrNotExist) || !errors.As(err, &pe) || pe.Path != path {
					t.Fatalf("missing file: err = %v, want an *os.PathError for %s matching fs.ErrNotExist", err, path)
				}
				if !errors.Is(werr, fs.ErrNotExist) {
					t.Fatalf("os.ReadFile on a missing file: %v", werr)
				}
				return
			}
			if err != nil || werr != nil {
				t.Fatalf("OSFS err = %v, os err = %v", err, werr)
			}
			if !bytes.Equal(got, want) || len(got) != len(tc.data) {
				t.Fatalf("read %d bytes, os.ReadFile read %d, wrote %d", len(got), len(want), len(tc.data))
			}
		})
	}
	t.Run("directory", func(t *testing.T) {
		if _, err := (OSFS{}).ReadFile(dir); err == nil {
			t.Fatal("reading a directory succeeded")
		}
		if _, err := os.ReadFile(dir); err == nil {
			t.Fatal("os.ReadFile of a directory succeeded")
		}
	})
}

// TestOSFSReadDirMatchesOS: OSFS.ReadDir lists the names os.ReadDir lists,
// in the same sorted order, across more entries than one getdents buffer
// holds, and reports a missing directory as fs.ErrNotExist.
func TestOSFSReadDirMatchesOS(t *testing.T) {
	root := t.TempDir()
	empty := filepath.Join(root, "empty")
	many := filepath.Join(root, "many")
	for _, d := range []string{empty, many} {
		if err := os.Mkdir(d, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	// 3,000 entry-length names need about 260 KB of dirents, far past the
	// 8 KB buffer, so the listing takes many getdents calls.
	for i := uint64(0); i < 3000; i++ {
		if err := os.WriteFile(filepath.Join(many, testKey(i).String()+EntrySuffix), nil, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.Mkdir(filepath.Join(many, "sub"), 0o755); err != nil {
		t.Fatal(err)
	}
	for _, d := range []string{empty, many} {
		got, err := OSFS{}.ReadDir(d)
		if err != nil {
			t.Fatalf("%s: %v", d, err)
		}
		ents, err := os.ReadDir(d)
		if err != nil {
			t.Fatal(err)
		}
		want := make([]string, len(ents))
		for i, e := range ents {
			want[i] = e.Name()
		}
		if !slices.Equal(got, want) {
			t.Fatalf("%s: listed %d names, os.ReadDir %d (or a different order)", d, len(got), len(want))
		}
	}
	missing := filepath.Join(root, "missing")
	if _, err := (OSFS{}).ReadDir(missing); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("missing directory: err = %v, want fs.ErrNotExist", err)
	}
}
