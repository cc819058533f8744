package store

import (
	"os"
	"path/filepath"
	"slices"
	"syscall"
)

// FS is the store's seam to the filesystem. Every byte the store reads or
// writes goes through exactly one of these methods, so a test FS can inject
// the disk's real failure modes — torn writes, read errors, a full disk,
// slow I/O — without touching the store's logic (internal/faultinject's
// DiskFS is such a wrapper). The production implementation is OSFS.
//
// Durability contract: WriteFile must not return success until the data has
// been flushed to stable storage (fsync), and SyncDir must flush a
// directory's metadata (the visibility of a completed rename). Rename must
// be atomic for paths within one directory, the POSIX guarantee the store's
// temp-file + rename publication protocol is built on.
type FS interface {
	// MkdirAll creates path and any missing parents.
	MkdirAll(path string) error
	// ReadDir lists the names (not paths) of the entries of path.
	ReadDir(path string) ([]string, error)
	// ReadFile returns the full contents of the file at path.
	ReadFile(path string) ([]byte, error)
	// WriteFile creates or truncates path, writes data, and fsyncs it.
	WriteFile(path string, data []byte) error
	// CreateExclusive creates path with O_EXCL semantics — it fails with an
	// error satisfying errors.Is(err, fs.ErrExist) if the file already
	// exists — writes data, and fsyncs it. This is the one primitive whose
	// failure is meaningful rather than an error: it is how exactly one of
	// several racing processes wins a claim (internal/grid's leases).
	CreateExclusive(path string, data []byte) error
	// Rename atomically replaces newpath with oldpath.
	Rename(oldpath, newpath string) error
	// Remove deletes the file at path.
	Remove(path string) error
	// SyncDir fsyncs the directory at path (making renames durable).
	SyncDir(path string) error
}

// OSFS is the production FS: the real filesystem with fsync on every write
// and directory sync.
type OSFS struct{}

// MkdirAll implements FS.
func (OSFS) MkdirAll(path string) error { return os.MkdirAll(path, 0o755) }

// ReadDir implements FS: open, getdents until it returns nothing, close.
// Names come back sorted, as os.ReadDir returns them; "." and ".." are
// skipped.
func (OSFS) ReadDir(path string) ([]string, error) {
	fd, err := sysOpen(path, syscall.O_RDONLY|syscall.O_DIRECTORY|syscall.O_CLOEXEC)
	if err != nil {
		return nil, err
	}
	defer syscall.Close(fd)
	var names []string
	buf := make([]byte, direntBufSize)
	for {
		n, err := syscall.ReadDirent(fd, buf)
		if err == syscall.EINTR {
			continue
		}
		if err != nil {
			return nil, &os.PathError{Op: "readdirent", Path: path, Err: err}
		}
		if n <= 0 {
			break
		}
		_, _, names = syscall.ParseDirent(buf[:n], -1, names)
	}
	slices.Sort(names)
	return names, nil
}

// ReadFile implements FS: open, read until a zero-length read, close. That
// is four system calls for an entry; os.ReadFile adds an fstat to size its
// buffer and a netpoller registration that regular files always refuse.
// The buffer starts large enough for an entry and grows as needed.
func (OSFS) ReadFile(path string) ([]byte, error) {
	fd, err := sysOpen(path, syscall.O_RDONLY|syscall.O_CLOEXEC)
	if err != nil {
		return nil, err
	}
	defer syscall.Close(fd)
	data := make([]byte, 0, readBufSize)
	for {
		if len(data) == cap(data) {
			data = append(data, 0)[:len(data)]
		}
		n, err := syscall.Read(fd, data[len(data):cap(data)])
		if err == syscall.EINTR {
			continue
		}
		if err != nil {
			return nil, &os.PathError{Op: "read", Path: path, Err: err}
		}
		if n == 0 {
			return data, nil
		}
		data = data[:len(data)+n]
	}
}

const (
	// readBufSize holds a whole entry (536 bytes) with room for the
	// zero-length read that ends it, so an entry read never grows.
	readBufSize = 1024
	// direntBufSize is os.ReadDir's getdents buffer size.
	direntBufSize = 8192
)

// sysOpen is syscall.Open with EINTR retried and failures wrapped in an
// *os.PathError, so errors.Is(err, fs.ErrNotExist) holds as it does for
// the os package's errors.
func sysOpen(path string, mode int) (int, error) {
	for {
		fd, err := syscall.Open(path, mode, 0)
		if err == nil {
			return fd, nil
		}
		if err != syscall.EINTR {
			return -1, &os.PathError{Op: "open", Path: path, Err: err}
		}
	}
}

// WriteFile implements FS: create/truncate, write, fsync, close — an error
// from any step (including Close, which can surface deferred write errors)
// fails the write.
func (OSFS) WriteFile(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// CreateExclusive implements FS: O_CREATE|O_EXCL create, write, fsync,
// close. The kernel guarantees at most one concurrent creator succeeds.
func (OSFS) CreateExclusive(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Rename implements FS.
func (OSFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

// Remove implements FS.
func (OSFS) Remove(path string) error { return os.Remove(path) }

// SyncDir implements FS.
func (OSFS) SyncDir(path string) error {
	d, err := os.Open(filepath.Clean(path))
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
