// Package store is the crash-safe persistent result cache layered
// under the experiment Runner's in-memory memo (DESIGN.md §12): a
// content-addressed on-disk map from canonical run keys to JSON-encoded
// results, shared by every binary and every process pointed at one
// -cache-dir. Durability is the point — atomic publish via
// temp-file + fsync + rename, per-entry SHA-256 verification with
// quarantine of corrupt entries — and so is graceful degradation: no
// store fault ever fails a caller; the disk layer silently drops out
// (per key, then entirely) and the in-memory memo carries the run.
// Publishers take no lock: each writes its own temp file, the rename
// commits a whole entry, and runs are deterministic, so two publishers
// of one key write the same bytes. Every syscall the store issues goes
// through the FS interface so the fault-injecting implementation
// (FaultFS) can prove the failure model at each boundary.
package store

import (
	"io"
	"io/fs"
	"os"
)

// FS is the filesystem surface the store touches. The production
// implementation is OSFS; tests substitute FaultFS to fail, truncate or
// corrupt any individual syscall deterministically.
type FS interface {
	MkdirAll(path string, perm os.FileMode) error
	// OpenFile opens like os.OpenFile. The store uses exactly two
	// modes: read-only, and write-only|create|excl for tmp files.
	OpenFile(path string, flag int, perm os.FileMode) (File, error)
	Rename(oldpath, newpath string) error
	Remove(path string) error
	ReadDir(path string) ([]fs.DirEntry, error)
	// SyncDir fsyncs a directory so a completed rename survives power
	// loss. Crash *atomicity* (absent-or-valid) never depends on it —
	// rename is atomic — only durability of the publish does.
	SyncDir(path string) error
}

// File is the open-file surface of FS.
type File interface {
	io.Reader
	io.Writer
	io.Closer
	Sync() error
}

// OSFS is the production FS: the real operating system calls.
type OSFS struct{}

func (OSFS) MkdirAll(path string, perm os.FileMode) error { return os.MkdirAll(path, perm) }

func (OSFS) OpenFile(path string, flag int, perm os.FileMode) (File, error) {
	return os.OpenFile(path, flag, perm)
}

func (OSFS) Rename(oldpath, newpath string) error       { return os.Rename(oldpath, newpath) }
func (OSFS) Remove(path string) error                   { return os.Remove(path) }
func (OSFS) ReadDir(path string) ([]fs.DirEntry, error) { return os.ReadDir(path) }

func (OSFS) SyncDir(path string) error {
	d, err := os.Open(path)
	if err != nil {
		return err
	}
	if err := d.Sync(); err != nil {
		d.Close()
		return err
	}
	return d.Close()
}
