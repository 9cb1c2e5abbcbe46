package main

import (
	"bytes"
	"errors"
	"io/fs"
	"os"
	"path"
	"sync"
	"testing/fstest"

	"repro/internal/store"
)

// memFS is an in-memory store.FS. The store's own code runs in full
// (encoding, checksums, lockfiles, the temp-file-and-rename publish),
// but no byte reaches a disk. figs-warm's set-up processes publish into
// it: on the VM the benchmark was written on, creating and renaming the
// same 102 small files on the checkout's ext4 disk took 5 ms or 100 ms
// from one round to the next, with fsync or without, while on tmpfs it
// took a steady 3 ms.
type memFS struct {
	mu    sync.Mutex
	files fstest.MapFS
}

var _ store.FS = (*memFS)(nil)

func newMemFS() *memFS { return &memFS{files: fstest.MapFS{}} }

func (m *memFS) MkdirAll(name string, perm os.FileMode) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	for p := path.Clean(name); p != "." && p != "/"; p = path.Dir(p) {
		if _, ok := m.files[p]; !ok {
			m.files[p] = &fstest.MapFile{Mode: fs.ModeDir | perm}
		}
	}
	return nil
}

// OpenFile supports the two modes the store uses: read-only, and
// write-only|create|excl.
func (m *memFS) OpenFile(name string, flag int, _ os.FileMode) (store.File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.files[name]
	if flag == os.O_RDONLY {
		if !ok {
			return nil, &fs.PathError{Op: "open", Path: name, Err: fs.ErrNotExist}
		}
		return &memFile{r: bytes.NewReader(f.Data)}, nil
	}
	if ok {
		return nil, &fs.PathError{Op: "open", Path: name, Err: fs.ErrExist}
	}
	f = &fstest.MapFile{Mode: 0o644}
	m.files[name] = f
	return &memFile{fs: m, w: f}, nil
}

func (m *memFS) Rename(oldname, newname string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.files[oldname]
	if !ok {
		return &fs.PathError{Op: "rename", Path: oldname, Err: fs.ErrNotExist}
	}
	delete(m.files, oldname)
	m.files[newname] = f
	return nil
}

func (m *memFS) Remove(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.files[name]; !ok {
		return &fs.PathError{Op: "remove", Path: name, Err: fs.ErrNotExist}
	}
	delete(m.files, name)
	return nil
}

func (m *memFS) Stat(name string) (fs.FileInfo, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return fs.Stat(m.files, name)
}

func (m *memFS) ReadDir(name string) ([]fs.DirEntry, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return fs.ReadDir(m.files, name)
}

func (m *memFS) SyncDir(string) error { return nil }

// memFile is an open memFS file: a reader over the file's bytes when
// opened read-only, else a writer appending to the file.
type memFile struct {
	r  *bytes.Reader
	fs *memFS
	w  *fstest.MapFile
}

func (f *memFile) Read(p []byte) (int, error) {
	if f.r == nil {
		return 0, errors.New("memfs: file not open for reading")
	}
	return f.r.Read(p)
}

func (f *memFile) Write(p []byte) (int, error) {
	if f.w == nil {
		return 0, errors.New("memfs: file not open for writing")
	}
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	f.w.Data = append(f.w.Data, p...)
	return len(p), nil
}

func (f *memFile) Close() error { return nil }
func (f *memFile) Sync() error  { return nil }
