package store

import (
	"errors"
	"io/fs"
	"os"
	"sync"
)

// Op names one kind of FS call for targeted fault injection.
type Op uint8

const (
	OpMkdirAll Op = iota
	OpOpenFile
	OpRead
	OpWrite
	OpSync
	OpClose
	OpRename
	OpRemove
	OpReadDir
	OpSyncDir
	opCount
)

var opNames = [...]string{
	"mkdirall", "openfile", "read", "write", "sync", "close",
	"rename", "remove", "readdir", "syncdir",
}

func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return "op(?)"
}

// ErrInjected is the default error a scheduled fault returns.
var ErrInjected = errors.New("store: injected fault")

// ErrCrashed is returned by every call after a scheduled crash point:
// the process is "dead", nothing it attempts reaches the disk.
var ErrCrashed = errors.New("store: simulated crash")

// FaultFS wraps a real FS with a deterministic fault schedule: fail the
// Nth call of one kind with a chosen error, crash (truncating the
// in-flight write and failing everything after) at the Nth write-path
// call, or flip a byte of everything read back. It is the proof layer
// of the store's failure model — the crash-consistency and fuzz tests
// drive the whole write path through it at every syscall boundary.
type FaultFS struct {
	real FS

	mu        sync.Mutex
	countByOp [opCount]int
	perOp     map[Op][]opFault

	// crash schedule over write-path calls (OpenFile for write, Write,
	// Sync, Close of a written file, Rename, Remove, MkdirAll, SyncDir).
	writeOps  int
	crashAt   int // 1-based write-path call to crash on; 0 = never
	crashTorn int // bytes the crashing Write still lands on disk
	crashed   bool
	fired     bool

	flipOffset int // byte offset whose low bit flips on every read
	flipRead   bool
}

type opFault struct {
	n   int
	err error
}

// NewFaultFS wraps real (OSFS over a throwaway directory in tests).
func NewFaultFS(real FS) *FaultFS {
	if real == nil {
		real = OSFS{}
	}
	return &FaultFS{real: real, perOp: make(map[Op][]opFault)}
}

// FailOp schedules the nth (1-based) call of kind op to fail with err
// (ErrInjected if nil). Targeted faults do not crash the process: the
// call fails, later calls proceed — the shape of ENOSPC, EIO or EPERM.
func (f *FaultFS) FailOp(op Op, n int, err error) {
	if err == nil {
		err = ErrInjected
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.perOp[op] = append(f.perOp[op], opFault{n: n, err: err})
}

// CrashAtWriteOp schedules a crash at the nth (1-based) write-path
// call. If that call is a Write, torn bytes of it still reach the disk
// (a torn write); every call after the crash fails with ErrCrashed.
func (f *FaultFS) CrashAtWriteOp(n, torn int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.crashAt, f.crashTorn = n, torn
}

// FlipReadByte corrupts reads: the low bit of the byte at offset (of
// each file's content) flips on its way back to the caller.
func (f *FaultFS) FlipReadByte(offset int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.flipRead, f.flipOffset = true, offset
}

// Fired reports whether any scheduled crash or targeted fault has
// triggered yet.
func (f *FaultFS) Fired() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.fired
}

// WriteOps returns how many write-path calls have been issued — run a
// clean sequence first to learn how many crash points to enumerate.
func (f *FaultFS) WriteOps() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.writeOps
}

// OpCount returns how many calls of kind op have been issued, so tests
// can schedule "the next write" as FailOp(op, OpCount(op)+1, err).
func (f *FaultFS) OpCount(op Op) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.countByOp[op]
}

// before accounts one call; it returns the error the call must fail
// with (nil = proceed) and, for a crashing Write, how many bytes to
// land before dying (-1 = not a crashing write).
func (f *FaultFS) before(op Op, writePath bool) (error, int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed {
		return ErrCrashed, -1
	}
	f.countByOp[op]++
	n := f.countByOp[op]
	for _, fl := range f.perOp[op] {
		if fl.n == n {
			f.fired = true
			return fl.err, -1
		}
	}
	if writePath {
		f.writeOps++
		if f.crashAt != 0 && f.writeOps == f.crashAt {
			f.crashed, f.fired = true, true
			if op == OpWrite {
				return ErrCrashed, f.crashTorn
			}
			return ErrCrashed, -1
		}
	}
	return nil, -1
}

func (f *FaultFS) MkdirAll(path string, perm os.FileMode) error {
	if err, _ := f.before(OpMkdirAll, true); err != nil {
		return err
	}
	return f.real.MkdirAll(path, perm)
}

func (f *FaultFS) OpenFile(path string, flag int, perm os.FileMode) (File, error) {
	forWrite := flag&(os.O_WRONLY|os.O_RDWR|os.O_CREATE) != 0
	if err, _ := f.before(OpOpenFile, forWrite); err != nil {
		return nil, err
	}
	file, err := f.real.OpenFile(path, flag, perm)
	if err != nil {
		return nil, err
	}
	return &faultFile{fs: f, f: file, forWrite: forWrite}, nil
}

func (f *FaultFS) Rename(oldpath, newpath string) error {
	if err, _ := f.before(OpRename, true); err != nil {
		return err
	}
	return f.real.Rename(oldpath, newpath)
}

func (f *FaultFS) Remove(path string) error {
	if err, _ := f.before(OpRemove, true); err != nil {
		return err
	}
	return f.real.Remove(path)
}

func (f *FaultFS) ReadDir(path string) ([]fs.DirEntry, error) {
	if err, _ := f.before(OpReadDir, false); err != nil {
		return nil, err
	}
	return f.real.ReadDir(path)
}

func (f *FaultFS) SyncDir(path string) error {
	if err, _ := f.before(OpSyncDir, true); err != nil {
		return err
	}
	return f.real.SyncDir(path)
}

// faultFile threads per-call faults through an open file. pos tracks
// the read offset so FlipReadByte lands on the right byte.
type faultFile struct {
	fs       *FaultFS
	f        File
	forWrite bool
	pos      int
}

func (ff *faultFile) Read(p []byte) (int, error) {
	if err, _ := ff.fs.before(OpRead, false); err != nil {
		return 0, err
	}
	n, err := ff.f.Read(p)
	ff.fs.mu.Lock()
	if ff.fs.flipRead && n > 0 {
		off := ff.fs.flipOffset - ff.pos
		if off >= 0 && off < n {
			p[off] ^= 1
			ff.fs.fired = true
		}
	}
	ff.fs.mu.Unlock()
	ff.pos += n
	return n, err
}

func (ff *faultFile) Write(p []byte) (int, error) {
	err, torn := ff.fs.before(OpWrite, ff.forWrite)
	if err != nil {
		if torn >= 0 {
			// Torn write: part of the buffer reaches the disk before
			// the crash.
			if torn > len(p) {
				torn = len(p)
			}
			ff.f.Write(p[:torn])
		}
		return 0, err
	}
	return ff.f.Write(p)
}

func (ff *faultFile) Sync() error {
	if err, _ := ff.fs.before(OpSync, ff.forWrite); err != nil {
		return err
	}
	return ff.f.Sync()
}

func (ff *faultFile) Close() error {
	if err, _ := ff.fs.before(OpClose, ff.forWrite); err != nil {
		// A failed close still drops the descriptor — never leak it.
		ff.f.Close()
		return err
	}
	return ff.f.Close()
}
