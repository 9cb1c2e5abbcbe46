package store

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// errLockTimeout is the bounded-backoff give-up: a live writer held the
// lock for the whole window. The caller degrades (skips the disk write
// for that key); it never blocks a run indefinitely.
var errLockTimeout = errors.New("store: lock acquisition timed out")

// sleepFn is swapped by tests to observe the backoff schedule.
var sleepFn = time.Sleep

// lockOwner is the lockfile's content. PID alone is not enough — PIDs
// recycle — so the owner also records its start time in kernel clock
// ticks since boot (/proc/<pid>/stat field 22). A lock is stale only
// when its PID is dead, or alive but with a different start time (the
// PID was reused since the lock was taken). A lock held by a live
// process is never reclaimed.
type lockOwner struct {
	PID       int    `json:"pid"`
	BootTicks uint64 `json:"boot_ticks"`
}

// acquireLock takes the named cross-process write lock with bounded
// exponential backoff (1ms doubling to 100ms, up to lockTimeout). It
// returns a release func, or errLockTimeout when a live owner held on.
// The lockfile is created O_EXCL and deliberately not fsynced: losing
// it in a power cut just means a reclaimable stale lock.
func (s *Store) acquireLock(name string) (func(), error) {
	path := filepath.Join(s.dir, "locks", name+".lock")
	deadline := time.Now().Add(s.lockTimeout)
	backoff := time.Millisecond
	const maxBackoff = 100 * time.Millisecond
	for {
		f, err := s.fs.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
		if err == nil {
			owner := lockOwner{PID: os.Getpid()}
			owner.BootTicks, _ = bootTicksOf(owner.PID)
			b, merr := json.Marshal(owner)
			var werr error
			if merr == nil {
				_, werr = f.Write(b)
			}
			cerr := f.Close()
			if merr != nil || werr != nil || cerr != nil {
				s.fs.Remove(path)
				return nil, fmt.Errorf("store: writing lockfile: %w", firstErr(merr, werr, cerr))
			}
			// Track live locks so an interrupt handler (HandleSignals)
			// can release everything this process still holds.
			s.held.Store(path, struct{}{})
			return func() {
				s.held.Delete(path)
				s.fs.Remove(path)
			}, nil
		}
		if !os.IsExist(err) {
			return nil, err
		}
		if s.lockIsStale(path) {
			// Reclaim and retry immediately; the O_EXCL create race
			// between reclaimers is settled by the next iteration.
			s.fs.Remove(path)
			continue
		}
		if time.Now().After(deadline) {
			return nil, errLockTimeout
		}
		sleepFn(backoff)
		if backoff *= 2; backoff > maxBackoff {
			backoff = maxBackoff
		}
	}
}

// ReleaseLocks removes every lockfile this process currently holds.
// It exists for interrupt paths (HandleSignals): a killed process
// would otherwise strand its locks until staleness reclaim. Safe on a
// nil store and safe to call concurrently with release funcs.
func (s *Store) ReleaseLocks() {
	if s == nil {
		return
	}
	s.held.Range(func(k, _ any) bool {
		s.held.Delete(k)
		s.fs.Remove(k.(string))
		return true
	})
}

// HandleSignals installs a SIGINT/SIGTERM handler that releases every
// lockfile the given stores still hold and prints their stats before
// exiting with the conventional 128+signal status. Without it an
// interrupt mid-publish leaves lockfiles other processes must wait
// staleAge to reclaim. Binaries with several stores (result cache plus
// checkpoint store) pass them all — one handler, one exit. The
// returned stop func uninstalls the handler (deferred by binaries so a
// normal exit path wins). Safe with nil stores.
func HandleSignals(prog string, stores ...*Store) (stop func()) {
	ch := make(chan os.Signal, 2)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		select {
		case sig := <-ch:
			for _, s := range stores {
				if s != nil {
					s.ReleaseLocks()
					fmt.Fprintf(os.Stderr, "%s: store: %s\n", prog, s.Stats())
				}
			}
			fmt.Fprintf(os.Stderr, "%s: interrupted (%v)\n", prog, sig)
			code := 128 + int(syscall.SIGTERM)
			if sig == os.Interrupt {
				code = 128 + int(syscall.SIGINT)
			}
			os.Exit(code)
		case <-done:
		}
	}()
	return func() {
		signal.Stop(ch)
		close(done)
	}
}

// lockIsStale decides whether path's lock can be reclaimed. Unreadable
// or torn lockfiles (a writer crashed between create and write) are
// stale once older than staleAge; well-formed ones are stale only when
// their owner is provably gone.
func (s *Store) lockIsStale(path string) bool {
	f, err := s.fs.OpenFile(path, os.O_RDONLY, 0)
	if err != nil {
		// Vanished: the holder released it; let the create retry.
		return os.IsNotExist(err)
	}
	data, rerr := readAll(f)
	f.Close()
	var owner lockOwner
	if rerr != nil || json.Unmarshal(data, &owner) != nil || owner.PID <= 0 {
		st, serr := s.fs.Stat(path)
		return serr == nil && time.Since(st.ModTime()) > s.staleAge
	}
	if owner.PID == os.Getpid() {
		// Our own PID. A lock this process took always carries our
		// current start ticks, so a mismatch proves the file was left
		// by a same-PID process from a previous boot — stale. Matching
		// (or unreadable) ticks mean another goroutine holds it, alive
		// by definition.
		if owner.BootTicks != 0 {
			if ticks, ok := bootTicksOf(owner.PID); ok && ticks != owner.BootTicks {
				return true
			}
		}
		return false
	}
	if processAlive(owner.PID) {
		if owner.BootTicks != 0 {
			if ticks, ok := bootTicksOf(owner.PID); ok && ticks != owner.BootTicks {
				return true // PID recycled since the lock was taken
			}
		}
		return false
	}
	return true
}

// processAlive reports whether pid exists. Permission errors count as
// alive: reclaiming is only safe on proof of death.
func processAlive(pid int) bool {
	p, err := os.FindProcess(pid)
	if err != nil {
		return false
	}
	err = p.Signal(syscall.Signal(0))
	if err == nil {
		return true
	}
	if errors.Is(err, os.ErrProcessDone) || errors.Is(err, syscall.ESRCH) {
		return false
	}
	return true
}

// bootTicksOf reads a process's start time in clock ticks since boot
// from /proc (Linux); ok=false elsewhere, degrading staleness checks to
// liveness only.
func bootTicksOf(pid int) (uint64, bool) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, false
	}
	// comm (field 2) may contain spaces; fields resume after last ')'.
	i := bytes.LastIndexByte(data, ')')
	if i < 0 {
		return 0, false
	}
	fields := strings.Fields(string(data[i+1:]))
	// starttime is stat field 22; fields[0] here is field 3 (state).
	if len(fields) < 20 {
		return 0, false
	}
	v, err := strconv.ParseUint(fields[19], 10, 64)
	if err != nil {
		return 0, false
	}
	return v, true
}

func firstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
