// Package cliutil is the shared flag parser for the repro binaries.
// Every binary accepts the same -scale/-workers/-threshold vocabulary
// plus the persistence flags (-cache-dir, -checkpoint-dir,
// -checkpoint-every); parsing and validating it in one place keeps the
// error messages identical and makes "fail fast on bad flags" a
// property of every binary at once rather than copies that drift.
package cliutil

import (
	"fmt"
	"os"
	"runtime"

	"repro/internal/ckpt"
	"repro/internal/sim"
	"repro/internal/store"
)

// Scale resolves a -scale flag value to its sim.Scale.
func Scale(name string) (sim.Scale, error) {
	switch name {
	case "unit":
		return sim.UnitScale(), nil
	case "test":
		return sim.TestScale(), nil
	case "full":
		return sim.FullScale(), nil
	default:
		return sim.Scale{}, fmt.Errorf("unknown scale %q (unit, test or full)", name)
	}
}

// DefaultWorkers is the -workers flag default: one worker per CPU.
// Binaries default the flag to this (rather than a 0 sentinel) so an
// explicit -workers=0 is distinguishable from "unset" and can be
// rejected by Workers.
func DefaultWorkers() int { return runtime.GOMAXPROCS(0) }

// Workers validates a -workers flag value. Zero or negative worker
// counts are configuration errors: the library layer would quietly
// substitute a default, hiding a typo like -workers=O or a broken
// wrapper script computing 0.
func Workers(n int) (int, error) {
	if n <= 0 {
		return 0, fmt.Errorf("invalid -workers=%d: must be >= 1 (default: one per CPU, %d here)",
			n, DefaultWorkers())
	}
	return n, nil
}

// Threshold validates a -threshold flag value (a miss-rate fraction).
func Threshold(t float64) (float64, error) {
	if t != t || t < 0 || t > 1 {
		return 0, fmt.Errorf("invalid -threshold=%v: must be in [0, 1]", t)
	}
	return t, nil
}

// Checkpointing validates the -checkpoint-dir/-checkpoint-every flag
// pair. A negative cadence is a typo; a cadence without a directory is
// a configuration error (mid-run checkpoints that die with the process
// protect nothing); an unwritable directory is caught here too — all
// fail fast rather than silently running uncheckpointed. Mid-run
// store faults still degrade gracefully (the ladder is unchanged);
// only the startup contract is strict.
func Checkpointing(dir string, every int64) (uint64, error) {
	if every < 0 {
		return 0, fmt.Errorf("invalid -checkpoint-every=%d: must be >= 0 (measured instructions between mid-run checkpoints; 0 = warm-up checkpoints only)", every)
	}
	if every > 0 && dir == "" {
		return 0, fmt.Errorf("-checkpoint-every=%d requires -checkpoint-dir (mid-run checkpoints need a directory to survive the process)", every)
	}
	if err := ProbeWritable(dir, "-checkpoint-dir"); err != nil {
		return 0, err
	}
	return uint64(every), nil
}

// CacheDir validates a -cache-dir flag value: empty opts out of the
// persistent cache; a non-empty directory must be writable at startup.
func CacheDir(dir string) (string, error) {
	if err := ProbeWritable(dir, "-cache-dir"); err != nil {
		return "", err
	}
	return dir, nil
}

// ProbeWritable fails fast when a persistence flag points at a
// directory the process cannot write. The directory is created if
// missing (exactly what the store layer would do later) and a probe
// file is round-tripped through it. A flag that opts into persistence
// must not silently degrade from the first cycle — mid-run failures
// still use the store's graceful-degradation ladder, but a directory
// that was never usable is a configuration error. An empty dir means
// the flag is unset and passes.
func ProbeWritable(dir, flagName string) error {
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("%s=%s: cannot create directory: %v", flagName, dir, err)
	}
	f, err := os.CreateTemp(dir, ".writable-probe-*")
	if err != nil {
		return fmt.Errorf("%s=%s: directory is not writable: %v", flagName, dir, err)
	}
	name := f.Name()
	f.Close()
	os.Remove(name)
	return nil
}

// OpenCheckpoints opens the checkpoint manager for a validated
// -checkpoint-dir/-checkpoint-every pair. An empty dir yields a
// memory-only manager (in-process warm-up sharing still on); an
// unusable directory degrades the same way via store.OpenCLI. The
// returned store (nil without a dir) is exposed for exit-time stats
// reporting and signal handling.
func OpenCheckpoints(dir string, every uint64, prog string) (*ckpt.Manager, *store.Store) {
	st := store.OpenCLI(dir, prog)
	return ckpt.New(ckpt.Options{
		Store: st,
		Every: every,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, prog+": "+format+"\n", args...)
		},
	}), st
}
