// Package cliutil is the one bootstrap of the repro binaries. Setup
// registers, parses and validates the flags every experiment binary
// shares (-scale, -seed, -workers, -server and the persistence flags,
// plus -threshold and the profiling flags where a binary carries
// them), wires the store, checkpoint, service and signal layers, and
// returns a ready Runner. Validating in one place keeps the error
// messages identical and makes "fail fast on bad flags" a property of
// every binary at once rather than copies that drift. cmd/expd uses
// the persistence half, Persistence, on its own. The libraries print
// nothing for a binary themselves: every layer logs through Logf(prog),
// and the layers' counters are printed from here, at exit or on an
// interrupt.
package cliutil

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"syscall"

	"repro/internal/ckpt"
	"repro/internal/experiments"
	"repro/internal/prof"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/store"
)

// Options selects the optional shared flags a binary carries.
type Options struct {
	// Threshold registers -threshold, CoopPart/DynCPE's takeover T.
	Threshold bool
	// Profile registers -cpuprofile and -memprofile.
	Profile bool
}

// Setup registers the shared flags next to the binary's own (which
// must already be registered), parses the command line, validates the
// shared flags and builds the Runner over the store, checkpoint and
// service layers they name. cleanup prints every layer's stats to
// stderr (stderr, so stdout is identical with and without them) and
// finishes the profiles; defer it. Any error is a flag error the
// binary should exit on.
func Setup(prog string, opts Options) (r *experiments.Runner, cleanup func(), err error) {
	scaleName := flag.String("scale", "test", "simulation scale: unit, test or full")
	seed := flag.Uint64("seed", 1, "workload seed")
	workers := flag.Int("workers", DefaultWorkers(), "concurrent simulations (default: one per CPU)")
	server := flag.String("server", "", "expd server URL to fetch results from (empty = compute locally)")
	threshold := new(float64)
	if opts.Threshold {
		flag.Float64Var(threshold, "threshold", experiments.DefaultThreshold,
			"Cooperative Partitioning takeover threshold T (0..1)")
	}
	var cpuprofile, memprofile string
	if opts.Profile {
		flag.StringVar(&cpuprofile, "cpuprofile", "", "write a CPU profile of the run to this file")
		flag.StringVar(&memprofile, "memprofile", "", "write an allocation profile to this file at exit")
	}
	p := PersistenceFlags(prog)
	flag.Parse()

	stopProf, err := prof.Start(cpuprofile, memprofile)
	if err != nil {
		return nil, nil, err
	}
	cfg := experiments.Config{}
	if cfg.Scale, err = Scale(*scaleName); err != nil {
		return nil, nil, err
	}
	if cfg.Seed, err = Seed(*seed); err != nil {
		return nil, nil, err
	}
	if cfg.Workers, err = Workers(*workers); err != nil {
		return nil, nil, err
	}
	if opts.Threshold {
		if _, err := Threshold(*threshold); err != nil {
			return nil, nil, err
		}
		// The one flag -> Config handoff of the threshold: -threshold 0
		// means T=0, which a zero Config.Threshold would not.
		cfg.Threshold = sim.EncodeThreshold(*threshold)
	}
	if err := p.Open(); err != nil {
		return nil, nil, err
	}
	cfg.Store, cfg.Checkpoints = p.Results, p.Checkpoints
	stopSignals := handleSignals(prog, p.Results, p.ckptStore)
	var cl *service.Client
	if *server != "" {
		if cl, err = service.NewClient(*server, service.ClientOptions{Logf: Logf(prog)}); err != nil {
			return nil, nil, err
		}
		cfg.Remote = cl
	}
	return experiments.NewRunner(cfg), func() {
		if cl != nil {
			report(prog, "service", cl.Stats())
		}
		stopSignals()
		p.Close()
		if err := stopProf(); err != nil {
			fmt.Fprintln(os.Stderr, prog+":", err)
			os.Exit(1)
		}
	}, nil
}

// Persistence is the persistence half of the bootstrap: the
// -cache-dir, -checkpoint-dir and -checkpoint-every flags and, once
// Open succeeds, the stores and checkpoint manager they name.
type Persistence struct {
	// CacheDir is the -cache-dir flag value.
	CacheDir  string
	prog      string
	ckptDir   string
	ckptEvery int64

	// Results is the persistent result cache (nil = in-memory only).
	Results *store.Store
	// Checkpoints is never nil after Open: without -checkpoint-dir it
	// has no store and takes no checkpoints.
	Checkpoints *ckpt.Manager
	ckptStore   *store.Store
}

// PersistenceFlags registers the persistence flags on the command
// line; call Open after flag.Parse.
func PersistenceFlags(prog string) *Persistence {
	p := &Persistence{prog: prog}
	flag.StringVar(&p.CacheDir, "cache-dir", "",
		"persistent result cache directory shared across runs and processes (empty = in-memory only)")
	flag.StringVar(&p.ckptDir, "checkpoint-dir", "",
		"checkpoint directory: the end of warm-up and mid-run state persist here, and a rerun resumes from the last valid checkpoint (empty = no checkpoints)")
	flag.Int64Var(&p.ckptEvery, "checkpoint-every", 0,
		"measured instructions between mid-run checkpoints (0 = warm-up checkpoints only; requires -checkpoint-dir)")
	return p
}

// Open validates the persistence flags and opens what they name. A
// negative cadence is a typo; a cadence without a directory is a
// configuration error (mid-run checkpoints that die with the process
// protect nothing); a directory that cannot be written is caught here
// too — all fail fast rather than silently running unpersisted. An
// open failure after validation, and any mid-run store fault, still
// degrades gracefully (openStore): only the startup contract is
// strict.
func (p *Persistence) Open() error {
	if p.ckptEvery < 0 {
		return fmt.Errorf("invalid -checkpoint-every=%d: must be >= 0 (measured instructions between mid-run checkpoints; 0 = warm-up checkpoints only)", p.ckptEvery)
	}
	if p.ckptEvery > 0 && p.ckptDir == "" {
		return fmt.Errorf("-checkpoint-every=%d requires -checkpoint-dir (mid-run checkpoints need a directory to survive the process)", p.ckptEvery)
	}
	if err := ProbeWritable(p.ckptDir, "-checkpoint-dir"); err != nil {
		return err
	}
	if err := ProbeWritable(p.CacheDir, "-cache-dir"); err != nil {
		return err
	}
	p.Results = openStore(p.CacheDir, p.prog)
	p.ckptStore = openStore(p.ckptDir, p.prog)
	p.Checkpoints = ckpt.New(ckpt.Options{
		Store: p.ckptStore,
		Every: uint64(p.ckptEvery),
		Logf:  Logf(p.prog),
	})
	return nil
}

// Close prints the stats of the stores and the checkpoint manager to
// stderr.
func (p *Persistence) Close() {
	if p.ckptStore != nil {
		report(p.prog+": checkpoints", "store", p.ckptStore.Stats())
	}
	report(p.prog, "ckpt", p.Checkpoints.Stats())
	if p.Results != nil {
		report(p.prog, "store", p.Results.Stats())
	}
}

// openStore opens the store named by a -cache-dir or -checkpoint-dir
// flag. An empty dir means "no persistent store" and returns nil,
// which every consumer accepts. An open failure is reported to stderr
// once and likewise degrades to nil: a broken cache directory must
// never fail a run that could complete without one.
func openStore(dir, prog string) *store.Store {
	if dir == "" {
		return nil
	}
	s, err := store.Open(dir, store.Options{Logf: Logf(prog)})
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: store: %v — continuing without persistent cache\n", prog, err)
		return nil
	}
	return s
}

// handleSignals installs a binary's SIGINT/SIGTERM handler: it prints
// the stats of every non-nil store and exits with the conventional
// 128+signal status. The returned stop func uninstalls the handler, so
// a normal exit path wins.
func handleSignals(prog string, stores ...*store.Store) (stop func()) {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		select {
		case sig := <-ch:
			for _, s := range stores {
				if s != nil {
					report(prog, "store", s.Stats())
				}
			}
			fmt.Fprintf(os.Stderr, "%s: interrupted (%v)\n", prog, sig)
			os.Exit(128 + int(sig.(syscall.Signal)))
		case <-done:
		}
	}()
	return func() {
		signal.Stop(ch)
		close(done)
	}
}

// Logf returns the logger of a binary's store, checkpoint manager,
// client and server: one "prog: message" line on stderr per call.
func Logf(prog string) func(format string, args ...any) {
	return func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, prog+": "+format+"\n", args...)
	}
}

// report prints one layer's counters to stderr, so stdout stays
// byte-identical with and without the layer.
func report(prog, layer string, stats fmt.Stringer) {
	fmt.Fprintf(os.Stderr, "%s: %s: %s\n", prog, layer, stats)
}

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

// Seed validates a -seed flag value. Seed 0 is rejected for the reason
// Workers rejects 0: the library layer would quietly run seed 1.
func Seed(n uint64) (uint64, error) {
	if n == 0 {
		return 0, fmt.Errorf("invalid -seed=0: must be >= 1")
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
