// Package ckpt is the crash-safe checkpoint layer over the simulator
// (DESIGN.md §14): versioned, checksummed serialization of complete
// mid-run simulator state, stored content-addressed in a store.Store
// so checkpoints inherit the result cache's entry format, atomic
// publish protocol, cross-process lockfiles and quarantine behaviour.
//
// A Manager wraps sim.Run with two capabilities:
//
//   - Warm-up sharing: the warm-up prefix of each run is computed once
//     per identity and every later run of that identity — in this
//     process via a singleflight memo, in any process via the store —
//     resumes from the checkpoint instead of re-warming. The warm-up
//     identity deliberately excludes CaptureProfile, so a benchmark's
//     alone run and its Dynamic CPE profiling run (which differ in
//     nothing else) warm exactly once between them.
//
//   - Mid-run checkpoints: with a store and Every > 0, the measured
//     region checkpoints each time all cores retire another Every
//     instructions, and a rerun of a killed process resumes from the
//     newest valid checkpoint. Corrupt checkpoints are quarantined by
//     the store on read and recomputed, never trusted.
//
// Checkpointing is strictly an accelerator: every fault (store down,
// corrupt entry, geometry mismatch) degrades to plain recomputation,
// and results are bit-identical with and without the layer.
package ckpt

import (
	"fmt"
	"os"
	"sync/atomic"

	"repro/internal/flight"
	"repro/internal/sim"
	"repro/internal/store"
)

// FormatVersion versions the checkpoint key space. Bumping it orphans
// every existing checkpoint (their keys no longer match), which is the
// correct response to any change in snapshot semantics: an old
// checkpoint silently reinterpreted is a wrong answer, an orphaned one
// only costs recomputation.
//
// v2: the controller snapshot grew the set-sampling estimator state
// (partition.controllerState.Est).
// v3: the controller snapshot loses the set-sampling estimator state.
// v4: cache.State is one flat array set (no per-bank arrays, no
// bank-port reservations).
const FormatVersion = 4

// Options parameterise New. The zero value is a memory-only manager:
// warm-up sharing within the process, no mid-run checkpoints.
type Options struct {
	// Store persists checkpoints across processes (nil = in-memory
	// warm-up sharing only). Point it at a dedicated directory
	// (-checkpoint-dir), not the result cache.
	Store *store.Store
	// Every is the mid-run checkpoint cadence in measured-region
	// instructions per core; 0 disables mid-run checkpoints. Requires
	// Store — a mid-run checkpoint that dies with the process is
	// pointless, so Every without Store is ignored.
	Every uint64
	// Logf receives the layer's once-per-condition warnings plus the
	// one success-path line — "resumed-from-checkpoint", emitted when a
	// rerun restores a mid-run checkpoint; stderr if nil.
	Logf func(format string, args ...any)
}

// Stats are the manager's observability counters.
type Stats struct {
	// WarmupsComputed counts warm-up prefixes actually simulated.
	WarmupsComputed uint64
	// WarmupsResumed counts runs that restored a warm-up checkpoint
	// (from the in-process memo or the store) instead of re-warming.
	WarmupsResumed uint64
	// MidRunResumed counts runs that restored a mid-run checkpoint,
	// skipping both warm-up and the measured prefix.
	MidRunResumed uint64
	// CheckpointsWritten counts snapshots handed to the store
	// (warm-up and mid-run; the store dedupes re-publishes).
	CheckpointsWritten uint64
}

func (s Stats) String() string {
	return fmt.Sprintf("warmups-computed=%d warmups-resumed=%d midrun-resumed=%d checkpoints-written=%d",
		s.WarmupsComputed, s.WarmupsResumed, s.MidRunResumed, s.CheckpointsWritten)
}

// Manager orchestrates checkpointed runs. All methods are safe for
// concurrent use; a nil Manager runs everything uncheckpointed.
type Manager struct {
	st    *store.Store
	every uint64
	logf  func(format string, args ...any)

	// warm memoises warm-up snapshots: concurrent runs of one identity
	// block on a single warm-up and share it, and the memo doubles as
	// the in-process warm-up cache.
	warm flight.Group[string, *sim.Snapshot]

	computed atomic.Uint64
	resumed  atomic.Uint64
	mid      atomic.Uint64
	written  atomic.Uint64
}

// New builds a Manager.
func New(opts Options) *Manager {
	m := &Manager{st: opts.Store, every: opts.Every, logf: opts.Logf}
	if m.st == nil {
		m.every = 0
	}
	if m.logf == nil {
		m.logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}
	return m
}

// Stats returns a snapshot of the manager's counters.
func (m *Manager) Stats() Stats {
	if m == nil {
		return Stats{}
	}
	return Stats{
		WarmupsComputed:    m.computed.Load(),
		WarmupsResumed:     m.resumed.Load(),
		MidRunResumed:      m.mid.Load(),
		CheckpointsWritten: m.written.Load(),
	}
}

// ReportStats prints the run's checkpoint counters to stderr (stderr
// so stdout stays byte-identical with and without checkpointing).
// Safe on a nil receiver.
func (m *Manager) ReportStats(prog string) {
	if m == nil {
		return
	}
	fmt.Fprintf(os.Stderr, "%s: ckpt: %s\n", prog, m.Stats())
}

// runID is the content address of one run: human-readable fields for
// debugging plus fingerprints that pin every field of the RunConfig.
type runID struct {
	scale, group, scheme string
	seed                 uint64
	// fp fingerprints the full config; mid-run checkpoint keys use it.
	fp string
	// warmFP fingerprints the config with CaptureProfile normalised
	// off; warm-up keys use it, collapsing the alone/profile pair.
	warmFP string
}

func identity(cfg sim.RunConfig) runID {
	warm := cfg
	warm.CaptureProfile = false
	return runID{
		scale:  cfg.Scale.Name,
		group:  cfg.Group.Name,
		scheme: string(cfg.Scheme),
		seed:   cfg.Seed,
		fp:     store.Fingerprint(cfg),
		warmFP: store.Fingerprint(warm),
	}
}

func (id runID) warmKey() string {
	return fmt.Sprintf("ckpt|v%d|warm|scale=%s|group=%s|scheme=%s|seed=%d|id=%s",
		FormatVersion, id.scale, id.group, id.scheme, id.seed, id.warmFP)
}

func (id runID) midKey(boundary uint64) string {
	return fmt.Sprintf("ckpt|v%d|mid|scale=%s|group=%s|scheme=%s|seed=%d|id=%s|instr=%d",
		FormatVersion, id.scale, id.group, id.scheme, id.seed, id.fp, boundary)
}

// Run executes cfg with checkpointing: resume from the newest valid
// mid-run checkpoint if one exists, else resume from (or compute and
// publish) the warm-up checkpoint, then run the measured region,
// checkpointing every Every instructions. Results are bit-identical to
// sim.Run(cfg).
func (m *Manager) Run(cfg sim.RunConfig) (*sim.Results, error) {
	if m == nil {
		return sim.Run(cfg)
	}
	sys, err := sim.NewSystem(cfg)
	if err != nil {
		return nil, err
	}
	id := identity(cfg)

	if snap, ok := m.latestMid(id, cfg); ok {
		if err := sys.RestoreSnapshot(snap); err == nil {
			m.mid.Add(1)
			// The one success-path log: an operator rerunning a killed
			// sweep needs to see the rerun did not start from scratch.
			m.logf("ckpt: resumed-from-checkpoint %s/%s seed=%d (skipping warm-up and measured prefix)",
				id.group, id.scheme, id.seed)
			return m.measured(sys, id), nil
		}
		// A checkpoint that parses and checksums but does not fit the
		// system means key-space or version skew. Never trust it: warn
		// once and recompute from the warm-up boundary (or scratch).
		m.logf("ckpt: mid-run checkpoint rejected (%v) — recomputing", err)
		sys, err = sim.NewSystem(cfg)
		if err != nil {
			return nil, err
		}
	}
	m.warmed(sys, cfg, id)
	return m.measured(sys, id), nil
}

// warmed brings sys to the warm-up boundary: restored from a shared
// checkpoint when one exists (in-process memo first, then the store),
// computed and published otherwise. Checkpoint faults degrade to a
// locally computed warm-up — this function cannot fail the run.
func (m *Manager) warmed(sys *sim.System, cfg sim.RunConfig, id runID) {
	if cfg.Scale.WarmupInstr == 0 {
		return
	}
	key := id.warmKey()
	// warmedHere distinguishes the singleflight leader (whose sys has
	// already executed the warm-up inside the closure) from followers
	// (whose sys is still cold and must restore the shared snapshot).
	warmedHere := false
	snap, err := m.warm.Do(key, func() (*sim.Snapshot, error) {
		if m.st != nil {
			var cached sim.Snapshot
			if m.st.Get(key, &cached) {
				return &cached, nil
			}
		}
		sys.Warmup()
		warmedHere = true
		sn, err := sys.Snapshot()
		if err != nil {
			return nil, err
		}
		sn.StripProfile()
		if m.st != nil {
			m.st.Put(key, sn)
			m.written.Add(1)
		}
		return sn, nil
	})
	if warmedHere {
		m.computed.Add(1)
		return
	}
	if err == nil && snap != nil {
		if rerr := sys.RestoreSnapshot(snap); rerr == nil {
			m.resumed.Add(1)
			return
		} else {
			m.logf("ckpt: warm-up checkpoint rejected (%v) — re-warming", rerr)
		}
	} else if err != nil {
		m.logf("ckpt: warm-up checkpointing failed (%v) — re-warming", err)
	}
	sys.Warmup()
	m.computed.Add(1)
}

// measured runs the measured region, publishing a checkpoint at each
// Every-instruction boundary when configured.
func (m *Manager) measured(sys *sim.System, id runID) *sim.Results {
	if m.every == 0 {
		return sys.RunMeasured(0, nil)
	}
	return sys.RunMeasured(m.every, func(boundary uint64) {
		snap, err := sys.Snapshot()
		if err != nil {
			m.logf("ckpt: snapshot at %d failed (%v) — boundary skipped", boundary, err)
			return
		}
		m.st.Put(id.midKey(boundary), snap)
		m.written.Add(1)
	})
}

// latestMid returns the newest valid mid-run checkpoint for id.
// Boundaries are probed ascending from Every — checkpoints are written
// in boundary order, so the valid set is a prefix and the probe stops
// at the first miss. A corrupt entry reads as a miss (the store
// quarantines it), so a hole ends the prefix and the run resumes from
// the last checkpoint before it — strictly valid state, never a guess.
func (m *Manager) latestMid(id runID, cfg sim.RunConfig) (*sim.Snapshot, bool) {
	if m.every == 0 {
		return nil, false
	}
	var best *sim.Snapshot
	for b := m.every; b < cfg.Scale.InstrPerApp; b += m.every {
		snap := new(sim.Snapshot)
		if !m.st.Get(id.midKey(b), snap) {
			break
		}
		best = snap
	}
	return best, best != nil
}
