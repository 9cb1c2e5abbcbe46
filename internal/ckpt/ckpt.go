// Package ckpt is the crash-safe checkpoint layer over the simulator
// (DESIGN.md §14): versioned, checksummed serialization of complete
// simulator state, stored content-addressed in a store.Store so
// checkpoints inherit the result cache's entry format, atomic publish
// protocol, cross-process lockfiles and quarantine behaviour.
//
// A run's checkpoints form one sequence over its measured region:
// boundary 0 is the end of warm-up, and with Every > 0 every further
// Every measured instructions per core add a boundary. Each boundary is
// keyed by the full RunConfig fingerprint and the boundary's
// instruction count. A Manager with a store publishes the sequence as
// the run goes, and a rerun (another process, or a killed sweep
// restarted) resumes from the newest boundary it finds. Without a
// store the Manager snapshots nothing: it only counts warm-ups.
//
// Checkpointing is strictly an accelerator: every fault (store down,
// corrupt entry, a checkpoint that does not fit the system) degrades to
// plain recomputation from a freshly built system, and results are
// bit-identical with and without the layer.
package ckpt

import (
	"fmt"
	"os"
	"sync/atomic"

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

// Options parameterise New. The zero value is a storeless manager: it
// takes no snapshots and only counts warm-ups.
type Options struct {
	// Store persists checkpoints across processes (nil = none). Point
	// it at a dedicated directory (-checkpoint-dir), not the result
	// cache.
	Store *store.Store
	// Every is the checkpoint cadence in measured-region instructions
	// per core; 0 keeps only boundary 0, the end of warm-up. Every
	// without Store is ignored: a checkpoint that dies with the process
	// protects nothing.
	Every uint64
	// Logf receives the layer's warnings plus the one success-path
	// line — "resumed-from-checkpoint", emitted when a rerun restores a
	// boundary past the end of warm-up; stderr if nil.
	Logf func(format string, args ...any)
}

// Stats are the manager's observability counters.
type Stats struct {
	// WarmupsComputed counts runs warmed from scratch.
	WarmupsComputed uint64
	// WarmupsResumed counts runs restored at boundary 0, the end of
	// warm-up.
	WarmupsResumed uint64
	// MidRunResumed counts runs restored at a later boundary, skipping
	// both warm-up and the measured prefix.
	MidRunResumed uint64
	// CheckpointsWritten counts snapshots handed to the store (the
	// store dedupes re-publishes).
	CheckpointsWritten uint64
}

func (s Stats) String() string {
	return fmt.Sprintf("warmups-computed=%d warmups-resumed=%d midrun-resumed=%d checkpoints-written=%d",
		s.WarmupsComputed, s.WarmupsResumed, s.MidRunResumed, s.CheckpointsWritten)
}

// Manager orchestrates checkpointed runs. All methods are safe for
// concurrent use.
type Manager struct {
	st    *store.Store
	every uint64
	logf  func(format string, args ...any)

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
	return Stats{
		WarmupsComputed:    m.computed.Load(),
		WarmupsResumed:     m.resumed.Load(),
		MidRunResumed:      m.mid.Load(),
		CheckpointsWritten: m.written.Load(),
	}
}

// runID is the content address of one run: human-readable fields for
// debugging plus a fingerprint that pins every field of the RunConfig.
type runID struct {
	scale, group, scheme string
	seed                 uint64
	fp                   string
}

func identity(cfg sim.RunConfig) runID {
	return runID{
		scale:  cfg.Scale.Name,
		group:  cfg.Group.Name,
		scheme: string(cfg.Scheme),
		seed:   cfg.Seed,
		fp:     store.Fingerprint(cfg),
	}
}

// key addresses the checkpoint at a boundary, in measured-region
// instructions per core (0 = the end of warm-up).
func (id runID) key(boundary uint64) string {
	return fmt.Sprintf("ckpt|v%d|scale=%s|group=%s|scheme=%s|seed=%d|id=%s|instr=%d",
		FormatVersion, id.scale, id.group, id.scheme, id.seed, id.fp, boundary)
}

// Run executes cfg with checkpointing: restore the newest checkpoint
// of the run's sequence if one exists, else warm up from scratch and
// publish boundary 0; then run the measured region, publishing each
// later boundary. A checkpoint that restore rejects is never trusted:
// the run starts again on a freshly built system. Results are
// bit-identical to sim.Run(cfg).
func (m *Manager) Run(cfg sim.RunConfig) (*sim.Results, error) {
	sys, err := sim.NewSystem(cfg)
	if err != nil {
		return nil, err
	}
	id := identity(cfg)

	if boundary, snap := m.latest(id, cfg); snap != nil {
		err := sys.RestoreSnapshot(snap)
		if err == nil {
			if boundary == 0 {
				m.resumed.Add(1)
			} else {
				m.mid.Add(1)
				// The one success-path log: an operator rerunning a killed
				// sweep needs to see the rerun did not start from scratch.
				m.logf("ckpt: resumed-from-checkpoint %s/%s seed=%d at %d instructions (skipping warm-up and measured prefix)",
					id.group, id.scheme, id.seed, boundary)
			}
			return m.measured(sys, id), nil
		}
		// A checkpoint that parses and checksums but does not fit the
		// system means key-space or version skew, and a failed restore
		// leaves the system half-overwritten: warn and start over.
		m.logf("ckpt: checkpoint at %d instructions rejected (%v) — recomputing", boundary, err)
		if sys, err = sim.NewSystem(cfg); err != nil {
			return nil, err
		}
	}
	sys.Warmup()
	m.computed.Add(1)
	m.publish(sys, id, 0)
	return m.measured(sys, id), nil
}

// measured runs the measured region, publishing a checkpoint at each
// Every-instruction boundary (none when Every is 0).
func (m *Manager) measured(sys *sim.System, id runID) *sim.Results {
	return sys.RunMeasured(m.every, func(boundary uint64) { m.publish(sys, id, boundary) })
}

// publish hands the system's snapshot at boundary to the store; it is
// a no-op without one.
func (m *Manager) publish(sys *sim.System, id runID, boundary uint64) {
	if m.st == nil {
		return
	}
	snap, err := sys.Snapshot()
	if err != nil {
		m.logf("ckpt: snapshot at %d failed (%v) — boundary skipped", boundary, err)
		return
	}
	m.st.Put(id.key(boundary), snap)
	m.written.Add(1)
}

// latest returns the newest checkpoint of id's sequence and its
// boundary, or a nil snapshot. Boundaries are probed ascending from 0
// — checkpoints are written in boundary order, so the valid set is a
// prefix and the probe stops at the first miss. A corrupt entry reads
// as a miss (the store quarantines it), so a hole ends the prefix and
// the run resumes from the last checkpoint before it — strictly valid
// state, never a guess.
func (m *Manager) latest(id runID, cfg sim.RunConfig) (uint64, *sim.Snapshot) {
	if m.st == nil {
		return 0, nil
	}
	var (
		at   uint64
		best *sim.Snapshot
	)
	for b := uint64(0); b < cfg.Scale.InstrPerApp; b += m.every {
		snap := new(sim.Snapshot)
		if !m.st.Get(id.key(b), snap) {
			break
		}
		at, best = b, snap
		if m.every == 0 {
			break
		}
	}
	return at, best
}
