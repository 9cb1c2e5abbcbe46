package sim

import (
	"encoding/json"
	"fmt"

	"repro/internal/cache"
	"repro/internal/cpu"
	"repro/internal/energy"
	"repro/internal/mem"
	"repro/internal/partition"
	"repro/internal/umon"
)

// Snapshot is the complete dynamic state of a System at an instruction
// boundary (DESIGN.md §14): every core with its predictor and trace
// generator, the private L1D/L1I caches and MSHR files, the scheme
// (which carries the shared LLC, monitors and all policy state), the
// DRAM timing state, the energy meter, and the phased-run bookkeeping.
// Everything derived from RunConfig — geometry, latencies, masks,
// profiles — is rebuilt by NewSystem, so a snapshot restored into a
// freshly built System of the same RunConfig continues the run
// bit-identically (pinned by the ckpt round-trip fuzz and the
// checkpointed-vs-uncheckpointed oracle tests). Taking a snapshot is a
// pure read: it never perturbs the run.
type Snapshot struct {
	// Scheme is the scheme's Name(), cross-checked on restore so a
	// mis-keyed checkpoint fails loudly instead of restoring one
	// scheme's cache state into another's policy.
	Scheme string

	Cores       []*cpu.State
	L1D         []*cache.State
	L1I         []*cache.State
	MSHR        []*cache.MSHRState
	SchemeState json.RawMessage
	DRAM        *mem.State
	Meter       *energy.State

	NextDecision int64
	MeasureFrom  int64

	// Progress is the measured-loop bookkeeping; nil for a snapshot
	// taken at the warm-up boundary.
	Progress *Progress `json:",omitempty"`

	// ProfMon/ProfPhases capture profiling state (CaptureProfile runs
	// only). A warm-up snapshot strips them (StripProfile): at the
	// warm-up boundary the monitor has just been Reset, so a restored
	// profile run's freshly built monitor is already in the identical
	// state — which is what lets one warm-up checkpoint serve both the
	// alone and the profile run of a benchmark.
	ProfMon    *umon.State              `json:",omitempty"`
	ProfPhases []partition.ProfilePhase `json:",omitempty"`
}

// StripProfile drops the profiling capture state, making the snapshot
// shareable between CaptureProfile and non-capture runs at the warm-up
// boundary (see the field comment for why this is exact there).
func (sn *Snapshot) StripProfile() {
	sn.ProfMon = nil
	sn.ProfPhases = nil
}

// Snapshot returns a deep copy of the system's complete dynamic state.
// It fails only when the scheme does not support checkpointing (all
// six schemes do; the error guards future ones).
func (s *System) Snapshot() (*Snapshot, error) {
	st, ok := s.scheme.(partition.Stateful)
	if !ok {
		return nil, fmt.Errorf("sim: scheme %s does not support checkpointing", s.scheme.Name())
	}
	schemeDoc, err := st.StateJSON()
	if err != nil {
		return nil, fmt.Errorf("sim: scheme %s state: %w", s.scheme.Name(), err)
	}
	snap := &Snapshot{
		Scheme:       s.scheme.Name(),
		SchemeState:  schemeDoc,
		DRAM:         s.dram.State(),
		Meter:        s.meter.State(),
		NextDecision: s.nextDecision,
		MeasureFrom:  s.measureFrom,
	}
	for i := range s.cores {
		snap.Cores = append(snap.Cores, s.cores[i].State())
		snap.L1D = append(snap.L1D, s.l1[i].State())
		snap.L1I = append(snap.L1I, s.l1i[i].State())
		snap.MSHR = append(snap.MSHR, s.mshr[i].State())
	}
	if s.prog != nil {
		snap.Progress = s.prog.clone()
	}
	if s.profMon != nil {
		snap.ProfMon = s.profMon.State()
		snap.ProfPhases = append([]partition.ProfilePhase(nil), s.profPhases...)
	}
	return snap, nil
}

// RestoreSnapshot overwrites the system's dynamic state with snap. The
// receiver must be freshly built by NewSystem from the same RunConfig
// the snapshot was taken under; mismatches (scheme, core count, any
// component geometry) are rejected with the system left unusable
// rather than half-restored — callers rebuild on error.
func (s *System) RestoreSnapshot(snap *Snapshot) error {
	if snap.Scheme != s.scheme.Name() {
		return fmt.Errorf("sim: snapshot is for scheme %s, system runs %s", snap.Scheme, s.scheme.Name())
	}
	n := len(s.cores)
	if len(snap.Cores) != n || len(snap.L1D) != n || len(snap.L1I) != n || len(snap.MSHR) != n {
		return fmt.Errorf("sim: snapshot has %d/%d/%d/%d cores/L1D/L1I/MSHR states, system has %d cores",
			len(snap.Cores), len(snap.L1D), len(snap.L1I), len(snap.MSHR), n)
	}
	if snap.DRAM == nil || snap.Meter == nil {
		return fmt.Errorf("sim: snapshot missing DRAM or meter state")
	}
	if snap.ProfMon != nil && s.profMon == nil {
		return fmt.Errorf("sim: snapshot carries profiling state but CaptureProfile is off")
	}
	st, ok := s.scheme.(partition.Stateful)
	if !ok {
		return fmt.Errorf("sim: scheme %s does not support checkpointing", s.scheme.Name())
	}
	if err := st.RestoreStateJSON(snap.SchemeState); err != nil {
		return fmt.Errorf("sim: scheme %s: %w", s.scheme.Name(), err)
	}
	for i := 0; i < n; i++ {
		if err := s.cores[i].Restore(snap.Cores[i]); err != nil {
			return err
		}
		if err := s.l1[i].Restore(snap.L1D[i]); err != nil {
			return err
		}
		if err := s.l1i[i].Restore(snap.L1I[i]); err != nil {
			return err
		}
		if err := s.mshr[i].Restore(snap.MSHR[i]); err != nil {
			return err
		}
	}
	if err := s.dram.Restore(snap.DRAM); err != nil {
		return err
	}
	s.meter.Restore(snap.Meter)
	s.nextDecision = snap.NextDecision
	s.measureFrom = snap.MeasureFrom
	s.prog = nil
	if snap.Progress != nil {
		if len(snap.Progress.Recorded) != n {
			return fmt.Errorf("sim: snapshot progress covers %d cores, system has %d",
				len(snap.Progress.Recorded), n)
		}
		s.prog = snap.Progress.clone()
	}
	// A nil ProfMon leaves a capture run's freshly built (zeroed)
	// monitor in place — exactly its state at the warm-up boundary.
	if snap.ProfMon != nil {
		if err := s.profMon.Restore(snap.ProfMon); err != nil {
			return err
		}
		s.profPhases = append([]partition.ProfilePhase(nil), snap.ProfPhases...)
	}
	return nil
}

// MarshalSnapshot serializes a snapshot to the checkpoint payload
// format: one JSON document. JSON round-trips every float64 exactly
// (shortest-decimal encoding), so off-grid clocks survive verbatim;
// determinism of the bytes (no maps anywhere in the snapshot tree)
// is what makes checkpoint entries content-addressable.
func MarshalSnapshot(snap *Snapshot) ([]byte, error) { return json.Marshal(snap) }

// UnmarshalSnapshot parses a checkpoint payload.
func UnmarshalSnapshot(data []byte) (*Snapshot, error) {
	var snap Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return nil, err
	}
	return &snap, nil
}
