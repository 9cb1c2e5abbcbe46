package partition

import (
	"encoding/json"
	"fmt"
	"sort"

	"repro/internal/cache"
	"repro/internal/umon"
)

// Snapshot/restore layer (DESIGN.md §14). Every scheme serializes its
// complete dynamic state — the cache substrate, counters, monitors and
// whatever policy state it carries — as one JSON document behind the
// Stateful interface, so the checkpoint layer handles all schemes
// (including Cooperative Partitioning in internal/core) uniformly
// without this package knowing their concrete types.

// Stateful is implemented by schemes whose mid-run state can be
// checkpointed and restored. Restore must only be called on a scheme
// freshly built from the same Config (and profiles, for profile-driven
// schemes) the snapshot was taken under: derived state is rebuilt by
// the constructor and only dynamic state travels in the document.
type Stateful interface {
	// StateJSON returns the scheme's dynamic state as a
	// self-contained JSON document.
	StateJSON() ([]byte, error)
	// RestoreStateJSON overwrites the scheme's dynamic state from a
	// document produced by StateJSON on an identically built scheme.
	RestoreStateJSON(data []byte) error
}

// controllerState is the dynamic state every scheme shares through its
// embedded Controller: the physical cache and the two counter blocks.
// The DRAM behind the controller is owned by the simulator and
// checkpoints at system level, not here.
type controllerState struct {
	Cache *cache.State
	Stats Stats
	Trans TransitionStats
}

func (b *Controller) state() controllerState {
	st := controllerState{
		Cache: b.l2.State(),
		Stats: Stats{
			PerCore:         append([]CoreStats(nil), b.stats.PerCore...),
			WritebacksToMem: b.stats.WritebacksToMem,
			Decisions:       b.stats.Decisions,
			Repartitions:    b.stats.Repartitions,
			FlushedOnDecide: b.stats.FlushedOnDecide,
		},
		Trans: *b.trans,
	}
	st.Trans.Timeline = append([]uint64(nil), b.trans.Timeline...)
	return st
}

func (b *Controller) restoreState(st *controllerState) error {
	if st.Cache == nil {
		return fmt.Errorf("partition: snapshot missing cache state")
	}
	if len(st.Stats.PerCore) != len(b.stats.PerCore) {
		return fmt.Errorf("partition: snapshot has %d per-core stat blocks, controller has %d",
			len(st.Stats.PerCore), len(b.stats.PerCore))
	}
	if len(st.Trans.Timeline) != len(b.trans.Timeline) {
		return fmt.Errorf("partition: snapshot has %d timeline buckets, controller has %d",
			len(st.Trans.Timeline), len(b.trans.Timeline))
	}
	if err := b.l2.Restore(st.Cache); err != nil {
		return err
	}
	copy(b.stats.PerCore, st.Stats.PerCore)
	b.stats.WritebacksToMem = st.Stats.WritebacksToMem
	b.stats.Decisions = st.Stats.Decisions
	b.stats.Repartitions = st.Stats.Repartitions
	b.stats.FlushedOnDecide = st.Stats.FlushedOnDecide
	timeline := b.trans.Timeline
	copy(timeline, st.Trans.Timeline)
	*b.trans = st.Trans
	b.trans.Timeline = timeline
	return nil
}

// ControllerStateJSON returns the embedded controller's dynamic state
// as a JSON document, for schemes implemented outside this package
// (Cooperative Partitioning embeds it in its own state document).
func (b *Controller) ControllerStateJSON() ([]byte, error) {
	return json.Marshal(b.state())
}

// RestoreControllerStateJSON restores the embedded controller's
// dynamic state from a ControllerStateJSON document.
func (b *Controller) RestoreControllerStateJSON(data []byte) error {
	var st controllerState
	if err := json.Unmarshal(data, &st); err != nil {
		return err
	}
	return b.restoreState(&st)
}

// monitorStates snapshots a per-core monitor slice.
func monitorStates(mons []*umon.Monitor) []*umon.State {
	sts := make([]*umon.State, len(mons))
	for i, m := range mons {
		sts[i] = m.State()
	}
	return sts
}

// restoreMonitors restores a per-core monitor slice.
func restoreMonitors(mons []*umon.Monitor, sts []*umon.State) error {
	if len(sts) != len(mons) {
		return fmt.Errorf("partition: snapshot has %d monitors, scheme has %d", len(sts), len(mons))
	}
	for i, m := range mons {
		if err := m.Restore(sts[i]); err != nil {
			return fmt.Errorf("monitor %d: %w", i, err)
		}
	}
	return nil
}

// unmanagedState / fairShareState — only the controller moves.

type unmanagedState struct {
	Controller controllerState
}

// StateJSON implements Stateful.
func (u *Unmanaged) StateJSON() ([]byte, error) {
	return json.Marshal(unmanagedState{Controller: u.state()})
}

// RestoreStateJSON implements Stateful.
func (u *Unmanaged) RestoreStateJSON(data []byte) error {
	var st unmanagedState
	if err := json.Unmarshal(data, &st); err != nil {
		return err
	}
	return u.restoreState(&st.Controller)
}

type fairShareState struct {
	Controller controllerState
	Quotas     []int
}

// StateJSON implements Stateful.
func (f *FairShare) StateJSON() ([]byte, error) {
	return json.Marshal(fairShareState{Controller: f.state(), Quotas: f.quotas})
}

// RestoreStateJSON implements Stateful.
func (f *FairShare) RestoreStateJSON(data []byte) error {
	var st fairShareState
	if err := json.Unmarshal(data, &st); err != nil {
		return err
	}
	if len(st.Quotas) != len(f.quotas) {
		return fmt.Errorf("fairshare: snapshot has %d quotas, scheme has %d", len(st.Quotas), len(f.quotas))
	}
	if err := f.restoreState(&st.Controller); err != nil {
		return err
	}
	copy(f.quotas, st.Quotas)
	return nil
}

// ucpTransitionState serializes ucpTransition. The donors map iterates
// order-independently on the access path, but a map would serialize in
// random key order; donors round-trip as a sorted slice so the same
// machine state always produces the same bytes (checkpoint entries are
// content-addressed).
type ucpTransitionState struct {
	Start     int64
	Donors    []int
	WaysMoved int
	SetDone   []bool
	Remaining int
}

type ucpState struct {
	Controller controllerState
	Monitors   []*umon.State
	Quotas     []int
	Transition *ucpTransitionState
}

// StateJSON implements Stateful.
func (u *UCP) StateJSON() ([]byte, error) {
	st := ucpState{
		Controller: u.state(),
		Monitors:   monitorStates(u.mons),
		Quotas:     u.quotas,
	}
	if u.tr != nil {
		donors := make([]int, 0, len(u.tr.donors))
		for d := range u.tr.donors {
			donors = append(donors, d)
		}
		sort.Ints(donors)
		st.Transition = &ucpTransitionState{
			Start:     u.tr.start,
			Donors:    donors,
			WaysMoved: u.tr.waysMoved,
			SetDone:   u.tr.setDone,
			Remaining: u.tr.remaining,
		}
	}
	return json.Marshal(st)
}

// RestoreStateJSON implements Stateful.
func (u *UCP) RestoreStateJSON(data []byte) error {
	var st ucpState
	if err := json.Unmarshal(data, &st); err != nil {
		return err
	}
	if len(st.Quotas) != len(u.quotas) {
		return fmt.Errorf("ucp: snapshot has %d quotas, scheme has %d", len(st.Quotas), len(u.quotas))
	}
	if err := u.restoreState(&st.Controller); err != nil {
		return err
	}
	if err := restoreMonitors(u.mons, st.Monitors); err != nil {
		return err
	}
	copy(u.quotas, st.Quotas)
	u.tr = nil
	if t := st.Transition; t != nil {
		if len(t.SetDone) != u.l2.NumSets() {
			return fmt.Errorf("ucp: snapshot transition covers %d sets, cache has %d",
				len(t.SetDone), u.l2.NumSets())
		}
		donors := make(map[int]bool, len(t.Donors))
		for _, d := range t.Donors {
			donors[d] = true
		}
		u.tr = &ucpTransition{
			start:     t.Start,
			donors:    donors,
			waysMoved: t.WaysMoved,
			setDone:   append([]bool(nil), t.SetDone...),
			remaining: t.Remaining,
		}
	}
	return nil
}

type pippState struct {
	Controller controllerState
	Monitors   []*umon.State
	Quotas     []int
}

// StateJSON implements Stateful.
func (p *PIPP) StateJSON() ([]byte, error) {
	return json.Marshal(pippState{
		Controller: p.state(),
		Monitors:   monitorStates(p.mons),
		Quotas:     p.quotas,
	})
}

// RestoreStateJSON implements Stateful.
func (p *PIPP) RestoreStateJSON(data []byte) error {
	var st pippState
	if err := json.Unmarshal(data, &st); err != nil {
		return err
	}
	if len(st.Quotas) != len(p.quotas) {
		return fmt.Errorf("pipp: snapshot has %d quotas, scheme has %d", len(st.Quotas), len(p.quotas))
	}
	if err := p.restoreState(&st.Controller); err != nil {
		return err
	}
	if err := restoreMonitors(p.mons, st.Monitors); err != nil {
		return err
	}
	copy(p.quotas, st.Quotas)
	return nil
}

type cpeState struct {
	Controller controllerState
	Phase      int
	WayMask    []uint64
	SetShift   []int
}

// StateJSON implements Stateful. The offline profiles are constructor
// inputs (part of the run identity, not run state) and do not travel.
func (c *CPE) StateJSON() ([]byte, error) {
	return json.Marshal(cpeState{
		Controller: c.state(),
		Phase:      c.phase,
		WayMask:    c.wayMask,
		SetShift:   c.setShift,
	})
}

// RestoreStateJSON implements Stateful.
func (c *CPE) RestoreStateJSON(data []byte) error {
	var st cpeState
	if err := json.Unmarshal(data, &st); err != nil {
		return err
	}
	if len(st.WayMask) != len(c.wayMask) || len(st.SetShift) != len(c.setShift) {
		return fmt.Errorf("cpe: snapshot has %d/%d region entries, scheme has %d cores",
			len(st.WayMask), len(st.SetShift), c.n)
	}
	if err := c.restoreState(&st.Controller); err != nil {
		return err
	}
	c.phase = st.Phase
	copy(c.wayMask, st.WayMask)
	copy(c.setShift, st.SetShift)
	return nil
}
