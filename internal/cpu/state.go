package cpu

import (
	"fmt"

	"repro/internal/trace"
)

// Snapshot/restore layer (DESIGN.md §14). A core's dynamic state is
// its clock, retirement counters, the one in-flight event being
// consumed in place, the warm-up snapshots, the predictor's tables and
// the trace generator's walk. Everything else (retireCost, missDiv,
// code bounds, config) is derived at construction from the same
// RunConfig a restored run rebuilds, so only dynamic state is
// serialized. The clock is a float64 and JSON round-trips float64
// exactly (Go marshals the shortest decimal that parses back to the
// same bits), so off-grid fractional-MLP clocks survive verbatim.

// GshareState is the dynamic state of a Gshare predictor.
type GshareState struct {
	History uint64
	PHT     []uint8
	BTBTags []uint64
	BTBLRU  []uint64
	Clock   uint64
	Stats   BranchStats
}

// State returns a deep copy of the predictor's dynamic state.
func (g *Gshare) State() *GshareState {
	return &GshareState{
		History: g.history,
		PHT:     append([]uint8(nil), g.pht...),
		BTBTags: append([]uint64(nil), g.btbTags...),
		BTBLRU:  append([]uint64(nil), g.btbLRU...),
		Clock:   g.clock,
		Stats:   g.stats,
	}
}

// Restore overwrites the predictor's dynamic state with st.
func (g *Gshare) Restore(st *GshareState) error {
	if len(st.PHT) != len(g.pht) || len(st.BTBTags) != len(g.btbTags) ||
		len(st.BTBLRU) != len(g.btbLRU) {
		return fmt.Errorf("gshare: snapshot geometry mismatch (pht %d/%d, btb %d/%d)",
			len(st.PHT), len(g.pht), len(st.BTBTags), len(g.btbTags))
	}
	g.history = st.History
	copy(g.pht, st.PHT)
	copy(g.btbTags, st.BTBTags)
	copy(g.btbLRU, st.BTBLRU)
	g.clock = st.Clock
	g.stats = st.Stats
	return nil
}

// State is the complete dynamic state of a Core, including its
// predictor and trace generator (the core owns the generator's
// consumption position, so the two checkpoint as one unit).
type State struct {
	Clock       float64
	Retired     uint64
	FetchLine   uint64
	Ev          trace.Event
	Stats       Stats
	SnapClock   float64
	SnapRetired uint64
	Gshare      *GshareState
	Gen         *trace.State
}

// State returns a deep copy of the core's dynamic state.
func (c *Core) State() *State {
	return &State{
		Clock:       c.clock,
		Retired:     c.retired,
		FetchLine:   c.fetchLine,
		Ev:          c.ev,
		Stats:       c.stats,
		SnapClock:   c.snapClock,
		SnapRetired: c.snapRetired,
		Gshare:      c.gshare.State(),
		Gen:         c.gen.State(),
	}
}

// Restore overwrites the core's dynamic state with st. The receiver
// must have been built with the same config, generator config and
// memory port wiring the snapshot was taken under.
func (c *Core) Restore(st *State) error {
	if st.Gshare == nil || st.Gen == nil {
		return fmt.Errorf("cpu: core %d snapshot missing predictor or generator state", c.id)
	}
	if err := c.gshare.Restore(st.Gshare); err != nil {
		return fmt.Errorf("cpu: core %d: %w", c.id, err)
	}
	if err := c.gen.Restore(st.Gen); err != nil {
		return fmt.Errorf("cpu: core %d: %w", c.id, err)
	}
	c.clock = st.Clock
	c.retired = st.Retired
	c.fetchLine = st.FetchLine
	c.ev = st.Ev
	c.stats = st.Stats
	c.snapClock = st.SnapClock
	c.snapRetired = st.SnapRetired
	return nil
}
