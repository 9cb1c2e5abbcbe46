package trace

import "fmt"

// State is the dynamic portion of a Generator: everything NextEvent
// mutates as the stream advances (it writes back exactly these
// fields). The address-space layout, cumulative weights and phase
// bounds are pure functions of the Config and are rebuilt by
// NewGenerator, so restoring a snapshot into a freshly built generator
// of the same Config continues the walk bit-identically (pinned by the
// ckpt round-trip fuzz tests).
type State struct {
	RNG         uint64 // SplitMix64 state
	CurPC       uint64
	Pattern     uint64
	MemCount    uint64
	StrmPos     uint64
	WSPos       []uint64
	WSActiveCur []int
	WSSweepPos  []uint64
}

// State returns a deep copy of the generator's dynamic state.
func (g *Generator) State() *State {
	return &State{
		RNG:         g.rng.state,
		CurPC:       g.curPC,
		Pattern:     g.pattern,
		MemCount:    g.memCount,
		StrmPos:     g.strmPos,
		WSPos:       append([]uint64(nil), g.wsPos...),
		WSActiveCur: append([]int(nil), g.wsActiveCur...),
		WSSweepPos:  append([]uint64(nil), g.wsSweepPos...),
	}
}

// Restore overwrites the generator's dynamic state with st. The
// receiver must have been built from the same Config the snapshot was
// taken under (same working-set count in particular).
func (g *Generator) Restore(st *State) error {
	if len(st.WSPos) != len(g.wsPos) || len(st.WSActiveCur) != len(g.wsActiveCur) ||
		len(st.WSSweepPos) != len(g.wsSweepPos) {
		return fmt.Errorf("trace: snapshot has %d/%d/%d working-set positions, generator has %d",
			len(st.WSPos), len(st.WSActiveCur), len(st.WSSweepPos), len(g.wsPos))
	}
	g.rng.state = st.RNG
	g.curPC = st.CurPC
	g.pattern = st.Pattern
	g.memCount = st.MemCount
	g.strmPos = st.StrmPos
	copy(g.wsPos, st.WSPos)
	copy(g.wsActiveCur, st.WSActiveCur)
	copy(g.wsSweepPos, st.WSSweepPos)
	return nil
}
