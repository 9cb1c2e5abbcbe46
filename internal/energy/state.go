package energy

// State is the dynamic portion of a Meter: the energy accumulators,
// the leakage accounting position and the currently powered
// way-equivalents (DESIGN.md §14). NewMeter rebuilds the rest: the
// parameters are DefaultParams and the way count comes from the run
// configuration.
type State struct {
	Dynamic   float64
	Static    float64
	LastCycle int64
	Powered   float64
}

// State returns a copy of the meter's dynamic state.
func (m *Meter) State() *State {
	return &State{Dynamic: m.dynamic, Static: m.static_, LastCycle: m.lastCycle, Powered: m.powered}
}

// Restore overwrites the meter's dynamic state with st.
func (m *Meter) Restore(st *State) {
	m.dynamic = st.Dynamic
	m.static_ = st.Static
	m.lastCycle = st.LastCycle
	m.powered = st.Powered
}
