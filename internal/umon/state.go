package umon

import "fmt"

// State is the dynamic portion of a Monitor: the ATD tags and validity
// words plus the stack-distance counters (DESIGN.md §14). Geometry and
// the sampling fast-path masks are rebuilt by New and never serialized.
type State struct {
	Tags     []uint64
	Valid    []uint64
	Hits     []uint64
	Accesses uint64
}

// State returns a deep copy of the monitor's dynamic state.
func (m *Monitor) State() *State {
	return &State{
		Tags:     append([]uint64(nil), m.tags...),
		Valid:    append([]uint64(nil), m.valid...),
		Hits:     append([]uint64(nil), m.hits...),
		Accesses: m.accesses,
	}
}

// Restore overwrites the monitor's dynamic state with st. The receiver
// must shadow the same geometry the snapshot was taken under.
func (m *Monitor) Restore(st *State) error {
	if len(st.Tags) != len(m.tags) || len(st.Valid) != len(m.valid) ||
		len(st.Hits) != len(m.hits) {
		return fmt.Errorf("umon: snapshot geometry mismatch (%d/%d/%d tags/rows/counters, monitor has %d/%d/%d)",
			len(st.Tags), len(st.Valid), len(st.Hits), len(m.tags), len(m.valid), len(m.hits))
	}
	copy(m.tags, st.Tags)
	copy(m.valid, st.Valid)
	copy(m.hits, st.Hits)
	m.accesses = st.Accesses
	return nil
}
