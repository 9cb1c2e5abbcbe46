package cache

import "fmt"

// Snapshot/restore layer (DESIGN.md §14). State captures exactly the
// dynamic portion of a Cache — the SoA arrays, the global recency clock
// and the counters — and none of the derived geometry, which Restore
// expects the receiver to already have (a restored cache is always
// built by New from the same Config, so masks, shifts and latencies are
// reconstructed rather than trusted from disk).

// State is the complete dynamic state of a Cache: its SoA arrays copied
// verbatim (dense tags/owners/lru rows plus one valid/dirty word per
// set), the recency clock and the counters.
type State struct {
	Tags   []uint64
	Owners []int32
	LRU    []uint64
	Valid  []uint64
	Dirty  []uint64
	Clock  uint64
	Stats  Stats
}

// State returns a deep copy of the cache's dynamic state.
func (c *Cache) State() *State {
	return &State{
		Tags:   append([]uint64(nil), c.tags...),
		Owners: append([]int32(nil), c.owners...),
		LRU:    append([]uint64(nil), c.lru...),
		Valid:  append([]uint64(nil), c.valid...),
		Dirty:  append([]uint64(nil), c.dirty...),
		Clock:  c.clock,
		Stats:  c.stats,
	}
}

// Restore overwrites the cache's dynamic state with st. The receiver
// must have been built from the same Config the snapshot was taken
// under; geometry mismatches are rejected rather than truncated, since
// a partially applied snapshot would silently corrupt the run.
func (c *Cache) Restore(st *State) error {
	if len(st.Tags) != len(c.tags) || len(st.Owners) != len(c.owners) ||
		len(st.LRU) != len(c.lru) || len(st.Valid) != len(c.valid) ||
		len(st.Dirty) != len(c.dirty) {
		return fmt.Errorf("cache %q: snapshot geometry mismatch", c.cfg.Name)
	}
	copy(c.tags, st.Tags)
	copy(c.owners, st.Owners)
	copy(c.lru, st.LRU)
	copy(c.valid, st.Valid)
	copy(c.dirty, st.Dirty)
	c.clock = st.Clock
	c.stats = st.Stats
	return nil
}

// MSHRState is the complete dynamic state of an MSHRFile. Entries are
// kept in slice order: retire and Allocate compact with swap-with-last,
// so the order is part of the machine state (it decides scan order and
// victim choice between tied completion times) and must survive a
// round-trip verbatim.
type MSHRState struct {
	Lines []LineAddr
	Done  []int64
	Stats MSHRStats
}

// State returns a deep copy of the file's dynamic state.
func (m *MSHRFile) State() *MSHRState {
	st := &MSHRState{
		Lines: make([]LineAddr, len(m.entries)),
		Done:  make([]int64, len(m.entries)),
		Stats: m.stats,
	}
	for i, e := range m.entries {
		st.Lines[i] = e.line
		st.Done[i] = e.done
	}
	return st
}

// Restore overwrites the file's entries and counters with st.
func (m *MSHRFile) Restore(st *MSHRState) error {
	if len(st.Lines) != len(st.Done) {
		return fmt.Errorf("mshr: snapshot has %d lines but %d completion times",
			len(st.Lines), len(st.Done))
	}
	if len(st.Lines) > m.capacity {
		return fmt.Errorf("mshr: snapshot has %d entries, file capacity is %d",
			len(st.Lines), m.capacity)
	}
	m.entries = m.entries[:0]
	for i := range st.Lines {
		m.entries = append(m.entries, mshrEntry{line: st.Lines[i], done: st.Done[i]})
	}
	m.stats = st.Stats
	return nil
}
