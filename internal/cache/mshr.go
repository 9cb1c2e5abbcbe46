package cache

// MSHRFile models a file of miss-status holding registers. Outstanding
// misses to the same line coalesce into one entry; the file's capacity
// bounds the memory-level parallelism a core can expose, which the
// timing model uses to cap miss overlap.
//
// The simulator is cycle-batched rather than event-driven, so the MSHR
// file tracks entries by their completion time and retires them lazily
// whenever the current time is consulted.
//
// Entries live in a small unordered slice rather than a map: the file
// holds at most a few dozen registers and is consulted on every L1
// miss, so the linear scans are cheaper than map hashing and — unlike
// Go map iteration — walk in a deterministic order, making the
// earliest-completion victim choice reproducible even between tied
// completion times.
type MSHRFile struct {
	capacity int
	entries  []mshrEntry // live entries, unordered
}

// mshrEntry is one outstanding miss.
type mshrEntry struct {
	line LineAddr
	done int64 // completion time
}

// NewMSHRFile returns a file with the given number of entries.
func NewMSHRFile(capacity int) *MSHRFile {
	if capacity <= 0 {
		capacity = 1
	}
	return &MSHRFile{
		capacity: capacity,
		entries:  make([]mshrEntry, 0, capacity+1),
	}
}

// Capacity returns the number of registers in the file.
func (m *MSHRFile) Capacity() int { return m.capacity }

// retire drops entries whose completion time has passed.
func (m *MSHRFile) retire(now int64) {
	for i := 0; i < len(m.entries); {
		if m.entries[i].done <= now {
			last := len(m.entries) - 1
			m.entries[i] = m.entries[last]
			m.entries = m.entries[:last]
		} else {
			i++
		}
	}
}

// Occupancy returns the number of live entries at time now.
func (m *MSHRFile) Occupancy(now int64) int {
	m.retire(now)
	return len(m.entries)
}

// Allocate records a miss to line that completes at done. It returns
// the time at which the request can actually be tracked (now, or later
// if the file is full and the requester must stall until the earliest
// entry retires) and whether the miss coalesced with an existing entry.
func (m *MSHRFile) Allocate(line LineAddr, now, done int64) (start int64, coalesced bool) {
	m.retire(now)
	for i := range m.entries {
		if m.entries[i].line == line {
			if m.entries[i].done < done {
				m.entries[i].done = done
			}
			return now, true
		}
	}
	start = now
	if len(m.entries) >= m.capacity {
		earliest, victim := int64(1<<62-1), 0
		for i := range m.entries {
			if m.entries[i].done < earliest {
				earliest, victim = m.entries[i].done, i
			}
		}
		last := len(m.entries) - 1
		m.entries[victim] = m.entries[last]
		m.entries = m.entries[:last]
		if earliest > start {
			start = earliest
		}
	}
	m.entries = append(m.entries, mshrEntry{line: line, done: done})
	return start, false
}
