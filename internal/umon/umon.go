// Package umon implements the utility monitors (UMON) of Qureshi &
// Patt's utility-based cache partitioning, which the paper reuses for
// its usage-monitoring phase (Section 2.1).
//
// Each core gets an auxiliary tag directory (ATD) with the same
// associativity as the shared LLC but private to that core, maintained
// in true LRU order. A hit at LRU stack position d means the access
// would have hit had the core owned at least d ways, so per-position
// hit counters directly yield the core's utility curve (hits as a
// function of allocated ways) via the stack property of LRU (Mattson et
// al.). Dynamic set sampling reduces the hardware cost; the sampling
// ratio is configurable and the counters are scaled accordingly.
package umon

import (
	"fmt"
	"math/bits"
)

// Config describes one utility monitor.
type Config struct {
	Sets int // sets in the monitored cache
	Ways int // associativity of the monitored cache
	// Sampling monitors every Sampling-th set (1 = all sets). It must
	// be a power of two — New panics otherwise (see SetSampler). A
	// value larger than Sets clamps to one sampled row, and scaled
	// counters use the true Sets/Rows ratio of the clamp.
	Sampling int
}

// Monitor is the per-core ATD with stack-distance hit counters.
//
// Like the cache substrate, the ATD is struct-of-arrays: a dense tags
// slice plus one validity bitmask word per sampled row (bit i = stack
// position i; Ways <= 64, matching the cache's way-mask limit). The
// per-LLC-access stack search then scans only tags gated by one valid
// word, and the shift-down of the LRU stack moves validity with two
// bit operations instead of a per-entry bool walk.
type Monitor struct {
	cfg      Config
	tags     []uint64 // sampledSets * ways, ordered most→least recent
	valid    []uint64 // one word per sampled row
	hits     []uint64 // hits[d] = hits at stack position d (0-based)
	accesses uint64

	// sampler holds the set-sampling map: the sampled-set filter
	// on every LLC access is a single AND, and the row index a shift.
	sampler SetSampler
	rowMask uint64
}

// New creates a monitor for a cache with the given geometry. It panics
// on invalid configuration (monitor geometry is fixed by the cache it
// shadows, so failure is a programming error).
func New(cfg Config) *Monitor {
	if cfg.Sets <= 0 || cfg.Ways <= 0 {
		panic(fmt.Sprintf("umon: invalid geometry %d sets / %d ways", cfg.Sets, cfg.Ways))
	}
	if cfg.Ways > 64 {
		panic(fmt.Sprintf("umon: %d ways exceed the 64-way mask limit", cfg.Ways))
	}
	if cfg.Sampling <= 0 {
		cfg.Sampling = 1
	}
	sampler := NewSetSampler(cfg.Sets, cfg.Sampling)
	sampled := sampler.Rows()
	m := &Monitor{
		cfg:     cfg,
		tags:    make([]uint64, sampled*cfg.Ways),
		valid:   make([]uint64, sampled),
		hits:    make([]uint64, cfg.Ways),
		sampler: sampler,
	}
	if cfg.Ways == 64 {
		m.rowMask = ^uint64(0)
	} else {
		m.rowMask = (uint64(1) << uint(cfg.Ways)) - 1
	}
	return m
}

// Config returns the monitor configuration.
func (m *Monitor) Config() Config { return m.cfg }

// Access records one LLC access by this monitor's core. set is the
// index in the real cache; tag is the line's tag. Accesses to
// non-sampled sets are ignored.
func (m *Monitor) Access(set int, tag uint64) {
	if !m.sampler.Sampled(set) {
		return
	}
	row := m.sampler.Row(set)
	base := row * m.cfg.Ways
	ways := m.cfg.Ways
	m.accesses++

	// Search the LRU stack for the tag: only valid positions are
	// visited, gated by the row's validity word.
	vw := m.valid[row]
	tags := m.tags[base : base+ways]
	pos := -1
	for w := vw; w != 0; w &= w - 1 {
		i := bits.TrailingZeros64(w)
		if tags[i] == tag {
			pos = i
			break
		}
	}
	if pos >= 0 {
		m.hits[pos]++
		// Move to MRU: positions 1..pos take over 0..pos-1; validity
		// below the hit shifts with them (position 0 becomes valid).
		copy(tags[1:pos+1], tags[:pos])
		low := uint64(1)<<uint(pos+1) - 1
		m.valid[row] = (vw &^ low) | ((vw<<1 | 1) & low)
	} else {
		// Shift everything down, dropping the LRU entry.
		copy(tags[1:], tags[:ways-1])
		m.valid[row] = (vw<<1 | 1) & m.rowMask
	}
	tags[0] = tag
}

// Accesses returns the number of monitored accesses since the last
// decay to zero, scaled by the true Sets/Rows ratio to estimate
// the full cache's traffic. The true ratio is the clamped stride: when
// Sampling exceeds Sets only one row is tracked and the nominal ratio
// would overestimate traffic by Sampling/Sets.
func (m *Monitor) Accesses() uint64 { return m.accesses * uint64(m.sampler.Stride()) }

// HitsUpTo returns the estimated number of hits the core would see with
// w ways allocated: the sum of stack-position counters 0..w-1, scaled
// by the true Sets/Rows ratio (see Accesses).
func (m *Monitor) HitsUpTo(w int) uint64 {
	if w > m.cfg.Ways {
		w = m.cfg.Ways
	}
	var sum uint64
	for i := 0; i < w; i++ {
		sum += m.hits[i]
	}
	return sum * uint64(m.sampler.Stride())
}

// Misses returns the estimated number of misses the core would incur
// with w ways allocated: accesses - hits(w). With w = 0 every access
// misses.
func (m *Monitor) Misses(w int) uint64 {
	return m.Accesses() - m.HitsUpTo(w)
}

// MissCurve returns the full miss curve: element w is Misses(w), for
// w in [0, ways].
func (m *Monitor) MissCurve() []uint64 {
	curve := make([]uint64, m.cfg.Ways+1)
	for w := 0; w <= m.cfg.Ways; w++ {
		curve[w] = m.Misses(w)
	}
	return curve
}

// Decay halves all counters. UCP applies this after each partitioning
// decision so that utility information ages exponentially rather than
// being dominated by stale phases.
func (m *Monitor) Decay() {
	for i := range m.hits {
		m.hits[i] /= 2
	}
	m.accesses /= 2
}

// Reset zeroes counters and invalidates the ATD.
func (m *Monitor) Reset() {
	for i := range m.valid {
		m.valid[i] = 0
	}
	for i := range m.hits {
		m.hits[i] = 0
	}
	m.accesses = 0
}
