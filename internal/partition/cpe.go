package partition

import (
	"math/bits"

	"repro/internal/umon"
)

// CPE is the paper's energy-oriented comparison scheme (Section 3.4):
// Reddy & Petrov's cache partitioning for energy efficiency, extended —
// as the paper does — to a dynamic setting. Partitions are configurable
// in both sets and ways, computed offline from per-application profiles
// and applied at runtime phase boundaries. Every reconfiguration
// immediately flushes the blocks whose region changed, which is the
// flushing cost the paper's evaluation highlights: with frequent phase
// changes Dynamic CPE pays heavily, and the cost grows with core count.
//
// Each core is confined to a private region: a contiguous range of ways
// and a power-of-two fraction of the sets (addresses fold into the
// region, trading conflict misses for the ability to gate the unused
// sets). Accesses probe only the core's own ways, so CPE saves dynamic
// energy like Cooperative Partitioning does, and unassigned
// ways/set-fractions are power-gated for static savings.
type CPE struct {
	Controller
	profiles []CoreProfile
	hooks    accessHooks

	phase    int
	wayMask  []uint64 // per-core ways
	setShift []int    // per-core: core sets = numSets >> shift
}

// CoreProfile is one application's offline profile: its utility curve
// and access intensity for each phase interval, recorded from a solo
// profiling run (cycled if the run outlives the profile).
type CoreProfile struct {
	Phases []ProfilePhase
}

// ProfilePhase is the profile of one phase interval.
type ProfilePhase struct {
	Curve    umon.Curve
	Accesses uint64
}

// phaseAt returns the profile entry for phase i, cycling.
func (p CoreProfile) phaseAt(i int) ProfilePhase {
	if len(p.Phases) == 0 {
		return ProfilePhase{}
	}
	return p.Phases[i%len(p.Phases)]
}

// NewCPE builds Dynamic CPE from per-core profiles (profiles[i] belongs
// to core i; missing profiles are treated as empty and the core gets
// only its guaranteed minimum).
func NewCPE(cfg Config, profiles []CoreProfile) *CPE {
	c := &CPE{Controller: NewController(cfg)}
	c.profiles = make([]CoreProfile, c.n)
	copy(c.profiles, profiles)
	c.wayMask = make([]uint64, c.n)
	c.setShift = make([]int, c.n)
	// Initial layout: equal contiguous shares, full sets.
	start := 0
	for i, share := range c.EqualShares() {
		c.wayMask[i] = maskRange(start, share)
		start += share
	}
	c.hooks = accessHooks{
		mask:   func(core int) uint64 { return c.wayMask[core] },
		mapSet: func(core, set int) int { return set & (c.coreSets(core) - 1) },
	}
	return c
}

// maskRange returns a mask of count ways starting at start.
func maskRange(start, count int) uint64 {
	var m uint64
	for i := 0; i < count; i++ {
		m |= 1 << uint(start+i)
	}
	return m
}

// Name implements Scheme.
func (c *CPE) Name() string { return "DynCPE" }

// coreSets returns the number of sets in core i's region.
func (c *CPE) coreSets(i int) int { return c.l2.NumSets() >> uint(c.setShift[i]) }

// Access implements Scheme.
func (c *CPE) Access(core int, addr uint64, isWrite bool, now int64) Result {
	return c.access(core, addr, isWrite, now, &c.hooks)
}

// Decide implements Scheme: look the next phase up in the profiles,
// recompute the region layout and flush whatever moved.
func (c *CPE) Decide(now int64) {
	c.stats.Decisions++
	defer func() { c.phase++ }()

	curves := make([]umon.Curve, c.n)
	accs := make([]uint64, c.n)
	for i := 0; i < c.n; i++ {
		ph := c.profiles[i].phaseAt(c.phase)
		curves[i] = ph.Curve
		accs[i] = ph.Accesses
		if curves[i] == nil {
			curves[i] = make(umon.Curve, c.l2.Ways()+1)
		}
	}
	alloc := umon.ThresholdLookahead(curves, c.l2.Ways(), c.cfg.MinAllocWays, c.cfg.Threshold)

	// Set-dimension heuristic: an application whose profiled traffic
	// cannot even touch every set once is confined to half the sets.
	// This is CPE's extra flexibility over way-only schemes; it is kept
	// conservative because folding an active application's sets doubles
	// its conflict pressure.
	newShift := make([]int, c.n)
	for i := 0; i < c.n; i++ {
		if accs[i] < uint64(c.l2.NumSets()) {
			newShift[i] = 1
		}
	}

	// Lay ways out contiguously in core order.
	newMask := make([]uint64, c.n)
	start := 0
	for i := 0; i < c.n; i++ {
		newMask[i] = maskRange(start, alloc[i])
		start += alloc[i]
	}

	changed := false
	var flushWays uint64
	for i := 0; i < c.n; i++ {
		if newMask[i] != c.wayMask[i] || newShift[i] != c.setShift[i] {
			changed = true
			// Both the old and new regions of a reconfigured core are
			// invalidated: the fold changes and ownership moves.
			flushWays |= c.wayMask[i] | newMask[i]
		}
	}
	if !changed {
		return
	}
	c.stats.Repartitions++
	c.FlushWays(flushWays, now)
	c.wayMask = newMask
	c.setShift = newShift
}

// PoweredWayEquiv implements Scheme: allocated ways scaled by each
// core's set fraction; everything else is gated.
func (c *CPE) PoweredWayEquiv() float64 {
	var eq float64
	for i := 0; i < c.n; i++ {
		eq += float64(bits.OnesCount64(c.wayMask[i])) / float64(int(1)<<uint(c.setShift[i]))
	}
	return eq
}

// Allocations implements Scheme.
func (c *CPE) Allocations() []int {
	alloc := make([]int, c.n)
	for i := range alloc {
		alloc[i] = bits.OnesCount64(c.wayMask[i])
	}
	return alloc
}
