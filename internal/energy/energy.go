// Package energy provides the analytic LLC energy model standing in for
// CACTI 5.1 at 45nm (Section 3.1 of the paper).
//
// The paper reports all energy normalised to the Fair Share scheme, so
// what matters is how energy scales with behaviour, not the absolute
// joules: dynamic energy scales with the number of tag ways consulted
// per access (LLC accesses are serial — tags first, then at most one
// data way), and static energy scales with how many ways are powered
// and for how long. The per-event constants below are in arbitrary
// units with CACTI-like ratios for a 2MB/8-way 45nm SRAM; every ratio
// that the experiments depend on (tag vs data access, leakage per way,
// monitoring overhead) is explicit and configurable.
package energy

import "fmt"

// Params holds the per-event energy constants, in arbitrary units
// (1 unit ~ 1 pJ at 45nm for the default values).
type Params struct {
	TagReadPerWay  float64 // energy to read one way's tag
	DataRead       float64 // energy to read one data way (on hit / fill)
	DataWrite      float64 // energy to write one data way
	LeakPerWayCyc  float64 // static leakage of one powered way per cycle
	GatedLeakRatio float64 // residual leakage of a gated way (gated-Vdd)

	// Overheads of the partitioning machinery, charged per event as the
	// paper requires ("all power overheads are included").
	UMONAccess      float64 // ATD lookup + counter update, per sampled access
	PermRegCheck    float64 // RAP/WAP register consult, per access
	TakeoverBitOp   float64 // takeover bit read/set, per access in transition
	RepartitionCost float64 // running the lookahead + register writes, per decision
}

// DefaultParams returns CACTI-flavoured constants for a 64B-line SRAM
// bank at 45nm. Ratios, not absolutes, matter: a data-array access is
// roughly 8x a single tag-way probe, and a full way leaks the
// equivalent of ~0.02 tag probes per cycle.
func DefaultParams() Params {
	return Params{
		TagReadPerWay:   1.0,
		DataRead:        8.0,
		DataWrite:       9.0,
		LeakPerWayCyc:   0.02,
		GatedLeakRatio:  0.03, // gated-Vdd cuts ~97% of leakage
		UMONAccess:      0.2,
		PermRegCheck:    0.01,
		TakeoverBitOp:   0.02,
		RepartitionCost: 50.0,
	}
}

// Validate reports parameter errors.
func (p Params) Validate() error {
	if p.TagReadPerWay <= 0 || p.DataRead <= 0 || p.LeakPerWayCyc < 0 {
		return fmt.Errorf("energy: non-positive core parameters %+v", p)
	}
	if p.GatedLeakRatio < 0 || p.GatedLeakRatio > 1 {
		return fmt.Errorf("energy: gated leak ratio %v outside [0,1]", p.GatedLeakRatio)
	}
	return nil
}

// Meter accumulates dynamic and static energy for one LLC over a run.
type Meter struct {
	p         Params
	ways      int
	dynamic   float64
	static_   float64
	lastCycle int64
	powered   float64 // currently powered way-equivalents
}

// NewMeter creates a meter for a cache with the given total ways, all
// initially powered. It panics on invalid parameters (experiment
// constants, not user input).
func NewMeter(p Params, ways int) *Meter {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	if ways <= 0 {
		panic(fmt.Sprintf("energy: ways = %d", ways))
	}
	return &Meter{p: p, ways: ways, powered: float64(ways)}
}

// Params returns the meter's constants.
func (m *Meter) Params() Params { return m.p }

// AccessEvent describes one LLC access for energy accounting.
type AccessEvent struct {
	TagsConsulted int  // tag ways probed (serial access: tags first)
	DataRead      bool // a data way was read (hit, or fill return)
	DataWrite     bool // a data way was written (store hit or fill)
	PermCheck     bool // RAP/WAP registers consulted (CP only)
	UMONSampled   bool // access fell in a UMON-sampled set
	TakeoverOps   int  // takeover bit vector reads/writes performed
}

// OnAccess charges the dynamic energy of one access.
func (m *Meter) OnAccess(ev AccessEvent) {
	e := float64(ev.TagsConsulted) * m.p.TagReadPerWay
	if ev.DataRead {
		e += m.p.DataRead
	}
	if ev.DataWrite {
		e += m.p.DataWrite
	}
	if ev.PermCheck {
		e += m.p.PermRegCheck
	}
	if ev.UMONSampled {
		e += m.p.UMONAccess
	}
	e += float64(ev.TakeoverOps) * m.p.TakeoverBitOp
	m.dynamic += e
}

// OnWriteback charges the energy of reading a dirty block out of the
// data array for a writeback or flush.
func (m *Meter) OnWriteback() { m.dynamic += m.p.DataRead }

// OnRepartition charges one partitioning decision (lookahead run plus
// permission-register updates).
func (m *Meter) OnRepartition() { m.dynamic += m.p.RepartitionCost }

// Advance accounts static leakage from the last accounted cycle up to
// now, with the current powered-way count.
func (m *Meter) Advance(now int64) {
	if now <= m.lastCycle {
		return
	}
	dt := float64(now - m.lastCycle)
	on := m.powered
	off := float64(m.ways) - m.powered
	m.static_ += dt * m.p.LeakPerWayCyc * (on + off*m.p.GatedLeakRatio)
	m.lastCycle = now
}

// SetPoweredEquiv records a change in how many way-equivalents are
// powered, accounting leakage up to the change point first. The count
// is fractional for set-partitioned schemes (CPE gates unused set
// regions of a way, leaving a fraction of it powered).
func (m *Meter) SetPoweredEquiv(now int64, powered float64) {
	if powered < 0 {
		powered = 0
	}
	if powered > float64(m.ways) {
		powered = float64(m.ways)
	}
	m.Advance(now)
	m.powered = powered
}

// PoweredEquiv returns the current powered way-equivalents.
func (m *Meter) PoweredEquiv() float64 { return m.powered }

// Dynamic returns accumulated dynamic energy.
func (m *Meter) Dynamic() float64 { return m.dynamic }

// Static returns accumulated static energy (leakage).
func (m *Meter) Static() float64 { return m.static_ }

// ResetAt zeroes the accumulators and restarts leakage accounting at
// now, preserving the current powered-way state (end of warm-up).
func (m *Meter) ResetAt(now int64) {
	m.dynamic, m.static_ = 0, 0
	m.lastCycle = now
}
