package energy

// Static-energy accounting under fractional powered-way equivalents —
// the regime the set-partitioned (CPE) scheme and the drowsy extension
// operate in, where the powered state is rarely a whole way count.

import (
	"math"
	"testing"
)

// segment is one constant-power stretch of a run.
type segment struct {
	until   int64   // advance to this cycle...
	powered float64 // ...then switch to this powered equivalent
}

// expectedStatic integrates leakage over the segments exactly as the
// meter should: powered ways leak fully, gated capacity at the gated
// ratio.
func expectedStatic(p Params, ways int, from int64, powered float64, segs []segment) float64 {
	var static float64
	last := from
	for _, s := range segs {
		dt := float64(s.until - last)
		off := float64(ways) - powered
		static += dt * p.LeakPerWayCyc * (powered + off*p.GatedLeakRatio)
		last = s.until
		powered = s.powered
	}
	return static
}

func TestStaticUnderFractionalPoweredSequence(t *testing.T) {
	p := DefaultParams()
	const ways = 8
	m := NewMeter(p, ways)
	segs := []segment{
		{until: 1000, powered: 5.5},  // CPE: 5 ways + half a way's sets
		{until: 2500, powered: 2.25}, // deep gating
		{until: 2500, powered: 6},    // zero-length segment: no charge
		{until: 4000, powered: 8},    // all back on
		{until: 7000, powered: 0.75}, // nearly everything gated
		{until: 9000, powered: 0.75},
	}
	for _, s := range segs {
		m.SetPoweredEquiv(s.until, s.powered)
	}
	want := expectedStatic(p, ways, 0, float64(ways), segs)
	if math.Abs(m.Static()-want) > 1e-9 {
		t.Fatalf("static = %v, want %v", m.Static(), want)
	}
	if m.PoweredEquiv() != 0.75 {
		t.Fatalf("powered equiv = %v, want 0.75", m.PoweredEquiv())
	}
}

func TestStaticFractionBetweenFullAndGated(t *testing.T) {
	// For any fraction f in [0, ways], the leakage rate must sit
	// between the all-gated floor and the all-on ceiling, and be
	// monotone in f.
	p := DefaultParams()
	const ways, dt = 16, 10000
	var prev float64
	for i, f := range []float64{0, 0.5, 3.25, 8, 12.75, 16} {
		m := NewMeter(p, ways)
		m.SetPoweredEquiv(0, f)
		m.Advance(dt)
		got := m.Static()
		floor := dt * p.LeakPerWayCyc * float64(ways) * p.GatedLeakRatio
		ceil := dt * p.LeakPerWayCyc * float64(ways)
		if got < floor-1e-9 || got > ceil+1e-9 {
			t.Fatalf("f=%v: static %v outside [%v, %v]", f, got, floor, ceil)
		}
		if i > 0 && got <= prev {
			t.Fatalf("f=%v: static %v not above previous fraction's %v", f, got, prev)
		}
		prev = got
	}
}

func TestResetAtPreservesFractionalPowered(t *testing.T) {
	// Warm-up reset: accumulators clear, but the powered fraction and
	// the accounting clock carry over, so the measured region charges
	// exactly from the reset point at the preserved fraction.
	p := DefaultParams()
	const ways = 8
	m := NewMeter(p, ways)
	m.SetPoweredEquiv(500, 3.5)
	m.Advance(2000)
	m.ResetAt(2000)
	if m.Static() != 0 || m.Dynamic() != 0 {
		t.Fatalf("ResetAt left static %v dynamic %v", m.Static(), m.Dynamic())
	}
	if m.PoweredEquiv() != 3.5 {
		t.Fatalf("ResetAt changed powered equiv to %v", m.PoweredEquiv())
	}
	m.Advance(3000)
	want := 1000 * p.LeakPerWayCyc * (3.5 + 4.5*p.GatedLeakRatio)
	if math.Abs(m.Static()-want) > 1e-9 {
		t.Fatalf("post-reset static = %v, want %v", m.Static(), want)
	}
}

func TestFractionalTotalCombinesBothComponents(t *testing.T) {
	p := DefaultParams()
	m := NewMeter(p, 4)
	m.SetPoweredEquiv(0, 1.5)
	m.OnAccess(AccessEvent{TagsConsulted: 2, DataRead: true})
	m.Advance(100)
	if m.Dynamic() == 0 || m.Static() == 0 {
		t.Fatalf("components: dynamic %v static %v, want both positive", m.Dynamic(), m.Static())
	}
}
