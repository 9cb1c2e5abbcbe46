package energy

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDynamicScalesWithTagsConsulted(t *testing.T) {
	p := DefaultParams()
	m8 := NewMeter(8)
	m8.OnAccess(AccessEvent{TagsConsulted: 8, DataRead: true})
	e8 := m8.Dynamic()

	m2 := NewMeter(8)
	m2.OnAccess(AccessEvent{TagsConsulted: 2, DataRead: true})
	e2 := m2.Dynamic()

	if e2 >= e8 {
		t.Fatalf("2-way probe (%v) should cost less than 8-way probe (%v)", e2, e8)
	}
	if got, want := e8-e2, 6*p.TagReadPerWay; math.Abs(got-want) > 1e-9 {
		t.Fatalf("tag delta = %v, want %v", got, want)
	}
}

func TestStaticScalesWithPoweredWays(t *testing.T) {
	p := DefaultParams()
	full := NewMeter(8)
	full.Advance(1000)

	half := NewMeter(8)
	half.SetPoweredEquiv(0, 4)
	half.Advance(1000)

	if half.Static() >= full.Static() {
		t.Fatalf("half powered (%v) should leak less than full (%v)", half.Static(), full.Static())
	}
	// 4 on + 4 gated at 3%: ratio = (4 + 4*0.03)/8.
	wantRatio := (4 + 4*p.GatedLeakRatio) / 8
	if got := half.Static() / full.Static(); math.Abs(got-wantRatio) > 1e-9 {
		t.Fatalf("leak ratio = %v, want %v", got, wantRatio)
	}
}

func TestAdvanceIsIdempotentBackwards(t *testing.T) {
	m := NewMeter(4)
	m.Advance(100)
	s := m.Static()
	m.Advance(50) // time never runs backwards; no double counting
	if m.Static() != s {
		t.Fatal("Advance with earlier time changed static energy")
	}
}

func TestSetPoweredWaysAccountsUpToChange(t *testing.T) {
	p := DefaultParams()
	m := NewMeter(8)
	m.SetPoweredEquiv(500, 2) // first 500 cycles at 8 ways
	m.Advance(1000)           // next 500 at 2 on + 6 gated
	want := 500*p.LeakPerWayCyc*8 + 500*p.LeakPerWayCyc*(2+6*p.GatedLeakRatio)
	if math.Abs(m.Static()-want) > 1e-9 {
		t.Fatalf("static = %v, want %v", m.Static(), want)
	}
}

func TestSetPoweredWaysClamps(t *testing.T) {
	m := NewMeter(8)
	m.SetPoweredEquiv(0, -3)
	if m.powered != 0 {
		t.Fatalf("powered = %v, want clamp to 0", m.powered)
	}
	m.SetPoweredEquiv(0, 99)
	if m.powered != 8 {
		t.Fatalf("powered = %v, want clamp to 8", m.powered)
	}
}

func TestOverheadCharges(t *testing.T) {
	p := DefaultParams()
	m := NewMeter(8)
	m.OnAccess(AccessEvent{TagsConsulted: 1, PermCheck: true, UMONSampled: true, TakeoverOps: 2})
	want := p.TagReadPerWay + p.PermRegCheck + p.UMONAccess + 2*p.TakeoverBitOp
	if math.Abs(m.Dynamic()-want) > 1e-12 {
		t.Fatalf("dynamic = %v, want %v", m.Dynamic(), want)
	}
	m.OnWriteback()
	m.OnRepartition()
	want += p.DataRead + p.RepartitionCost
	if math.Abs(m.Dynamic()-want) > 1e-12 {
		t.Fatalf("after overheads dynamic = %v, want %v", m.Dynamic(), want)
	}
}

func TestNewMeterPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewMeter with 0 ways did not panic")
		}
	}()
	NewMeter(0)
}

// Property: energies are non-negative and monotone over any event
// sequence.
func TestPropertyMonotoneAccumulation(t *testing.T) {
	f := func(tags []uint8) bool {
		m := NewMeter(16)
		now := int64(0)
		prevDyn, prevStat := 0.0, 0.0
		for _, tg := range tags {
			m.OnAccess(AccessEvent{TagsConsulted: int(tg % 17), DataRead: tg%2 == 0})
			now += int64(tg)
			m.Advance(now)
			if m.Dynamic() < prevDyn || m.Static() < prevStat {
				return false
			}
			prevDyn, prevStat = m.Dynamic(), m.Static()
		}
		return prevDyn >= 0 && prevStat >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
