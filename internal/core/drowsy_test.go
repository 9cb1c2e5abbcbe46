package core

import "testing"

func TestDrowsyDisabledByDefault(t *testing.T) {
	c := testScheme(0.05)
	if c.IsDrowsy(0, 1_000_000) {
		t.Fatal("IsDrowsy must be false when disabled")
	}
	if c.PoweredWayEquiv() != 4 {
		t.Fatal("default powered ways wrong")
	}
	// No wake penalty either: a hit long after the fill costs the
	// plain hit latency.
	addr := addrFor(c, 0, 5, 2)
	c.Access(0, addr, false, 0)
	if res := c.Access(0, addr, false, 1_000_000); !res.Hit || res.Latency != 15 {
		t.Fatalf("idle hit: hit=%v latency=%d, want a hit at 15", res.Hit, res.Latency)
	}
}

func TestDrowsyWaysGoDrowsyWhenIdle(t *testing.T) {
	c := testVariant(0.05, VariantDrowsy)
	// Touch core 0's ways at t=0.
	c.Access(0, addrFor(c, 0, 0, 1), false, 0)
	if c.IsDrowsy(0, drowsyWindow/2) && c.IsDrowsy(1, drowsyWindow/2) {
		t.Fatal("recently-idle ways already drowsy")
	}
	if !c.IsDrowsy(0, drowsyWindow+1) {
		t.Fatal("way 0 should be drowsy after the window")
	}
}

func TestDrowsyWakePenalty(t *testing.T) {
	c := testVariant(0.05, VariantDrowsy)
	addr := addrFor(c, 0, 5, 2)
	c.Access(0, addr, false, 0) // fill (wakes the victim way)
	// Re-access long after the window: hit, but pays the wake penalty.
	late := int64(10 * drowsyWindow)
	res := c.Access(0, addr, false, late)
	if !res.Hit {
		t.Fatal("expected hit")
	}
	if res.Latency != 15+drowsyWakePenalty {
		t.Fatalf("latency = %d, want hit latency 15 + wake %d", res.Latency, drowsyWakePenalty)
	}
	// Immediate re-access: awake, no penalty.
	res = c.Access(0, addr, false, late+10)
	if res.Latency != 15 {
		t.Fatalf("awake hit latency = %d, want 15", res.Latency)
	}
}

func TestDrowsyReducesPoweredEquiv(t *testing.T) {
	c := testVariant(0.05, VariantDrowsy)
	c.Access(0, addrFor(c, 0, 0, 1), false, 0)
	c.Access(1, addrFor(c, 1, 0, 1), false, 0)
	full := c.PoweredWayEquiv()
	// Advance time via another access far in the future: the three
	// untouched ways have gone drowsy.
	c.Access(0, addrFor(c, 0, 1, 1), false, 50_000)
	reduced := c.PoweredWayEquiv()
	if reduced >= full {
		t.Fatalf("powered equiv did not drop: %v -> %v", full, reduced)
	}
	// Lower bound: 1 awake way + 3 drowsy at 0.25 = 1.75.
	if reduced < 1.74 || reduced > 4 {
		t.Fatalf("powered equiv = %v out of range", reduced)
	}
}

func TestDrowsyPreservesContents(t *testing.T) {
	c := testVariant(0.05, VariantDrowsy)
	addr := addrFor(c, 0, 7, 3)
	c.Access(0, addr, true, 0)
	// Long idle: drowsy, but unlike gated-Vdd the data survives.
	res := c.Access(0, addr, false, 1_000_000)
	if !res.Hit {
		t.Fatal("drowsy way lost its contents")
	}
}

func TestDrowsyOffWaysNotDrowsy(t *testing.T) {
	c := testVariant(0.05, VariantDrowsy)
	l2 := c.Cache()
	c.perms.SetWrite(1, 0, false)
	c.startDonation(0, transfer{way: 1, recipient: -1}, 0)
	for set := 0; set < l2.NumSets(); set++ {
		c.Access(0, addrFor(c, 0, set, 2), false, int64(10+set))
	}
	if !c.Perms().IsOff(1) {
		t.Fatal("way 1 should be off")
	}
	if c.IsDrowsy(1, 1_000_000) {
		t.Fatal("a gated way is off, not drowsy")
	}
	// Powered equiv excludes the gated way entirely.
	if eq := c.PoweredWayEquiv(); eq > 3 {
		t.Fatalf("powered equiv = %v, want <= 3 with one way gated", eq)
	}
}

func TestUnknownVariantRejected(t *testing.T) {
	if err := Variant("bogus").Validate(); err == nil {
		t.Fatal("unknown variant validated")
	}
	for _, v := range []Variant{VariantNone, VariantRecipientMissOnly, VariantNoGating, VariantRandomVictim, VariantDrowsy} {
		if err := v.Validate(); err != nil {
			t.Fatalf("%q: %v", v, err)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("New with an unknown variant must panic")
		}
	}()
	testVariant(0.05, Variant("bogus"))
}
