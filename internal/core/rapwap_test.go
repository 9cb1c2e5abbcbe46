package core

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPermRegsBasicModes(t *testing.T) {
	p := NewPermRegs(8, 2)
	// Full access.
	p.SetRead(0, 0, true)
	p.SetWrite(0, 0, true)
	if !p.CanRead(0, 0) || !p.CanWrite(0, 0) {
		t.Fatal("full access not granted")
	}
	// Read-only.
	p.SetRead(1, 1, true)
	if !p.CanRead(1, 1) || p.CanWrite(1, 1) {
		t.Fatal("read-only mode broken")
	}
	// No access.
	if p.CanRead(2, 0) || p.CanWrite(2, 0) {
		t.Fatal("permissions granted without being set")
	}
}

func TestPermRegsMasks(t *testing.T) {
	p := NewPermRegs(8, 2)
	p.SetRead(0, 0, true)
	p.SetRead(3, 0, true)
	p.SetWrite(3, 0, true)
	if got := p.ReadMask(0); got != 0b1001 {
		t.Fatalf("ReadMask = %b, want 1001", got)
	}
	if got := p.WriteMask(0); got != 0b1000 {
		t.Fatalf("WriteMask = %b, want 1000", got)
	}
	p.SetRead(0, 0, false)
	if got := p.ReadMask(0); got != 0b1000 {
		t.Fatalf("ReadMask after clear = %b, want 1000", got)
	}
}

func TestPermRegsWriterAndReaders(t *testing.T) {
	p := NewPermRegs(4, 4)
	if p.Writer(0) != -1 {
		t.Fatal("empty way should have no writer")
	}
	p.SetRead(0, 2, true)
	p.SetWrite(0, 2, true)
	if p.Writer(0) != 2 {
		t.Fatalf("Writer = %d, want 2", p.Writer(0))
	}
	p.SetRead(0, 1, true)
	if p.Readers(0) != 2 {
		t.Fatalf("Readers = %d, want 2", p.Readers(0))
	}
}

func TestPermRegsIsOffAndPowered(t *testing.T) {
	p := NewPermRegs(4, 2)
	if p.PoweredWays() != 0 {
		t.Fatal("all-clear file should have zero powered ways")
	}
	p.SetRead(1, 0, true)
	if p.IsOff(1) || p.PoweredWays() != 1 {
		t.Fatal("way with a reader must be powered")
	}
}

func TestPermRegsInvariantsDetectViolations(t *testing.T) {
	// Write without read.
	p := NewPermRegs(4, 2)
	p.SetWrite(0, 0, true)
	if p.Invariants() == nil {
		t.Fatal("write-without-read not detected")
	}
	// Two writers.
	p = NewPermRegs(4, 2)
	for c := 0; c < 2; c++ {
		p.SetRead(0, c, true)
		p.SetWrite(0, c, true)
	}
	if p.Invariants() == nil {
		t.Fatal("double writer not detected")
	}
	// Two readers without writer.
	p = NewPermRegs(4, 3)
	p.SetRead(0, 0, true)
	p.SetRead(0, 1, true)
	if p.Invariants() == nil {
		t.Fatal("transition without writer not detected")
	}
	// A legal transition state passes.
	p = NewPermRegs(4, 2)
	p.SetRead(0, 0, true) // donor, read-only
	p.SetRead(0, 1, true)
	p.SetWrite(0, 1, true) // recipient, full
	if err := p.Invariants(); err != nil {
		t.Fatalf("legal transition flagged: %v", err)
	}
}

func TestPermRegsPanicsOnBadGeometry(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on 0 ways")
		}
	}()
	NewPermRegs(0, 2)
}

// Property: masks remain consistent with registers under random ops
// that respect the legal state machine.
func TestPropertyPermRegsMaskConsistency(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := NewPermRegs(8, 4)
		for i := 0; i < 200; i++ {
			w, c := rng.Intn(8), rng.Intn(4)
			switch rng.Intn(4) {
			case 0:
				p.SetRead(w, c, true)
			case 1:
				p.SetRead(w, c, false)
				p.SetWrite(w, c, false)
			case 2:
				p.SetRead(w, c, true)
				p.SetWrite(w, c, true)
			case 3:
				p.SetWrite(w, c, false)
			}
		}
		// Only check mask/register consistency (the random walk may
		// violate the transition-shape invariants deliberately).
		for c := 0; c < 4; c++ {
			var rm, wm uint64
			for w := 0; w < 8; w++ {
				if p.CanRead(w, c) {
					rm |= 1 << uint(w)
				}
				if p.CanWrite(w, c) {
					wm |= 1 << uint(w)
				}
			}
			if rm != p.ReadMask(c) || wm != p.WriteMask(c) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// poweredScan counts powered ways the way PoweredWays did before it
// kept a mask: one IsOff test per way.
func poweredScan(p *PermRegs) int {
	n := 0
	for w := 0; w < p.Ways(); w++ {
		if !p.IsOff(w) {
			n++
		}
	}
	return n
}

// TestPermRegsPoweredMask pins the cached powered-way mask: SetRead and
// SetWrite keep PoweredWays equal to a scan of the registers, Invariants
// rejects a stale mask, and restore rebuilds it from the registers.
func TestPermRegsPoweredMask(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	p := NewPermRegs(64, 4)
	for i := 0; i < 2000; i++ {
		w, c, v := rng.Intn(64), rng.Intn(4), rng.Intn(2) == 0
		if rng.Intn(2) == 0 {
			p.SetRead(w, c, v)
		} else {
			p.SetWrite(w, c, v)
		}
		if got, want := p.PoweredWays(), poweredScan(p); got != want {
			t.Fatalf("op %d: PoweredWays = %d, registers power %d ways", i, got, want)
		}
	}

	// A legal file: way 0 owned, way 1 in transition, way 2 draining,
	// way 63 owned, the rest off.
	legal := NewPermRegs(64, 4)
	for _, g := range []struct {
		way, core int
		write     bool
	}{{0, 0, true}, {1, 1, false}, {1, 2, true}, {2, 3, false}, {63, 2, true}} {
		legal.SetRead(g.way, g.core, true)
		legal.SetWrite(g.way, g.core, g.write)
	}
	if err := legal.Invariants(); err != nil || legal.PoweredWays() != 4 {
		t.Fatalf("legal file: %v, %d powered ways, want 4", err, legal.PoweredWays())
	}
	legal.powered ^= 1 << 5
	if legal.Invariants() == nil {
		t.Fatal("Invariants accepted a powered mask that marks an off way on")
	}
	legal.powered ^= 1<<5 | 1<<63
	if legal.Invariants() == nil {
		t.Fatal("Invariants accepted a powered mask that misses a powered way")
	}

	fresh := NewPermRegs(64, 4)
	fresh.powered = ^uint64(0) // stale: restore must not keep it
	if err := fresh.restore(&permState{RAP: legal.rap, WAP: legal.wap}); err != nil {
		t.Fatal(err)
	}
	if fresh.powered != 1<<0|1<<1|1<<2|1<<63 || fresh.PoweredWays() != 4 {
		t.Fatalf("restore rebuilt powered mask %b, want ways 0, 1, 2 and 63", fresh.powered)
	}
}

func TestBitVec(t *testing.T) {
	v := NewBitVec(100)
	if v.Len() != 100 || v.Count() != 0 || v.Full() {
		t.Fatal("fresh vector state wrong")
	}
	if !v.Set(5) {
		t.Fatal("first Set(5) should report newly set")
	}
	if v.Set(5) {
		t.Fatal("second Set(5) should report already set")
	}
	if !v.Get(5) || v.Get(6) {
		t.Fatal("Get disagrees with Set")
	}
	for i := 0; i < 100; i++ {
		v.Set(i)
	}
	if !v.Full() || v.Count() != 100 {
		t.Fatalf("vector should be full: count=%d", v.Count())
	}
	v.Reset()
	if v.Count() != 0 || v.Get(5) {
		t.Fatal("Reset did not clear")
	}
}

func TestBitVecWordBoundary(t *testing.T) {
	v := NewBitVec(64)
	v.Set(63)
	if !v.Get(63) {
		t.Fatal("bit 63 lost")
	}
	v2 := NewBitVec(65)
	v2.Set(64)
	if !v2.Get(64) || v2.Get(0) {
		t.Fatal("bit 64 handling wrong")
	}
}

func TestOverheadTable1(t *testing.T) {
	pub2, comp2 := PaperTable1(2, 8, 4096)
	// Published two-core numbers: 4096 + 16 + 16 = 4128 bits.
	if pub2.TakeoverBits() != 4096 || pub2.RAPBits() != 16 || pub2.WAPBits() != 16 {
		t.Fatalf("two-core published rows = %d/%d/%d", pub2.TakeoverBits(), pub2.RAPBits(), pub2.WAPBits())
	}
	if pub2.TotalBits() != 4128 {
		t.Fatalf("two-core total = %d, want 4128", pub2.TotalBits())
	}
	if comp2.TakeoverBits() != 8192 {
		t.Fatalf("two-core computed takeover bits = %d, want 8192 (4096 sets * 2)", comp2.TakeoverBits())
	}

	pub4, _ := PaperTable1(4, 16, 4096)
	// Published four-core numbers: 8192 + 64 + 64 = 8320 bits.
	if pub4.TotalBits() != 8320 {
		t.Fatalf("four-core total = %d, want 8320", pub4.TotalBits())
	}
}
