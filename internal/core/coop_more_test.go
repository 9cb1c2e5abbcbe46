package core

import (
	"math/rand"
	"testing"

	"repro/internal/cache"
	"repro/internal/mem"
	"repro/internal/partition"
)

// fourCoreScheme builds a 4-core, 8-way, 16-set CoopPart.
func fourCoreScheme(threshold float64) *CoopPart {
	return New(partition.Config{
		Cache:          cache.Config{Name: "l2", SizeBytes: 16 * 8 * 64, LineBytes: 64, Ways: 8, Latency: 20},
		NumCores:       4,
		DRAM:           mem.New(mem.DefaultConfig()),
		Threshold:      threshold,
		TimelineBucket: 100,
	}, VariantNone)
}

func TestFourCoreInitialPartition(t *testing.T) {
	c := fourCoreScheme(0.05)
	alloc := c.Allocations()
	for i, a := range alloc {
		if a != 2 {
			t.Fatalf("core %d initial allocation = %d, want 2", i, a)
		}
	}
	if err := c.Perms().Invariants(); err != nil {
		t.Fatal(err)
	}
	// All masks disjoint.
	var union uint64
	for i := 0; i < 4; i++ {
		m := c.Perms().ReadMask(i)
		if union&m != 0 {
			t.Fatalf("core %d mask overlaps", i)
		}
		union |= m
	}
	if union != 0xff {
		t.Fatalf("union of masks = %b, want all 8 ways", union)
	}
}

func TestSimultaneousDonors(t *testing.T) {
	c := fourCoreScheme(0.05)
	l2 := c.Cache()
	// Core 0 donates way 0 to core 2; core 1 donates way 2 to core 3.
	c.BeginTransfer(0, 0, 2, 10)
	c.BeginTransfer(2, 1, 3, 10)
	if err := c.Perms().Invariants(); err != nil {
		t.Fatal(err)
	}
	// Drive everyone over all sets; both transitions must complete.
	for set := 0; set < l2.NumSets(); set++ {
		for coreID := 0; coreID < 4; coreID++ {
			c.Access(coreID, addrFor(c, coreID, set, 5), false, int64(100+set))
		}
	}
	if inTransition(c) {
		t.Fatal("transitions did not complete")
	}
	if c.OwnerOf(0) != 2 || c.OwnerOf(2) != 3 {
		t.Fatalf("owners = %d,%d want 2,3", c.OwnerOf(0), c.OwnerOf(2))
	}
	if got := c.Transitions().Completed; got != 2 {
		t.Fatalf("completed transitions = %d, want 2", got)
	}
}

func TestMultiWayDonationSharesBitVector(t *testing.T) {
	c := fourCoreScheme(0.05)
	l2 := c.Cache()
	// Core 0 donates both its ways (0 and 1) to two different cores in
	// one transition period: one bit vector covers both (Section 2.3).
	c.BeginTransfer(0, 0, 2, 0)
	c.BeginTransfer(1, 0, 3, 0)
	for set := 0; set < l2.NumSets(); set++ {
		c.Access(0, addrFor(c, 0, set, 1), false, int64(10+set))
	}
	if inTransition(c) {
		t.Fatal("joint transition incomplete")
	}
	tr := c.Transitions()
	if tr.Completed != 1 || tr.WaysMoved != 2 {
		t.Fatalf("stats = completed %d, ways %d; want 1 transition moving 2 ways",
			tr.Completed, tr.WaysMoved)
	}
}

func TestBeginTransferPanicsOnForeignWay(t *testing.T) {
	c := fourCoreScheme(0.05)
	defer func() {
		if recover() == nil {
			t.Fatal("BeginTransfer on a way the donor does not own must panic")
		}
	}()
	c.BeginTransfer(0, 1, 2, 0) // way 0 belongs to core 0, not core 1
}

func TestTurnOnWayIsImmediate(t *testing.T) {
	c := testScheme(0.2)
	l2 := c.Cache()
	// Turn way 1 off first.
	c.perms.SetWrite(1, 0, false)
	c.startDonation(0, transfer{way: 1, recipient: -1}, 0)
	for set := 0; set < l2.NumSets(); set++ {
		c.Access(0, addrFor(c, 0, set, 2), false, int64(10+set))
	}
	if !c.Perms().IsOff(1) {
		t.Fatal("way 1 not off")
	}
	// Now a decision that grants core 1 extra utility would turn it on;
	// emulate the turn-on leg of Algorithm 2 directly.
	w := c.pickOffWay()
	if w != 1 {
		t.Fatalf("pickOffWay = %d, want 1", w)
	}
	c.perms.SetRead(w, 1, true)
	c.perms.SetWrite(w, 1, true)
	c.owner[w] = 1
	if c.PoweredWayEquiv() != 4 {
		t.Fatalf("powered = %v after turn-on, want 4", c.PoweredWayEquiv())
	}
	if err := c.Perms().Invariants(); err != nil {
		t.Fatal(err)
	}
	// The re-powered way is empty (gated-Vdd lost its contents).
	for set := 0; set < l2.NumSets(); set++ {
		if l2.Block(set, w).Valid {
			t.Fatal("turned-on way still holds stale data")
		}
	}
}

func TestRecipientMissOnlyAblationSlower(t *testing.T) {
	run := func(v Variant) int64 {
		c := New(partition.Config{
			Cache:     cache.Config{Name: "l2", SizeBytes: 16 * 4 * 64, LineBytes: 64, Ways: 4, Latency: 15},
			NumCores:  2,
			DRAM:      mem.New(mem.DefaultConfig()),
			Threshold: 0.05,
		}, v)
		l2 := c.Cache()
		// Preload both cores' ways so a good share of accesses hit: in
		// the ablated mode only recipient *misses* advance the takeover,
		// so hits must exist for the modes to differ.
		for set := 0; set < l2.NumSets(); set++ {
			for _, p := range []struct{ way, coreID, tag int }{
				{0, 0, 0}, {1, 0, 1}, {3, 1, 0},
			} {
				line := l2.Line(addrFor(c, p.coreID, set, p.tag))
				l2.InstallAt(set, p.way, l2.TagOf(line), p.coreID, false)
			}
		}
		c.BeginTransfer(2, 1, 0, 0) // way 2: donor core 1, recipient core 0
		rng := rand.New(rand.NewSource(5))
		now := int64(0)
		for inTransition(c) && now < 1_000_000 {
			now += 3
			coreID := rng.Intn(2)
			c.Access(coreID, addrFor(c, coreID, rng.Intn(16), rng.Intn(4)), false, now)
		}
		return now
	}
	full := run(VariantNone)
	missOnly := run(VariantRecipientMissOnly)
	if missOnly <= full {
		t.Fatalf("recipient-miss-only takeover (%d cycles) should be slower than full (%d)",
			missOnly, full)
	}
}

func TestDisableGatingKeepsWaysPowered(t *testing.T) {
	c := New(partition.Config{
		Cache:     cache.Config{Name: "l2", SizeBytes: 16 * 4 * 64, LineBytes: 64, Ways: 4, Latency: 15},
		NumCores:  2,
		DRAM:      mem.New(mem.DefaultConfig()),
		Threshold: 0.2,
	}, VariantNoGating)
	l2 := c.Cache()
	// Force a turn-off transition to completion.
	c.perms.SetWrite(1, 0, false)
	c.startDonation(0, transfer{way: 1, recipient: -1}, 0)
	for set := 0; set < l2.NumSets(); set++ {
		c.Access(0, addrFor(c, 0, set, 2), false, int64(10+set))
	}
	if !c.Perms().IsOff(1) {
		t.Fatal("way should still be logically unallocated")
	}
	if c.PoweredWayEquiv() != 4 {
		t.Fatalf("powered = %v with gating disabled, want all 4", c.PoweredWayEquiv())
	}
}

func TestStoreMissInstallsIntoOwnWays(t *testing.T) {
	c := testScheme(0.05)
	l2 := c.Cache()
	res := c.Access(1, addrFor(c, 1, 9, 4), true, 0)
	if res.Hit {
		t.Fatal("first store cannot hit")
	}
	line := l2.Line(addrFor(c, 1, 9, 4))
	way, hit := l2.Probe(9, l2.TagOf(line), c.Perms().WriteMask(1))
	if !hit {
		t.Fatal("store fill not found in core 1's ways")
	}
	if !l2.Block(9, way).Dirty {
		t.Fatal("store fill must be dirty")
	}
}

func TestTakeoverOpsReportedDuringTransition(t *testing.T) {
	c := testScheme(0.05)
	c.BeginTransfer(2, 1, 0, 0)
	res := c.Access(0, addrFor(c, 0, 3, 1), false, 10)
	if res.TakeoverOps == 0 {
		t.Fatal("recipient access during transition must report takeover ops")
	}
	res = c.Access(1, addrFor(c, 1, 3, 1), false, 20)
	if res.TakeoverOps == 0 {
		t.Fatal("donor access during transition must report takeover ops")
	}
	// A core not involved pays nothing.
	c2 := fourCoreScheme(0.05)
	c2.BeginTransfer(0, 0, 1, 0)
	if res := c2.Access(3, addrFor(c2, 3, 0, 1), false, 10); res.TakeoverOps != 0 {
		t.Fatal("uninvolved core charged takeover ops")
	}
}

func TestDirtyDataNeverLostAcrossPowerOff(t *testing.T) {
	c := testScheme(0.05)
	l2 := c.Cache()
	dram := c.Cfg().DRAM
	// Dirty lines in the way being turned off.
	for set := 0; set < l2.NumSets(); set++ {
		l2.InstallAt(set, 1, uint64(0x600+set), 0, true)
	}
	writesBefore := dram.Stats().Writes
	c.perms.SetWrite(1, 0, false)
	c.startDonation(0, transfer{way: 1, recipient: -1}, 0)
	for set := 0; set < l2.NumSets(); set++ {
		c.Access(0, addrFor(c, 0, set, 3), false, int64(10+set))
	}
	if !c.Perms().IsOff(1) {
		t.Fatal("way not powered off")
	}
	// Every dirty line must have reached memory exactly once, possibly
	// plus victim writebacks from the concurrent accesses.
	if got := dram.Stats().Writes - writesBefore; got < uint64(l2.NumSets()) {
		t.Fatalf("memory writes = %d, want >= %d (one per dirty line)", got, l2.NumSets())
	}
}

func TestAllocationsNeverExceedWays(t *testing.T) {
	c := fourCoreScheme(0)
	rng := rand.New(rand.NewSource(11))
	now := int64(0)
	for i := 0; i < 20000; i++ {
		now += int64(rng.Intn(4))
		coreID := rng.Intn(4)
		c.Access(coreID, addrFor(c, coreID, rng.Intn(16), rng.Intn(6)), rng.Intn(4) == 0, now)
		if i%2500 == 2499 {
			c.Decide(now)
			total := 0
			for _, a := range c.Allocations() {
				total += a
			}
			if total > 8 {
				t.Fatalf("allocations %v exceed 8 ways", c.Allocations())
			}
		}
	}
}
