package core

import (
	"math/rand"
	"testing"

	"repro/internal/cache"
	"repro/internal/mem"
	"repro/internal/partition"
)

// testScheme builds a small two-core CoopPart: 4 ways, 16 sets.
func testScheme(threshold float64) *CoopPart { return testVariant(threshold, VariantNone) }

// testVariant is testScheme in variant v.
func testVariant(threshold float64, v Variant) *CoopPart {
	return New(partition.Config{
		Cache:          cache.Config{Name: "l2", SizeBytes: 16 * 4 * 64, LineBytes: 64, Ways: 4, Latency: 15},
		NumCores:       2,
		DRAM:           mem.New(mem.DefaultConfig()),
		Threshold:      threshold,
		TimelineBucket: 100,
	}, v)
}

// addrFor builds a byte address for core that maps to the given set
// with a distinguishing tag.
func addrFor(c *CoopPart, core, set, tag int) uint64 {
	l2 := c.Cache()
	line := c.Cache().LineFrom(set, uint64(tag)|uint64(core+1)<<20)
	_ = l2
	return line * 64
}

func TestInitialFairPartition(t *testing.T) {
	c := testScheme(0.05)
	if got := c.Allocations(); got[0] != 2 || got[1] != 2 {
		t.Fatalf("initial allocation = %v, want [2 2]", got)
	}
	if err := c.Perms().Invariants(); err != nil {
		t.Fatal(err)
	}
	if c.PoweredWayEquiv() != 4 {
		t.Fatalf("powered = %v, want 4", c.PoweredWayEquiv())
	}
	// Each core owns a disjoint pair of ways.
	if c.Perms().ReadMask(0)&c.Perms().ReadMask(1) != 0 {
		t.Fatal("cores share ways at init")
	}
}

func TestAccessConsultsOnlyOwnedWays(t *testing.T) {
	c := testScheme(0.05)
	res := c.Access(0, addrFor(c, 0, 3, 1), false, 0)
	if res.TagsConsulted != 2 {
		t.Fatalf("TagsConsulted = %d, want 2 (owned ways only)", res.TagsConsulted)
	}
	if !res.PermCheck {
		t.Fatal("permission registers not consulted")
	}
	if res.Hit {
		t.Fatal("first access cannot hit")
	}
}

func TestDataStaysWayAligned(t *testing.T) {
	c := testScheme(0.05)
	l2 := c.Cache()
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 5000; i++ {
		core := rng.Intn(2)
		c.Access(core, addrFor(c, core, rng.Intn(16), rng.Intn(8)), rng.Intn(2) == 0, int64(i))
	}
	// Every valid block must sit in a way its owner can write.
	l2.ForEachValid(func(set, way int, b cache.Block) {
		if b.Owner < 0 {
			t.Fatalf("unowned block at set %d way %d", set, way)
		}
		if !c.Perms().CanWrite(way, b.Owner) {
			t.Errorf("core %d block in way %d without write permission", b.Owner, way)
		}
	})
	if err := c.Perms().Invariants(); err != nil {
		t.Fatal(err)
	}
}

func TestHitAfterInstall(t *testing.T) {
	c := testScheme(0.05)
	addr := addrFor(c, 0, 5, 3)
	c.Access(0, addr, false, 0)
	res := c.Access(0, addr, false, 10)
	if !res.Hit {
		t.Fatal("second access should hit")
	}
	if res.Latency != 15 {
		t.Fatalf("hit latency = %d, want 15", res.Latency)
	}
}

// forceTransfer reprograms the registers as Algorithm 2 would to move
// way from donor to recipient and starts the takeover.
func forceTransfer(c *CoopPart, way, donor, recipient int, now int64) {
	c.perms.SetRead(way, recipient, true)
	c.perms.SetWrite(way, recipient, true)
	c.perms.SetWrite(way, donor, false)
	c.startDonation(donor, transfer{way: way, recipient: recipient}, now)
}

// TestTakeoverWalkthrough follows the Figure 3/4 example: core 1
// donates way 2 to core 0; accesses by either core flush dirty data
// set-by-set, and when every set has been touched, core 0 owns the way
// and core 1's read permission is withdrawn.
func TestTakeoverWalkthrough(t *testing.T) {
	c := testScheme(0.05)
	l2 := c.Cache()
	// Fill way 2 (owned by core 1 initially) with dirty data.
	for set := 0; set < l2.NumSets(); set++ {
		l2.InstallAt(set, 2, uint64(0x700+set), 1, true)
	}
	forceTransfer(c, 2, 1, 0, 100)
	if err := c.Perms().Invariants(); err != nil {
		t.Fatal(err)
	}
	if c.Perms().Writer(2) != 0 {
		t.Fatalf("recipient should hold write permission, writer = %d", c.Perms().Writer(2))
	}
	if !c.Perms().CanRead(2, 1) {
		t.Fatal("donor must keep read permission during transition")
	}
	if !c.InTransition() {
		t.Fatal("transition not active")
	}

	// Touch every set, alternating donor and recipient accesses.
	wbBefore := c.Stats().WritebacksToMem
	for set := 0; set < l2.NumSets(); set++ {
		core := set % 2
		c.Access(core, addrFor(c, core, set, 9), false, int64(200+set))
	}
	if c.InTransition() {
		t.Fatal("transition should have completed after all sets were touched")
	}
	if c.Perms().CanRead(2, 1) {
		t.Fatal("donor read permission not withdrawn at completion")
	}
	if c.OwnerOf(2) != 0 {
		t.Fatalf("way 2 owner = %d, want 0", c.OwnerOf(2))
	}
	// All 16 dirty lines were flushed back to memory.
	if got := c.Stats().WritebacksToMem - wbBefore; got < 16 {
		t.Fatalf("writebacks during takeover = %d, want >= 16", got)
	}
	tr := c.Transitions()
	if tr.Completed != 1 || tr.WaysMoved != 1 {
		t.Fatalf("transition stats = %+v", tr)
	}
	if tr.TakeoverEventTotal() != uint64(l2.NumSets()) {
		t.Fatalf("takeover events = %d, want one per set (%d)", tr.TakeoverEventTotal(), l2.NumSets())
	}
	if tr.DonorHits+tr.DonorMisses == 0 || tr.RecipientHits+tr.RecipientMisses == 0 {
		t.Fatal("both donor and recipient events expected")
	}
	if tr.FlushedLines != 16 {
		t.Fatalf("flushed lines = %d, want 16", tr.FlushedLines)
	}
	if tr.AvgTransferCycles() <= 0 {
		t.Fatal("transfer cycles not recorded")
	}
}

func TestTakeoverTransferredBlocksNotReflushed(t *testing.T) {
	c := testScheme(0.05)
	l2 := c.Cache()
	l2.InstallAt(7, 2, 0x700, 1, true)
	forceTransfer(c, 2, 1, 0, 0)
	// First access to set 7 flushes the dirty line and hands it over.
	c.Access(0, addrFor(c, 0, 7, 1), false, 10)
	if got := c.Transitions().FlushedLines; got != 1 {
		t.Fatalf("flushed = %d, want 1", got)
	}
	// The transferred block now belongs to core 0 (Fig. 4 step 5): a
	// later donor access to the same set must not flush again.
	c.Access(1, addrFor(c, 1, 7, 2), false, 20)
	if got := c.Transitions().FlushedLines; got != 1 {
		t.Fatalf("re-flushed transferred block: flushed = %d", got)
	}
}

func TestWayTurnOffViaTakeover(t *testing.T) {
	c := testScheme(0.05)
	l2 := c.Cache()
	// Dirty data in way 1 (core 0's way).
	for set := 0; set < l2.NumSets(); set++ {
		l2.InstallAt(set, 1, uint64(0x500+set), 0, true)
	}
	// Core 0 gives way 1 up with no recipient (power-off).
	c.perms.SetWrite(1, 0, false)
	c.startDonation(0, transfer{way: 1, recipient: -1}, 0)

	for set := 0; set < l2.NumSets(); set++ {
		c.Access(0, addrFor(c, 0, set, 3), false, int64(10+set))
	}
	if c.InTransition() {
		t.Fatal("turn-off transition should have completed")
	}
	if !c.Perms().IsOff(1) {
		t.Fatal("way 1 should be powered off")
	}
	if c.OwnerOf(1) != -1 {
		t.Fatalf("way 1 owner = %d, want -1", c.OwnerOf(1))
	}
	if c.PoweredWayEquiv() != 3 {
		t.Fatalf("powered = %v, want 3", c.PoweredWayEquiv())
	}
	// The way's contents are gone (gated-Vdd is not state-preserving).
	for set := 0; set < l2.NumSets(); set++ {
		if l2.Block(set, 1).Valid {
			t.Fatalf("set %d way 1 still valid after power-off", set)
		}
	}
}

func TestStoreToReadOnlyWayMovesLine(t *testing.T) {
	c := testScheme(0.05)
	l2 := c.Cache()
	// A dirty line of core 1's in way 2, which core 1 is donating.
	l2.InstallAt(4, 2, 0x900, 1, true)
	forceTransfer(c, 2, 1, 0, 0)
	addr := l2.LineFrom(4, 0x900) * 64
	// Core 1 stores to it: hit in a read-only way -> the line must move
	// into one of core 1's writable ways (way 3).
	res := c.Access(1, addr, true, 10)
	if !res.Hit {
		t.Fatal("store should hit the read-only way")
	}
	if way, hit := l2.Probe(4, l2.TagOf(l2.Line(addr)), c.Perms().WriteMask(1)); !hit {
		t.Fatal("line did not move into a writable way")
	} else if !c.Perms().CanWrite(way, 1) {
		t.Fatalf("line moved to way %d which core 1 cannot write", way)
	}
}

func TestDecideWithThresholdTurnsWaysOff(t *testing.T) {
	c := testScheme(0.2)
	l2 := c.Cache()
	// Both cores have tiny working sets: one hot line per set reused
	// heavily (all hits at stack distance 1), so extra ways carry no
	// utility and a high threshold strands them.
	for i := 0; i < 4000; i++ {
		set := i % l2.NumSets()
		c.Access(0, addrFor(c, 0, set, 0), false, int64(i))
		c.Access(1, addrFor(c, 1, set, 0), false, int64(i))
	}
	c.Decide(5000)
	// Allocation shrinks toward the 1-way guarantee.
	alloc := c.Allocations()
	if alloc[0]+alloc[1] >= 4 {
		t.Fatalf("threshold decision kept all ways allocated: %v", alloc)
	}
	// Drive the turn-off takeovers to completion.
	for i := 0; i < 4000; i++ {
		set := i % l2.NumSets()
		c.Access(0, addrFor(c, 0, set, 0), false, int64(6000+i))
		c.Access(1, addrFor(c, 1, set, 0), false, int64(6000+i))
	}
	if c.PoweredWayEquiv() >= 4 {
		t.Fatalf("no ways were powered off (powered = %v)", c.PoweredWayEquiv())
	}
	if err := c.Perms().Invariants(); err != nil {
		t.Fatal(err)
	}
}

func TestDecideReallocatesTowardUtility(t *testing.T) {
	c := testScheme(0)
	l2 := c.Cache()
	rng := rand.New(rand.NewSource(3))
	// Core 0 cycles through 4 lines per set (needs all 4 ways); core 1
	// hammers a single line per set (needs 1 way).
	drive := func(base int64, n int) {
		for i := 0; i < n; i++ {
			set := rng.Intn(l2.NumSets())
			c.Access(0, addrFor(c, 0, set, i%4), false, base+int64(i))
			c.Access(1, addrFor(c, 1, set, 0), false, base+int64(i))
		}
	}
	drive(0, 6000)
	c.Decide(10000)
	drive(20000, 6000)
	c.Decide(40000)
	alloc := c.Allocations()
	if alloc[0] <= alloc[1] {
		t.Fatalf("high-utility core not favoured: %v", alloc)
	}
	if alloc[1] < 1 {
		t.Fatalf("minimum allocation violated: %v", alloc)
	}
}

func TestDecideNoChangeNoRepartition(t *testing.T) {
	c := testScheme(0)
	c.Decide(100)
	reps := c.Stats().Repartitions
	c.Decide(200)
	if c.Stats().Repartitions != reps {
		t.Fatal("repartition recorded with unchanged utility")
	}
}

// Property: invariants hold and data stays way-aligned through random
// interleavings of accesses and decisions.
func TestPropertyInvariantsUnderRandomDriving(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		c := testScheme(0.05)
		l2 := c.Cache()
		rng := rand.New(rand.NewSource(seed))
		now := int64(0)
		for i := 0; i < 8000; i++ {
			now += int64(rng.Intn(5))
			core := rng.Intn(2)
			c.Access(core, addrFor(c, core, rng.Intn(16), rng.Intn(6)), rng.Intn(3) == 0, now)
			if i%1000 == 999 {
				c.Decide(now)
				if err := c.Perms().Invariants(); err != nil {
					t.Fatalf("seed %d after decide: %v", seed, err)
				}
			}
		}
		if err := c.Perms().Invariants(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		l2.ForEachValid(func(set, way int, b cache.Block) {
			if b.Owner >= 0 && !c.Perms().CanRead(way, b.Owner) {
				// A block may transiently belong to a core that cannot
				// read the way only if the way was handed over; owner
				// must then match the way's owner.
				if c.OwnerOf(way) != b.Owner {
					t.Errorf("seed %d: stranded block owner %d in way %d (way owner %d)",
						seed, b.Owner, way, c.OwnerOf(way))
				}
			}
		})
		// Ways summed over cores plus powered-off ways equals total.
		powered := int(c.PoweredWayEquiv())
		off := 0
		for w := 0; w < 4; w++ {
			if c.Perms().IsOff(w) {
				off++
			}
		}
		if powered+off != 4 {
			t.Errorf("seed %d: powered %d + off %d != 4", seed, powered, off)
		}
	}
}

func TestSchemeInterfaceCompliance(t *testing.T) {
	var s partition.Scheme = testScheme(0.05)
	if s.Name() != "CoopPart" {
		t.Fatalf("Name = %q", s.Name())
	}
	if s.Transitions() == nil || s.Stats() == nil {
		t.Fatal("stats accessors returned nil")
	}
}
