package partition

import (
	"math/rand"
	"testing"

	"repro/internal/cache"
	"repro/internal/mem"
	"repro/internal/umon"
)

// testConfig builds a small two-core LLC config: 4 ways, 16 sets.
func testConfig(cores int) Config {
	ways := 4
	if cores == 4 {
		ways = 8
	}
	return Config{
		Cache:          cache.Config{Name: "l2", SizeBytes: 16 * ways * 64, LineBytes: 64, Ways: ways, Latency: 15},
		NumCores:       cores,
		DRAM:           mem.New(mem.DefaultConfig()),
		TimelineBucket: 100,
	}
}

// addr builds a byte address hitting the given set with a core-tagged
// tag, against scheme s's cache geometry.
func addr(c *cache.Cache, core, set, tag int) uint64 {
	return c.LineFrom(set, uint64(tag)|uint64(core+1)<<20) * 64
}

func TestConfigValidate(t *testing.T) {
	if err := testConfig(2).Validate(); err != nil {
		t.Fatal(err)
	}
	bad := testConfig(2)
	bad.NumCores = 0
	if bad.Validate() == nil {
		t.Fatal("zero cores should fail")
	}
	bad = testConfig(2)
	bad.NumCores = 16
	if bad.Validate() == nil {
		t.Fatal("more cores than ways should fail")
	}
	bad = testConfig(2)
	bad.DRAM = nil
	if bad.Validate() == nil {
		t.Fatal("nil DRAM should fail")
	}
	bad = testConfig(2)
	bad.Threshold = 1.5
	if bad.Validate() == nil {
		t.Fatal("threshold > 1 should fail")
	}
}

func TestUnmanagedBasics(t *testing.T) {
	u := NewUnmanaged(testConfig(2))
	if u.Name() != "Unmanaged" {
		t.Fatalf("Name = %q", u.Name())
	}
	a := addr(u.Cache(), 0, 3, 7)
	res := u.Access(0, a, false, 0)
	if res.Hit || res.TagsConsulted != 4 {
		t.Fatalf("first access: %+v", res)
	}
	res = u.Access(0, a, false, 10)
	if !res.Hit || res.Latency != 15 {
		t.Fatalf("second access: %+v", res)
	}
	if u.PoweredWayEquiv() != 4 {
		t.Fatalf("powered = %v", u.PoweredWayEquiv())
	}
	if got := u.Allocations(); got[0] != 4 || got[1] != 4 {
		t.Fatalf("allocations = %v", got)
	}
}

func TestUnmanagedInterference(t *testing.T) {
	u := NewUnmanaged(testConfig(2))
	c := u.Cache()
	// Core 0 fills set 0 completely; core 1 then evicts core 0's data.
	for i := 0; i < 4; i++ {
		u.Access(0, addr(c, 0, 0, i), false, int64(i))
	}
	for i := 0; i < 4; i++ {
		u.Access(1, addr(c, 1, 0, i), false, int64(10+i))
	}
	// Core 0's lines are gone.
	res := u.Access(0, addr(c, 0, 0, 0), false, 100)
	if res.Hit {
		t.Fatal("unmanaged cache should allow cross-core eviction")
	}
}

func TestFairShareIsolation(t *testing.T) {
	f := NewFairShare(testConfig(2))
	c := f.Cache()
	if got := f.Allocations(); got[0] != 2 || got[1] != 2 {
		t.Fatalf("fair share quotas = %v", got)
	}
	// Core 0 installs 2 lines (its quota) and keeps them hot; core 1
	// floods the set; core 0's hot lines must survive.
	for i := 0; i < 2; i++ {
		f.Access(0, addr(c, 0, 5, i), false, int64(i))
	}
	for round := 0; round < 10; round++ {
		for i := 0; i < 6; i++ {
			f.Access(1, addr(c, 1, 5, 10+i), false, int64(100+round*10+i))
		}
		// Keep core 0's lines recent.
		f.Access(0, addr(c, 0, 5, 0), false, int64(100+round*10+8))
		f.Access(0, addr(c, 0, 5, 1), false, int64(100+round*10+9))
	}
	if !f.Access(0, addr(c, 0, 5, 0), false, 999).Hit ||
		!f.Access(0, addr(c, 0, 5, 1), false, 999).Hit {
		t.Fatal("fair share failed to protect core 0's quota")
	}
}

func TestFairShareOddWays(t *testing.T) {
	cfg := testConfig(2)
	cfg.Cache.Ways = 5
	cfg.Cache.SizeBytes = 16 * 5 * 64
	f := NewFairShare(cfg)
	got := f.Allocations()
	if got[0]+got[1] != 5 || got[0] != 3 {
		t.Fatalf("odd-way split = %v, want [3 2]", got)
	}
}

func TestUCPMovesWaysTowardUtility(t *testing.T) {
	u := NewUCP(testConfig(2))
	c := u.Cache()
	rng := rand.New(rand.NewSource(1))
	// Core 0 uses 4 distinct lines per set; core 1 only 1.
	drive := func(base int64, n int) {
		for i := 0; i < n; i++ {
			s := rng.Intn(16)
			u.Access(0, addr(c, 0, s, i%4), false, base+int64(i))
			u.Access(1, addr(c, 1, s, 0), false, base+int64(i))
		}
	}
	drive(0, 5000)
	u.Decide(10000)
	alloc := u.Allocations()
	if alloc[0] <= alloc[1] {
		t.Fatalf("UCP did not favour the high-utility core: %v", alloc)
	}
	if alloc[0]+alloc[1] != 4 {
		t.Fatalf("UCP must allocate every way: %v", alloc)
	}
	if u.PoweredWayEquiv() != 4 {
		t.Fatal("UCP cannot power ways off")
	}
}

func TestUCPTransitionCompletes(t *testing.T) {
	u := NewUCP(testConfig(2))
	c := u.Cache()
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 5000; i++ {
		s := rng.Intn(16)
		u.Access(0, addr(c, 0, s, i%4), true, int64(i))
		u.Access(1, addr(c, 1, s, 0), true, int64(i))
	}
	u.Decide(10000)
	if u.tr == nil {
		t.Skip("no quota change; utility pattern did not trigger a transition")
	}
	// Keep driving recipient misses until the transition converges.
	for i := 0; i < 20000 && u.tr != nil; i++ {
		s := rng.Intn(16)
		u.Access(0, addr(c, 0, s, rng.Intn(8)), true, int64(20000+i))
		u.Access(1, addr(c, 1, s, 0), true, int64(20000+i))
	}
	if u.tr != nil {
		t.Fatal("UCP transition never completed")
	}
	tr := u.Transitions()
	if tr.Completed == 0 || tr.WaysMoved == 0 || tr.AvgTransferCycles() <= 0 {
		t.Fatalf("transition stats = %+v", tr)
	}
}

func TestCPEFlushesOnRepartition(t *testing.T) {
	cfg := testConfig(2)
	cfg.Threshold = 0.05
	// Alternating-phase profile: core 0 wants everything in even
	// phases, nothing in odd phases.
	hungry := umon.Curve{1000, 600, 300, 100, 0}
	idle := umon.Curve{10, 10, 10, 10, 10}
	prof := []CoreProfile{
		{Phases: []ProfilePhase{{Curve: hungry, Accesses: 100000}, {Curve: idle, Accesses: 100}}},
		{Phases: []ProfilePhase{{Curve: idle, Accesses: 100}, {Curve: hungry, Accesses: 100000}}},
	}
	p := NewCPE(cfg, prof)
	c := p.Cache()
	// Dirty some data.
	for i := 0; i < 200; i++ {
		p.Access(0, addr(c, 0, i%16, i%3), true, int64(i))
		p.Access(1, addr(c, 1, i%16, i%3), true, int64(i))
	}
	p.Decide(1000)
	flushesAfterFirst := p.Stats().FlushedOnDecide
	// Refill between decisions so the second flush has victims.
	for i := 0; i < 200; i++ {
		p.Access(0, addr(c, 0, i%16, i%3), true, int64(1100+i))
		p.Access(1, addr(c, 1, i%16, i%3), true, int64(1100+i))
	}
	p.Decide(2000) // profile phase flips: repartition again
	if p.Stats().FlushedOnDecide <= flushesAfterFirst {
		t.Fatalf("second repartition flushed nothing: %d then %d",
			flushesAfterFirst, p.Stats().FlushedOnDecide)
	}
	if p.Stats().Repartitions < 2 {
		t.Fatalf("repartitions = %d, want >= 2", p.Stats().Repartitions)
	}
}

func TestCPEDynamicEnergyFewerTags(t *testing.T) {
	cfg := testConfig(2)
	p := NewCPE(cfg, nil)
	c := p.Cache()
	res := p.Access(0, addr(c, 0, 0, 1), false, 0)
	if res.TagsConsulted != 2 {
		t.Fatalf("CPE consults %d tags, want its 2 region ways", res.TagsConsulted)
	}
}

func TestCPESetFoldingStillHits(t *testing.T) {
	cfg := testConfig(2)
	cfg.Threshold = 0.05
	tiny := umon.Curve{100, 0, 0, 0, 0}
	prof := []CoreProfile{
		{Phases: []ProfilePhase{{Curve: tiny, Accesses: 4}}}, // < sets: quarter region
		{Phases: []ProfilePhase{{Curve: tiny, Accesses: 4}}},
	}
	p := NewCPE(cfg, prof)
	c := p.Cache()
	p.Decide(0)
	if p.PoweredWayEquiv() >= 4 {
		t.Fatalf("CPE should gate sets/ways: powered = %v", p.PoweredWayEquiv())
	}
	// Accesses to any set must still resolve (folded) and re-hit.
	a := addr(c, 0, 13, 2)
	p.Access(0, a, false, 10)
	if !p.Access(0, a, false, 20).Hit {
		t.Fatal("folded access did not hit on re-access")
	}
}

func TestStatsAvgWaysConsulted(t *testing.T) {
	u := NewUnmanaged(testConfig(2))
	c := u.Cache()
	u.Access(0, addr(c, 0, 0, 0), false, 0)
	u.Access(1, addr(c, 1, 0, 0), false, 0)
	if got := u.Stats().AvgWaysConsulted(); got != 4 {
		t.Fatalf("AvgWaysConsulted = %v, want 4", got)
	}
	if u.Stats().TotalAccesses() != 2 {
		t.Fatalf("TotalAccesses = %d", u.Stats().TotalAccesses())
	}
}

func TestTransitionStatsTimeline(t *testing.T) {
	tr := NewTransitionStats(100, 4)
	tr.RecordFlush(0, 2)
	tr.RecordFlush(150, 1)
	tr.RecordFlush(100000, 3) // clamps to last bucket
	tr.RecordFlush(-5, 1)     // clamps to first
	if tr.FlushedLines != 7 {
		t.Fatalf("FlushedLines = %d", tr.FlushedLines)
	}
	if tr.Timeline[0] != 3 || tr.Timeline[1] != 1 || tr.Timeline[3] != 3 {
		t.Fatalf("timeline = %v", tr.Timeline)
	}
}

func TestSchemesImplementInterface(t *testing.T) {
	cfg := testConfig(2)
	schemes := []Scheme{
		NewUnmanaged(cfg),
		NewFairShare(testConfig(2)),
		NewUCP(testConfig(2)),
		NewCPE(testConfig(2), nil),
	}
	for _, s := range schemes {
		if s.Name() == "" || s.Stats() == nil || s.Transitions() == nil {
			t.Errorf("%T: incomplete Scheme implementation", s)
		}
		s.Decide(0)
		if len(s.Allocations()) != 2 {
			t.Errorf("%s: allocations length wrong", s.Name())
		}
	}
}

func TestWritebacksReachDRAM(t *testing.T) {
	cfg := testConfig(2)
	u := NewUnmanaged(cfg)
	c := u.Cache()
	// Fill a set with dirty lines, then overflow it.
	for i := 0; i < 5; i++ {
		u.Access(0, addr(c, 0, 2, i), true, int64(i*10))
	}
	if u.Stats().WritebacksToMem == 0 {
		t.Fatal("dirty eviction did not write back to memory")
	}
	if cfg.DRAM.Stats().Writes == 0 {
		t.Fatal("DRAM saw no writes")
	}
}

func TestFourCoreQuotas(t *testing.T) {
	f := NewFairShare(testConfig(4))
	got := f.Allocations()
	for i, q := range got {
		if q != 2 {
			t.Fatalf("core %d quota = %d, want 2 (8 ways / 4 cores)", i, q)
		}
	}
}
