package partition

import (
	"math/rand"
	"testing"

	"repro/internal/umon"
)

func TestUCPAbandonedTransition(t *testing.T) {
	u := NewUCP(testConfig(2))
	c := u.Cache()
	rng := rand.New(rand.NewSource(4))
	// Build asymmetric utility, decide, then flip the asymmetry and
	// decide again before the first migration converges.
	for i := 0; i < 4000; i++ {
		s := rng.Intn(16)
		u.Access(0, addr(c, 0, s, i%4), false, int64(i))
		u.Access(1, addr(c, 1, s, 0), false, int64(i))
	}
	u.Decide(5000)
	if u.tr == nil {
		t.Skip("no transition started")
	}
	for i := 0; i < 4000; i++ {
		s := rng.Intn(16)
		u.Access(0, addr(c, 0, s, 0), false, int64(6000+i))
		u.Access(1, addr(c, 1, s, i%4), false, int64(6000+i))
	}
	u.Decide(20000)
	// Either the first converged in time or it was abandoned; both are
	// legal, but the tracker must not leak state.
	if u.Transitions().Abandoned == 0 && u.Transitions().Completed == 0 {
		t.Fatal("transition neither completed nor abandoned after reversal")
	}
}

func TestUCPDecisionWithNoTrafficKeepsQuotas(t *testing.T) {
	u := NewUCP(testConfig(2))
	before := u.Allocations()
	u.Decide(100)
	after := u.Allocations()
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("quotas changed with no traffic: %v -> %v", before, after)
		}
	}
}

func TestQuotaVictimFallbacks(t *testing.T) {
	f := NewFairShare(testConfig(2))
	c := f.Cache()
	// Fill a set entirely with core 1's blocks, then make core 1 (at
	// quota 2 but holding 4) access: it must victimise its own LRU.
	for i := 0; i < 4; i++ {
		c.InstallAt(7, i, uint64(i+1)|2<<20, 1, false)
	}
	res := f.Access(1, addr(c, 1, 7, 9), false, 0)
	if res.Hit {
		t.Fatal("unexpected hit")
	}
	// Still exactly 4 blocks, all core 1's.
	if got := c.CountOwned(7, 1, c.AllMask()); got != 4 {
		t.Fatalf("core 1 owns %d blocks, want 4", got)
	}
	// Core 0 (under quota) now accesses: it must take one of core 1's
	// over-quota blocks.
	f.Access(0, addr(c, 0, 7, 1), false, 10)
	if got := c.CountOwned(7, 0, c.AllMask()); got != 1 {
		t.Fatalf("core 0 owns %d blocks, want 1", got)
	}
	if got := c.CountOwned(7, 1, c.AllMask()); got != 3 {
		t.Fatalf("core 1 owns %d blocks, want 3", got)
	}
}

func TestCPEEmptyProfileGetsMinimum(t *testing.T) {
	cfg := testConfig(2)
	cfg.Threshold = 0.05
	p := NewCPE(cfg, nil) // no profiles at all
	p.Decide(0)
	alloc := p.Allocations()
	for i, a := range alloc {
		if a < 1 {
			t.Fatalf("core %d allocation = %d below minimum", i, a)
		}
	}
}

func TestCPEProfileCycling(t *testing.T) {
	prof := CoreProfile{Phases: []ProfilePhase{
		{Curve: umon.Curve{100, 0, 0, 0, 0}, Accesses: 1000},
		{Curve: umon.Curve{100, 50, 0, 0, 0}, Accesses: 2000},
	}}
	if got := prof.phaseAt(0).Accesses; got != 1000 {
		t.Fatalf("phase 0 accesses = %d", got)
	}
	if got := prof.phaseAt(3).Accesses; got != 2000 {
		t.Fatalf("phase 3 (cycled) accesses = %d", got)
	}
	if (CoreProfile{}).phaseAt(5).Accesses != 0 {
		t.Fatal("empty profile must return zero phase")
	}
}

func TestCPERegionsDisjoint(t *testing.T) {
	cfg := testConfig(4)
	p := NewCPE(cfg, nil)
	var union uint64
	for i := 0; i < 4; i++ {
		m := p.wayMask[i]
		if union&m != 0 {
			t.Fatalf("core %d ways overlap another region", i)
		}
		union |= m
	}
}

func TestCPEWritebackHitMarksDirty(t *testing.T) {
	p := NewCPE(testConfig(2), nil)
	c := p.Cache()
	a := addr(c, 0, 3, 1)
	p.Access(0, a, false, 0) // fill clean
	p.Access(0, a, true, 10) // write hit
	line := c.Line(a)
	set := c.Index(line) & (p.coreSets(0) - 1)
	way, hit := c.Probe(set, c.TagOf(line), p.wayMask[0])
	if !hit || !c.Block(set, way).Dirty {
		t.Fatal("write hit did not mark the folded block dirty")
	}
}

func TestMaskRange(t *testing.T) {
	if got := maskRange(0, 3); got != 0b111 {
		t.Fatalf("maskRange(0,3) = %b", got)
	}
	if got := maskRange(2, 2); got != 0b1100 {
		t.Fatalf("maskRange(2,2) = %b", got)
	}
	if got := maskRange(5, 0); got != 0 {
		t.Fatalf("maskRange(5,0) = %b", got)
	}
}

func TestControllerAccessors(t *testing.T) {
	u := NewUnmanaged(testConfig(2))
	if u.NumCores() != 2 {
		t.Fatalf("NumCores = %d", u.NumCores())
	}
	if u.Cfg().UMONSampling != 1 {
		t.Fatalf("defaulted UMONSampling = %d", u.Cfg().UMONSampling)
	}
	mons := u.NewMonitors()
	if len(mons) != 2 {
		t.Fatalf("monitors = %d", len(mons))
	}
	if !u.UMONSampled(0) {
		t.Fatal("sampling 1 must sample set 0")
	}
}

func TestStatsResetClearsEverything(t *testing.T) {
	u := NewUnmanaged(testConfig(2))
	c := u.Cache()
	u.Access(0, addr(c, 0, 0, 1), true, 0)
	u.Decide(10)
	st := u.Stats()
	st.Reset()
	if st.TotalAccesses() != 0 || st.Decisions != 0 || st.WritebacksToMem != 0 {
		t.Fatalf("Reset left counters: %+v", st)
	}
	tr := u.Transitions()
	tr.RecordFlush(5, 3)
	tr.Completed = 2
	tr.Reset()
	if tr.FlushedLines != 0 || tr.Completed != 0 {
		t.Fatalf("transition Reset incomplete: %+v", tr)
	}
	for _, v := range tr.Timeline {
		if v != 0 {
			t.Fatal("timeline not cleared")
		}
	}
}
