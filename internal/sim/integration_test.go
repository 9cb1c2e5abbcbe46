package sim

// Integration tests: full-system runs checked against cross-module
// conservation and consistency invariants that no single package can
// see on its own.

import (
	"math"
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/workload"
)

// buildAndRun assembles a system, runs it, and returns both for
// inspection.
func buildAndRun(t *testing.T, scheme SchemeKind, group string) (*System, *Results) {
	t.Helper()
	g, err := workload.FindGroup(group)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem(RunConfig{Scale: UnitScale(), Scheme: scheme, Group: g, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	return sys, sys.Run()
}

func TestIntegrationAccessConservation(t *testing.T) {
	sys, res := buildAndRun(t, FairShare, "G2-8")
	// Every L2 access is an L1D or L1I miss's fill or an L1D fill's
	// dirty writeback, and each fill writes back at most one victim
	// (warm-up resets the L1 and L2 counts together), so the L2 count
	// lies between one and two accesses per L1D miss, plus one per L1I
	// miss.
	var dMiss, iMiss uint64
	for i := range sys.l1 {
		d, in := sys.l1[i].Stats(), sys.l1i[i].Stats()
		dMiss += d.Accesses - d.Hits
		iMiss += in.Accesses - in.Hits
	}
	l2Accesses := res.SchemeStats.TotalAccesses()
	if dMiss == 0 || l2Accesses < dMiss+iMiss || l2Accesses > 2*dMiss+iMiss {
		t.Fatalf("L2 accesses %d inconsistent with L1D misses %d and L1I misses %d",
			l2Accesses, dMiss, iMiss)
	}
}

func TestIntegrationStaticEnergyMatchesMeter(t *testing.T) {
	_, res := buildAndRun(t, FairShare, "G2-1")
	// FairShare never gates: static energy must equal full leakage over
	// the measured region.
	p := energy.DefaultParams()
	want := float64(res.Cycles) * p.LeakPerWayCyc * 8
	if math.Abs(res.Static-want)/want > 0.01 {
		t.Fatalf("static = %v, want %v (full leakage)", res.Static, want)
	}
}

func TestIntegrationCoopStaysWayAligned(t *testing.T) {
	sys, _ := buildAndRun(t, CoopPart, "G2-2")
	cp, ok := sys.scheme.(*core.CoopPart)
	if !ok {
		t.Fatal("scheme is not CoopPart")
	}
	if err := cp.Perms().Invariants(); err != nil {
		t.Fatal(err)
	}
	// Every resident block sits in a way whose owner matches (or, mid-
	// transition, a way its owner may still read).
	cp.Cache().ForEachValid(func(set, way int, b cache.Block) {
		if b.Owner < 0 {
			t.Fatalf("unowned block at set %d way %d", set, way)
		}
		if !cp.Perms().CanRead(way, b.Owner) && cp.OwnerOf(way) != b.Owner {
			t.Errorf("block of core %d stranded in way %d (owner %d)",
				b.Owner, way, cp.OwnerOf(way))
		}
	})
}

func TestIntegrationWeightedSpeedupTermsBounded(t *testing.T) {
	g, _ := workload.FindGroup("G2-9")
	res, err := Run(RunConfig{Scale: UnitScale(), Scheme: UCP, Group: g, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range res.Benchmarks {
		alone := runAlone(t, b, UnitScale(), 2, 3)
		ratio := res.IPC[i] / alone.IPC[0]
		// Sharing cannot beat running alone by more than timing noise
		// (short unit-scale runs leave sweep/LRU interleaving noise, so
		// the bound is generous).
		if ratio > 1.25 {
			t.Errorf("%s: shared/alone IPC = %v > 1.25", b, ratio)
		}
		if ratio <= 0 {
			t.Errorf("%s: non-positive IPC ratio", b)
		}
	}
}

func TestIntegrationDRAMTrafficConsistent(t *testing.T) {
	_, res := buildAndRun(t, Unmanaged, "G2-8")
	// Every L2 miss reads memory once; reads cannot be fewer than
	// misses (MSHR coalescing happens at the core, not here).
	var l2Misses uint64
	for _, c := range res.SchemeStats.PerCore {
		l2Misses += c.Misses
	}
	if res.DRAM.Reads < l2Misses {
		t.Fatalf("DRAM reads %d < L2 misses %d", res.DRAM.Reads, l2Misses)
	}
	// Writes to memory equal the scheme's writeback count.
	if res.DRAM.Writes != res.SchemeStats.WritebacksToMem {
		t.Fatalf("DRAM writes %d != writebacks %d",
			res.DRAM.Writes, res.SchemeStats.WritebacksToMem)
	}
}

func TestIntegrationEnergyOrdering(t *testing.T) {
	// For the same group, CP's per-access dynamic energy must undercut
	// FairShare's (fewer tags probed), whatever the run lengths.
	_, fair := buildAndRun(t, FairShare, "G2-2")
	_, coop := buildAndRun(t, CoopPart, "G2-2")
	fairPer := fair.Dynamic / float64(fair.SchemeStats.TotalAccesses())
	coopPer := coop.Dynamic / float64(coop.SchemeStats.TotalAccesses())
	if coopPer >= fairPer {
		t.Fatalf("CP per-access energy %v not below FairShare %v", coopPer, fairPer)
	}
}

func TestIntegrationMPKIStableAcrossSchemes(t *testing.T) {
	// lbm is streaming: its MPKI is compulsory-miss-bound and should
	// not vary wildly across schemes.
	var mpkis []float64
	for _, scheme := range []SchemeKind{Unmanaged, FairShare, UCP, CoopPart} {
		_, res := buildAndRun(t, scheme, "G2-8")
		mpkis = append(mpkis, res.MPKI[0]) // core 0 = lbm
	}
	for _, m := range mpkis[1:] {
		if m < mpkis[0]/2 || m > mpkis[0]*2 {
			t.Fatalf("lbm MPKI varies too much across schemes: %v", mpkis)
		}
	}
}

func TestIntegrationDrowsyRunEndToEnd(t *testing.T) {
	g, _ := workload.FindGroup("G2-2")
	res, err := Run(RunConfig{
		Scale: UnitScale(), Scheme: CoopPart, Group: g, Seed: 3, Variant: core.VariantDrowsy,
	})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := Run(RunConfig{Scale: UnitScale(), Scheme: CoopPart, Group: g, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.StaticPower > plain.StaticPower {
		t.Fatalf("drowsy static power %v above plain %v", res.StaticPower, plain.StaticPower)
	}
}

func TestIntegrationProfileDrivenCPEMatchesPhases(t *testing.T) {
	g, _ := workload.FindGroup("G2-1")
	var cfg RunConfig
	cfg.Scale = UnitScale()
	cfg.Scheme = DynCPE
	cfg.Group = g
	cfg.Seed = 3
	for _, b := range g.Benchmarks {
		p, err := ProfileBenchmark(b, UnitScale(), 2, 3)
		if err != nil {
			t.Fatal(err)
		}
		if len(p.Phases) == 0 {
			t.Fatalf("%s: empty profile", b)
		}
		cfg.Profiles = append(cfg.Profiles, p)
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.SchemeStats.Decisions == 0 {
		t.Fatal("CPE made no decisions")
	}
}
