package sim

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/workload"
)

func unitRun(t *testing.T, scheme SchemeKind, group string) *Results {
	t.Helper()
	g, err := workload.FindGroup(group)
	if err != nil {
		t.Fatal(err)
	}
	cfg := RunConfig{Scale: UnitScale(), Scheme: scheme, Group: g, Seed: 1}
	if scheme == DynCPE {
		for _, b := range g.Benchmarks {
			p, err := ProfileBenchmark(b, UnitScale(), len(g.Benchmarks), 1)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Profiles = append(cfg.Profiles, p)
		}
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestScalesValidate(t *testing.T) {
	for _, s := range []Scale{FullScale(), TestScale(), UnitScale()} {
		if err := s.Validate(); err != nil {
			t.Errorf("%s: %v", s.Name, err)
		}
	}
}

func TestScaleGeometryMatchesPaperRatios(t *testing.T) {
	full := FullScale()
	if full.L2TwoCore.Sets() != 4096 || full.L2FourCore.Sets() != 4096 {
		t.Fatal("full-scale L2s must have 4096 sets")
	}
	test := TestScale()
	if test.L2TwoCore.Sets() != 128 || test.L2FourCore.Sets() != 128 {
		t.Fatal("test-scale L2s must have 128 sets")
	}
	// Associativities are preserved across scales.
	if test.L2TwoCore.Ways != 8 || test.L2FourCore.Ways != 16 {
		t.Fatal("test-scale associativities wrong")
	}
	// The scaled L1D still holds an L1-resident locality region
	// (wayLines/16 lines) with ample headroom (see the Scale doc
	// comment for why the L1 shrinks less than the LLC).
	l1Lines := test.L1D.SizeBytes / test.L1D.LineBytes
	if l1Lines < 4*test.L2TwoCore.Sets()/16 {
		t.Fatalf("test-scale L1D (%d lines) too small for locality regions", l1Lines)
	}
}

func TestL2ForCoreCounts(t *testing.T) {
	s := TestScale()
	two, err := s.L2For(2)
	if err != nil || two.Ways != 8 {
		t.Fatalf("L2For(2) = %+v, %v", two, err)
	}
	four, err := s.L2For(4)
	if err != nil || four.Ways != 16 {
		t.Fatalf("L2For(4) = %+v, %v", four, err)
	}
	// Beyond Table 2 the per-core scaling extrapolates: capacity and
	// ways double per core-count doubling (sets constant), latency +5,
	// ways saturating at the 64-way mask limit.
	eight, err := s.L2For(8)
	if err != nil || eight.Ways != 32 || eight.SizeBytes != 2*four.SizeBytes ||
		eight.Latency != four.Latency+5 || eight.Sets() != four.Sets() {
		t.Fatalf("L2For(8) = %+v, %v", eight, err)
	}
	sixteen, err := s.L2For(16)
	if err != nil || sixteen.Ways != 64 || sixteen.Sets() != four.Sets() {
		t.Fatalf("L2For(16) = %+v, %v", sixteen, err)
	}
	thirtyTwo, err := s.L2For(32)
	if err != nil || thirtyTwo.Ways != 64 || thirtyTwo.Sets() != 2*four.Sets() {
		t.Fatalf("L2For(32) = %+v, %v (ways saturate, sets scale)", thirtyTwo, err)
	}
	for _, bad := range []int{-1, 0, 6, 12, 128} {
		if _, err := s.L2For(bad); err == nil {
			t.Fatalf("L2For(%d) should fail", bad)
		}
	}
}

func TestRunProducesSaneResults(t *testing.T) {
	res := unitRun(t, FairShare, "G2-8") // lbm + soplex: heavy traffic
	if len(res.IPC) != 2 {
		t.Fatalf("IPC entries = %d", len(res.IPC))
	}
	for i, ipc := range res.IPC {
		if ipc <= 0 || ipc > 4 {
			t.Fatalf("core %d IPC = %v out of range", i, ipc)
		}
	}
	if res.Cycles <= 0 {
		t.Fatal("no cycles recorded")
	}
	if res.Dynamic <= 0 || res.Static <= 0 {
		t.Fatalf("energy not accumulated: dyn=%v stat=%v", res.Dynamic, res.Static)
	}
	if res.SchemeStats.TotalAccesses() == 0 {
		t.Fatal("no LLC accesses recorded")
	}
	if res.SchemeStats.Decisions == 0 {
		t.Fatal("no phase decisions fired")
	}
	if res.MPKI[0] <= 0 {
		t.Fatal("lbm MPKI must be positive")
	}
}

func TestAllSchemesRun(t *testing.T) {
	for _, scheme := range AllSchemes {
		res := unitRun(t, scheme, "G2-1")
		if res.Scheme != string(scheme) {
			t.Fatalf("scheme label = %q", res.Scheme)
		}
		if res.SchemeStats.TotalAccesses() == 0 {
			t.Fatalf("%s: no LLC traffic", scheme)
		}
	}
}

func TestFourCoreRun(t *testing.T) {
	res := unitRun(t, CoopPart, "G4-3")
	if len(res.IPC) != 4 {
		t.Fatalf("four-core run produced %d IPCs", len(res.IPC))
	}
	if res.AvgWaysConsulted >= 16 {
		t.Fatalf("CoopPart consulted %v ways on average, want < 16", res.AvgWaysConsulted)
	}
}

func TestDeterminism(t *testing.T) {
	a := unitRun(t, UCP, "G2-2")
	b := unitRun(t, UCP, "G2-2")
	if a.Cycles != b.Cycles || a.Dynamic != b.Dynamic || a.IPC[0] != b.IPC[0] {
		t.Fatalf("runs diverged: %v/%v vs %v/%v", a.Cycles, a.Dynamic, b.Cycles, b.Dynamic)
	}
}

func TestSeedChangesOutcome(t *testing.T) {
	g, _ := workload.FindGroup("G2-2")
	r1, err := Run(RunConfig{Scale: UnitScale(), Scheme: FairShare, Group: g, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(RunConfig{Scale: UnitScale(), Scheme: FairShare, Group: g, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Cycles == r2.Cycles && r1.Dynamic == r2.Dynamic {
		t.Fatal("different seeds produced identical runs")
	}
}

func TestCoopPartSavesDynamicEnergy(t *testing.T) {
	fair := unitRun(t, FairShare, "G2-2")
	coop := unitRun(t, CoopPart, "G2-2")
	if coop.AvgWaysConsulted >= fair.AvgWaysConsulted {
		t.Fatalf("CoopPart avg ways %v not below FairShare %v",
			coop.AvgWaysConsulted, fair.AvgWaysConsulted)
	}
}

func TestUnmanagedConsultsAllWays(t *testing.T) {
	res := unitRun(t, Unmanaged, "G2-1")
	if res.AvgWaysConsulted != 8 {
		t.Fatalf("Unmanaged avg ways = %v, want 8", res.AvgWaysConsulted)
	}
}

// runAlone runs a benchmark's alone configuration the way the
// experiment engine does: Run(AloneConfig(...)).
func runAlone(t testing.TB, benchmark string, sc Scale, coresInGroup int, seed uint64) *Results {
	t.Helper()
	cfg, err := AloneConfig(benchmark, sc, coresInGroup, seed)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestRunAlone(t *testing.T) {
	res := runAlone(t, "namd", UnitScale(), 2, 1)
	if len(res.IPC) != 1 || res.IPC[0] <= 0 {
		t.Fatalf("alone run IPC = %v", res.IPC)
	}
}

func TestWeightedSpeedup(t *testing.T) {
	res := &Results{Benchmarks: []string{"a", "b"}, IPC: []float64{1.0, 2.0}}
	ws, err := res.WeightedSpeedup(map[string]float64{"a": 2.0, "b": 2.0})
	if err != nil || ws != 1.5 {
		t.Fatalf("WS = %v, %v; want 1.5", ws, err)
	}
	if _, err := res.WeightedSpeedup(map[string]float64{"a": 2.0}); err == nil {
		t.Fatal("missing alone IPC should error")
	}
}

func TestProfileBenchmark(t *testing.T) {
	p, err := ProfileBenchmark("soplex", UnitScale(), 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Phases) == 0 {
		t.Fatal("profile captured no phases")
	}
	ph := p.Phases[0]
	if len(ph.Curve) != 9 {
		t.Fatalf("curve length = %d, want ways+1 = 9", len(ph.Curve))
	}
	if ph.Accesses == 0 {
		t.Fatal("profile phase has no accesses")
	}
}

func TestUnknownSchemeRejected(t *testing.T) {
	g, _ := workload.FindGroup("G2-1")
	if _, err := Run(RunConfig{Scale: UnitScale(), Scheme: "bogus", Group: g}); err == nil {
		t.Fatal("unknown scheme accepted")
	}
}

func TestBadGroupRejected(t *testing.T) {
	if _, err := Run(RunConfig{Scale: UnitScale(), Scheme: UCP,
		Group: workload.Group{Name: "empty"}}); err == nil {
		t.Fatal("empty group accepted")
	}
}

// TestNewSystemRejectsBadInputs: a threshold outside [0, 1], more
// cores than L2 ways, a non-power-of-two UMON sampling stride, a
// variant on a scheme it does not apply to, and the scales below can
// all arrive from outside the program (expd requests carry the
// threshold, the variant and the whole Scale), so NewSystem must
// return an error for each rather than panic or run something else.
// Scale.Validate is its only guard on a scale: LLC lines under 4
// bytes (the trace generator refuses them), MSHR or DRAM queue
// capacities of math.MaxInt (allocated at that capacity), and DRAM
// banks or an LLC too large to allocate used to pass it and then
// panic. FuzzValidScaleBuilds checks the rule behind the last kind.
func TestNewSystemRejectsBadInputs(t *testing.T) {
	g, _ := workload.FindGroup("G2-8")
	oneWay := UnitScale()
	oneWay.L2TwoCore.Ways = 1
	badSampling := UnitScale()
	badSampling.UMONSampling = 3
	line := func(n int) Scale {
		sc := UnitScale()
		sc.L2TwoCore.LineBytes = n
		return sc
	}
	mshrs := UnitScale()
	mshrs.MSHRs = math.MaxInt
	queue := UnitScale()
	queue.Mem.MaxOutstanding = math.MaxInt
	banks := UnitScale()
	banks.Mem.Banks = 1 << 62
	llc := UnitScale()
	llc.L2TwoCore.SizeBytes = 1 << 58
	for _, tc := range []struct {
		what string
		cfg  RunConfig
	}{
		{"threshold 2", RunConfig{Scale: UnitScale(), Scheme: CoopPart, Group: g, Threshold: 2}},
		{"threshold NaN", RunConfig{Scale: UnitScale(), Scheme: CoopPart, Group: g, Threshold: math.NaN()}},
		{"2 cores on a 1-way L2", RunConfig{Scale: oneWay, Scheme: CoopPart, Group: g}},
		{"UMON sampling 3", RunConfig{Scale: badSampling, Scheme: UCP, Group: g}},
		{"unknown variant", RunConfig{Scale: UnitScale(), Scheme: CoopPart, Group: g, Variant: "bogus"}},
		{"UCP drowsy", RunConfig{Scale: UnitScale(), Scheme: UCP, Group: g, Variant: core.VariantDrowsy}},
		{"UCP no-gating", RunConfig{Scale: UnitScale(), Scheme: UCP, Group: g, Variant: core.VariantNoGating}},
		{"UCP random-victim", RunConfig{Scale: UnitScale(), Scheme: UCP, Group: g, Variant: core.VariantRandomVictim}},
		{"FairShare recipient-miss-only", RunConfig{Scale: UnitScale(), Scheme: FairShare, Group: g,
			Variant: core.VariantRecipientMissOnly}},
		{"LLC line 1", RunConfig{Scale: line(1), Scheme: FairShare, Group: g}},
		{"LLC line 2", RunConfig{Scale: line(2), Scheme: FairShare, Group: g}},
		{"MSHRs MaxInt", RunConfig{Scale: mshrs, Scheme: FairShare, Group: g}},
		{"DRAM MaxOutstanding MaxInt", RunConfig{Scale: queue, Scheme: FairShare, Group: g}},
		{"DRAM banks 1<<62", RunConfig{Scale: banks, Scheme: FairShare, Group: g}},
		{"LLC of 1<<58 bytes", RunConfig{Scale: llc, Scheme: FairShare, Group: g}},
	} {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("%s: NewSystem panicked: %v", tc.what, r)
				}
			}()
			if _, err := NewSystem(tc.cfg); err == nil {
				t.Errorf("%s: NewSystem accepted the config", tc.what)
			}
		}()
	}
}

func TestPIPPExtensionRuns(t *testing.T) {
	res := unitRun(t, PIPP, "G2-1")
	if res.Scheme != "PIPP" {
		t.Fatalf("scheme = %q", res.Scheme)
	}
	if res.AvgWaysConsulted != 8 {
		t.Fatalf("PIPP probes all ways; got %v", res.AvgWaysConsulted)
	}
	for _, ipc := range res.IPC {
		if ipc <= 0 {
			t.Fatal("PIPP run produced non-positive IPC")
		}
	}
}

// FuzzValidScaleBuilds: every Scale that validates must build without
// a panic, whatever its sizes. Sizes are fuzzed as powers of two, the
// only ones Validate accepts, so the fuzzer spends its time on valid
// geometries up to the allocation cap; the cap is test-sized here so
// that each build stays cheap.
func FuzzValidScaleBuilds(f *testing.F) {
	f.Add(uint8(12), uint8(6), 4, uint8(16), uint8(6), 8, uint8(17), 16, uint8(3), 64, 16, 1)
	f.Add(uint8(12), uint8(6), 4, uint8(58), uint8(6), 8, uint8(17), 16, uint8(62), 64, 16, 32)
	f.Add(uint8(3), uint8(2), 1, uint8(8), uint8(2), 2, uint8(9), 4, uint8(0), 1, 1, 2)
	// An L1 line of 1<<62 bytes: line size times ways wraps to zero.
	f.Add(uint8(24), uint8(62), 4, uint8(16), uint8(6), 8, uint8(17), 16, uint8(3), 64, 16, 1)
	f.Fuzz(func(t *testing.T, l1Size, l1Line uint8, l1Ways int, l2Size, l2Line uint8, l2Ways int,
		l4Size uint8, l4Ways int, banks uint8, outstanding, mshrs, sampling int) {
		sc := UnitScale()
		sc.L1D.SizeBytes, sc.L1D.LineBytes, sc.L1D.Ways = 1<<(l1Size%64), 1<<(l1Line%64), l1Ways
		sc.L1I = sc.L1D
		sc.L1I.Name = "L1I"
		sc.L2TwoCore.SizeBytes, sc.L2TwoCore.LineBytes, sc.L2TwoCore.Ways = 1<<(l2Size%64), 1<<(l2Line%64), l2Ways
		sc.L2FourCore.SizeBytes, sc.L2FourCore.LineBytes, sc.L2FourCore.Ways = 1<<(l4Size%64), 1<<(l2Line%64), l4Ways
		sc.Mem.Banks, sc.Mem.MaxOutstanding = 1<<(banks%64), outstanding
		sc.MSHRs, sc.UMONSampling = mshrs, sampling
		if sc.validate(64<<20) != nil {
			return
		}
		g2, _ := workload.FindGroup("G2-8")
		g4, _ := workload.FindGroup("G4-8")
		profile, err := ProfileConfig(g2.Benchmarks[0], sc, 2, 1)
		if err != nil {
			t.Fatalf("ProfileConfig on a valid scale: %v", err)
		}
		for _, cfg := range []RunConfig{
			{Scale: sc, Scheme: CoopPart, Group: g2, Seed: 1},
			{Scale: sc, Scheme: UCP, Group: g4, Seed: 1},
			profile,
		} {
			NewSystem(cfg) // an error is an answer; a panic fails the target
		}
	})
}
