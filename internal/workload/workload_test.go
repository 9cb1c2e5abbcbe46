package workload

import (
	"testing"

	"repro/internal/trace"
)

// testParams is a small materialisation scale used throughout the tests.
func testParams(core int) Params {
	return Params{CoreID: core, LineBytes: 64, WayLines: 128, InstrScale: 0.002, Seed: 1}
}

func TestAllBenchmarkConfigsValidate(t *testing.T) {
	for _, name := range Names() {
		b := MustGet(name)
		cfg := b.TraceConfig(testParams(0))
		if err := cfg.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestNineteenBenchmarks(t *testing.T) {
	if got := len(Names()); got != 19 {
		t.Fatalf("benchmark count = %d, want 19 (Table 3)", got)
	}
	if got := len(All()); got != 19 {
		t.Fatalf("All() length = %d, want 19", got)
	}
}

func TestClassCountsMatchTable3(t *testing.T) {
	counts := map[Class]int{}
	for _, name := range Names() {
		counts[MustGet(name).Class]++
	}
	// Table 3: 4 High, 6 Medium, 9 Low.
	if counts[High] != 4 || counts[Medium] != 6 || counts[Low] != 9 {
		t.Fatalf("class counts = %v, want High:4 Medium:6 Low:9", counts)
	}
}

func TestPaperMPKIMatchesClassBoundary(t *testing.T) {
	for _, name := range Names() {
		b := MustGet(name)
		if got := ClassOf(b.PaperMPKI); got != b.Class {
			t.Errorf("%s: PaperMPKI %v classifies as %s, table says %s",
				name, b.PaperMPKI, got, b.Class)
		}
	}
}

func TestGetUnknown(t *testing.T) {
	if _, err := Get("nosuch"); err == nil {
		t.Fatal("Get(unknown) should error")
	}
}

func TestMustGetPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustGet(unknown) did not panic")
		}
	}()
	MustGet("nosuch")
}

func TestTraceConfigDisjointAddressSpaces(t *testing.T) {
	b := MustGet("soplex")
	c0 := b.TraceConfig(testParams(0))
	c1 := b.TraceConfig(testParams(1))
	if c0.AddrBase == c1.AddrBase {
		t.Fatal("two cores share an address base")
	}
	if c0.Seed == c1.Seed {
		t.Fatal("two cores share a seed")
	}
}

func TestFootprintsScaleWithWayLines(t *testing.T) {
	b := MustGet("gcc") // 7-way working set, split into hot fifth + full
	small := b.TraceConfig(Params{LineBytes: 64, WayLines: 128, InstrScale: 1, Seed: 1})
	big := b.TraceConfig(Params{LineBytes: 64, WayLines: 4096, InstrScale: 1, Seed: 1})
	// Three regions: L1-resident locality, hot fifth, cold tail.
	if len(small.WorkingSets) != 3 {
		t.Fatalf("working sets = %d, want L1+hot+tail", len(small.WorkingSets))
	}
	// Tail is deliberately sized at 80% of the nominal remainder (see
	// TraceConfig): hot + tail land within ~K ways with margin.
	lo, hi := 7*128*8/10, 7*128
	if got := small.WorkingSets[1].Lines + small.WorkingSets[2].Lines; got < lo || got > hi {
		t.Fatalf("scaled footprint = %d lines, want in [%d,%d]", got, lo, hi)
	}
	lo, hi = 7*4096*8/10, 7*4096
	if got := big.WorkingSets[1].Lines + big.WorkingSets[2].Lines; got < lo || got > hi {
		t.Fatalf("full footprint = %d lines, want in [%d,%d]", got, lo, hi)
	}
	// Hot core is a fifth of the footprint with the larger weight.
	if got := small.WorkingSets[1].Lines; got != 7*128/5 {
		t.Fatalf("hot footprint = %d lines, want %d", got, 7*128/5)
	}
	if small.WorkingSets[1].Weight <= small.WorkingSets[2].Weight {
		t.Fatal("hot region should carry the larger access weight")
	}
	// The L1-resident region fits in half the (scaled) L1D.
	if got := small.WorkingSets[0].Lines; got != 128/16 {
		t.Fatalf("L1 region = %d lines, want %d", got, 128/16)
	}
}

func TestPhasePeriodScales(t *testing.T) {
	b := MustGet("astar")
	slow := b.TraceConfig(Params{LineBytes: 64, WayLines: 128, InstrScale: 1, Seed: 1})
	fast := b.TraceConfig(Params{LineBytes: 64, WayLines: 128, InstrScale: 0.01, Seed: 1})
	if fast.PhasePeriod >= slow.PhasePeriod {
		t.Fatalf("phase period did not scale down: %d vs %d", fast.PhasePeriod, slow.PhasePeriod)
	}
	if fast.PhasePeriod < 1000 {
		t.Fatalf("phase period %d below clamp", fast.PhasePeriod)
	}
	stable := MustGet("lbm").TraceConfig(testParams(0))
	if stable.PhasePeriod != 0 {
		t.Fatal("lbm should have stable requirements")
	}
}

func TestTraceConfigPanicsOnBadParams(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("TraceConfig with bad params did not panic")
		}
	}()
	MustGet("gcc").TraceConfig(Params{})
}

func TestNewGeneratorRuns(t *testing.T) {
	g := MustGet("gcc").NewGenerator(testParams(0))
	var ev trace.Event
	mem := 0
	for i := 0; i < 10000; i++ {
		g.NextEvent(&ev)
		if r := ev.Rec; ev.HasRec && (r.Kind == trace.KindLoad || r.Kind == trace.KindStore) {
			mem++
		}
	}
	if mem == 0 {
		t.Fatal("gcc generator produced no memory accesses")
	}
}

func TestGroupsCardinality(t *testing.T) {
	if len(Groups2) != 14 || len(Groups4) != 14 {
		t.Fatalf("group counts = %d/%d, want 14/14 (Table 4)", len(Groups2), len(Groups4))
	}
	for _, g := range Groups2 {
		if len(g.Benchmarks) != 2 {
			t.Errorf("%s has %d benchmarks, want 2", g.Name, len(g.Benchmarks))
		}
	}
	for _, g := range Groups4 {
		if len(g.Benchmarks) != 4 {
			t.Errorf("%s has %d benchmarks, want 4", g.Name, len(g.Benchmarks))
		}
	}
	for _, g := range Groups8 {
		if len(g.Benchmarks) != 8 {
			t.Errorf("%s has %d benchmarks, want 8", g.Name, len(g.Benchmarks))
		}
	}
	for _, g := range Groups16 {
		if len(g.Benchmarks) != 16 {
			t.Errorf("%s has %d benchmarks, want 16", g.Name, len(g.Benchmarks))
		}
	}
}

func allGroups() []Group {
	var all []Group
	for _, table := range [][]Group{Groups2, Groups4, Groups8, Groups16} {
		all = append(all, table...)
	}
	return all
}

func TestGroupsValidate(t *testing.T) {
	for _, g := range allGroups() {
		if err := g.Validate(); err != nil {
			t.Error(err)
		}
	}
}

func TestGroupsDistinctBenchmarks(t *testing.T) {
	// No group lists the same benchmark twice (tiled groups do, but
	// only through Tile, which renames them).
	for _, g := range allGroups() {
		seen := map[string]bool{}
		for _, b := range g.Benchmarks {
			if seen[b] {
				t.Errorf("%s lists %s twice", g.Name, b)
			}
			seen[b] = true
		}
	}
}

func TestGroupTile(t *testing.T) {
	g := Groups2[0]
	tiled := g.Tile(8)
	if tiled.Name != g.Name+"@8" || len(tiled.Benchmarks) != 8 {
		t.Fatalf("Tile(8) = %+v", tiled)
	}
	for i, b := range tiled.Benchmarks {
		if b != g.Benchmarks[i%2] {
			t.Fatalf("tiled benchmark %d = %s, want %s", i, b, g.Benchmarks[i%2])
		}
	}
	if err := tiled.Validate(); err != nil {
		t.Fatal(err)
	}
	// Not widening returns the group untouched.
	if same := g.Tile(2); same.Name != g.Name || len(same.Benchmarks) != 2 {
		t.Fatalf("Tile(2) = %+v", same)
	}
}

func TestGroupsSelectionConstraints(t *testing.T) {
	// Paper: every two-app group has >= 1 High benchmark; every four-app
	// group has >= 1 High and a second memory-intensive program.
	for _, g := range Groups2 {
		if countClass(t, g, High) < 1 {
			t.Errorf("%s has no High-MPKI benchmark", g.Name)
		}
	}
	for _, g := range Groups4 {
		if countClass(t, g, High) < 1 {
			t.Errorf("%s has no High-MPKI benchmark", g.Name)
		}
		if countClass(t, g, Medium)+countClass(t, g, High) < 2 {
			t.Errorf("%s lacks a second memory-intensive benchmark", g.Name)
		}
	}
	// The many-core groups follow the same procedure.
	for _, g := range append(append([]Group{}, Groups8...), Groups16...) {
		if countClass(t, g, High) < 1 {
			t.Errorf("%s has no High-MPKI benchmark", g.Name)
		}
		if countClass(t, g, Medium)+countClass(t, g, High) < 2 {
			t.Errorf("%s lacks a second memory-intensive benchmark", g.Name)
		}
	}
}

func countClass(t *testing.T, g Group, c Class) int {
	t.Helper()
	n := 0
	for _, name := range g.Benchmarks {
		if MustGet(name).Class == c {
			n++
		}
	}
	return n
}

func TestFindGroup(t *testing.T) {
	g, err := FindGroup("G2-8")
	if err != nil || g.Benchmarks[0] != "lbm" || g.Benchmarks[1] != "soplex" {
		t.Fatalf("FindGroup(G2-8) = %+v, %v", g, err)
	}
	g, err = FindGroup("G4-13")
	if err != nil || len(g.Benchmarks) != 4 {
		t.Fatalf("FindGroup(G4-13) = %+v, %v", g, err)
	}
	if _, err := FindGroup("G9-99"); err == nil {
		t.Fatal("FindGroup(unknown) should error")
	}
}

func TestClassOf(t *testing.T) {
	cases := []struct {
		mpki float64
		want Class
	}{{20, High}, {5.1, High}, {5, Medium}, {1.5, Medium}, {1, Low}, {0.1, Low}}
	for _, tc := range cases {
		if got := ClassOf(tc.mpki); got != tc.want {
			t.Errorf("ClassOf(%v) = %s, want %s", tc.mpki, got, tc.want)
		}
	}
}

func TestGroupValidateEmpty(t *testing.T) {
	if (Group{Name: "empty"}).Validate() == nil {
		t.Fatal("empty group should fail validation")
	}
}

func TestCodeFootprints(t *testing.T) {
	gcc := MustGet("gcc").TraceConfig(testParams(0))
	if gcc.CodeLines != 128/2 {
		t.Fatalf("gcc code lines = %d, want 0.5 ways = 64", gcc.CodeLines)
	}
	lbm := MustGet("lbm").TraceConfig(testParams(0))
	if lbm.CodeLines != 1 {
		t.Fatalf("lbm code lines = %d, want tiny default", lbm.CodeLines)
	}
}
