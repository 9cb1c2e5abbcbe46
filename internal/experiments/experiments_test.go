package experiments

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/workload"
)

// unitRunner shares one memoised runner across the package tests so
// each simulation executes once.
var unitRunner = NewRunner(Config{Scale: sim.UnitScale()})

func TestRunGroupMemoisation(t *testing.T) {
	g := workload.Groups2[0]
	a, err := unitRunner.RunGroup(g, sim.FairShare)
	if err != nil {
		t.Fatal(err)
	}
	b, err := unitRunner.RunGroup(g, sim.FairShare)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("identical runs were not memoised")
	}
}

func TestAloneIPCPositive(t *testing.T) {
	ipc, err := unitRunner.AloneIPC("namd", 2)
	if err != nil {
		t.Fatal(err)
	}
	if ipc <= 0 || ipc > 4 {
		t.Fatalf("alone IPC = %v", ipc)
	}
}

func TestWeightedSpeedupAgainstAlone(t *testing.T) {
	g := workload.Groups2[0]
	res, err := unitRunner.RunGroup(g, sim.UCP)
	if err != nil {
		t.Fatal(err)
	}
	ws, err := unitRunner.WeightedSpeedup(res)
	if err != nil {
		t.Fatal(err)
	}
	// Two applications sharing a cache: each term is at most ~1, so the
	// sum lies in (0, ~2.2] (small timing noise can push a term just
	// past 1).
	if ws <= 0 || ws > 2.2 {
		t.Fatalf("weighted speedup = %v out of range", ws)
	}
}

func TestFigureDispatch(t *testing.T) {
	if _, err := unitRunner.Figure(4); err == nil {
		t.Fatal("figure 4 is a schematic; dispatch should reject it")
	}
	if _, err := unitRunner.Figure(17); err == nil {
		t.Fatal("figure 17 does not exist")
	}
}

func TestFig5Shape(t *testing.T) {
	fig, err := unitRunner.Fig5()
	if err != nil {
		t.Fatal(err)
	}
	if err := fig.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(fig.X) != 15 { // 14 groups + AVG
		t.Fatalf("x-axis has %d entries, want 15", len(fig.X))
	}
	if len(fig.Series) != 5 {
		t.Fatalf("series = %d, want 5 schemes", len(fig.Series))
	}
	// Fair Share is the normalisation baseline: exactly 1 everywhere.
	for i, v := range fig.Get("FairShare") {
		if math.Abs(v-1) > 1e-9 {
			t.Fatalf("FairShare[%d] = %v, want 1.0", i, v)
		}
	}
}

func TestFig7StaticBaselinesExactlyOne(t *testing.T) {
	fig, err := unitRunner.Fig7()
	if err != nil {
		t.Fatal(err)
	}
	// The paper's Figure 7: Unmanaged, UCP and Fair Share cannot save
	// static energy (no way-aligned data, nothing gated).
	for _, name := range []string{"Unmanaged", "UCP", "FairShare"} {
		for i, v := range fig.Get(name) {
			if math.Abs(v-1) > 0.02 {
				t.Fatalf("%s[%s] static = %v, want 1.0", name, fig.X[i], v)
			}
		}
	}
	// Cooperative Partitioning saves static energy on average.
	coop := fig.Get("CoopPart")
	if avg := coop[len(coop)-1]; avg >= 1 {
		t.Fatalf("CoopPart average static = %v, want < 1", avg)
	}
}

func TestFig6CoopSavesDynamicEnergy(t *testing.T) {
	fig, err := unitRunner.Fig6()
	if err != nil {
		t.Fatal(err)
	}
	coop := fig.Get("CoopPart")
	unmanaged := fig.Get("Unmanaged")
	if coop[len(coop)-1] >= unmanaged[len(unmanaged)-1] {
		t.Fatalf("CoopPart dynamic %v not below Unmanaged %v",
			coop[len(coop)-1], unmanaged[len(unmanaged)-1])
	}
}

func TestFig11ThresholdMonotoneAtExtremes(t *testing.T) {
	fig, err := unitRunner.Fig11()
	if err != nil {
		t.Fatal(err)
	}
	t0 := fig.Get("T=0.00")
	t20 := fig.Get("T=0.20")
	if t0 == nil || t20 == nil {
		t.Fatalf("threshold series missing: %v", fig.Series)
	}
	if t0[len(t0)-1] < t20[len(t20)-1] {
		t.Fatalf("T=0.2 average %v should not beat T=0 average %v",
			t20[len(t20)-1], t0[len(t0)-1])
	}
}

func TestFig14FractionsSumToOne(t *testing.T) {
	fig, err := unitRunner.Fig14()
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range fig.X {
		if x == "AVG" {
			continue
		}
		var sum float64
		for _, s := range fig.Series {
			sum += s.Values[i]
		}
		if sum != 0 && math.Abs(sum-1) > 1e-9 {
			t.Fatalf("%s: event fractions sum to %v", x, sum)
		}
	}
}

func TestFig15BothSchemesMeasured(t *testing.T) {
	fig, err := unitRunner.Fig15()
	if err != nil {
		t.Fatal(err)
	}
	if fig.Get("UCP") == nil || fig.Get("CoopPart") == nil {
		t.Fatal("Fig15 must carry both schemes")
	}
}

func TestFig16TimelineWellFormed(t *testing.T) {
	fig, err := unitRunner.Fig16()
	if err != nil {
		t.Fatal(err)
	}
	if err := fig.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(fig.X) == 0 {
		t.Fatal("empty flush timeline")
	}
}

func TestTablesRender(t *testing.T) {
	var sb strings.Builder
	if err := unitRunner.Table1(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "4128") || !strings.Contains(sb.String(), "8320") {
		t.Fatalf("Table 1 totals missing:\n%s", sb.String())
	}
	sb.Reset()
	if err := unitRunner.Table2(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "ROB") {
		t.Fatal("Table 2 incomplete")
	}
	sb.Reset()
	if err := unitRunner.Table4(&sb); err != nil {
		t.Fatal(err)
	}
	for _, g := range []string{"G2-1", "G4-14"} {
		if !strings.Contains(sb.String(), g) {
			t.Fatalf("Table 4 missing %s", g)
		}
	}
}

func TestTable3AllBenchmarks(t *testing.T) {
	rows, err := unitRunner.Table3()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 19 {
		t.Fatalf("Table 3 rows = %d, want 19", len(rows))
	}
	for _, row := range rows {
		if row.MeasuredMPKI < 0 {
			t.Fatalf("%s: negative MPKI", row.Benchmark)
		}
	}
	var sb strings.Builder
	WriteTable3(&sb, rows)
	if !strings.Contains(sb.String(), "lbm") {
		t.Fatal("rendered Table 3 missing lbm")
	}
}

func TestAblationVictimNegligibleCost(t *testing.T) {
	fig, err := unitRunner.AblationVictim()
	if err != nil {
		t.Fatal(err)
	}
	free := fig.Get("UCP(free)")
	aligned := fig.Get("CoopPart(aligned)")
	avgFree, avgAligned := free[len(free)-1], aligned[len(aligned)-1]
	// Section 2.5: way-aligned placement causes negligible loss.
	if avgAligned < avgFree*0.93 {
		t.Fatalf("way-aligned victim choice too costly: %v vs %v", avgAligned, avgFree)
	}
}

func TestAblationTakeoverRuns(t *testing.T) {
	fig, err := unitRunner.AblationTakeover()
	if err != nil {
		t.Fatal(err)
	}
	if err := fig.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestAblationGatingSavesStatic(t *testing.T) {
	fig, err := unitRunner.AblationGating()
	if err != nil {
		t.Fatal(err)
	}
	ratio := fig.Get("Gated/Ungated")
	if avg := ratio[len(ratio)-1]; avg > 1.0001 {
		t.Fatalf("gating increased static power: %v", avg)
	}
}

func TestDefaultRunnerConfig(t *testing.T) {
	r := NewRunner(Config{})
	if r.Scale().Name != "test" || r.cfg.Threshold != DefaultThreshold || r.cfg.Seed != 1 {
		t.Fatalf("defaults wrong: %+v", r.cfg)
	}
}

func TestGroupsFor(t *testing.T) {
	if _, err := groupsFor(3); err == nil {
		t.Fatal("groupsFor(3) should fail")
	}
	g2, _ := groupsFor(2)
	g4, _ := groupsFor(4)
	if len(g2) != 14 || len(g4) != 14 {
		t.Fatal("wrong group tables")
	}
}

func TestExtDrowsySavesStaticWithoutPerfCollapse(t *testing.T) {
	fig, err := unitRunner.ExtDrowsy()
	if err != nil {
		t.Fatal(err)
	}
	static := fig.Get("StaticPower")
	perf := fig.Get("Performance")
	if avg := static[len(static)-1]; avg >= 1 {
		t.Fatalf("drowsy extension saved no static power: %v", avg)
	}
	if avg := perf[len(perf)-1]; avg < 0.95 {
		t.Fatalf("drowsy extension cost too much performance: %v", avg)
	}
}

func TestHeadroomRows(t *testing.T) {
	rows, err := unitRunner.Headroom()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 14 {
		t.Fatalf("headroom rows = %d, want 14", len(rows))
	}
	for _, row := range rows {
		if row.SavedFraction < 0 || row.SavedFraction > LLCShareOfChip {
			t.Fatalf("%s: saved fraction %v out of range", row.Group, row.SavedFraction)
		}
		if row.FreqUplift < 0 || row.FreqUplift > 0.12 {
			t.Fatalf("%s: uplift %v implausible", row.Group, row.FreqUplift)
		}
	}
}

// TestTable3ClassificationAtTestScale asserts the full calibration of
// the synthetic benchmarks: at the default test scale every benchmark
// must land in its published MPKI class. Skipped with -short (19 solo
// simulations).
func TestTable3ClassificationAtTestScale(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale calibration check skipped in -short mode")
	}
	r := NewRunner(Config{Scale: sim.TestScale()})
	rows, err := r.Table3()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rows {
		if row.Measured != row.PaperClass {
			t.Errorf("%s: measured %.2f MPKI (%s), paper class %s",
				row.Benchmark, row.MeasuredMPKI, row.Measured, row.PaperClass)
		}
	}
}

func TestAblationRandomVictimSmallGap(t *testing.T) {
	fig, err := unitRunner.AblationRandomVictim()
	if err != nil {
		t.Fatal(err)
	}
	lru := fig.Get("LRU")
	random := fig.Get("Random")
	avgL, avgR := lru[len(lru)-1], random[len(random)-1]
	// Section 2.5: the gap between placements is small.
	if avgR < avgL*0.85 || avgR > avgL*1.15 {
		t.Fatalf("victim-policy gap too large: LRU %v vs Random %v", avgL, avgR)
	}
}

// TestAblationAndExtensionFigureBytes pins the exact WriteTable bytes
// of every ablation and extension figure by SHA-256 at UnitScale, seed
// 1. The runs are the shared unitRunner's, which the shape tests above
// already execute. A change that moves any of these results must
// re-record the digests and say why.
func TestAblationAndExtensionFigureBytes(t *testing.T) {
	cases := []struct {
		name string
		gen  func() (metrics.Figure, error)
		want string
	}{
		{"AblationVictim", unitRunner.AblationVictim,
			"69c943d2522e10c5e2a122b08858fe5a206b4fecf60cd1a75cd206e70244b414"},
		{"AblationTakeover", unitRunner.AblationTakeover,
			"30e5fc22d1eacbdf32f2d1e01fbab8414ad9a09af6c3f9d72a8af11694442e52"},
		{"AblationGating", unitRunner.AblationGating,
			"dbe860af63a41d111b963987bc149e8ba2feb035613041f41185e80bc044b7a1"},
		{"AblationRandomVictim", unitRunner.AblationRandomVictim,
			"238cfb62bee908cdfa06c0307fa040305899177bd58645900ee0766b662f3d50"},
		{"ExtDrowsy", unitRunner.ExtDrowsy,
			"00278cb0abcd80cb79ad0a67fcfa5043665f323a8fcb46dce47e14ff78fb05b6"},
	}
	for _, c := range cases {
		fig, err := c.gen()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		var b bytes.Buffer
		if err := fig.WriteTable(&b); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(b.Bytes())); got != c.want {
			t.Errorf("%s: table digest %s, want %s", c.name, got, c.want)
		}
	}
}
