package trace

import (
	"math"
	"testing"
	"testing/quick"
)

func baseConfig() Config {
	return Config{
		MemFrac:     0.3,
		StoreFrac:   0.3,
		BranchFrac:  0.15,
		BranchNoise: 0.05,
		StreamFrac:  0.2,
		HugeFrac:    0.1,
		HugeLines:   100000,
		WorkingSets: []WS{{Lines: 4096, Weight: 1}},
		MLP:         2,
		LineBytes:   64,
		Seed:        42,
	}
}

func TestValidateAcceptsBase(t *testing.T) {
	if err := baseConfig().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejects(t *testing.T) {
	cases := []func(*Config){
		func(c *Config) { c.MemFrac = 1.5 },
		func(c *Config) { c.MemFrac = 0.7; c.BranchFrac = 0.6 },
		func(c *Config) { c.StreamFrac = 0.8; c.HugeFrac = 0.5 },
		func(c *Config) { c.HugeFrac = 0.2; c.HugeLines = 0 },
		func(c *Config) { c.WorkingSets = nil },
		func(c *Config) { c.WorkingSets = []WS{{Lines: -1, Weight: 1}} },
		func(c *Config) { c.MLP = 0.5 },
		func(c *Config) { c.LineBytes = 0 },
		func(c *Config) { c.PhaseDepth = 2 },
		// NaN fails every range check.
		func(c *Config) { c.MemFrac = math.NaN() },
		func(c *Config) { c.StoreFrac = math.NaN() },
		func(c *Config) { c.BranchNoise = math.NaN() },
		func(c *Config) { c.StreamFrac = math.NaN() },
		func(c *Config) { c.PhaseDepth = math.NaN() },
		func(c *Config) { c.MLP = math.NaN() },
		func(c *Config) { c.WorkingSets = []WS{{Lines: 8, Weight: math.NaN()}} },
		// Lines must be a power of two >= 4 for the batched PC walk.
		func(c *Config) { c.LineBytes = 2 },
		func(c *Config) { c.LineBytes = 48 },
		func(c *Config) { c.LineBytes = 100 },
	}
	for i, mutate := range cases {
		cfg := baseConfig()
		mutate(&cfg)
		if cfg.Validate() == nil {
			t.Errorf("case %d: config should fail validation: %+v", i, cfg)
		}
	}
}

func TestInstructionMixFractions(t *testing.T) {
	g := NewGenerator(baseConfig())
	const n = 200000
	var counts [4]int
	var r Record
	for i := 0; i < n; i++ {
		g.Next(&r)
		counts[r.Kind]++
	}
	memFrac := float64(counts[KindLoad]+counts[KindStore]) / n
	brFrac := float64(counts[KindBranch]) / n
	if math.Abs(memFrac-0.3) > 0.01 {
		t.Errorf("memory fraction = %v, want ~0.3", memFrac)
	}
	if math.Abs(brFrac-0.15) > 0.01 {
		t.Errorf("branch fraction = %v, want ~0.15", brFrac)
	}
	storeFrac := float64(counts[KindStore]) / float64(counts[KindLoad]+counts[KindStore])
	if math.Abs(storeFrac-0.3) > 0.02 {
		t.Errorf("store fraction = %v, want ~0.3", storeFrac)
	}
	if g.Emitted() != n {
		t.Errorf("Emitted = %d, want %d", g.Emitted(), n)
	}
}

func TestDeterminism(t *testing.T) {
	g1 := NewGenerator(baseConfig())
	g2 := NewGenerator(baseConfig())
	var r1, r2 Record
	for i := 0; i < 10000; i++ {
		g1.Next(&r1)
		g2.Next(&r2)
		if r1 != r2 {
			t.Fatalf("record %d diverged: %+v vs %+v", i, r1, r2)
		}
	}
}

func TestSeedsDiverge(t *testing.T) {
	cfgA := baseConfig()
	cfgB := baseConfig()
	cfgB.Seed = 43
	g1, g2 := NewGenerator(cfgA), NewGenerator(cfgB)
	var r1, r2 Record
	same := 0
	for i := 0; i < 1000; i++ {
		g1.Next(&r1)
		g2.Next(&r2)
		if r1 == r2 {
			same++
		}
	}
	if same > 900 {
		t.Fatalf("different seeds produced %d/1000 identical records", same)
	}
}

func TestAddressesAreLineAligned(t *testing.T) {
	g := NewGenerator(baseConfig())
	var r Record
	for i := 0; i < 20000; i++ {
		g.Next(&r)
		if r.Kind == KindLoad || r.Kind == KindStore {
			if r.Addr%64 != 0 {
				t.Fatalf("address %#x not line aligned", r.Addr)
			}
		}
	}
}

func TestAddrBaseSeparatesSpaces(t *testing.T) {
	cfgA := baseConfig()
	cfgB := baseConfig()
	cfgB.AddrBase = 1 << 40
	gA, gB := NewGenerator(cfgA), NewGenerator(cfgB)
	var r Record
	seen := map[uint64]bool{}
	for i := 0; i < 50000; i++ {
		gA.Next(&r)
		if r.Kind == KindLoad || r.Kind == KindStore {
			seen[r.Addr] = true
		}
	}
	for i := 0; i < 50000; i++ {
		gB.Next(&r)
		if (r.Kind == KindLoad || r.Kind == KindStore) && seen[r.Addr] {
			t.Fatalf("address %#x appears in both address spaces", r.Addr)
		}
	}
}

func TestStreamingNeverRepeats(t *testing.T) {
	cfg := baseConfig()
	cfg.StreamFrac = 1
	cfg.HugeFrac = 0
	cfg.WorkingSets = nil
	g := NewGenerator(cfg)
	var r Record
	seen := map[uint64]bool{}
	for i := 0; i < 30000; i++ {
		g.Next(&r)
		if r.Kind != KindLoad && r.Kind != KindStore {
			continue
		}
		if seen[r.Addr] {
			t.Fatalf("streaming address %#x repeated", r.Addr)
		}
		seen[r.Addr] = true
	}
}

func TestWorkingSetBounded(t *testing.T) {
	cfg := baseConfig()
	cfg.StreamFrac = 0
	cfg.HugeFrac = 0
	cfg.WorkingSets = []WS{{Lines: 128, Weight: 1}}
	g := NewGenerator(cfg)
	var r Record
	distinct := map[uint64]bool{}
	for i := 0; i < 50000; i++ {
		g.Next(&r)
		if r.Kind == KindLoad || r.Kind == KindStore {
			distinct[r.Addr] = true
		}
	}
	if len(distinct) > 128 {
		t.Fatalf("working set of 128 lines produced %d distinct lines", len(distinct))
	}
	if len(distinct) < 100 {
		t.Fatalf("working set badly undersampled: %d distinct lines", len(distinct))
	}
}

func TestPhaseOscillation(t *testing.T) {
	cfg := baseConfig()
	cfg.StreamFrac = 0
	cfg.HugeFrac = 0
	cfg.WorkingSets = []WS{{Lines: 10000, Weight: 1}}
	cfg.PhasePeriod = 20000
	cfg.PhaseDepth = 0.01
	g := NewGenerator(cfg)
	var r Record
	// First half-phase: large footprint.
	firstHalf := map[uint64]bool{}
	for g.memCount < 10000 {
		g.Next(&r)
		if r.Kind == KindLoad || r.Kind == KindStore {
			firstHalf[r.Addr] = true
		}
	}
	secondHalf := map[uint64]bool{}
	for g.memCount < 20000 {
		g.Next(&r)
		if r.Kind == KindLoad || r.Kind == KindStore {
			secondHalf[r.Addr] = true
		}
	}
	if len(secondHalf) >= len(firstHalf)/4 {
		t.Fatalf("small phase footprint %d not much smaller than large phase %d",
			len(secondHalf), len(firstHalf))
	}
}

func TestBranchOutcomesMostlyPredictable(t *testing.T) {
	cfg := baseConfig()
	cfg.BranchNoise = 0
	g := NewGenerator(cfg)
	var r Record
	takenCount, branches := 0, 0
	for i := 0; i < 100000; i++ {
		g.Next(&r)
		if r.Kind == KindBranch {
			branches++
			if r.Taken {
				takenCount++
			}
		}
	}
	if branches == 0 {
		t.Fatal("no branches generated")
	}
	// The LFSR pattern is roughly balanced but deterministic.
	ratio := float64(takenCount) / float64(branches)
	if ratio < 0.2 || ratio > 0.8 {
		t.Fatalf("taken ratio = %v, want balanced-ish", ratio)
	}
}

func TestKindString(t *testing.T) {
	want := map[Kind]string{KindALU: "alu", KindLoad: "load", KindStore: "store", KindBranch: "branch"}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("Kind(%d).String() = %q, want %q", k, k.String(), s)
		}
	}
	if Kind(99).String() == "" {
		t.Error("unknown kind should still stringify")
	}
}

// Property: generators never emit invalid kinds and memory addresses
// stay within the laid-out regions.
func TestPropertyRecordsWellFormed(t *testing.T) {
	f := func(seed uint64) bool {
		cfg := baseConfig()
		cfg.Seed = seed
		g := NewGenerator(cfg)
		var r Record
		for i := 0; i < 2000; i++ {
			g.Next(&r)
			if r.Kind > KindBranch {
				return false
			}
			if (r.Kind == KindLoad || r.Kind == KindStore) && r.Addr == 0 {
				// Addr 0 would mean the mixture fell through.
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
