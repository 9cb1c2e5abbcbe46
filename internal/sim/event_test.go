package sim

// Full-system differential tests for the event-compressed stepping
// path (DESIGN.md §10): System.stepRecords toggles the per-record
// reference loop, and every Results field — IPC float bits included —
// must match the event-consuming loop exactly, as must the whole
// dynamic state at the end of warm-up and of the measured region,
// where private run-ahead has to have left every core exactly where
// per-record stepping leaves it.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/workload"
)

// runStepping builds and runs cfg with the chosen stepping path.
func runStepping(t *testing.T, cfg RunConfig, perRecord bool) *Results {
	t.Helper()
	s, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.stepRecords = perRecord
	return s.Run()
}

// diffStepping fails the test if the two paths diverge anywhere.
func diffStepping(t *testing.T, cfg RunConfig, what string) {
	t.Helper()
	ref := runStepping(t, cfg, true)
	got := runStepping(t, cfg, false)
	if !reflect.DeepEqual(ref, got) {
		t.Fatalf("%s: event stepping diverged from per-record stepping\nrecord: %+v\nevent:  %+v",
			what, ref, got)
	}
}

// TestEventSteppingBitIdenticalSolo runs every one of the 19
// benchmarks solo (the Equation-1 workhorse) under both stepping
// paths. Single-core systems take the longest batches — a whole phase
// window per StepEvent call — so they stress the decision-boundary and
// retirement-target caps hardest.
func TestEventSteppingBitIdenticalSolo(t *testing.T) {
	for _, name := range workload.Names() {
		diffStepping(t, RunConfig{
			Scale:  UnitScale(),
			Scheme: Unmanaged,
			Group:  SoloGroup(name),
			Seed:   3,
		}, "solo "+name)
	}
}

// TestEventSteppingBitIdenticalGroups covers the multiprogrammed
// interleavings: 2-16 cores, the takeover scheme (whose phase
// decisions move ways between cores) and a quota scheme. The picker
// bound cap is what keeps inter-core access ordering identical; these
// configurations exercise both the linear and the heap picker.
func TestEventSteppingBitIdenticalGroups(t *testing.T) {
	g8 := workload.Groups8[0]
	g16 := workload.Groups16[0]
	for _, tc := range []struct {
		what   string
		cfg    RunConfig
		groups string
	}{
		{what: "2-core CoopPart", cfg: RunConfig{Scheme: CoopPart}, groups: "G2-8"},
		{what: "2-core UCP", cfg: RunConfig{Scheme: UCP}, groups: "G2-2"},
		{what: "4-core FairShare", cfg: RunConfig{Scheme: FairShare}, groups: "G4-9"},
		{what: "4-core CoopPart", cfg: RunConfig{Scheme: CoopPart}, groups: "G4-1"},
		{what: "8-core CoopPart", cfg: RunConfig{Scheme: CoopPart, Group: g8}},
		{what: "16-core Unmanaged", cfg: RunConfig{Scheme: Unmanaged, Group: g16}},
		{what: "16-core CoopPart", cfg: RunConfig{Scheme: CoopPart, Group: g16}},
	} {
		cfg := tc.cfg
		if tc.groups != "" {
			g, err := workload.FindGroup(tc.groups)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Group = g
		}
		cfg.Scale = UnitScale()
		cfg.Seed = 3
		diffStepping(t, cfg, tc.what)
	}
}

// TestEventSteppingWarmupAndProfile covers the remaining stepping
// window (the warm-up's retirement cap) interacting with profile
// capture, which hangs extra state off the access path.
func TestEventSteppingWarmupAndProfile(t *testing.T) {
	cfg := RunConfig{
		Scale:          UnitScale(),
		Scheme:         Unmanaged,
		Group:          SoloGroup("soplex"),
		Seed:           5,
		CaptureProfile: true,
	}
	diffStepping(t, cfg, "profile capture")
}

// stateJSON returns the system's whole dynamic state as snapshot JSON.
func stateJSON(t *testing.T, s *System) []byte {
	t.Helper()
	snap, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// diffWholeState runs cfg under both loops and fails unless the
// Snapshot() JSON matches after Warmup and after RunMeasured, and the
// Results match.
func diffWholeState(t *testing.T, cfg RunConfig, what string) {
	t.Helper()
	var sys [2]*System
	for i := range sys {
		s, err := NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		s.stepRecords = i == 0
		s.Warmup()
		sys[i] = s
	}
	if !bytes.Equal(stateJSON(t, sys[0]), stateJSON(t, sys[1])) {
		t.Fatalf("%s: state after warm-up differs from per-record stepping", what)
	}
	ref, got := sys[0].RunMeasured(0, nil), sys[1].RunMeasured(0, nil)
	if !reflect.DeepEqual(ref, got) {
		t.Fatalf("%s: Results differ from per-record stepping", what)
	}
	if !bytes.Equal(stateJSON(t, sys[0]), stateJSON(t, sys[1])) {
		t.Fatalf("%s: state after the measured region differs from per-record stepping", what)
	}
}

// withProfiles adds the DynCPE profiles of cfg's group.
func withProfiles(t *testing.T, cfg RunConfig) RunConfig {
	t.Helper()
	for _, b := range cfg.Group.Benchmarks {
		p, err := ProfileBenchmark(b, cfg.Scale, len(cfg.Group.Benchmarks), cfg.Seed)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Profiles = append(cfg.Profiles, p)
	}
	return cfg
}

// TestRunAheadWholeStateAtRunEnds pins private run-ahead's end-of-run
// horizon: a core may retire private instructions past the other
// cores' clocks, so the run's end is the one place it could leave a
// core elsewhere than per-record stepping does (Results alone can miss
// that, as they read only part of each core). Four schemes at 2-16
// cores and two seeds, plus DynCPE and PIPP at four cores. The runs
// measure a third of UnitScale's budget, which keeps the per-record
// references affordable under -race; warm-up, phase decisions and
// every core's crossing still happen.
func TestRunAheadWholeStateAtRunEnds(t *testing.T) {
	sc := UnitScale()
	sc.InstrPerApp /= 3
	var cfgs []RunConfig
	for _, name := range []string{"G2-8", "G4-1", "G8-1", "G16-1"} {
		g, err := workload.FindGroup(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, scheme := range []SchemeKind{CoopPart, UCP, Unmanaged, FairShare} {
			for _, seed := range []uint64{1, 7} {
				cfgs = append(cfgs, RunConfig{Scale: sc, Scheme: scheme, Group: g, Seed: seed})
			}
		}
		if name == "G4-1" {
			for _, scheme := range []SchemeKind{DynCPE, PIPP} {
				cfgs = append(cfgs, RunConfig{Scale: sc, Scheme: scheme, Group: g, Seed: 1})
			}
		}
	}
	for _, cfg := range cfgs {
		what := fmt.Sprintf("%s %s seed %d", cfg.Group.Name, cfg.Scheme, cfg.Seed)
		t.Run(what, func(t *testing.T) {
			if cfg.Scheme == DynCPE {
				cfg = withProfiles(t, cfg)
			}
			diffWholeState(t, cfg, what)
		})
	}
}

// TestAccountKeepsPostCrossingClockOutOfHorizon pins the horizon rule
// the whole-state tests cannot reach on their own: the clock a core
// reaches on its crossing instruction never raises the horizon, since
// a stall on that instruction can jump past the run's end. Core 0 of a
// two-core system is driven to a target whose crossing instruction
// stalls; before the crossing account folds its key in, after it only
// records the crossing.
func TestAccountKeepsPostCrossingClockOutOfHorizon(t *testing.T) {
	g, err := workload.FindGroup("G2-8")
	if err != nil {
		t.Fatal(err)
	}
	cfg := RunConfig{Scale: UnitScale(), Scheme: CoopPart, Group: g, Seed: 1}
	probe, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The first instruction past the 100th that stalls by over a cycle.
	var target uint64
	for c := probe.cores[0]; target == 0; {
		before := c.Now()
		c.Step()
		if c.Retired() > 100 && c.Now() > before+1 {
			target = c.Retired()
		}
	}

	s, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p := newProgress(2)
	var z horizon
	for i := range s.cores {
		s.account(p, &z, i, target)
	}
	if z != (horizon{0, 1}) {
		t.Fatalf("seeded horizon %+v, want core 1's key at clock 0", z)
	}
	c := s.cores[0]
	if n := c.StepEvent(math.MaxInt64, z.priv(p, 0), stepCap(c, target)); n != target-1 {
		t.Fatalf("stepCap let %d instructions retire, want %d (one short of the crossing)", n, target-1)
	}
	s.account(p, &z, 0, target)
	want := horizon{c.Now(), 0}
	if z != want || p.Recorded[0] {
		t.Fatalf("before the crossing: horizon %+v, recorded %v; want %+v, not recorded", z, p.Recorded[0], want)
	}
	if n := c.StepEvent(math.MaxInt64, z.priv(p, 0), stepCap(c, target)); n != 1 {
		t.Fatalf("the crossing call retired %d instructions, want 1", n)
	}
	s.account(p, &z, 0, target)
	if !p.Recorded[0] || p.Done != 1 {
		t.Fatal("the crossing was not recorded")
	}
	if z != want {
		t.Fatalf("horizon raised to %+v by the clock after the crossing (%d); want %+v", z, c.Now(), want)
	}
	// The crossed core now runs privately only below the horizon key,
	// the uncrossed one without bound.
	if got := z.priv(p, 0); got != want.clock-1 {
		t.Fatalf("crossed core 0 priv %d, want %d", got, want.clock-1)
	}
	if got := z.priv(p, 1); got != math.MaxInt64 {
		t.Fatalf("uncrossed core 1 priv %d, want unbounded", got)
	}
	var seeded horizon
	for i := range s.cores {
		s.account(p, &seeded, i, target)
	}
	if seeded != (horizon{0, 1}) {
		t.Fatalf("horizon seeded with core 0 crossed is %+v, want core 1's key only", seeded)
	}
}
