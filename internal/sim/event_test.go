package sim

// Full-system differential tests for the event-compressed stepping
// path (DESIGN.md §10): System.stepRecords toggles the per-record
// reference loop, and every Results field — IPC float bits included —
// must match the event-consuming loop exactly.

import (
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
