package sim

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/workload"
)

// snapshotCfg builds the round-trip oracle config: CoopPart on a
// two-core group at unit scale.
func snapshotCfg(t testing.TB, seed uint64) RunConfig {
	t.Helper()
	g, err := workload.FindGroup("G2-8")
	if err != nil {
		t.Fatal(err)
	}
	return RunConfig{
		Scale: UnitScale(), Scheme: CoopPart, Group: g,
		Threshold: 0.05, Seed: seed,
	}
}

// roundTripEveryBoundary runs cfg once with a snapshot captured (and
// serialized) at each every-instruction boundary, then restores every
// snapshot into a freshly built system and runs it to completion. The
// property under test: serialize → restore at any boundary continues
// bit-identically — every continuation's Results must deeply equal the
// uninterrupted run's. It returns how many boundaries were exercised.
func roundTripEveryBoundary(t testing.TB, cfg RunConfig, every uint64) int {
	t.Helper()
	want, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sys.Warmup()

	// Boundary 0, the end of warm-up, is a checkpoint too, so it
	// round-trips first.
	type captured struct {
		boundary uint64
		data     []byte
	}
	warmSnap, err := sys.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	warmData, err := json.Marshal(warmSnap)
	if err != nil {
		t.Fatal(err)
	}
	snaps := []captured{{0, warmData}}

	res := sys.RunMeasured(every, func(boundary uint64) {
		snap, err := sys.Snapshot()
		if err != nil {
			t.Fatalf("snapshot at boundary %d: %v", boundary, err)
		}
		data, err := json.Marshal(snap)
		if err != nil {
			t.Fatalf("marshal at boundary %d: %v", boundary, err)
		}
		snaps = append(snaps, captured{boundary, data})
	})
	if !reflect.DeepEqual(res, want) {
		t.Fatal("instrumented run differs from plain Run — snapshotting perturbed the simulation")
	}

	for _, c := range snaps {
		snap := new(Snapshot)
		if err := json.Unmarshal(c.data, snap); err != nil {
			t.Fatalf("unmarshal at boundary %d: %v", c.boundary, err)
		}
		fresh, err := NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := fresh.RestoreSnapshot(snap); err != nil {
			t.Fatalf("restore at boundary %d: %v", c.boundary, err)
		}
		got := fresh.RunMeasured(0, nil)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("continuation from boundary %d diverges from the uninterrupted run", c.boundary)
		}
	}
	return len(snaps)
}

// TestSnapshotRoundTripAtEveryRecordBoundary exercises an aligned
// cadence and an off-grid prime one. The prime cadence is the hard
// case: boundaries land mid-phase at arbitrary points of the
// generators' RNG walks and the fractional-MLP clocks, none of which
// may lose precision through the JSON round-trip.
func TestSnapshotRoundTripAtEveryRecordBoundary(t *testing.T) {
	for _, every := range []uint64{30_000, 7_919} {
		cfg := snapshotCfg(t, 1)
		n := roundTripEveryBoundary(t, cfg, every)
		if n < 2 {
			t.Fatalf("every=%d: only %d boundaries exercised", every, n)
		}
		t.Logf("every=%d: %d boundaries round-tripped", every, n)
	}
}

// TestCheckpointsCrossResumeBetweenLoops: with private run-ahead, a
// mid-run snapshot holds cores that ran ahead of the per-record
// interleaving, so its bytes depend on the loop that wrote it. Each
// must still be a valid state of the run: at G16-1 CoopPart, every
// snapshot taken at a checkpoint boundary by one loop resumes under
// the other loop to the uninterrupted run's Results, both ways.
func TestCheckpointsCrossResumeBetweenLoops(t *testing.T) {
	g, err := workload.FindGroup("G16-1")
	if err != nil {
		t.Fatal(err)
	}
	cfg := RunConfig{Scale: UnitScale(), Scheme: CoopPart, Group: g, Seed: 1}
	want, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	written := map[bool][][]byte{}
	for _, writerRecords := range []bool{false, true} {
		sys, err := NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sys.stepRecords = writerRecords
		sys.Warmup()
		var snaps [][]byte
		res := sys.RunMeasured(40_000, func(boundary uint64) {
			snaps = append(snaps, stateJSON(t, sys))
		})
		if !reflect.DeepEqual(res, want) {
			t.Fatalf("writer per-record=%v: checkpointed run differs from the uninterrupted one", writerRecords)
		}
		if len(snaps) < 2 {
			t.Fatalf("writer per-record=%v: only %d boundaries", writerRecords, len(snaps))
		}
		written[writerRecords] = snaps
		for i, data := range snaps {
			snap := new(Snapshot)
			if err := json.Unmarshal(data, snap); err != nil {
				t.Fatal(err)
			}
			fresh, err := NewSystem(cfg)
			if err != nil {
				t.Fatal(err)
			}
			fresh.stepRecords = !writerRecords
			if err := fresh.RestoreSnapshot(snap); err != nil {
				t.Fatal(err)
			}
			if got := fresh.RunMeasured(0, nil); !reflect.DeepEqual(got, want) {
				t.Fatalf("snapshot %d written per-record=%v diverges when resumed by the other loop",
					i, writerRecords)
			}
		}
	}
	// The loops must really have written different states, or the test
	// resumed nothing run-ahead produced.
	if bytes.Equal(written[false][0], written[true][0]) {
		t.Fatal("the two loops wrote identical first snapshots")
	}
}

// TestSnapshotRoundTripCaptureProfile covers the profiling state: a
// CaptureProfile run's snapshots, boundary 0 included, carry the
// profile monitor and phase log, and continuations must reproduce
// Results.Profile exactly.
func TestSnapshotRoundTripCaptureProfile(t *testing.T) {
	g, err := workload.FindGroup("G2-8")
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := ProfileConfig(g.Benchmarks[0], UnitScale(), len(g.Benchmarks), 1)
	if err != nil {
		t.Fatal(err)
	}
	roundTripEveryBoundary(t, cfg, 30_000)
}

// TestSnapshotRejectsMismatchedSystem: a snapshot must only restore
// into a system of the identical configuration; scheme and geometry
// mismatches fail loudly instead of continuing from inconsistent
// state.
func TestSnapshotRejectsMismatchedSystem(t *testing.T) {
	cfg := snapshotCfg(t, 1)
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sys.Warmup()
	snap, err := sys.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	other := cfg
	other.Scheme = UCP
	wrongScheme, err := NewSystem(other)
	if err != nil {
		t.Fatal(err)
	}
	if err := wrongScheme.RestoreSnapshot(snap); err == nil {
		t.Fatal("snapshot restored into a different scheme")
	}

	four := cfg
	if four.Group, err = workload.FindGroup("G4-8"); err != nil {
		t.Fatal(err)
	}
	wrongCores, err := NewSystem(four)
	if err != nil {
		t.Fatal(err)
	}
	if err := wrongCores.RestoreSnapshot(snap); err == nil {
		t.Fatal("two-core snapshot restored into a four-core system")
	}

	// A benchmark's solo and profile runs differ only in CaptureProfile:
	// neither's snapshot may restore into the other.
	alone, err := AloneConfig(cfg.Group.Benchmarks[0], cfg.Scale, len(cfg.Group.Benchmarks), cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	profile := alone
	profile.CaptureProfile = true
	for _, c := range []struct{ from, into RunConfig }{{alone, profile}, {profile, alone}} {
		src, err := NewSystem(c.from)
		if err != nil {
			t.Fatal(err)
		}
		src.Warmup()
		snap, err := src.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		dst, err := NewSystem(c.into)
		if err != nil {
			t.Fatal(err)
		}
		if err := dst.RestoreSnapshot(snap); err == nil {
			t.Fatalf("snapshot with CaptureProfile=%v restored into a system with CaptureProfile=%v",
				c.from.CaptureProfile, c.into.CaptureProfile)
		}
	}
}

// FuzzSnapshotRoundTrip drives the round-trip property over fuzzed
// (cadence, seed) pairs. The seed corpus covers off-grid cadences;
// `go test` runs the corpus as a smoke, `go test
// -fuzz=FuzzSnapshotRoundTrip` explores further.
func FuzzSnapshotRoundTrip(f *testing.F) {
	f.Add(uint64(7_919), uint64(1))
	f.Add(uint64(7_919), uint64(2))
	f.Add(uint64(41_333), uint64(3))
	f.Fuzz(func(t *testing.T, every, seed uint64) {
		scale := UnitScale()
		// Clamp the cadence into (0, InstrPerApp) without collapsing the
		// fuzzed variety; tiny cadences would mean thousands of
		// continuations per exec.
		every = every%scale.InstrPerApp + 1
		if every < 5_000 {
			every += 5_000
		}
		roundTripEveryBoundary(t, snapshotCfg(t, seed), every)
	})
}
