package sim

import (
	"encoding/json"
	"testing"

	"repro/internal/workload"
)

// BenchmarkRunMeasured16Core times the 16-core stepping loop: each op
// restores a G16-1 CoopPart UnitScale warm-up snapshot and runs the
// measured region. CI pins it in the benchstat soft gate: a change that
// keeps every output byte-identical but hands the turn between cores
// at every few instructions again fails there, which no test can see.
func BenchmarkRunMeasured16Core(b *testing.B) {
	g, err := workload.FindGroup("G16-1")
	if err != nil {
		b.Fatal(err)
	}
	cfg := RunConfig{Scale: UnitScale(), Scheme: CoopPart, Group: g, Seed: 1}
	warm, err := NewSystem(cfg)
	if err != nil {
		b.Fatal(err)
	}
	warm.Warmup()
	snap, err := warm.Snapshot()
	if err != nil {
		b.Fatal(err)
	}
	data, err := json.Marshal(snap)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s, err := NewSystem(cfg)
		if err != nil {
			b.Fatal(err)
		}
		snap := new(Snapshot)
		if err := json.Unmarshal(data, snap); err != nil {
			b.Fatal(err)
		}
		if err := s.RestoreSnapshot(snap); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		s.RunMeasured(0, nil)
	}
}
