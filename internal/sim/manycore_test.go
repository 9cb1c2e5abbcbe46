package sim

// Many-core system tests: the 8/16-core assemblies the scaling sweep
// runs (DESIGN.md §9).

import (
	"testing"

	"repro/internal/workload"
)

func TestEightCoreRunEndToEnd(t *testing.T) {
	g, err := workload.FindGroup("G8-1")
	if err != nil {
		t.Fatal(err)
	}
	for _, scheme := range []SchemeKind{FairShare, UCP, CoopPart} {
		res, err := Run(RunConfig{Scale: UnitScale(), Scheme: scheme, Group: g, Seed: 3})
		if err != nil {
			t.Fatalf("%s: %v", scheme, err)
		}
		if len(res.IPC) != 8 {
			t.Fatalf("%s: %d IPC entries, want 8", scheme, len(res.IPC))
		}
		for i, ipc := range res.IPC {
			if ipc <= 0 || ipc > 4 {
				t.Fatalf("%s: core %d IPC %v out of range", scheme, i, ipc)
			}
		}
		if res.SchemeStats.Decisions == 0 {
			t.Fatalf("%s: no phase decisions fired", scheme)
		}
	}
}
