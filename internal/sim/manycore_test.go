package sim

// Many-core system tests: the 8/16-core assemblies the scaling sweep
// runs and the Cores tiling knob (DESIGN.md §9).

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

func TestCoresTilingRun(t *testing.T) {
	// A two-benchmark group widened to 8 cores: four instances each,
	// every instance on its own seed/address space.
	g, _ := workload.FindGroup("G2-8")
	res, err := Run(RunConfig{Scale: UnitScale(), Scheme: Unmanaged, Group: g, Cores: 8, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Group != "G2-8@8" || len(res.Benchmarks) != 8 || len(res.IPC) != 8 {
		t.Fatalf("tiled run results: group %q, %d benchmarks, %d IPCs",
			res.Group, len(res.Benchmarks), len(res.IPC))
	}
	// Same benchmark, different core: distinct seeds mean the
	// instances must not be cycle-clones of each other.
	if res.IPC[0] == res.IPC[2] && res.MPKI[0] == res.MPKI[2] {
		t.Fatalf("tiled instances look identical: IPC %v MPKI %v", res.IPC, res.MPKI)
	}
	// Shrinking a group is a loud error.
	if _, err := Run(RunConfig{Scale: UnitScale(), Scheme: Unmanaged, Group: g, Cores: 1, Seed: 3}); err == nil {
		t.Fatal("Cores below the group size must fail")
	}
}
