package sim

import (
	"fmt"

	"repro/internal/mem"
	"repro/internal/partition"
	"repro/internal/workload"
)

// Fidelity is a leftover of the retired approximate simulation tiers:
// the simulator is exact, so FidelityExact is its only value. It stays
// because the benchmark module pins it: its output goldens hash
// Results as encoding/json marshals them ("Fidelity":0 included), and
// its experiments.Remote implementation spells the type in the method
// signatures. Drop it, Results.Fidelity and the Remote parameters
// together once the goldens are re-recorded.
type Fidelity uint8

// FidelityExact is the exact, bit-identical simulation.
const FidelityExact Fidelity = 0

// Results captures everything one run produces.
type Results struct {
	Scheme string
	Group  string
	// Fidelity is always FidelityExact (see Fidelity).
	Fidelity   Fidelity
	Benchmarks []string

	// IPC[i] is core i's instructions per cycle over its measured
	// region; MPKI[i] its L2 misses per kilo-instruction.
	IPC  []float64
	MPKI []float64

	// Cycles is the wall-clock length of the measured region (cycles of
	// the slowest core).
	Cycles int64

	// Dynamic and Static are the LLC energies in the meter's units,
	// integrated over the whole run (all applications keep executing
	// until the last reaches its instruction budget, as in the paper).
	Dynamic float64
	Static  float64
	// StaticPower is Static divided by the run's cycles: the
	// time-averaged leakage power. The paper's Figures 7/10/13 report
	// static energy with Unmanaged, UCP and Fair Share pinned at
	// exactly 1.0, which is this quantity (run lengths differ between
	// schemes, powered-way fractions are what the figure compares).
	StaticPower float64

	AvgWaysConsulted float64
	L1MissRate       []float64
	Allocations      []int

	SchemeStats partition.Stats
	Transition  partition.TransitionStats
	DRAM        mem.Stats

	// Profile holds core 0's per-phase utility curves when
	// CaptureProfile was set.
	Profile partition.CoreProfile
}

// WeightedSpeedup computes Equation 1 against per-benchmark alone IPCs:
// sum over cores of IPC_shared / IPC_alone.
func (r *Results) WeightedSpeedup(alone map[string]float64) (float64, error) {
	var ws float64
	for i, name := range r.Benchmarks {
		a, ok := alone[name]
		if !ok || a <= 0 {
			return 0, fmt.Errorf("sim: missing alone IPC for %q", name)
		}
		ws += r.IPC[i] / a
	}
	return ws, nil
}

// cloneStats deep-copies scheme statistics.
func cloneStats(s *partition.Stats) partition.Stats {
	out := *s
	out.PerCore = append([]partition.CoreStats(nil), s.PerCore...)
	return out
}

// cloneTransitions deep-copies transition statistics.
func cloneTransitions(t *partition.TransitionStats) partition.TransitionStats {
	out := *t
	out.Timeline = append([]uint64(nil), t.Timeline...)
	return out
}

// SoloGroup wraps one benchmark as a single-application "group" for
// alone-IPC and profiling runs.
func SoloGroup(benchmark string) workload.Group {
	return workload.Group{Name: "solo-" + benchmark, Benchmarks: []string{benchmark}}
}

// AloneConfig builds the RunConfig of a benchmark's alone run, which
// measures its alone IPC: the application running by itself with the
// whole LLC (Unmanaged, no contention), as Equation 1's denominator
// requires. The LLC geometry must match the shared runs it will be
// compared with, so the scale's two-core L2 is the target group's
// geometry, with one core on it. The checkpoint layer routes solo runs
// through this builder so the config (and thus the warm-up checkpoint
// identity) is canonical.
func AloneConfig(benchmark string, sc Scale, coresInGroup int, seed uint64) (RunConfig, error) {
	l2, err := sc.L2For(coresInGroup)
	if err != nil {
		return RunConfig{}, err
	}
	solo := sc
	solo.L2TwoCore = l2
	return RunConfig{
		Scale:  solo,
		Scheme: Unmanaged,
		Group:  SoloGroup(benchmark),
		Seed:   seed,
	}, nil
}

// ProfileConfig is AloneConfig with profile capture on — the two
// configs differ in nothing else, which is what lets one warm-up
// checkpoint serve both runs (capture only observes; its monitor is
// reset at the warm-up boundary).
func ProfileConfig(benchmark string, sc Scale, coresInGroup int, seed uint64) (RunConfig, error) {
	cfg, err := AloneConfig(benchmark, sc, coresInGroup, seed)
	if err != nil {
		return RunConfig{}, err
	}
	cfg.CaptureProfile = true
	return cfg, nil
}

// ProfileBenchmark runs a benchmark solo and captures its per-phase
// utility curves for Dynamic CPE (the paper's offline profiling step).
func ProfileBenchmark(benchmark string, sc Scale, coresInGroup int, seed uint64) (partition.CoreProfile, error) {
	cfg, err := ProfileConfig(benchmark, sc, coresInGroup, seed)
	if err != nil {
		return partition.CoreProfile{}, err
	}
	res, err := Run(cfg)
	if err != nil {
		return partition.CoreProfile{}, err
	}
	return res.Profile, nil
}
