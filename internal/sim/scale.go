// Package sim assembles the full CMP system of Table 2 — out-of-order
// cores with private L1 data caches, a shared partitioned L2, utility
// monitors, and DRAM — and runs multiprogrammed workloads on it under
// any of the five partitioning schemes.
//
// Two simulation scales are provided. FullScale reproduces Table 2
// verbatim (2MB/4MB LLC, 5M-cycle phases, 1B instructions per
// application); it is faithful but takes hours per figure. TestScale
// shrinks every structure by the same factor — 32x fewer LLC sets, the
// same associativities, phase intervals and footprints scaled alike —
// so that the relative behaviour (utility curves in way units, phase
// counts per run, takeover durations in phases) is preserved while a
// full figure regenerates in seconds. DESIGN.md §5 records this
// substitution.
package sim

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/mem"
)

// Scale fixes every size parameter of the simulated system.
type Scale struct {
	Name string

	// L1D and L1I are the per-core private first-level caches.
	L1D cache.Config
	L1I cache.Config
	// L2SizeTwoCore/L2SizeFourCore with the associativities of Table 2
	// fix the shared cache; latency comes from the table as well.
	L2TwoCore  cache.Config
	L2FourCore cache.Config

	Mem mem.Config

	// PhaseCycles is the monitoring/partitioning interval.
	PhaseCycles int64
	// InstrPerApp is the measured instruction budget per application.
	InstrPerApp uint64
	// WarmupInstr is the per-application cache/predictor warm-up budget.
	WarmupInstr uint64
	// UMONSampling is the utility-monitor set-sampling ratio.
	UMONSampling int
	// MSHRs bounds each core's outstanding L2 misses.
	MSHRs int
}

// FullScale is the paper's Table 2 configuration.
func FullScale() Scale {
	return Scale{
		Name: "full",
		L1D:  cache.Config{Name: "L1D", SizeBytes: 32 << 10, LineBytes: 64, Ways: 4, Latency: 2},
		L1I:  cache.Config{Name: "L1I", SizeBytes: 32 << 10, LineBytes: 64, Ways: 4, Latency: 2},
		L2TwoCore: cache.Config{
			Name: "L2", SizeBytes: 2 << 20, LineBytes: 64, Ways: 8, Latency: 15},
		L2FourCore: cache.Config{
			Name: "L2", SizeBytes: 4 << 20, LineBytes: 64, Ways: 16, Latency: 20},
		Mem:          mem.DefaultConfig(),
		PhaseCycles:  5_000_000,
		InstrPerApp:  1_000_000_000,
		WarmupInstr:  10_000_000,
		UMONSampling: 32,
		MSHRs:        128,
	}
}

// TestScale is FullScale with the LLC capacity divided by 32 (sets)
// while keeping associativities, latencies and the phase-to-transfer-
// time ratios: 64KB/8-way and 128KB/16-way LLCs (128 sets each, like
// the full hierarchy's 4096) and proportionally shorter phases and
// instruction budgets. The L1D shrinks less (4KB, 1/8 of full scale):
// it must still hold each application's L1-resident locality region
// comfortably, or traffic that the paper's 32KB L1 would absorb floods
// the scaled LLC and distorts the utility-curve shapes that the
// partitioning algorithms discriminate on.
func TestScale() Scale {
	return Scale{
		Name: "test",
		L1D:  cache.Config{Name: "L1D", SizeBytes: 4 << 10, LineBytes: 64, Ways: 4, Latency: 2},
		L1I:  cache.Config{Name: "L1I", SizeBytes: 4 << 10, LineBytes: 64, Ways: 4, Latency: 2},
		L2TwoCore: cache.Config{
			Name: "L2", SizeBytes: 64 << 10, LineBytes: 64, Ways: 8, Latency: 15},
		L2FourCore: cache.Config{
			Name: "L2", SizeBytes: 128 << 10, LineBytes: 64, Ways: 16, Latency: 20},
		Mem:          mem.DefaultConfig(),
		PhaseCycles:  100_000,
		InstrPerApp:  1_200_000,
		WarmupInstr:  100_000,
		UMONSampling: 1,
		MSHRs:        16,
	}
}

// UnitScale is a miniature configuration for unit tests: very short
// runs on the TestScale hierarchy.
func UnitScale() Scale {
	s := TestScale()
	s.Name = "unit"
	s.PhaseCycles = 20_000
	s.InstrPerApp = 120_000
	s.WarmupInstr = 10_000
	return s
}

// L2For returns the shared-cache configuration for a core count. The
// paper's Table 2 fixes the 2- and 4-core points (1MB and 4 ways per
// core); larger CMPs extrapolate the same per-core scaling: capacity
// and associativity double with the core count (the set count stays
// constant, like Table 2's 4096 sets at both sizes) and the access
// latency grows by 5 cycles per doubling (larger arrays, longer
// wires). Associativity saturates at the 64-way mask limit — reached
// at 16 cores — beyond which capacity keeps scaling through sets.
// Core counts beyond 4 must be powers of two, up to 64 (the
// permission-register mask limit).
func (s Scale) L2For(cores int) (cache.Config, error) {
	switch {
	case cores <= 0:
		return cache.Config{}, fmt.Errorf("sim: no L2 configuration for %d cores", cores)
	case cores <= 2:
		return s.L2TwoCore, nil
	case cores <= 4:
		return s.L2FourCore, nil
	}
	if cores > 64 {
		return cache.Config{}, fmt.Errorf("sim: %d cores exceed the 64-core limit", cores)
	}
	if cores&(cores-1) != 0 {
		return cache.Config{}, fmt.Errorf("sim: core count %d beyond 4 must be a power of two", cores)
	}
	cfg := s.L2FourCore
	for n := 4; n < cores; n *= 2 {
		cfg.SizeBytes *= 2
		if cfg.Ways*2 <= 64 {
			cfg.Ways *= 2
		}
		cfg.Latency += 5
	}
	return cfg, nil
}

// PhaseScale is the partitioning interval relative to the paper's 5M
// cycles; workload phase-oscillation periods scale with it.
func (s Scale) PhaseScale() float64 {
	return float64(s.PhaseCycles) / 5e6
}

// maxMSHRs caps Scale.MSHRs far above any shipped scale (FullScale
// uses 128): each core's MSHR file is allocated at that capacity, and
// a scale can arrive from outside the program (expd).
const maxMSHRs = 1 << 16

// Validate reports scale errors. A scale that passes builds a system
// without panicking.
func (s Scale) Validate() error {
	if err := s.L1D.Validate(); err != nil {
		return err
	}
	if err := s.L1I.Validate(); err != nil {
		return err
	}
	for _, l2 := range []cache.Config{s.L2TwoCore, s.L2FourCore} {
		if err := l2.Validate(); err != nil {
			return err
		}
		// The trace generator aligns addresses to the LLC line and
		// refuses lines below 4 bytes.
		if l2.LineBytes < 4 {
			return fmt.Errorf("sim: LLC line size %d in scale %q is below 4 bytes", l2.LineBytes, s.Name)
		}
	}
	if err := s.Mem.Validate(); err != nil {
		return err
	}
	if s.MSHRs > maxMSHRs {
		return fmt.Errorf("sim: %d MSHRs in scale %q exceed the limit of %d", s.MSHRs, s.Name, maxMSHRs)
	}
	if s.PhaseCycles <= 0 || s.InstrPerApp == 0 {
		return fmt.Errorf("sim: non-positive run parameters in scale %q", s.Name)
	}
	if u := s.UMONSampling; u > 1 && u&(u-1) != 0 {
		return fmt.Errorf("sim: UMON sampling %d in scale %q is not a power of two", u, s.Name)
	}
	return nil
}
