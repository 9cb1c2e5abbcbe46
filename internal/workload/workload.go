// Package workload defines the 19 synthetic benchmarks standing in for
// the C/C++ SPEC CPU2006 applications of Table 3 and the multiprogrammed
// groupings of Table 4.
//
// Each benchmark's mixture parameters are calibrated so that its
// last-level-cache MPKI (misses per kilo-instruction, measured solo with
// the full LLC) lands in the paper's class — High (MPKI > 5), Medium
// (1 < MPKI < 5) or Low (MPKI < 1) — and so that its utility curve
// matches the paper's narrative: gcc converges to ~7 ways,
// lbm/libquantum are streaming and way-insensitive, sjeng/mcf have
// footprints far beyond the LLC, astar/bzip2/gcc/povray oscillate
// between phases with different cache requirements, and the Low group
// barely touches the LLC.
//
// Footprints are specified in units of LLC *ways* and materialised
// against a concrete cache geometry through Params: a working set of K
// ways spans K * (lines per way) lines whatever the simulation scale,
// so the benchmark's utility-curve knee lands on the same way count on
// the paper's full-size hierarchy and on the scaled-down hierarchy the
// test suite uses. Phase oscillation periods are specified in full-
// scale instructions (against the paper's 1B-instruction runs) and
// scaled by Params.PhaseScale.
package workload

import (
	"fmt"

	"repro/internal/trace"
)

// Class is the paper's MPKI classification (Table 3).
type Class string

// The three MPKI classes.
const (
	High   Class = "High"   // MPKI > 5
	Medium Class = "Medium" // 1 < MPKI < 5
	Low    Class = "Low"    // MPKI < 1
)

// wsSpec is a working set with its footprint in LLC ways.
type wsSpec struct {
	Ways   float64
	Weight float64
}

// spec is the scale-independent description of one benchmark.
type spec struct {
	MemFrac     float64
	StoreFrac   float64
	BranchFrac  float64
	BranchNoise float64
	StreamFrac  float64
	HugeFrac    float64
	HugeWays    float64
	WorkingSets []wsSpec
	// PhaseInsts is the footprint-oscillation period in full-scale
	// instructions (0 = stable requirements).
	PhaseInsts float64
	PhaseDepth float64
	MLP        float64
	// CodeWays is the instruction footprint in LLC ways (0 = tiny).
	// Large-code benchmarks (gcc, perlbench, gobmk, xalan) stress the
	// L1I and put instruction lines into the shared LLC.
	CodeWays float64
}

// Benchmark describes one synthetic SPEC-like application.
type Benchmark struct {
	Name      string
	Class     Class
	PaperMPKI float64 // the MPKI reported in Table 3
	spec      spec
}

// Params materialises a benchmark against a concrete simulation scale.
type Params struct {
	CoreID    int
	LineBytes int // LLC line size
	WayLines  int // lines per LLC way (= LLC sets)
	// PhaseScale is the partitioning interval relative to the paper's
	// 5M cycles. Footprint-oscillation periods scale with it so that an
	// oscillation spans the same number of partitioning intervals at
	// every simulation scale.
	PhaseScale float64
	Seed       uint64
}

// Validate reports parameter errors.
func (p Params) Validate() error {
	if p.LineBytes <= 0 || p.WayLines <= 0 {
		return fmt.Errorf("workload: invalid params %+v", p)
	}
	if p.PhaseScale <= 0 {
		return fmt.Errorf("workload: PhaseScale must be positive, got %v", p.PhaseScale)
	}
	return nil
}

// table lists every benchmark. Mixture fractions follow the calibration
// sketch in the package comment; see DESIGN.md §5 for the substitution
// rationale.
var table = []Benchmark{
	// ---- High MPKI (> 5) ----
	{
		Name: "gobmk", Class: High, PaperMPKI: 9,
		spec: spec{
			MemFrac: 0.30, StoreFrac: 0.25, BranchFrac: 0.20, BranchNoise: 0.12,
			StreamFrac:  0.022,
			WorkingSets: []wsSpec{{Ways: 6, Weight: 1}},
			MLP:         1.5,
			CodeWays:    0.4,
		},
	},
	{
		Name: "lbm", Class: High, PaperMPKI: 20.1,
		spec: spec{
			MemFrac: 0.45, StoreFrac: 0.40, BranchFrac: 0.03, BranchNoise: 0.02,
			StreamFrac:  0.045,
			WorkingSets: []wsSpec{{Ways: 1, Weight: 1}},
			MLP:         4,
		},
	},
	{
		Name: "sjeng", Class: High, PaperMPKI: 9.5,
		spec: spec{
			MemFrac: 0.30, StoreFrac: 0.25, BranchFrac: 0.20, BranchNoise: 0.10,
			HugeFrac: 0.033, HugeWays: 300,
			WorkingSets: []wsSpec{{Ways: 0.5, Weight: 1}},
			MLP:         1.2,
		},
	},
	{
		Name: "soplex", Class: High, PaperMPKI: 18,
		spec: spec{
			MemFrac: 0.35, StoreFrac: 0.25, BranchFrac: 0.12, BranchNoise: 0.06,
			StreamFrac: 0.028, HugeFrac: 0.02, HugeWays: 200,
			WorkingSets: []wsSpec{{Ways: 4, Weight: 1}},
			MLP:         2,
		},
	},

	// ---- Medium MPKI (1..5) ----
	{
		Name: "astar", Class: Medium, PaperMPKI: 4.8,
		spec: spec{
			MemFrac: 0.35, StoreFrac: 0.25, BranchFrac: 0.15, BranchNoise: 0.08,
			StreamFrac:  0.005,
			WorkingSets: []wsSpec{{Ways: 7, Weight: 1}},
			PhaseInsts:  20e6, PhaseDepth: 0.15,
			MLP: 1.2,
		},
	},
	{
		Name: "bzip2", Class: Medium, PaperMPKI: 3.2,
		spec: spec{
			MemFrac: 0.30, StoreFrac: 0.35, BranchFrac: 0.15, BranchNoise: 0.07,
			StreamFrac:  0.010,
			WorkingSets: []wsSpec{{Ways: 5, Weight: 1}},
			PhaseInsts:  30e6, PhaseDepth: 0.2,
			MLP: 1.5,
		},
	},
	{
		Name: "calculix", Class: Medium, PaperMPKI: 1.1,
		spec: spec{
			MemFrac: 0.28, StoreFrac: 0.30, BranchFrac: 0.08, BranchNoise: 0.03,
			StreamFrac:  0.004,
			WorkingSets: []wsSpec{{Ways: 2, Weight: 1}},
			MLP:         2,
		},
	},
	{
		Name: "gcc", Class: Medium, PaperMPKI: 4.92,
		spec: spec{
			MemFrac: 0.33, StoreFrac: 0.30, BranchFrac: 0.18, BranchNoise: 0.06,
			StreamFrac:  0.005,
			WorkingSets: []wsSpec{{Ways: 7, Weight: 1}},
			PhaseInsts:  25e6, PhaseDepth: 0.12,
			MLP:      1.5,
			CodeWays: 0.5,
		},
	},
	{
		Name: "libquantum", Class: Medium, PaperMPKI: 3.4,
		spec: spec{
			MemFrac: 0.28, StoreFrac: 0.25, BranchFrac: 0.10, BranchNoise: 0.01,
			StreamFrac:  0.012,
			WorkingSets: []wsSpec{{Ways: 1, Weight: 1}},
			MLP:         4,
		},
	},
	{
		Name: "mcf", Class: Medium, PaperMPKI: 4.8,
		spec: spec{
			MemFrac: 0.35, StoreFrac: 0.20, BranchFrac: 0.12, BranchNoise: 0.07,
			HugeFrac: 0.010, HugeWays: 300,
			WorkingSets: []wsSpec{{Ways: 4, Weight: 1}},
			MLP:         1.2,
		},
	},

	// ---- Low MPKI (< 1) ----
	{
		Name: "dealII", Class: Low, PaperMPKI: 0.8,
		spec: spec{
			MemFrac: 0.30, StoreFrac: 0.30, BranchFrac: 0.12, BranchNoise: 0.04,
			StreamFrac:  0.0027,
			WorkingSets: []wsSpec{{Ways: 3, Weight: 1}},
			MLP:         2,
		},
	},
	{
		Name: "gromacs", Class: Low, PaperMPKI: 0.32,
		spec: spec{
			MemFrac: 0.30, StoreFrac: 0.30, BranchFrac: 0.08, BranchNoise: 0.03,
			StreamFrac:  0.001,
			WorkingSets: []wsSpec{{Ways: 2, Weight: 1}},
			MLP:         2,
		},
	},
	{
		Name: "h264ref", Class: Low, PaperMPKI: 0.89,
		spec: spec{
			MemFrac: 0.32, StoreFrac: 0.30, BranchFrac: 0.12, BranchNoise: 0.05,
			StreamFrac:  0.0028,
			WorkingSets: []wsSpec{{Ways: 2, Weight: 1}},
			MLP:         2,
			CodeWays:    0.2,
		},
	},
	{
		Name: "milc", Class: Low, PaperMPKI: 0.96,
		spec: spec{
			MemFrac: 0.30, StoreFrac: 0.30, BranchFrac: 0.06, BranchNoise: 0.02,
			StreamFrac:  0.0032,
			WorkingSets: []wsSpec{{Ways: 1, Weight: 1}},
			MLP:         3,
		},
	},
	{
		Name: "namd", Class: Low, PaperMPKI: 0.25,
		spec: spec{
			MemFrac: 0.30, StoreFrac: 0.25, BranchFrac: 0.06, BranchNoise: 0.02,
			StreamFrac:  0.0008,
			WorkingSets: []wsSpec{{Ways: 1, Weight: 1}},
			MLP:         2,
		},
	},
	{
		Name: "omnetpp", Class: Low, PaperMPKI: 0.26,
		spec: spec{
			MemFrac: 0.30, StoreFrac: 0.30, BranchFrac: 0.15, BranchNoise: 0.08,
			StreamFrac:  0.0009,
			WorkingSets: []wsSpec{{Ways: 3, Weight: 1}},
			MLP:         1.5,
		},
	},
	{
		Name: "perlbench", Class: Low, PaperMPKI: 0.98,
		spec: spec{
			MemFrac: 0.32, StoreFrac: 0.35, BranchFrac: 0.18, BranchNoise: 0.05,
			StreamFrac:  0.0018,
			WorkingSets: []wsSpec{{Ways: 6, Weight: 1}},
			PhaseInsts:  28e6, PhaseDepth: 0.2,
			MLP:      1.5,
			CodeWays: 0.5,
		},
	},
	{
		Name: "povray", Class: Low, PaperMPKI: 0.1,
		spec: spec{
			MemFrac: 0.28, StoreFrac: 0.25, BranchFrac: 0.14, BranchNoise: 0.05,
			StreamFrac:  0.0004,
			WorkingSets: []wsSpec{{Ways: 5, Weight: 1}},
			PhaseInsts:  25e6, PhaseDepth: 0.1,
			MLP: 1.5,
		},
	},
	{
		Name: "xalan", Class: Low, PaperMPKI: 0.6,
		spec: spec{
			MemFrac: 0.31, StoreFrac: 0.30, BranchFrac: 0.15, BranchNoise: 0.05,
			StreamFrac:  0.002,
			WorkingSets: []wsSpec{{Ways: 2, Weight: 1}},
			MLP:         1.8,
			CodeWays:    0.4,
		},
	},
}

// byName indexes the table.
var byName = func() map[string]*Benchmark {
	m := make(map[string]*Benchmark, len(table))
	for i := range table {
		m[table[i].Name] = &table[i]
	}
	return m
}()

// All returns every benchmark in table order.
func All() []Benchmark { return append([]Benchmark(nil), table...) }

// Get returns the benchmark description for name.
func Get(name string) (Benchmark, error) {
	b, ok := byName[name]
	if !ok {
		return Benchmark{}, fmt.Errorf("workload: unknown benchmark %q", name)
	}
	return *b, nil
}

// MustGet is Get for compiled-in names; it panics on unknown names.
func MustGet(name string) Benchmark {
	b, err := Get(name)
	if err != nil {
		panic(err)
	}
	return b
}

// TraceConfig materialises the benchmark's generator configuration for
// a core at a simulation scale. Each core gets a disjoint address space
// (multiprogrammed workloads share the physical cache sets but never
// the data) and a distinct seed so co-runners are decorrelated.
func (b Benchmark) TraceConfig(p Params) trace.Config {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	s := b.spec
	cfg := trace.Config{
		MemFrac:     s.MemFrac,
		StoreFrac:   s.StoreFrac,
		BranchFrac:  s.BranchFrac,
		BranchNoise: s.BranchNoise,
		StreamFrac:  s.StreamFrac,
		HugeFrac:    s.HugeFrac,
		PhaseDepth:  s.PhaseDepth,
		MLP:         s.MLP,
		LineBytes:   p.LineBytes,
		AddrBase:    uint64(p.CoreID+1) << 44,
		Seed:        p.Seed ^ uint64(p.CoreID)<<32 ^ hashName(b.Name),
	}
	if s.HugeFrac > 0 {
		cfg.HugeLines = linesFor(s.HugeWays, p.WayLines)
	}
	// L1-resident locality: real applications serve most of their
	// memory accesses from stack/hot locals that live comfortably in
	// the private L1 (SPEC L1D hit rates are typically >90%). Without
	// this component every working-set access would reach the LLC and
	// LLC allocation decisions would dominate IPC far more than in the
	// paper's system. The region is half the (scale-proportional) L1:
	// wayLines/16 lines, carrying ~90% of the working-set accesses.
	var wsWeight float64
	for _, ws := range s.WorkingSets {
		wsWeight += ws.Weight
	}
	if wsWeight > 0 {
		l1Lines := p.WayLines / 16
		if l1Lines < 4 {
			l1Lines = 4
		}
		cfg.WorkingSets = append(cfg.WorkingSets, trace.WS{
			Lines:  l1Lines,
			Weight: 9 * wsWeight,
		})
	}
	for _, ws := range s.WorkingSets {
		// Real applications have skewed reuse: most accesses fall on a
		// hot core that survives even a small allocation, with a colder
		// tail that benefits from extra ways. A flat uniform footprint
		// would make under-allocation catastrophic (a K-way set losing
		// (K-w)/K of *all* its accesses), so working sets of two or
		// more ways are split into a hot fifth (60% of accesses) and
		// the full footprint (40%), giving convex utility curves with
		// the knee still at K ways.
		if ws.Ways >= 2 {
			// Hot fifth, random (captured by a small allocation), plus
			// a cold tail swept cyclically: under LRU the tail hits
			// only once the whole footprint fits, giving the sharp
			// knee-then-flat utility curve of real applications. The
			// tail carries ~25% of the set's LLC-visible traffic, so a
			// denied knee costs roughly that miss-ratio delta — the
			// band the paper's threshold sweep (Figures 11-13)
			// discriminates in.
			hot := ws.Ways / 5
			if hot < 0.5 {
				hot = 0.5
			}
			// The tail is sized slightly under the nominal footprint so
			// that tail + hot + the application's own streaming
			// insertions still fit within K ways of a set: without the
			// margin the sweep sits on a knife edge at exactly K and
			// its own pollution pushes the effective requirement to
			// K+1, which the monitors then report as a smeared knee.
			cfg.WorkingSets = append(cfg.WorkingSets,
				trace.WS{Lines: linesFor(hot, p.WayLines), Weight: 0.75 * ws.Weight, Sweep: true},
				trace.WS{Lines: linesFor((ws.Ways-hot)*0.8, p.WayLines), Weight: 0.25 * ws.Weight, Sweep: true},
			)
		} else {
			cfg.WorkingSets = append(cfg.WorkingSets, trace.WS{
				Lines:  linesFor(ws.Ways, p.WayLines),
				Weight: ws.Weight,
				Sweep:  true,
			})
		}
	}
	cfg.CodeLines = 1
	if s.CodeWays > 0 {
		cfg.CodeLines = linesFor(s.CodeWays, p.WayLines)
	}
	if s.PhaseInsts > 0 {
		// Convert the full-scale instruction period to memory accesses
		// at this run's scale, preserving the oscillation-to-
		// partitioning-interval ratio.
		period := s.PhaseInsts * s.MemFrac * p.PhaseScale
		if period < 1000 {
			period = 1000
		}
		cfg.PhasePeriod = int(period)
	}
	return cfg
}

// linesFor converts a footprint in ways to lines, at least 1.
func linesFor(ways float64, wayLines int) int {
	n := int(ways * float64(wayLines))
	if n < 1 {
		n = 1
	}
	return n
}

// NewGenerator builds the benchmark's trace generator.
func (b Benchmark) NewGenerator(p Params) *trace.Generator {
	return trace.NewGenerator(b.TraceConfig(p))
}

// hashName gives a stable per-benchmark seed component (FNV-1a).
func hashName(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// ClassOf returns the paper's class for a measured MPKI.
func ClassOf(mpki float64) Class {
	switch {
	case mpki > 5:
		return High
	case mpki > 1:
		return Medium
	default:
		return Low
	}
}
