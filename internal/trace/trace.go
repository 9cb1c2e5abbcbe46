// Package trace generates synthetic instruction and address streams
// that stand in for the SPEC CPU2006 reference runs used by the paper
// (see DESIGN.md §5: the module is offline and SPEC is proprietary, so
// benchmarks are modelled as reuse-distance mixtures).
//
// A benchmark is described by a Config: the instruction mix (memory,
// branch, ALU fractions), a branch-outcome process with tunable
// predictability, and an address process that mixes
//
//   - a streaming component (sequential lines, no reuse — compulsory
//     misses, insensitive to cache allocation),
//   - a "huge" component (uniform over a footprint much larger than the
//     LLC — linear, shallow utility curve), and
//   - hot working sets (uniform over footprints of a few LLC ways —
//     step/knee utility curves).
//
// The mixture directly controls the benchmark's miss curve versus
// allocated LLC ways, which is the only property the paper's
// partitioning algorithms observe. Footprints can oscillate in size
// over time (PhasePeriod/PhaseDepth) to model applications whose cache
// requirements change between program phases — the behaviour the paper
// attributes to astar, bzip2, gcc and povray.
package trace

import "fmt"

// Kind is an instruction class.
type Kind uint8

// Instruction kinds produced by a Generator.
const (
	KindALU Kind = iota
	KindLoad
	KindStore
	KindBranch
)

// String returns a short human-readable name for the kind.
func (k Kind) String() string {
	switch k {
	case KindALU:
		return "alu"
	case KindLoad:
		return "load"
	case KindStore:
		return "store"
	case KindBranch:
		return "branch"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Record is one synthetic instruction. Fields are ordered 8-byte-first
// so the struct packs into 24 bytes: every core keeps one in its
// pending Event (see NextEvent), on the hot loop's cache lines. Addr
// is defined only for loads and stores, Taken only for branches.
type Record struct {
	Addr  uint64 // byte address (loads/stores)
	PC    uint64 // program counter (every instruction; drives I-fetch)
	Kind  Kind
	Taken bool // branch outcome (branches)
}

// WS is one hot working set of Lines cache lines, chosen with
// probability proportional to Weight among the working-set share of
// memory accesses. With Sweep false, lines are accessed uniformly at
// random (smoothly decaying utility curve); with Sweep true the set is
// accessed as a cyclic sweep, which under LRU hits only when the whole
// footprint fits in the allocation — a sharp utility knee at the
// footprint size, like the flat-beyond-the-knee curves of real
// applications.
type WS struct {
	Lines  int
	Weight float64
	Sweep  bool
}

// Config describes one synthetic benchmark. All fractions are in
// [0, 1]; StreamFrac + HugeFrac <= 1 with the remainder going to the
// working sets.
type Config struct {
	MemFrac    float64 // fraction of instructions that access memory
	StoreFrac  float64 // fraction of memory accesses that are stores
	BranchFrac float64 // fraction of instructions that are branches

	BranchNoise float64 // probability a branch outcome is random

	StreamFrac  float64 // of memory accesses: sequential streaming
	HugeFrac    float64 // of memory accesses: uniform over HugeLines
	HugeLines   int
	WorkingSets []WS

	PhasePeriod int     // memory accesses per footprint oscillation (0 = stable)
	PhaseDepth  float64 // in the small phase, active fraction of each WS

	MLP float64 // intrinsic memory-level parallelism (miss overlap), >= 1

	// CodeLines is the instruction footprint in cache lines: the PC
	// advances sequentially and taken branches jump uniformly within
	// this region, so large-code benchmarks (gcc, perlbench) produce
	// L1I misses and LLC instruction traffic. Minimum 1.
	CodeLines int

	LineBytes int    // cache line size for address alignment
	AddrBase  uint64 // high-bit offset separating address spaces
	Seed      uint64
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	frac := func(name string, v float64) error {
		if v < 0 || v > 1 {
			return fmt.Errorf("trace: %s = %v outside [0,1]", name, v)
		}
		return nil
	}
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"MemFrac", c.MemFrac}, {"StoreFrac", c.StoreFrac},
		{"BranchFrac", c.BranchFrac}, {"BranchNoise", c.BranchNoise},
		{"StreamFrac", c.StreamFrac}, {"HugeFrac", c.HugeFrac},
		{"PhaseDepth", c.PhaseDepth},
	} {
		if err := frac(f.name, f.v); err != nil {
			return err
		}
	}
	if c.MemFrac+c.BranchFrac > 1 {
		return fmt.Errorf("trace: MemFrac+BranchFrac = %v > 1", c.MemFrac+c.BranchFrac)
	}
	if c.StreamFrac+c.HugeFrac > 1 {
		return fmt.Errorf("trace: StreamFrac+HugeFrac = %v > 1", c.StreamFrac+c.HugeFrac)
	}
	if c.HugeFrac > 0 && c.HugeLines <= 0 {
		return fmt.Errorf("trace: HugeFrac set but HugeLines = %d", c.HugeLines)
	}
	wsShare := 1 - c.StreamFrac - c.HugeFrac
	if wsShare > 1e-9 && len(c.WorkingSets) == 0 {
		return fmt.Errorf("trace: %.2f of accesses go to working sets but none defined", wsShare)
	}
	for i, ws := range c.WorkingSets {
		if ws.Lines <= 0 || ws.Weight < 0 {
			return fmt.Errorf("trace: working set %d invalid: %+v", i, ws)
		}
	}
	if c.MLP < 1 && c.MLP != 0 {
		return fmt.Errorf("trace: MLP = %v must be >= 1", c.MLP)
	}
	if c.LineBytes <= 0 {
		return fmt.Errorf("trace: LineBytes = %d", c.LineBytes)
	}
	return nil
}

// rng is a SplitMix64 generator: tiny, fast and deterministic.
type rng struct{ state uint64 }

// smGamma is SplitMix64's state increment.
const smGamma = 0x9e3779b97f4a7c15

// smMix is SplitMix64's output finalizer.
func smMix(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) next() uint64 {
	r.state += smGamma
	return smMix(r.state)
}

// float returns a uniform float64 in [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// intn returns a uniform int in [0, n).
func (r *rng) intn(n int) int {
	if n <= 0 {
		return 0
	}
	return int(r.next() % uint64(n))
}

// Generator produces the instruction stream for one benchmark.
type Generator struct {
	cfg      Config
	rng      rng
	wsCum    []float64 // cumulative weights over working sets
	wsBase   []uint64  // line-address base of each working set
	wsPos    []uint64  // sweep position of each working set
	hugeBase uint64
	strmBase uint64
	strmPos  uint64
	memCount uint64 // memory accesses generated (drives phases)
	pattern  uint64 // branch-outcome pattern state
	codeBase uint64 // byte base of the code region
	curPC    uint64 // current program counter (bytes)
	emitted  uint64

	// Division-free fast paths for the per-access hot loop. A 64-bit
	// divide by a runtime divisor costs tens of cycles on most cores,
	// and the working-set arm used to pay up to two per access
	// (memCount%PhasePeriod and the sweep's wsPos%active). All are
	// exact caches of the modulo expressions they replace, so the
	// emitted stream is bit-identical (pinned against the per-record
	// reference, which evaluates the modulos, by the event-stream tests).
	wsActiveFull  []int    // int(float64(Lines)*1), the large-phase active size
	wsActiveSmall []int    // int(float64(Lines)*PhaseDepth), clamped to >= 1
	wsActiveCur   []int    // active size wsSweepPos is maintained for (0 = unset)
	wsSweepPos    []uint64 // wsPos[i] % wsActiveCur[i], maintained incrementally
	halfPeriod    uint64   // uint64(PhasePeriod)/2
}

// NewGenerator builds a generator. It panics on an invalid config:
// benchmark definitions are compiled into the workload package, so
// failure is a programming error.
func NewGenerator(cfg Config) *Generator {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if cfg.MLP == 0 {
		cfg.MLP = 1
	}
	g := &Generator{cfg: cfg, rng: rng{state: cfg.Seed ^ 0xabcdef12345678}}
	// Lay out the address space regions, line-granular, spaced far
	// apart so regions never overlap: stream, huge, then working sets.
	next := cfg.AddrBase >> uint(log2(cfg.LineBytes))
	g.strmBase = next
	next += 1 << 30
	g.hugeBase = next
	next += uint64(cfg.HugeLines) + 1<<24
	var total float64
	for _, ws := range cfg.WorkingSets {
		total += ws.Weight
	}
	cum := 0.0
	for _, ws := range cfg.WorkingSets {
		g.wsBase = append(g.wsBase, next)
		g.wsPos = append(g.wsPos, 0)
		next += uint64(ws.Lines) + 1<<24
		if total > 0 {
			cum += ws.Weight / total
		}
		g.wsCum = append(g.wsCum, cum)
		// The two possible active footprint sizes (the phase scale is
		// either 1 or PhaseDepth), precomputed with exactly the
		// expression the access path used to evaluate per access.
		g.wsActiveFull = append(g.wsActiveFull, activeLines(ws.Lines, 1))
		g.wsActiveSmall = append(g.wsActiveSmall, activeLines(ws.Lines, cfg.PhaseDepth))
		g.wsActiveCur = append(g.wsActiveCur, 0)
		g.wsSweepPos = append(g.wsSweepPos, 0)
	}
	g.halfPeriod = uint64(cfg.PhasePeriod) / 2
	if g.cfg.CodeLines < 1 {
		g.cfg.CodeLines = 1
	}
	g.codeBase = next * uint64(cfg.LineBytes)
	g.curPC = g.codeBase
	g.pattern = cfg.Seed | 1
	return g
}

// Emitted returns how many records have been produced.
func (g *Generator) Emitted() uint64 { return g.emitted }

// MLP returns the benchmark's intrinsic memory-level parallelism.
func (g *Generator) MLP() float64 { return g.cfg.MLP }

// phaseBounds returns the (period, half-period) pair the hot loop
// maintains the phase position against. A phase-free config maps to an
// unreachable period so the small-phase compare is always false and
// the wrap never fires — no branch on PhasePeriod in the loop.
func phaseBounds(period int, half uint64) (uint64, uint64) {
	if period == 0 {
		return ^uint64(0), ^uint64(0)
	}
	return uint64(period), half
}

// activeLines is the active fraction of a working-set footprint under
// a phase scale — the exact expression the access path historically
// computed inline, so the precomputed values are bit-identical.
func activeLines(lines int, scale float64) int {
	active := int(float64(lines) * scale)
	if active < 1 {
		active = 1
	}
	return active
}

// log2 returns floor(log2(v)) for positive v.
func log2(v int) int {
	n := 0
	for v > 1 {
		v >>= 1
		n++
	}
	return n
}
