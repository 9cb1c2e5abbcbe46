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

import (
	"fmt"
	"math"
	"math/bits"
)

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

// Validate reports configuration errors. NaN fails every range check,
// and LineBytes must be a power of two >= 4: NextEvent's batched PC
// walk needs code regions that are line-aligned and whose PCs stay
// 4-byte aligned.
func (c Config) Validate() error {
	frac := func(name string, v float64) error {
		if !(v >= 0 && v <= 1) {
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
		if ws.Lines <= 0 || !(ws.Weight >= 0) {
			return fmt.Errorf("trace: working set %d invalid: %+v", i, ws)
		}
	}
	if c.MLP != 0 && !(c.MLP >= 1) {
		return fmt.Errorf("trace: MLP = %v must be >= 1", c.MLP)
	}
	if c.LineBytes < 4 || c.LineBytes&(c.LineBytes-1) != 0 {
		return fmt.Errorf("trace: LineBytes = %d is not a power of two >= 4", c.LineBytes)
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

// cut returns the integer threshold that replaces a float compare with
// probability c: a draw's top 53 bits m give the uniform m·2⁻⁵³, and
// for an integer m, m·2⁻⁵³ < c holds exactly when m < ⌈c·2⁵³⌉. Values
// of c at or above 1 (a rounded cumulative weight) always pass.
func cut(c float64) uint64 {
	switch {
	case !(c > 0):
		return 0
	case c >= 1:
		return 1 << 53
	}
	return uint64(math.Ceil(c * (1 << 53)))
}

// below is 1 when m < cut and 0 otherwise, without a branch: both are
// at most 2⁵³, so the difference's sign bit is the comparison.
func below(m, cut uint64) uint64 { return (m - cut) >> 63 }

// modulus computes x % n for a fixed n >= 1 with a precomputed
// reciprocal instead of a divide: for m = ⌊(2⁶⁴−1)/n⌋ the high word of
// x·m undershoots ⌊x/n⌋ by at most one, so one conditional subtract
// leaves the exact remainder.
type modulus struct{ n, m uint64 }

func newModulus(n uint64) modulus { return modulus{n: n, m: ^uint64(0) / n} }

func (d modulus) mod(x uint64) uint64 {
	q, _ := bits.Mul64(x, d.m)
	r := x - q*d.n
	if r >= d.n {
		r -= d.n
	}
	return r
}

// Generator produces the instruction stream for one benchmark.
type Generator struct {
	// Exact integer forms of the config's probabilities and divisors
	// (cut, modulus), precomputed so NextEvent compares raw draws and
	// never divides; its stream is bit-identical to the float compares
	// and modulos of the per-record reference (reference_test.go).
	recCut     uint64 // draws below end an ALU run: cut(MemFrac+BranchFrac)
	memCut     uint64 // cut(MemFrac): the record is a memory access
	storeCut   uint64
	streamCut  uint64
	hugeCut    uint64 // cut(StreamFrac+HugeFrac)
	noiseCut   uint64
	wsCut      []uint64 // cuts of the cumulative working-set weights
	codeSpan   modulus  // code region bytes: the sequential PC walk
	codeLines  modulus  // taken-branch targets
	hugeLines  modulus
	period     modulus // PhasePeriod (2⁶⁴−1 when phase-free)
	halfPeriod uint64  // PhasePeriod/2 (2⁶⁴−1 when phase-free)

	cfg      Config
	rng      rng
	wsBase   []uint64 // line-address base of each working set
	wsPos    []uint64 // sweep position of each working set
	hugeBase uint64
	strmBase uint64
	strmPos  uint64
	memCount uint64 // memory accesses generated (drives phases)
	pattern  uint64 // branch-outcome pattern state
	codeBase uint64 // byte base of the code region
	curPC    uint64 // current program counter (bytes)

	// The working sets' two active footprint sizes (the phase scale is
	// 1 or PhaseDepth) as moduli, and the sweep position cache: an
	// exact cache of wsPos[i] % active, maintained incrementally.
	wsActiveFull  []modulus
	wsActiveSmall []modulus
	wsActiveCur   []int    // active size wsSweepPos is maintained for (0 = unset)
	wsSweepPos    []uint64 // wsPos[i] % wsActiveCur[i]
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
	if cfg.CodeLines < 1 {
		cfg.CodeLines = 1
	}
	g := &Generator{
		cfg:        cfg,
		rng:        rng{state: cfg.Seed ^ 0xabcdef12345678},
		recCut:     cut(cfg.MemFrac + cfg.BranchFrac),
		memCut:     cut(cfg.MemFrac),
		storeCut:   cut(cfg.StoreFrac),
		streamCut:  cut(cfg.StreamFrac),
		hugeCut:    cut(cfg.StreamFrac + cfg.HugeFrac),
		noiseCut:   cut(cfg.BranchNoise),
		codeSpan:   newModulus(uint64(cfg.CodeLines * cfg.LineBytes)),
		codeLines:  newModulus(uint64(cfg.CodeLines)),
		hugeLines:  newModulus(uint64(max(cfg.HugeLines, 1))), // Validate: HugeLines >= 1 if HugeFrac > 0
		period:     newModulus(^uint64(0)),
		halfPeriod: ^uint64(0),
	}
	if cfg.PhasePeriod != 0 {
		g.period = newModulus(uint64(cfg.PhasePeriod))
		g.halfPeriod = uint64(cfg.PhasePeriod) / 2
	}
	// Lay out the address space regions, line-granular, spaced far
	// apart so regions never overlap: stream, huge, then working sets.
	next := cfg.AddrBase >> uint(bits.TrailingZeros(uint(cfg.LineBytes)))
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
		g.wsCut = append(g.wsCut, cut(cum))
		g.wsActiveFull = append(g.wsActiveFull, newModulus(uint64(activeLines(ws.Lines, 1))))
		g.wsActiveSmall = append(g.wsActiveSmall, newModulus(uint64(activeLines(ws.Lines, cfg.PhaseDepth))))
		g.wsActiveCur = append(g.wsActiveCur, 0)
		g.wsSweepPos = append(g.wsSweepPos, 0)
	}
	g.codeBase = next * uint64(cfg.LineBytes)
	g.curPC = g.codeBase
	g.pattern = cfg.Seed | 1
	return g
}

// MLP returns the benchmark's intrinsic memory-level parallelism.
func (g *Generator) MLP() float64 { return g.cfg.MLP }

// activeLines is the active fraction of a working-set footprint under
// a phase scale.
func activeLines(lines int, scale float64) int {
	active := int(float64(lines) * scale)
	if active < 1 {
		active = 1
	}
	return active
}
