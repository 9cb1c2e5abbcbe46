package cpu

import (
	"fmt"
	"math"

	"repro/internal/trace"
)

// Config describes one core's pipeline (Table 2 of the paper).
type Config struct {
	Width  int // issue/retire width: a power of two
	ROB    int // reorder buffer entries
	LSQ    int // load/store queue entries
	Gshare GshareConfig
}

// DefaultConfig returns the paper's 4-wide configuration.
func DefaultConfig() Config {
	return Config{
		Width:  4,
		ROB:    128,
		LSQ:    48,
		Gshare: DefaultGshareConfig(),
	}
}

// Validate reports configuration errors. Width must be a power of two:
// StepEvent's batched retirement is bit-identical to per-instruction
// retirement only when retireCost = 1/Width is exact (see advanceClock).
func (c Config) Validate() error {
	if c.Width <= 0 || c.ROB <= 0 || c.LSQ <= 0 {
		return fmt.Errorf("cpu: non-positive config %+v", c)
	}
	if c.Width&(c.Width-1) != 0 {
		return fmt.Errorf("cpu: Width %d is not a power of two", c.Width)
	}
	return nil
}

// AccessReply is the memory hierarchy's answer to one data access.
type AccessReply struct {
	Latency int64 // total cycles from issue to data return
	L1Hit   bool
}

// MemPort is the interface the core uses to reach the memory
// hierarchy: Access for data (private L1D backed by the shared LLC),
// Fetch for instructions (private L1I backed by the same LLC). The
// simulator package provides the implementation.
//
// AccessHits and FetchHits report, changing no state, whether the
// matching Access or Fetch would hit the core's private L1: a hit
// touches only the core's own state, so StepEvent may retire it ahead
// of the other cores (see StepEvent's priv).
type MemPort interface {
	Access(core int, addr uint64, isWrite bool, now int64) AccessReply
	Fetch(core int, pc uint64, now int64) AccessReply
	AccessHits(core int, addr uint64) bool
	FetchHits(core int, pc uint64) bool
}

// Core is the cycle-batched timing model of one out-of-order core
// consuming a synthetic instruction stream.
//
// Timing rules:
//   - every instruction costs one retire slot (1/Width cycles);
//   - a mispredicted branch inserts the predictor's bubble;
//   - a load that hits in the L1 is considered fully hidden by the
//     out-of-order window;
//   - a load that misses the L1 stalls retirement for
//     latency / effectiveMLP cycles, where effectiveMLP is the
//     benchmark's intrinsic memory-level parallelism clamped by the
//     LSQ and ROB capacity — the window can only overlap misses it can
//     hold;
//   - stores retire through the store buffer: an L1-missing store
//     charges a quarter of a load's exposed stall.
type Core struct {
	// Hot per-Step scalars first, so they share the struct's leading
	// cache lines.
	clock      float64 // local cycle count (monotonic, never reset)
	retired    uint64
	fetchLine  uint64  // line of the last instruction fetch
	retireCost float64 // 1/Width cycles per retired instruction, precomputed
	// An L1 miss's exposed-latency divisor for a load and for a store:
	// effectiveMLP() and four times it, constant per benchmark.
	missDiv [2]float64

	// The one pending event, consumed in place by Step and StepEvent
	// (ALURun counts down, ALUPC walks forward; ALURun == 0 && !HasRec
	// marks it drained — also the zero value), plus the code-region
	// bounds the PC walk wraps at (cached from the generator at
	// construction). Exactly one event is pulled at a time, reusing
	// this one struct and its single hot cache line (a multi-event
	// prefetch buffer was measured slower; it cycles its buffer's lines
	// through the L1 alongside the cache model's own traffic, the §2
	// story at event scale).
	ev        trace.Event
	codeBase  uint64
	codeLimit uint64

	stats Stats

	gshare *Gshare
	mem    MemPort
	gen    *trace.Generator
	id     int
	cfg    Config

	// Snapshots taken at the end of warm-up so that IPC and counters
	// reflect only the measured region while the clock stays monotonic
	// (the shared LLC and DRAM keep absolute timestamps).
	snapClock   float64
	snapRetired uint64
}

// Stats aggregates per-core execution counters.
type Stats struct {
	Retired     uint64
	Loads       uint64
	Stores      uint64
	Branches    uint64
	L1Misses    uint64
	FetchMisses uint64 // instruction fetches missing the L1I
	StallCycles float64
}

// NewCore builds a core with the given id, consuming gen and accessing
// memory through mem. It panics on invalid configuration.
func NewCore(id int, cfg Config, gen *trace.Generator, mem MemPort) *Core {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	c := &Core{
		id:         id,
		cfg:        cfg,
		gshare:     NewGshare(cfg.Gshare),
		gen:        gen,
		mem:        mem,
		retireCost: 1 / float64(cfg.Width),
	}
	mlp := c.effectiveMLP()
	c.missDiv = [2]float64{mlp, 4 * mlp}
	c.codeBase, c.codeLimit = gen.CodeBounds()
	return c
}

// ID returns the core's identifier.
func (c *Core) ID() int { return c.id }

// Now returns the core's local clock in whole cycles.
func (c *Core) Now() int64 { return int64(c.clock) }

// Retired returns instructions retired since the last ResetStats.
func (c *Core) Retired() uint64 { return c.retired - c.snapRetired }

// IPC returns retired instructions per cycle since the last ResetStats.
func (c *Core) IPC() float64 {
	cycles := c.clock - c.snapClock
	if cycles <= 0 {
		return 0
	}
	return float64(c.Retired()) / cycles
}

// MeasuredCycles returns cycles elapsed since the last ResetStats.
func (c *Core) MeasuredCycles() float64 { return c.clock - c.snapClock }

// Stats returns the core's counters.
func (c *Core) Stats() Stats { return c.stats }

// Predictor exposes the branch predictor (for reporting).
func (c *Core) Predictor() *Gshare { return c.gshare }

// effectiveMLP clamps the benchmark's intrinsic miss parallelism by the
// window resources: the LSQ bounds in-flight memory operations and the
// ROB bounds how far ahead the window can run to expose them.
func (c *Core) effectiveMLP() float64 {
	mlp := c.gen.MLP()
	if lim := float64(c.cfg.LSQ) / 8; mlp > lim {
		mlp = lim
	}
	if lim := float64(c.cfg.ROB) / 32; mlp > lim {
		mlp = lim
	}
	if mlp < 1 {
		mlp = 1
	}
	return mlp
}

// Step consumes and retires one instruction, advancing the local clock.
// It reads the same pending event as StepEvent, pulling the next one
// when it is drained, so the two can be mixed freely on one core. Step
// is the per-instruction reference that StepEvent's batched retirement
// is checked against (DESIGN.md §10); the simulator steps through
// StepEvent.
func (c *Core) Step() {
	if c.ev.ALURun == 0 && !c.ev.HasRec {
		c.gen.NextEvent(&c.ev)
	}
	if c.ev.ALURun > 0 {
		c.stepOneALU(&c.ev)
		return
	}
	c.ev.HasRec = false
	c.stepRecord(&c.ev.Rec)
}

// stepRecord retires one materialized (non-ALU) instruction.
func (c *Core) stepRecord(r *trace.Record) {
	c.retired++
	c.stats.Retired++
	c.clock += c.retireCost

	// Instruction fetch: one L1I access per new line (sequential
	// fetches within a line ride the same access). Fetch misses stall
	// the front end with no overlap.
	if line := r.PC >> 6; line != c.fetchLine {
		c.fetchLine = line
		reply := c.mem.Fetch(c.id, r.PC, int64(c.clock))
		if !reply.L1Hit {
			c.stats.FetchMisses++
			stall := float64(reply.Latency)
			c.clock += stall
			c.stats.StallCycles += stall
		}
	}

	if r.Kind == trace.KindBranch {
		c.stats.Branches++
		if !c.gshare.Predict(r.PC, r.Taken) {
			penalty := float64(c.gshare.Penalty())
			c.clock += penalty
			c.stats.StallCycles += penalty
		}
		return
	}
	// Loads and stores share one arm indexed by the kind, so the
	// generator's load/store draw is not branched on again here.
	st := uint64(r.Kind-trace.KindLoad) & 1 // 0 load, 1 store
	c.stats.Loads += 1 - st
	c.stats.Stores += st
	reply := c.mem.Access(c.id, r.Addr, st == 1, int64(c.clock))
	if !reply.L1Hit {
		c.stats.L1Misses++
		stall := float64(reply.Latency) / c.missDiv[st]
		c.clock += stall
		c.stats.StallCycles += stall
	}
}

// StepEvent advances the core by consuming the generator's
// run-length-encoded event stream, one event at a time through the
// in-place Core.ev (see its field comment for why exactly one), and
// retiring at most maxRetire instructions. It returns the number
// retired — at least one when entered with Now() <= bound and
// maxRetire > 0, so a stepping loop that re-checks its bounds between
// calls always makes progress.
//
// An instruction that starts (Now(), in whole cycles) at or below
// bound retires unconditionally. One that starts in (bound, priv]
// retires only if it is private: an ALU instruction inside the fetched
// I-line, or one whose fetch and data access (if any) hit the core's
// own L1s (MemPort's probes). StepEvent stops at the first instruction
// past bound that is not private, and at the first past priv; priv
// below bound means bound. The stop may leave a freshly pulled event
// pending with none of it retired: the event is the one Step would
// pull next.
//
// The retired sequence is bit-identical to maxRetire (or fewer) Step
// calls under the same bounds: ALU runs touch no shared state except
// instruction fetches at I-line crossings, which StepEvent performs at
// the same PCs and the same clock values as Step, and a batch of
// retirement slots is one clock add only when every partial sum of the
// per-slot adds is exact (see exactTo); otherwise it performs the
// per-slot float additions literally. A freshly pulled event whose run
// stays in the fetched I-line retires as one batch and then its record,
// without a branch on whether the run is empty (retireALURun).
func (c *Core) StepEvent(bound, priv int64, maxRetire uint64) uint64 {
	// Clamp far-future bounds so (bound+1)*Width stays in int64; any
	// real clock is far below 2^52 cycles, so the clamp is invisible.
	bound = min(bound, 1<<52)
	priv = min(max(priv, bound), 1<<52)
	var n uint64
	for n < maxRetire && c.Now() <= priv {
		e := &c.ev
		if e.ALURun == 0 && !e.HasRec {
			c.gen.NextEvent(e)
		}
		n += c.retireALURun(e, bound, priv, maxRetire-n)
		if e.ALURun != 0 {
			return n // cut by priv, the cap or a shared fetch
		}
		if e.HasRec && n < maxRetire && c.Now() <= priv {
			if c.Now() > bound && !c.private(&e.Rec) {
				return n
			}
			e.HasRec = false
			c.stepRecord(&e.Rec)
			n++
		}
	}
	return n
}

// private reports whether retiring r touches only the core's own
// state: its fetch, if it starts a new I-line, and its data access, if
// it has one, hit the private L1s.
func (c *Core) private(r *trace.Record) bool {
	if r.PC>>6 != c.fetchLine && !c.mem.FetchHits(c.id, r.PC) {
		return false
	}
	return r.Kind == trace.KindBranch || c.mem.AccessHits(c.id, r.Addr)
}

// stepOneALU retires a single pending ALU instruction with the exact
// per-record sequence: retire slot, then the I-fetch line check (a
// fetch miss stalls the front end), then the sequential PC advance.
func (c *Core) stepOneALU(e *trace.Event) {
	c.retired++
	c.stats.Retired++
	c.clock += c.retireCost
	pc := e.ALUPC
	if line := pc >> 6; line != c.fetchLine {
		c.fetchLine = line
		reply := c.mem.Fetch(c.id, pc, int64(c.clock))
		if !reply.L1Hit {
			c.stats.FetchMisses++
			stall := float64(reply.Latency)
			c.clock += stall
			c.stats.StallCycles += stall
		}
	}
	pc += 4
	if pc >= c.codeLimit {
		pc = c.codeBase
	}
	e.ALUPC = pc
	e.ALURun--
}

// retireALURun retires e's pending ALU run, stopping at priv, the
// limit or the run's end. The instructions inside the fetched I-line,
// up to the code region's wrap point, are private and retire as one
// advanceClock batch under priv; an instruction that crosses into a
// new I-line steps alone, since its fetch can stall and move the clock
// past the bound, and past bound it steps only if its fetch hits. An
// empty run takes the in-line arm and retires nothing, so a freshly
// pulled event is not branched on whether it has a run.
func (c *Core) retireALURun(e *trace.Event, bound, priv int64, limit uint64) uint64 {
	var done uint64
	for {
		run, pc := uint64(e.ALURun), e.ALUPC
		// pc's offset in the fetched I-line; an empty run's is masked to 0.
		if off := (pc - c.fetchLine<<6) & -((run | -run) >> 63); off < 64 {
			k := min(run, (64-off)>>2, (c.codeLimit-pc)>>2, limit-done)
			j := c.advanceClock(k, priv)
			c.retired += j
			c.stats.Retired += j
			done += j
			e.ALURun -= int(j)
			if pc += j << 2; pc >= c.codeLimit {
				pc = c.codeBase
			}
			e.ALUPC = pc
			if j < k || e.ALURun == 0 || done == limit {
				return done
			}
			continue // the next instruction crosses a line or wrapped
		}
		if now := c.Now(); done == limit || now > priv || now > bound && !c.mem.FetchHits(c.id, pc) {
			return done
		}
		c.stepOneALU(e)
		done++
	}
}

// advanceClock advances the clock by up to k retirement slots, each
// allowed only while the pre-retirement clock satisfies Now() <= bound
// (the per-record stepping condition), and returns how many retired.
//
// When every partial sum clock + j·retireCost is exact (exactTo), slot
// j's whole-cycle clock is floor((t+j)/Width) for t = clock·Width, so
// the allowed slots are j < (bound+1)·Width − floor(t), and the
// advance is one add. Otherwise repeated addition rounds at each step,
// and the per-slot float additions are performed literally.
func (c *Core) advanceClock(k uint64, bound int64) uint64 {
	w := int64(c.cfg.Width)
	n := k
	if allowed := (bound+1)*w - int64(c.clock*float64(w)); allowed < int64(k) {
		n = uint64(max(allowed, 0))
	}
	if end := c.clock + float64(n)*c.retireCost; c.exactTo(end) {
		c.clock = end
		return n
	}
	var done uint64
	for done < k && int64(c.clock) <= bound {
		c.clock += c.retireCost
		done++
	}
	return done
}

// exactTo reports whether adding retireCost to the clock one slot at a
// time, up to end, is exact at every partial sum, so that one add
// reaching end is bit-identical to the per-slot adds. It holds when the
// clock and end share a binade and the clock is below 2⁵²·retireCost:
// the clock's ulp is then at most retireCost/2, retireCost (a power of
// two, since Width is) is a multiple of it, and every sum up to end is
// a multiple of that ulp inside the binade. Any off-grid clock (an
// L1-missing store's latency/(4·MLP), or a miss of a benchmark whose
// MLP is not a power of two) qualifies except near a power of two.
func (c *Core) exactTo(end float64) bool {
	return c.clock < (1<<52)*c.retireCost && math.Float64bits(c.clock)>>52 == math.Float64bits(end)>>52
}

// ResetStats restarts IPC accounting and zeroes counters while keeping
// microarchitectural state (predictor, caches, clock) warm. Used at the
// end of the warm-up period.
func (c *Core) ResetStats() {
	c.snapRetired = c.retired
	c.snapClock = c.clock
	c.stats = Stats{}
}
