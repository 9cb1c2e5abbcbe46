package cpu

import (
	"fmt"

	"repro/internal/trace"
)

// Config describes one core's pipeline (Table 2 of the paper).
type Config struct {
	Width         int // issue/retire width
	ROB           int // reorder buffer entries
	LSQ           int // load/store queue entries
	PipelineDepth int
	Gshare        GshareConfig
}

// DefaultConfig returns the paper's 4-wide, 7-stage configuration.
func DefaultConfig() Config {
	return Config{
		Width:         4,
		ROB:           128,
		LSQ:           48,
		PipelineDepth: 7,
		Gshare:        DefaultGshareConfig(),
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Width <= 0 || c.ROB <= 0 || c.LSQ <= 0 || c.PipelineDepth <= 0 {
		return fmt.Errorf("cpu: non-positive config %+v", c)
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
type MemPort interface {
	Access(core int, addr uint64, isWrite bool, now int64) AccessReply
	Fetch(core int, pc uint64, now int64) AccessReply
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
	effMLP     float64 // effectiveMLP(), constant per benchmark, precomputed

	// Event-consumption state (StepEvent): the one pending event,
	// consumed in place (ALURun counts down, ALUPC walks forward;
	// ALURun == 0 && !HasRec marks it drained — also the zero value),
	// plus the code-region bounds the PC walk wraps at (cached from
	// the generator at construction). Exactly one event is pulled at a
	// time, reusing this one struct: the same per-pull discipline —
	// and the same single hot cache line — as the per-record path's
	// reused Record (a multi-event prefetch buffer was measured
	// slower; it cycles its buffer's lines through the L1 alongside
	// the cache model's own traffic, the §2 story at event scale).
	ev        trace.Event
	evExact   bool // Width is a power of two: O(1) run retirement allowed
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
		// Batched O(1) run retirement is only bit-identical to repeated
		// per-record retirement when retireCost is a negative power of
		// two (see StepEvent); other widths fall back to per-record
		// stepping inside StepEvent.
		evExact: cfg.Width&(cfg.Width-1) == 0,
	}
	c.effMLP = c.effectiveMLP()
	c.codeBase, c.codeLimit = gen.CodeBounds()
	return c
}

// EventCapable reports whether StepEvent uses batched run retirement
// for this core (true for power-of-two issue widths); other cores
// consume events through the bit-identical per-record fallback.
func (c *Core) EventCapable() bool { return c.evExact }

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
//
// Records are consumed one at a time, deliberately: a per-record pull
// keeps the generator's ALU-bound work interleaved with the memory-
// bound cache-model calls below, where the out-of-order hardware
// overlaps the two. Prefetching a chunk of records ahead of time was
// implemented and measured 4-10% slower end-to-end at every chunk size
// (see DESIGN.md §2) because the burst serialises against the
// simulator's stalls instead of hiding under them. The simulator's
// default stepping mode is the bit-identical event-compressed
// StepEvent (DESIGN.md §10), which keeps the same one-pull-per-step
// discipline at event granularity; Step remains the differential
// reference and the fallback for non-power-of-two widths.
func (c *Core) Step() {
	// Drain any event-pulled instructions first so Step and StepEvent
	// can be mixed freely on one core without reordering the stream.
	if c.ev.ALURun > 0 {
		c.stepOneALU(&c.ev)
		return
	}
	if c.ev.HasRec {
		c.ev.HasRec = false
		c.stepRecord(&c.ev.Rec)
		return
	}
	var r trace.Record
	c.gen.Next(&r)
	c.stepRecord(&r)
}

// stepRecord retires one materialized instruction: the body of Step,
// shared with the event path's terminating records.
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

	switch r.Kind {
	case trace.KindBranch:
		c.stats.Branches++
		if !c.gshare.Predict(r.PC, r.Taken) {
			penalty := float64(c.gshare.Penalty())
			c.clock += penalty
			c.stats.StallCycles += penalty
		}
	case trace.KindLoad:
		c.stats.Loads++
		reply := c.mem.Access(c.id, r.Addr, false, int64(c.clock))
		if !reply.L1Hit {
			c.stats.L1Misses++
			stall := float64(reply.Latency) / c.effMLP
			c.clock += stall
			c.stats.StallCycles += stall
		}
	case trace.KindStore:
		c.stats.Stores++
		reply := c.mem.Access(c.id, r.Addr, true, int64(c.clock))
		if !reply.L1Hit {
			c.stats.L1Misses++
			stall := float64(reply.Latency) / (4 * c.effMLP)
			c.clock += stall
			c.stats.StallCycles += stall
		}
	}
}

// StepEvent advances the core by consuming the generator's
// run-length-encoded event stream, one event at a time through the
// in-place Core.ev (see its field comment for why exactly one),
// retiring instructions while the core's clock (in whole cycles, as
// Now reports it) stays at or below bound and at most maxRetire
// instructions in total. It returns the number retired — at least one
// when entered with Now() <= bound and maxRetire > 0, so a stepping
// loop that re-checks its bounds between calls always makes progress.
//
// The retired sequence is bit-identical to maxRetire (or fewer)
// per-record Step calls under the same bound: ALU runs touch no
// shared state except instruction fetches at I-line crossings, which
// StepEvent performs at the same PCs and the same clock values as
// per-record stepping, and the run's clock arithmetic is either exact
// integer math in units of retireCost (power-of-two widths with the
// clock an exact multiple of retireCost) or literally the same
// sequence of float additions (see advanceClock). Non-power-of-two
// widths take the per-record fallback below, guarded at construction
// (evExact).
func (c *Core) StepEvent(bound int64, maxRetire uint64) uint64 {
	// Clamp far-future bounds so (bound+1)*Width stays in int64; any
	// real clock is far below 2^52 cycles, so the clamp is invisible.
	if bound > 1<<52 {
		bound = 1 << 52
	}
	if !c.evExact {
		// retireCost is not exactly representable: batching the clock
		// advance would round differently than repeated addition, so
		// consume the stream one record at a time.
		var n uint64
		for n < maxRetire && c.Now() <= bound {
			c.Step()
			n++
		}
		return n
	}
	var n uint64
	for n < maxRetire && c.Now() <= bound {
		if c.ev.ALURun > 0 {
			n += c.retireALURun(&c.ev, bound, maxRetire-n)
			continue
		}
		if c.ev.HasRec {
			c.ev.HasRec = false
			c.stepRecord(&c.ev.Rec)
			n++
			continue
		}
		c.gen.NextEvent(&c.ev)
	}
	return n
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

// retireALURun drains e's ALU run: I-line crossings step one
// instruction at a time (their fetch can stall and move the clock past
// the bound), the sequential instructions between crossings retire as
// one arithmetic batch. Stops at the bound, the limit or the run's end.
func (c *Core) retireALURun(e *trace.Event, bound int64, limit uint64) uint64 {
	var done uint64
	for e.ALURun > 0 && done < limit && c.Now() <= bound {
		pc := e.ALUPC
		if pc>>6 != c.fetchLine {
			c.stepOneALU(e)
			done++
			continue
		}
		// Sequential instructions within the already-fetched I-line (or
		// up to the code region's wrap point): retirement slots only.
		lineEnd := (pc | 63) + 1
		if c.codeLimit < lineEnd {
			lineEnd = c.codeLimit
		}
		k := uint64(lineEnd-pc) >> 2
		if r := uint64(e.ALURun); r < k {
			k = r
		}
		if left := limit - done; left < k {
			k = left
		}
		// Slot 0 was pre-approved by the loop condition (the per-record
		// path checks the bound before each retire, not after); only the
		// remaining slots need bound checks or the grid jump.
		c.clock += c.retireCost
		j := uint64(1)
		if j < k {
			j += c.advanceClock(k-1, bound)
		}
		c.retired += j
		c.stats.Retired += j
		done += j
		e.ALURun -= int(j)
		pc += j << 2
		if pc >= c.codeLimit {
			pc = c.codeBase
		}
		e.ALUPC = pc
		if j < k {
			break // bound cut the segment short
		}
	}
	return done
}

// advanceClock advances the clock by up to k retirement slots, each
// allowed only while the pre-retirement clock satisfies Now() <= bound
// (the per-record stepping condition), and returns how many retired.
//
// When the clock is an exact multiple of retireCost = 1/Width (Width a
// power of two, so retireCost is a negative power of two), every
// repeated addition of retireCost is exact — both operands and the sum
// are multiples of 2^-log2(Width) well inside float64's 53-bit
// mantissa — so the whole advance collapses to integer arithmetic in
// units of retireCost, bit-identical to per-record stepping. A
// fractional memory stall (latency divided by a non-power-of-two
// effective MLP) leaves the clock off the retireCost grid; repeated
// addition then rounds at each step, so the fallback performs the
// per-record float additions literally.
func (c *Core) advanceClock(k uint64, bound int64) uint64 {
	w := float64(c.cfg.Width)
	t := c.clock * w // exact: w is a power of two
	if ti := int64(t); float64(ti) == t {
		// Pre-retirement clock of slot j is (ti+j)*retireCost, whose
		// whole-cycle value is (ti+j)/Width rounded toward zero; it is
		// allowed while (ti+j)/Width <= bound, i.e. j < (bound+1)*Width - ti.
		if allowed := (bound+1)*int64(c.cfg.Width) - ti; allowed < int64(k) {
			if allowed <= 0 {
				return 0
			}
			k = uint64(allowed)
		}
		c.clock += float64(k) * c.retireCost // exact: k*retireCost and the sum are on the grid
		return k
	}
	var done uint64
	for done < k && int64(c.clock) <= bound {
		c.clock += c.retireCost
		done++
	}
	return done
}

// ResetStats restarts IPC accounting and zeroes counters while keeping
// microarchitectural state (predictor, caches, clock) warm. Used at the
// end of the warm-up period.
func (c *Core) ResetStats() {
	c.snapRetired = c.retired
	c.snapClock = c.clock
	c.stats = Stats{}
}
