package sim

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/energy"
	"repro/internal/mem"
	"repro/internal/partition"
	"repro/internal/umon"
	"repro/internal/workload"
)

// SchemeKind names one of the five compared LLC schemes.
type SchemeKind string

// The five schemes of Section 3.4.
const (
	Unmanaged SchemeKind = "Unmanaged"
	FairShare SchemeKind = "FairShare"
	DynCPE    SchemeKind = "DynCPE"
	UCP       SchemeKind = "UCP"
	CoopPart  SchemeKind = "CoopPart"
	// PIPP is an extension beyond the paper's five compared schemes:
	// promotion/insertion pseudo-partitioning (Xie & Loh, cited in the
	// paper's related work).
	PIPP SchemeKind = "PIPP"
)

// AllSchemes lists the paper's five schemes in its plotting order
// (PIPP, being an extension, is not part of the reproduced figures).
var AllSchemes = []SchemeKind{Unmanaged, FairShare, DynCPE, UCP, CoopPart}

// RunConfig describes one simulation run.
type RunConfig struct {
	Scale  Scale
	Scheme SchemeKind
	Group  workload.Group
	// Threshold is Cooperative Partitioning's T (Algorithm 1), also
	// used by Dynamic CPE's profile-driven allocation. The paper's
	// default is 0.05.
	Threshold float64
	Seed      uint64
	// Profiles drives Dynamic CPE (one per core, from ProfileBenchmark).
	Profiles []partition.CoreProfile
	// CaptureProfile records core 0's per-phase utility curves into
	// Results.Profile (used to generate CPE profiles from solo runs).
	CaptureProfile bool
	// Variant selects an ablation or extension arm of Cooperative
	// Partitioning (DESIGN.md §7). Every other scheme takes only
	// core.VariantNone.
	Variant core.Variant
}

// System is one assembled CMP: cores, private L1Ds, the shared scheme-
// managed L2, MSHRs, DRAM and the energy meter.
type System struct {
	cfg    RunConfig
	cores  []*cpu.Core
	l1     []*cache.Cache
	l1i    []*cache.Cache
	mshr   []*cache.MSHRFile
	scheme partition.Scheme
	dram   *mem.DRAM
	meter  *energy.Meter

	nextDecision int64
	lineBytes    int
	lineShift    uint  // log2(lineBytes), hoisted out of the access path
	measureFrom  int64 // clock at the end of warm-up (energy reset point)
	// stepRecords forces the per-record Step path instead of the
	// event-compressed StepEvent path (DESIGN.md §10). The two are
	// bit-identical — this switch exists for the differential tests
	// that prove it.
	stepRecords bool

	// prog is the measured-loop bookkeeping, lifted into a field so a
	// mid-run Snapshot carries it and a restored system resumes the
	// loop exactly where it stopped (DESIGN.md §14).
	prog *Progress

	profMon    *umon.Monitor
	profPhases []partition.ProfilePhase
	profAccs   uint64
}

// NewSystem assembles a system for cfg.
func NewSystem(cfg RunConfig) (*System, error) {
	if err := cfg.Scale.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Group.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Variant.Validate(); err != nil {
		return nil, err
	}
	if cfg.Variant != core.VariantNone && cfg.Scheme != CoopPart {
		return nil, fmt.Errorf("sim: variant %q applies only to %s, not %s", cfg.Variant, CoopPart, cfg.Scheme)
	}
	n := len(cfg.Group.Benchmarks)
	l2cfg, err := cfg.Scale.L2For(n)
	if err != nil {
		return nil, err
	}
	cfg.Threshold = effectiveThreshold(cfg.Threshold, cfg.Scheme)

	dram := mem.New(cfg.Scale.Mem)
	pcfg := partition.Config{
		Cache:          l2cfg,
		NumCores:       n,
		DRAM:           dram,
		UMONSampling:   cfg.Scale.UMONSampling,
		Threshold:      cfg.Threshold,
		TimelineBucket: cfg.Scale.PhaseCycles / 25,
	}
	// The scheme constructors panic on a bad config; the threshold and
	// the L2 geometry can arrive from outside the program (expd), so
	// reject them here as errors.
	if err := pcfg.Validate(); err != nil {
		return nil, err
	}

	var scheme partition.Scheme
	switch cfg.Scheme {
	case Unmanaged:
		scheme = partition.NewUnmanaged(pcfg)
	case FairShare:
		scheme = partition.NewFairShare(pcfg)
	case UCP:
		scheme = partition.NewUCP(pcfg)
	case PIPP:
		scheme = partition.NewPIPP(pcfg)
	case DynCPE:
		scheme = partition.NewCPE(pcfg, cfg.Profiles)
	case CoopPart:
		scheme = core.New(pcfg, cfg.Variant)
	default:
		return nil, fmt.Errorf("sim: unknown scheme %q", cfg.Scheme)
	}

	s := &System{
		cfg:          cfg,
		scheme:       scheme,
		dram:         dram,
		meter:        energy.NewMeter(l2cfg.Ways),
		nextDecision: cfg.Scale.PhaseCycles,
		lineBytes:    l2cfg.LineBytes,
		lineShift:    uint(bits.TrailingZeros(uint(l2cfg.LineBytes))),
	}
	wayLines := l2cfg.Sets()
	for i, name := range cfg.Group.Benchmarks {
		b := workload.MustGet(name)
		gen := b.NewGenerator(workload.Params{
			CoreID:     i,
			LineBytes:  l2cfg.LineBytes,
			WayLines:   wayLines,
			PhaseScale: cfg.Scale.PhaseScale(),
			Seed:       cfg.Seed,
		})
		s.l1 = append(s.l1, cache.New(cfg.Scale.L1D))
		s.l1i = append(s.l1i, cache.New(cfg.Scale.L1I))
		s.mshr = append(s.mshr, cache.NewMSHRFile(cfg.Scale.MSHRs))
		s.cores = append(s.cores, cpu.NewCore(i, gen, s))
	}
	if cfg.CaptureProfile {
		s.profMon = umon.New(umon.Config{Sets: l2cfg.Sets(), Ways: l2cfg.Ways, Sampling: 1})
	}
	return s, nil
}

// Access implements cpu.MemPort: the L1D in front of the shared L2.
func (s *System) Access(coreID int, addr uint64, isWrite bool, now int64) cpu.AccessReply {
	l1 := s.l1[coreID]
	line := l1.Line(addr)
	ev, hit := l1.Access(line, coreID, isWrite)
	if hit {
		return cpu.AccessReply{Latency: int64(l1.Latency()), L1Hit: true}
	}

	// Dirty L1 victim: write it back into the L2 (write-allocate; the
	// latency is hidden by the write buffer, only energy and cache
	// state matter).
	if ev.Valid && ev.Dirty {
		wbAddr := ev.Line << s.lineShift
		wbRes := s.scheme.Access(coreID, wbAddr, true, now)
		s.chargeAccess(wbRes, true, now)
	}

	// Fill from the L2 (and memory beyond it).
	res := s.scheme.Access(coreID, addr, false, now)
	s.chargeAccess(res, false, now)
	if s.profMon != nil && coreID == 0 {
		l2line := addr >> s.lineShift
		s.profMon.Access(int(l2line)%s.profMon.Config().Sets, l2line)
		s.profAccs++
	}

	latency := int64(l1.Latency()) + res.Latency
	if !res.Hit {
		// The MSHR file bounds outstanding misses: a full file delays
		// the new miss until the earliest completion.
		start, _ := s.mshr[coreID].Allocate(line, now, now+latency)
		latency += start - now
	}
	return cpu.AccessReply{Latency: latency, L1Hit: false}
}

// Fetch implements cpu.MemPort: the private L1I in front of the shared
// L2. Instruction lines are never dirty, so misses are pure fills.
func (s *System) Fetch(coreID int, pc uint64, now int64) cpu.AccessReply {
	l1i := s.l1i[coreID]
	line := l1i.Line(pc)
	if _, hit := l1i.Access(line, coreID, false); hit {
		return cpu.AccessReply{Latency: int64(l1i.Latency()), L1Hit: true}
	}
	res := s.scheme.Access(coreID, pc, false, now)
	s.chargeAccess(res, false, now)
	return cpu.AccessReply{Latency: int64(l1i.Latency()) + res.Latency, L1Hit: false}
}

// AccessHits implements cpu.MemPort: whether addr hits the core's L1D.
func (s *System) AccessHits(coreID int, addr uint64) bool { return l1Hits(s.l1[coreID], addr) }

// FetchHits implements cpu.MemPort: whether pc hits the core's L1I.
func (s *System) FetchHits(coreID int, pc uint64) bool { return l1Hits(s.l1i[coreID], pc) }

// l1Hits probes a private L1 for addr's line without touching it.
func l1Hits(l1 *cache.Cache, addr uint64) bool {
	line := l1.Line(addr)
	_, hit := l1.Probe(l1.Index(line), l1.TagOf(line), l1.AllMask())
	return hit
}

// chargeAccess books one L2 access on the energy meter.
func (s *System) chargeAccess(res partition.Result, isWrite bool, now int64) {
	s.meter.OnAccess(energy.AccessEvent{
		TagsConsulted: res.TagsConsulted,
		DataRead:      res.Hit && !isWrite,
		DataWrite:     !res.Hit || isWrite,
		PermCheck:     res.PermCheck,
		UMONSampled:   res.UMONSampled,
		TakeoverOps:   res.TakeoverOps,
	})
	for i := 0; i < res.Writebacks; i++ {
		s.meter.OnWriteback()
	}
	if pw := s.scheme.PoweredWayEquiv(); pw != s.meter.PoweredEquiv() {
		s.meter.SetPoweredEquiv(now, pw)
	}
}

// decide runs one phase boundary.
func (s *System) decide(now int64) {
	reps := s.scheme.Stats().Repartitions
	flushed := s.scheme.Stats().FlushedOnDecide
	s.scheme.Decide(now)
	if s.scheme.Stats().Repartitions != reps {
		s.meter.OnRepartition()
	}
	// Synchronous reconfiguration flushes (Dynamic CPE) read every
	// relocated block out of the data array.
	for i := flushed; i < s.scheme.Stats().FlushedOnDecide; i++ {
		s.meter.OnWriteback()
	}
	if s.profMon != nil {
		s.profPhases = append(s.profPhases, partition.ProfilePhase{
			Curve:    s.profMon.MissCurve(),
			Accesses: s.profMon.Accesses(),
		})
		s.profMon.Reset()
	}
	s.meter.Advance(now)
}

// stepBound returns the inclusive clock bound for one batched step of
// core ci: the clock heap's second-minimum bound (the interleaving
// per-record stepping would enforce) capped by the next phase boundary
// (the decision must fire before the core's clock reaches it).
func (s *System) stepBound(h *clockHeap, ci int) int64 {
	bound := h.secondBound(ci)
	if d := s.nextDecision - 1; d < bound {
		bound = d
	}
	return bound
}

// stepCap returns the batched-retirement cap for a core that has not
// yet crossed target: it stops one instruction short of the crossing,
// so the crossing retires alone, from the global minimum, and is
// recorded at the instant per-record stepping records it.
func stepCap(c *cpu.Core, target uint64) uint64 {
	if r := c.Retired(); r < target {
		return max(target-r-1, 1)
	}
	return ^uint64(0)
}

// horizon is the largest (clock, core) key seen of a core that had not
// yet crossed the run's target. Every instruction up to a core's
// crossing runs before the run ends, so every key the horizon takes is
// at or below the last crossing's, the key the run ends at; a crossed
// core's private instructions below the horizon run in the per-record
// loop too (DESIGN.md §10, "Stepping window"). The zero value is at or
// below every key.
type horizon struct {
	clock int64
	core  int
}

// raise folds the key (now, ci) into the horizon.
func (z *horizon) raise(now int64, ci int) {
	if now > z.clock || now == z.clock && ci > z.core {
		z.clock, z.core = now, ci
	}
}

// priv returns core ci's private-retirement bound: unbounded before
// its crossing (stepCap holds the crossing back), afterwards the
// largest clock whose key is below the horizon.
func (z horizon) priv(p *Progress, ci int) int64 {
	switch {
	case !p.Recorded[ci]:
		return math.MaxInt64
	case ci < z.core:
		return z.clock
	default:
		return z.clock - 1
	}
}

// Progress is the stepping loop's bookkeeping: which cores have
// crossed the retirement target, how many, and the IPC/MPKI recorded
// at each crossing. The measured region's Progress travels inside
// mid-run snapshots so a restored run records exactly the results the
// uninterrupted run would have.
type Progress struct {
	Recorded []bool
	Done     int
	IPC      []float64
	MPKI     []float64
}

func newProgress(n int) *Progress {
	return &Progress{Recorded: make([]bool, n), IPC: make([]float64, n), MPKI: make([]float64, n)}
}

func (p *Progress) clone() *Progress {
	return &Progress{
		Recorded: append([]bool(nil), p.Recorded...),
		Done:     p.Done,
		IPC:      append([]float64(nil), p.IPC...),
		MPKI:     append([]float64(nil), p.MPKI...),
	}
}

// account books core ci's step: it records the core's IPC/MPKI in p
// the instant it crosses target, and until then folds its key into the
// horizon. The clock after the crossing instruction is never folded in:
// a stall on that instruction can jump past the run's end.
func (s *System) account(p *Progress, z *horizon, ci int, target uint64) {
	c := s.cores[ci]
	switch {
	case p.Recorded[ci]:
	case c.Retired() < target:
		z.raise(c.Now(), ci)
	default:
		p.Recorded[ci] = true
		p.Done++
		p.IPC[ci] = c.IPC()
		misses := s.scheme.Stats().PerCore[ci].Misses
		p.MPKI[ci] = float64(misses) / (float64(c.Retired()) / 1000)
	}
}

// Warmup executes the warm-up region (if any) and resets statistics at
// its boundary. Run == Warmup followed by RunMeasured; the split lets
// the checkpoint layer snapshot the warm-up boundary and resume many
// runs from it. The warm-up's Progress is local, so s.prog stays nil
// and a warm-up snapshot carries no measured-loop state.
func (s *System) Warmup() {
	if s.cfg.Scale.WarmupInstr > 0 {
		s.run(s.cfg.Scale.WarmupInstr, newProgress(len(s.cores)), 0, nil)
		s.resetStats()
	}
}

// Run executes warm-up plus the measured region and gathers results.
func (s *System) Run() *Results {
	s.Warmup()
	return s.RunMeasured(0, nil)
}

// nextCkptBoundary returns the next mid-run checkpoint boundary — the
// smallest multiple of every (in measured-region instructions, below
// target) that some core has not yet reached — and how many cores are
// still short of it; (0, 0) when no boundary remains. Boundaries are a
// pure function of the simulation state, never serialized: a restored
// run re-derives them, so snapshot bytes are independent of the
// -checkpoint-every setting that produced them.
func (s *System) nextCkptBoundary(every, target uint64) (uint64, int) {
	min := ^uint64(0)
	for _, c := range s.cores {
		if r := c.Retired(); r < min {
			min = r
		}
	}
	b := (min/every + 1) * every
	if b >= target {
		return 0, 0
	}
	short := 0
	for _, c := range s.cores {
		if c.Retired() < b {
			short++
		}
	}
	return b, short
}

// run is the one stepping loop: it steps cores in clock order until
// every core has retired target instructions (since the last stats
// reset), firing phase decisions on the way and recording each core's
// IPC/MPKI in p the instant it crosses target. When every > 0 and
// onCkpt is non-nil, onCkpt fires each time all cores have retired
// another `every` instructions (the moment the last core crosses the
// boundary). Each StepEvent call runs under the stepping window of
// DESIGN.md §10: stepBound, the horizon's priv and stepCap.
// stepRecords swaps in the per-record reference path.
func (s *System) run(target uint64, p *Progress, every uint64, onCkpt func(boundary uint64)) {
	var nextCkpt uint64
	ckptShort := 0
	if every > 0 && onCkpt != nil {
		nextCkpt, ckptShort = s.nextCkptBoundary(every, target)
	}

	clocks := make([]int64, len(s.cores))
	for i, c := range s.cores {
		clocks[i] = c.Now()
	}
	h := newClockHeap(clocks)
	var z horizon // seeded from the cores that have not crossed
	for i := range s.cores {
		s.account(p, &z, i, target)
	}
	for p.Done < len(s.cores) {
		ci := h.Min()
		c := s.cores[ci]
		now := c.Now()
		for now >= s.nextDecision {
			s.decide(s.nextDecision)
			s.nextDecision += s.cfg.Scale.PhaseCycles
		}
		var before uint64
		if nextCkpt > 0 {
			before = c.Retired()
		}
		if s.stepRecords {
			c.Step()
		} else {
			c.StepEvent(s.stepBound(h, ci), z.priv(p, ci), stepCap(c, target))
		}
		h.FixMin(c.Now())
		s.account(p, &z, ci, target)
		// The hook fires after this iteration's bookkeeping so the
		// snapshot captures a state the loop can re-enter verbatim.
		if nextCkpt > 0 && before < nextCkpt && c.Retired() >= nextCkpt {
			ckptShort--
			if ckptShort == 0 {
				onCkpt(nextCkpt)
				nextCkpt, ckptShort = s.nextCkptBoundary(every, target)
			}
		}
	}
}

// RunMeasured executes the measured region and gathers results. When
// every > 0 and onCkpt is non-nil, onCkpt fires at each mid-run
// checkpoint boundary (see run) — the hook the checkpoint layer uses
// to snapshot mid-run state. The callback must not mutate the system;
// with a nil hook the loop is bit-identical to an unhooked run.
func (s *System) RunMeasured(every uint64, onCkpt func(boundary uint64)) *Results {
	if s.prog == nil {
		s.prog = newProgress(len(s.cores))
	}
	p := s.prog
	s.run(s.cfg.Scale.InstrPerApp, p, every, onCkpt)

	res := &Results{
		Scheme:     string(s.cfg.Scheme),
		Group:      s.cfg.Group.Name,
		Benchmarks: append([]string(nil), s.cfg.Group.Benchmarks...),
	}
	res.IPC = append([]float64(nil), p.IPC...)
	res.MPKI = append([]float64(nil), p.MPKI...)

	var maxNow int64
	for _, c := range s.cores {
		if c.Now() > maxNow {
			maxNow = c.Now()
		}
	}
	s.meter.Advance(maxNow)

	res.Cycles = maxNow - s.measureFrom
	res.Dynamic = s.meter.Dynamic()
	res.Static = s.meter.Static()
	if res.Cycles > 0 {
		res.StaticPower = res.Static / float64(res.Cycles)
	}
	res.AvgWaysConsulted = s.scheme.Stats().AvgWaysConsulted()
	res.Allocations = s.scheme.Allocations()
	res.SchemeStats = cloneStats(s.scheme.Stats())
	res.Transition = cloneTransitions(s.scheme.Transitions())
	res.DRAM = s.dram.Stats()
	if s.cfg.CaptureProfile {
		res.Profile = partition.CoreProfile{Phases: s.profPhases}
	}
	for _, c := range s.cores {
		res.L1MissRate = append(res.L1MissRate, 1-hitRateOf(c, s))
	}
	return res
}

// hitRateOf returns the L1 hit rate of a core.
func hitRateOf(c *cpu.Core, s *System) float64 {
	return s.l1[c.ID()].Stats().HitRate()
}

// resetStats clears all counters at the warm-up boundary while keeping
// microarchitectural state warm.
func (s *System) resetStats() {
	var now int64
	for _, c := range s.cores {
		c.ResetStats()
		if c.Now() > now {
			now = c.Now()
		}
	}
	for _, l1 := range s.l1 {
		l1.Stats().Reset()
	}
	for _, l1i := range s.l1i {
		l1i.Stats().Reset()
	}
	s.scheme.Stats().Reset()
	s.scheme.Transitions().Reset()
	s.meter.ResetAt(now)
	s.measureFrom = now
	s.dram.ResetStats()
	s.profPhases = nil
	if s.profMon != nil {
		s.profMon.Reset()
	}
}

// Run is the package-level convenience: build a system and run it.
func Run(cfg RunConfig) (*Results, error) {
	s, err := NewSystem(cfg)
	if err != nil {
		return nil, err
	}
	return s.Run(), nil
}
