// Package partition implements the shared-LLC management schemes the
// paper compares against (Section 3.4):
//
//   - Unmanaged: no partitioning; cores compete freely (baseline).
//   - Fair Share: static equal way quotas per core.
//   - UCP: utility-based cache partitioning (Qureshi & Patt) with the
//     look-ahead algorithm, quotas enforced through replacement.
//   - Dynamic CPE: the profile-driven, set-and-way configurable
//     energy-oriented partitioning of Reddy & Petrov, extended to
//     dynamic reconfiguration as the paper describes, with immediate
//     flushing on every repartition.
//   - PIPP: promotion/insertion pseudo-partitioning (Xie & Loh), an
//     extension beyond the paper's evaluated schemes, cited in its
//     related work.
//
// The paper's own scheme, Cooperative Partitioning, lives in
// internal/core and implements the same Scheme interface.
package partition

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/mem"
)

// Result describes one LLC access for timing and energy accounting.
type Result struct {
	Hit           bool
	TagsConsulted int   // tag ways probed (dynamic energy)
	Latency       int64 // cycles until data available
	Writebacks    int   // dirty lines sent to memory by this access
	PermCheck     bool  // RAP/WAP registers consulted
	UMONSampled   bool  // a utility monitor recorded this access
	TakeoverOps   int   // takeover bit-vector operations performed
}

// Scheme is a shared last-level cache under some partitioning policy.
// Implementations are single-goroutine, like the rest of the simulator.
type Scheme interface {
	// Name identifies the scheme ("UCP", "CoopPart", ...).
	Name() string
	// Access performs one LLC access (addr is a byte address) by core
	// at time now and returns its timing/energy outcome.
	Access(core int, addr uint64, isWrite bool, now int64) Result
	// Decide runs the scheme's periodic partitioning decision.
	Decide(now int64)
	// PoweredWayEquiv returns how many way-equivalents are powered on
	// (fractional for set-partitioned schemes).
	PoweredWayEquiv() float64
	// Allocations returns the current way allocation per core (logical
	// quotas for quota-based schemes, owned ways for way-aligned ones).
	Allocations() []int
	// Stats exposes the scheme's counters.
	Stats() *Stats
	// Transitions exposes way-migration statistics (zero-valued for
	// schemes that do not migrate ways).
	Transitions() *TransitionStats
}

// CoreStats counts per-core LLC events.
type CoreStats struct {
	Accesses      uint64
	Hits          uint64
	Misses        uint64
	TagsConsulted uint64 // sum over accesses (avg ways consulted = this/Accesses)
}

// Stats aggregates scheme counters.
type Stats struct {
	PerCore         []CoreStats
	WritebacksToMem uint64
	Decisions       uint64
	Repartitions    uint64 // decisions that changed the allocation
	FlushedOnDecide uint64 // blocks flushed synchronously at decisions (CPE)
}

// TotalAccesses sums accesses across cores.
func (s *Stats) TotalAccesses() uint64 {
	var n uint64
	for _, c := range s.PerCore {
		n += c.Accesses
	}
	return n
}

// AvgWaysConsulted returns the mean number of tag ways probed per
// access across all cores.
func (s *Stats) AvgWaysConsulted() float64 {
	var tags, acc uint64
	for _, c := range s.PerCore {
		tags += c.TagsConsulted
		acc += c.Accesses
	}
	if acc == 0 {
		return 0
	}
	return float64(tags) / float64(acc)
}

// TransitionStats records way-migration behaviour for Figures 14-16.
type TransitionStats struct {
	// Fig. 15: way-transfer latency.
	Completed   uint64 // completed transitions
	WaysMoved   uint64 // ways transferred by completed transitions
	TotalCycles int64  // sum of per-way transfer durations
	Abandoned   uint64 // transitions superseded before completing

	// Fig. 14: events that set takeover bits (Cooperative Partitioning).
	DonorHits       uint64
	DonorMisses     uint64
	RecipientHits   uint64
	RecipientMisses uint64

	// Fig. 16: lines flushed to memory, bucketed by cycles since the
	// partitioning decision.
	FlushedLines   uint64
	Timeline       []uint64
	TimelineBucket int64
}

// timelineBuckets is the number of Fig. 16 flush-histogram buckets a
// scheme records.
const timelineBuckets = 64

// NewTransitionStats creates transition stats with a flush timeline of
// buckets cycles-wide buckets.
func NewTransitionStats(bucket int64, buckets int) *TransitionStats {
	if bucket <= 0 {
		bucket = 1
	}
	if buckets <= 0 {
		buckets = 1
	}
	return &TransitionStats{Timeline: make([]uint64, buckets), TimelineBucket: bucket}
}

// RecordFlush logs n lines flushed dt cycles after the decision.
func (t *TransitionStats) RecordFlush(dt int64, n int) {
	t.FlushedLines += uint64(n)
	if len(t.Timeline) == 0 {
		return
	}
	idx := int(dt / t.TimelineBucket)
	if idx < 0 {
		idx = 0
	}
	if idx >= len(t.Timeline) {
		idx = len(t.Timeline) - 1
	}
	t.Timeline[idx] += uint64(n)
}

// AvgTransferCycles returns the mean cycles to transfer one way.
func (t *TransitionStats) AvgTransferCycles() float64 {
	if t.WaysMoved == 0 {
		return 0
	}
	return float64(t.TotalCycles) / float64(t.WaysMoved)
}

// TakeoverEventTotal sums the Figure 14 event classes.
func (t *TransitionStats) TakeoverEventTotal() uint64 {
	return t.DonorHits + t.DonorMisses + t.RecipientHits + t.RecipientMisses
}

// Config carries everything a scheme needs to operate the shared LLC.
type Config struct {
	Cache    cache.Config
	NumCores int
	DRAM     *mem.DRAM
	// UMONSampling is the set-sampling ratio for schemes that monitor
	// utility (UCP, Cooperative Partitioning). 1 monitors every set.
	UMONSampling int
	// Threshold is the paper's T parameter for Cooperative
	// Partitioning's Algorithm 1.
	Threshold float64
	// TimelineBucket is the width, in cycles, of the Fig. 16 flush
	// histogram's timelineBuckets buckets.
	TimelineBucket int64
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if err := c.Cache.Validate(); err != nil {
		return err
	}
	if c.NumCores <= 0 {
		return fmt.Errorf("partition: NumCores = %d", c.NumCores)
	}
	if c.NumCores > 64 {
		return fmt.Errorf("partition: %d cores exceed the 64-core mask limit", c.NumCores)
	}
	if c.NumCores > c.Cache.Ways {
		return fmt.Errorf("partition: %d cores exceed %d ways", c.NumCores, c.Cache.Ways)
	}
	if c.DRAM == nil {
		return fmt.Errorf("partition: DRAM is nil")
	}
	if !(c.Threshold >= 0 && c.Threshold <= 1) { // NaN fails too
		return fmt.Errorf("partition: threshold %v outside [0,1]", c.Threshold)
	}
	return nil
}

// withDefaults fills unset optional fields.
func (c Config) withDefaults() Config {
	if c.UMONSampling <= 0 {
		c.UMONSampling = 1
	}
	if c.TimelineBucket <= 0 {
		c.TimelineBucket = 10000
	}
	return c
}

// Reset zeroes all counters (used at the end of a warm-up period).
func (s *Stats) Reset() {
	for i := range s.PerCore {
		s.PerCore[i] = CoreStats{}
	}
	s.WritebacksToMem = 0
	s.Decisions = 0
	s.Repartitions = 0
	s.FlushedOnDecide = 0
}

// Reset zeroes all transition counters and the flush timeline.
func (t *TransitionStats) Reset() {
	for i := range t.Timeline {
		t.Timeline[i] = 0
	}
	*t = TransitionStats{Timeline: t.Timeline, TimelineBucket: t.TimelineBucket}
}
