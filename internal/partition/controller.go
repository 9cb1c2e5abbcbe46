package partition

import (
	"math/bits"

	"repro/internal/cache"
	"repro/internal/mem"
	"repro/internal/umon"
)

// Controller is the policy-free LLC controller every scheme composes
// over: it owns the physical cache, the memory behind it, per-core
// statistics and transition tracking, and implements the shared
// mechanics the schemes previously each duplicated — the probe/fill
// access path (policy injected through accessHooks), the
// equal-share initial allocation, quota-enforced victim selection
// (quota.go), the synchronous flush-on-repartition, and the default
// powered-way accounting. Schemes in this package embed it; external
// schemes (Cooperative Partitioning in internal/core) use the exported
// accessors.
//
// Controller itself implements the fixed-partition halves of Scheme
// (Stats, Transitions, a Decide that only counts the decision point,
// and a PoweredWayEquiv that keeps every way on); adaptive or gating
// schemes shadow Decide/PoweredWayEquiv with their own logic.
type Controller struct {
	cfg   Config
	l2    *cache.Cache
	dram  *mem.DRAM
	n     int
	stats Stats
	trans *TransitionStats
}

// NewController validates cfg, applies defaults and builds the shared
// machinery. It panics on invalid configuration (experiment constants).
func NewController(cfg Config) Controller {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	cfg = cfg.withDefaults()
	return Controller{
		cfg:   cfg,
		l2:    cache.New(cfg.Cache),
		dram:  cfg.DRAM,
		n:     cfg.NumCores,
		stats: Stats{PerCore: make([]CoreStats, cfg.NumCores)},
		trans: NewTransitionStats(cfg.TimelineBucket, cfg.TimelineBuckets),
	}
}

// Cache exposes the underlying cache (tests and reporting).
func (b *Controller) Cache() *cache.Cache { return b.l2 }

// Stats implements Scheme.
func (b *Controller) Stats() *Stats { return &b.stats }

// Transitions implements Scheme.
func (b *Controller) Transitions() *TransitionStats { return b.trans }

// Decide implements Scheme for schemes with a fixed partition: it only
// counts the decision point. Adaptive schemes shadow it.
func (b *Controller) Decide(now int64) { b.stats.Decisions++ }

// PoweredWayEquiv implements Scheme for the schemes that cannot gate
// ways (Unmanaged, Fair Share, UCP, PIPP): everything stays powered.
// Gating schemes (Dynamic CPE, Cooperative Partitioning) shadow it.
func (b *Controller) PoweredWayEquiv() float64 { return float64(b.l2.Ways()) }

// record tallies one access outcome for a core.
func (b *Controller) record(core int, hit bool, tags int) {
	cs := &b.stats.PerCore[core]
	cs.Accesses++
	cs.TagsConsulted += uint64(tags)
	if hit {
		cs.Hits++
	} else {
		cs.Misses++
	}
}

// fill fetches line from memory at time now, returning the read
// latency.
func (b *Controller) fill(line uint64, now int64) int64 {
	return b.dram.Read(line, now)
}

// writeback posts one dirty line to memory.
func (b *Controller) writeback(line uint64, now int64) {
	b.dram.Write(line, now)
	b.stats.WritebacksToMem++
}

// newMonitors builds one utility monitor per core.
func (b *Controller) newMonitors() []*umon.Monitor {
	mons := make([]*umon.Monitor, b.n)
	for i := range mons {
		mons[i] = umon.New(umon.Config{
			Sets:     b.l2.NumSets(),
			Ways:     b.l2.Ways(),
			Sampling: b.cfg.UMONSampling,
		})
	}
	return mons
}

// umonSampled reports whether set falls in a monitored sample.
func (b *Controller) umonSampled(set int) bool {
	return set%b.cfg.UMONSampling == 0
}

// accessHooks carries the policy of one scheme's access path. A scheme
// builds its hooks once at construction (closures over the scheme
// itself, so later quota changes are visible) and passes the same
// struct to every access — the path allocates nothing per access.
type accessHooks struct {
	// mask returns the ways core may probe and fill (nil: all ways).
	mask func(core int) uint64
	// mapSet folds the global set index into the scheme's region for
	// the core (nil: identity). Dynamic CPE's set partitioning uses it.
	mapSet func(core, set int) int
	// victim picks the fill way on a miss (nil: invalid-then-LRU over
	// the mask).
	victim func(set, core int, mask uint64) int
	// touch updates recency on a hit (nil: move to MRU). PIPP's
	// single-step promotion shadows it.
	touch func(set, way int)
	// afterInstall runs after a miss fill (nil: none). PIPP's insertion
	// positioning uses it.
	afterInstall func(set, way, core int)
	// onVictim observes the displaced block on a miss fill (nil: none).
	// UCP's transition tracker uses it.
	onVictim func(core int, ev victimEvent, now int64)
	// mons, when non-nil, receive every access for utility monitoring.
	mons []*umon.Monitor
}

// access is the shared LLC access path: probe the masked ways, touch or
// fill, account energy inputs and statistics. Policy comes entirely
// from the hooks.
func (b *Controller) access(core int, addr uint64, isWrite bool, now int64, h *accessHooks) Result {
	l2 := b.l2
	line := l2.Line(addr)
	set := l2.Index(line)
	if h.mapSet != nil {
		set = h.mapSet(core, set)
	}
	tag := l2.TagOf(line)
	mask := l2.AllMask()
	if h.mask != nil {
		mask = h.mask(core)
	}
	res := Result{TagsConsulted: bits.OnesCount64(mask)}

	if h.mons != nil {
		h.mons[core].Access(set, line)
		res.UMONSampled = b.umonSampled(set)
	}

	if mask == 0 {
		// No ways at all (a region-less core): straight to memory.
		res.Latency = int64(l2.Latency()) + b.fill(line, now+int64(l2.Latency()))
		b.record(core, false, 0)
		return res
	}

	lat := int64(l2.Latency())
	if way, hit := l2.Probe(set, tag, mask); hit {
		if h.touch != nil {
			h.touch(set, way)
		} else {
			l2.Touch(set, way)
		}
		if isWrite {
			l2.MarkDirty(set, way)
		}
		res.Hit = true
		res.Latency = lat
	} else {
		var victim int
		if h.victim != nil {
			victim = h.victim(set, core, mask)
		} else {
			victim = l2.Victim(set, mask)
		}
		prevOwn := cache.NoOwner
		if h.onVictim != nil && l2.ValidAt(set, victim) {
			prevOwn = l2.OwnerAt(set, victim)
		}
		ev := l2.InstallAt(set, victim, tag, core, isWrite)
		if ev.Valid && ev.Dirty {
			b.writeback(ev.Line, now)
			res.Writebacks++
		}
		if h.afterInstall != nil {
			h.afterInstall(set, victim, core)
		}
		if h.onVictim != nil {
			h.onVictim(core, victimEvent{
				set: set, victimWay: victim,
				owner: prevOwn, dirty: ev.Valid && ev.Dirty, valid: ev.Valid,
			}, now)
		}
		res.Latency = lat + b.fill(line, now+lat)
	}

	b.record(core, res.Hit, res.TagsConsulted)
	st := l2.Stats()
	st.Accesses++
	if res.Hit {
		st.Hits++
	} else {
		st.Misses++
	}
	return res
}

// EqualShares returns the fair initial allocation: the ways split
// evenly with the remainder going to the lowest-numbered cores.
func (b *Controller) EqualShares() []int {
	q := make([]int, b.n)
	share := b.l2.Ways() / b.n
	extra := b.l2.Ways() % b.n
	for i := range q {
		q[i] = share
		if i < extra {
			q[i]++
		}
	}
	return q
}

// FlushWays writes back and invalidates every valid block in the
// masked ways, counting each block in FlushedOnDecide. This is the
// synchronous flush-on-repartition: the posted writebacks occupy the
// memory banks and bus, delaying subsequent misses — the
// reconfiguration cost the paper's evaluation highlights.
func (b *Controller) FlushWays(mask uint64, now int64) {
	for m := mask; m != 0; m &= m - 1 {
		w := bits.TrailingZeros64(m)
		for s := 0; s < b.l2.NumSets(); s++ {
			if !b.l2.ValidAt(s, w) {
				continue
			}
			ev := b.l2.InvalidateBlock(s, w)
			if ev.Dirty {
				b.writeback(ev.Line, now)
			}
			b.stats.FlushedOnDecide++
		}
	}
}

// MissCurves collects every monitor's miss curve (a decision's input).
func (b *Controller) MissCurves(mons []*umon.Monitor) []umon.Curve {
	curves := make([]umon.Curve, len(mons))
	for i, m := range mons {
		curves[i] = m.MissCurve()
	}
	return curves
}

// DecayMonitors ages every monitor after a decision.
func (b *Controller) DecayMonitors(mons []*umon.Monitor) {
	for _, m := range mons {
		m.Decay()
	}
}

// Exported accessors for schemes implemented outside this package.

// Cfg returns the controller configuration (with defaults applied).
func (b *Controller) Cfg() Config { return b.cfg }

// NumCores returns the number of cores sharing the LLC.
func (b *Controller) NumCores() int { return b.n }

// Record tallies one access outcome for a core.
func (b *Controller) Record(core int, hit bool, tags int) { b.record(core, hit, tags) }

// Fill fetches line from memory at now and returns the read latency.
func (b *Controller) Fill(line uint64, now int64) int64 { return b.fill(line, now) }

// Writeback posts one dirty line to memory.
func (b *Controller) Writeback(line uint64, now int64) { b.writeback(line, now) }

// NewMonitors builds one utility monitor per core.
func (b *Controller) NewMonitors() []*umon.Monitor { return b.newMonitors() }

// UMONSampled reports whether set falls in a monitored sample.
func (b *Controller) UMONSampled(set int) bool { return b.umonSampled(set) }
