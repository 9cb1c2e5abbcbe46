package partition

import "repro/internal/umon"

// PIPP is promotion/insertion pseudo-partitioning (Xie & Loh, ISCA
// 2009), implemented as an extension beyond the paper's evaluated
// schemes — Section 6 cites it as the other state-of-the-art way of
// enforcing partitions without hard quotas. Instead of restricting
// replacement, PIPP enforces each core's target allocation through the
// replacement *stack*:
//
//   - an incoming line of core i is inserted at stack position
//     quota[i] - 1 from the LRU end (a core with a large quota inserts
//     near MRU and its lines survive long; a core with quota 1 inserts
//     at LRU and its lines are evicted next unless re-used);
//   - on a hit, a line is promoted by a single position (with
//     probability 1 in this implementation) rather than jumping to
//     MRU.
//
// Like UCP, quotas come from the look-ahead allocation over utility
// monitors, every access probes all tag ways, and nothing can be
// power-gated — PIPP is a performance scheme; it is included to show
// the Cooperative Partitioning energy results against a second
// pseudo-partitioning baseline.
//
// On the Controller's access path PIPP's whole personality is two
// hooks: touch (single-step promotion instead of the MRU touch) and
// afterInstall (demotion to the insertion position). The fill victim is
// the default invalid-then-LRU choice, which equals the stack's LRU
// end.
type PIPP struct {
	Controller
	mons   []*umon.Monitor
	quotas []int
	hooks  accessHooks
}

// NewPIPP builds the scheme.
func NewPIPP(cfg Config) *PIPP {
	p := &PIPP{Controller: NewController(cfg)}
	p.mons = p.NewMonitors()
	p.quotas = p.EqualShares()
	p.hooks = accessHooks{
		touch:        p.promote,
		afterInstall: func(set, way, core int) { p.insertAt(set, way, p.quotas[core]-1) },
		mons:         p.mons,
	}
	return p
}

// Name implements Scheme.
func (p *PIPP) Name() string { return "PIPP" }

// stackOrder returns the set's ways ordered LRU-first (invalid ways
// first, as "below LRU").
func (p *PIPP) stackOrder(set int) []int {
	ways := p.l2.Ways()
	order := make([]int, 0, ways)
	// Insertion sort by (valid, LRU).
	for w := 0; w < ways; w++ {
		order = append(order, w)
	}
	less := func(a, b int) bool {
		va, vb := p.l2.ValidAt(set, a), p.l2.ValidAt(set, b)
		if va != vb {
			return !va
		}
		return p.l2.LRUAt(set, a) < p.l2.LRUAt(set, b)
	}
	for i := 1; i < len(order); i++ {
		for j := i; j > 0 && less(order[j], order[j-1]); j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	return order
}

// Access implements Scheme.
func (p *PIPP) Access(core int, addr uint64, isWrite bool, now int64) Result {
	return p.access(core, addr, isWrite, now, &p.hooks)
}

// promote lifts way by one stack position: swap LRU stamps with the
// next-more-recent block (if any).
func (p *PIPP) promote(set, way int) {
	order := p.stackOrder(set)
	for i, w := range order {
		if w != way {
			continue
		}
		if i+1 < len(order) && p.l2.ValidAt(set, order[i+1]) {
			p.swapLRU(set, way, order[i+1])
		}
		return
	}
}

// insertAt positions way at `pos` from the LRU end (0 = LRU) by
// swapping it down from wherever InstallAt left it (MRU).
func (p *PIPP) insertAt(set, way, pos int) {
	if pos < 0 {
		pos = 0
	}
	for {
		order := p.stackOrder(set)
		cur := -1
		for i, w := range order {
			if w == way {
				cur = i
				break
			}
		}
		if cur <= pos {
			return
		}
		below := order[cur-1]
		if !p.l2.ValidAt(set, below) {
			return // already just above the invalid region
		}
		p.swapLRU(set, way, below)
	}
}

// swapLRU exchanges the recency stamps of two blocks in a set.
func (p *PIPP) swapLRU(set, a, b int) {
	la, lb := p.l2.LRUAt(set, a), p.l2.LRUAt(set, b)
	p.l2.SetLRU(set, a, lb)
	p.l2.SetLRU(set, b, la)
}

// Decide implements Scheme: recompute quotas by look-ahead.
func (p *PIPP) Decide(now int64) {
	p.stats.Decisions++
	next := umon.Lookahead(p.MissCurves(p.mons), p.l2.Ways())
	p.DecayMonitors(p.mons)
	for i := range next {
		if next[i] != p.quotas[i] {
			p.stats.Repartitions++
			p.quotas = next
			return
		}
	}
}

// Allocations implements Scheme.
func (p *PIPP) Allocations() []int { return append([]int(nil), p.quotas...) }
