package partition

import "repro/internal/umon"

// UCP is utility-based cache partitioning (Qureshi & Patt, MICRO 2006),
// the state-of-the-art performance-oriented comparison scheme. Way
// quotas are recomputed each phase by the look-ahead algorithm from
// per-core utility monitors and enforced through replacement. Data is
// not way-aligned: every access probes all tag ways and no way can be
// powered off, so UCP provides no dynamic or static energy savings
// (Figures 6, 7, 9, 10).
//
// Way migration under UCP is implicit: after a decision, a recipient
// core's misses gradually evict the donor's blocks. The transition
// tracker below measures how long that takes (Figure 15: one block
// transferred in every set per migrating way) and how many dirty lines
// it flushes (Figure 16).
type UCP struct {
	Controller
	mons   []*umon.Monitor
	quotas []int
	hooks  accessHooks

	tr *ucpTransition
}

// ucpTransition tracks the convergence of one quota change. A set is
// converged once every donor's occupancy there has dropped to its new
// quota; the transition (the paper's "transfer one block from each
// set") completes when every set has converged.
type ucpTransition struct {
	start     int64
	donors    map[int]bool
	waysMoved int
	setDone   []bool
	remaining int // sets not yet converged
}

// NewUCP builds the UCP scheme with one utility monitor per core.
func NewUCP(cfg Config) *UCP {
	u := &UCP{Controller: NewController(cfg)}
	u.mons = u.newMonitors()
	// Until the first decision, behave like Fair Share.
	u.quotas = u.EqualShares()
	u.hooks = accessHooks{
		victim:   func(set, core int, _ uint64) int { return u.quotaVictim(set, core, u.quotas) },
		onVictim: u.onVictim,
		mons:     u.mons,
	}
	return u
}

// Name implements Scheme.
func (u *UCP) Name() string { return "UCP" }

// Monitors exposes the per-core utility monitors.
func (u *UCP) Monitors() []*umon.Monitor { return u.mons }

// Access implements Scheme.
func (u *UCP) Access(core int, addr uint64, isWrite bool, now int64) Result {
	return u.access(core, addr, isWrite, now, &u.hooks)
}

// onVictim advances the transition tracker on every miss fill: flushes
// of dirty donor blocks are logged for Figure 16, and the set is marked
// converged once no donor holds more than its quota there.
func (u *UCP) onVictim(core int, ev victimEvent, now int64) {
	tr := u.tr
	if tr == nil {
		return
	}
	if ev.valid && tr.donors[ev.owner] && ev.owner != core && ev.dirty {
		u.trans.RecordFlush(now-tr.start, 1)
	}
	if tr.setDone[ev.set] {
		return
	}
	for d := range tr.donors {
		if u.l2.CountOwned(ev.set, d, u.l2.AllMask()) > u.quotas[d] {
			return
		}
	}
	tr.setDone[ev.set] = true
	tr.remaining--
	if tr.remaining == 0 {
		u.trans.Completed++
		u.trans.WaysMoved += uint64(tr.waysMoved)
		u.trans.TotalCycles += (now - tr.start) * int64(tr.waysMoved)
		u.tr = nil
	}
}

// Decide implements Scheme: run the look-ahead allocation on the
// monitors' miss curves and start tracking the resulting migration.
func (u *UCP) Decide(now int64) {
	u.stats.Decisions++
	next := umon.Lookahead(u.MissCurves(u.mons), u.l2.Ways())
	u.DecayMonitors(u.mons)

	changed := false
	moved := 0
	donors := make(map[int]bool)
	for i := range next {
		if next[i] != u.quotas[i] {
			changed = true
		}
		if next[i] < u.quotas[i] {
			donors[i] = true
			moved += u.quotas[i] - next[i]
		}
	}
	if !changed {
		return
	}
	u.stats.Repartitions++
	u.quotas = next
	if moved == 0 {
		return
	}
	if u.tr != nil {
		u.trans.Abandoned++
	}
	u.tr = &ucpTransition{
		start:     now,
		donors:    donors,
		waysMoved: moved,
		setDone:   make([]bool, u.l2.NumSets()),
		remaining: u.l2.NumSets(),
	}
}

// Allocations implements Scheme.
func (u *UCP) Allocations() []int { return append([]int(nil), u.quotas...) }
