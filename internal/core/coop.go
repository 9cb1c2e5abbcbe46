package core

import (
	"fmt"
	"math/bits"

	"repro/internal/partition"
	"repro/internal/umon"
)

// CoopPart is Cooperative Partitioning: the paper's runtime LLC
// partitioning scheme that keeps UCP-level performance while saving
// dynamic energy (a core probes only the tag ways it owns) and static
// energy (ways owned by nobody are power-gated).
//
// Data is way-aligned: a way belongs to exactly one core at a time, so
// a core's data can never be anywhere outside its RAP mask. Partitions
// come from the thresholded look-ahead of Algorithm 1; migrations are
// carried out by cooperative takeover (Algorithm 2 + Section 2.3):
// donor and recipient both flush the donor's dirty lines set-by-set as
// a side effect of their ordinary accesses, each access marking the
// set's bit in the donor's takeover bit vector, and when the vector
// fills, the donor's read permission is withdrawn and the transfer is
// complete.
type CoopPart struct {
	partition.Controller
	mons   []*umon.Monitor
	perms  *PermRegs
	owner  []int // per way: owning core, -1 = powered off
	donors []donorState
	alloc  []int // target allocation per core (Cur in Algorithm 2)
	rng    uint64
	v      Variant

	// Drowsy extension state (drowsy.go); nil/zero unless v is
	// VariantDrowsy.
	lastTouch []int64 // per way: last data-array access
	lastNow   int64   // most recent access time (for power reporting)
}

// Variant names one arm of the ablation and extension studies
// (DESIGN.md §7): the plain scheme or one of its four single-choice
// mutations. It is part of every run's identity, so an ablated run
// never aliases the plain run it is compared against.
type Variant string

const (
	// VariantNone is the unmodified scheme.
	VariantNone Variant = ""
	// VariantRecipientMissOnly sets takeover bits only on recipient
	// misses (UCP-style convergence) instead of on every donor or
	// recipient access, isolating why cooperative takeover is faster
	// (Section 2.3).
	VariantRecipientMissOnly Variant = "recipient-miss-only"
	// VariantNoGating partitions identically but never powers ways
	// off, isolating the static-energy contribution of gated-Vdd
	// (Section 2.2).
	VariantNoGating Variant = "no-gating"
	// VariantRandomVictim fills into a pseudo-random way of the
	// owner's allocation instead of the LRU way — the degenerate
	// placement Section 2.5 compares the way-aligned restriction
	// against.
	VariantRandomVictim Variant = "random-victim"
	// VariantDrowsy adds the drowsy-cache extension (Section 6,
	// drowsy.go).
	VariantDrowsy Variant = "drowsy"
)

// Validate reports an unknown variant.
func (v Variant) Validate() error {
	switch v {
	case VariantNone, VariantRecipientMissOnly, VariantNoGating, VariantRandomVictim, VariantDrowsy:
		return nil
	}
	return fmt.Errorf("core: unknown variant %q", v)
}

// New builds the scheme in variant v. The threshold T comes from
// cfg.Threshold. Like the partition constructors it panics on an
// invalid configuration or variant.
func New(cfg partition.Config, v Variant) *CoopPart {
	if err := v.Validate(); err != nil {
		panic(err)
	}
	c := &CoopPart{Controller: partition.NewController(cfg), v: v}
	l2 := c.Cache()
	n := c.NumCores()
	c.mons = c.NewMonitors()
	c.perms = NewPermRegs(l2.Ways(), n)
	c.owner = make([]int, l2.Ways())
	c.alloc = make([]int, n)
	c.donors = make([]donorState, n)
	for i := range c.donors {
		c.donors[i].bits = NewBitVec(l2.NumSets())
	}
	c.rng = 0x9e3779b97f4a7c15

	// Initial partition: contiguous fair shares, fully owned.
	way := 0
	for i, share := range c.EqualShares() {
		c.alloc[i] = share
		for k := 0; k < share; k++ {
			c.owner[way] = i
			c.perms.SetRead(way, i, true)
			c.perms.SetWrite(way, i, true)
			way++
		}
	}
	for ; way < l2.Ways(); way++ {
		c.owner[way] = -1
	}
	if v == VariantDrowsy {
		c.lastTouch = make([]int64, l2.Ways())
	}
	return c
}

// Name implements partition.Scheme.
func (c *CoopPart) Name() string { return "CoopPart" }

// Perms exposes the RAP/WAP register file (tests, examples, reporting).
func (c *CoopPart) Perms() *PermRegs { return c.perms }

// OwnerOf returns the core owning way (-1 if the way is off).
func (c *CoopPart) OwnerOf(way int) int { return c.owner[way] }

// nextRand is a SplitMix64 step for the "random way" picks of
// Algorithm 2 (deterministic across runs).
func (c *CoopPart) nextRand() uint64 {
	c.rng += 0x9e3779b97f4a7c15
	z := c.rng
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Access implements partition.Scheme. addr is a byte address.
func (c *CoopPart) Access(core int, addr uint64, isWrite bool, now int64) partition.Result {
	l2 := c.Cache()
	line := l2.Line(addr)
	set := l2.Index(line)
	tag := l2.TagOf(line)
	readMask := c.perms.ReadMask(core)

	res := partition.Result{
		TagsConsulted: bits.OnesCount64(readMask),
		PermCheck:     true,
	}
	c.mons[core].Access(set, line)
	res.UMONSampled = c.UMONSampled(set)

	way, hit := l2.Probe(set, tag, readMask)
	res.Hit = hit

	// Cooperative takeover: every access by a donor or recipient to a
	// set flushes the donor's dirty data in the transferring ways and
	// sets the donor's takeover bit for the set (Section 2.3).
	for d := range c.donors {
		ds := &c.donors[d]
		if !ds.involves(d, core) {
			continue
		}
		res.TakeoverOps++ // bit-vector consult
		// Ablation: only recipient misses advance the takeover. Pure
		// turn-off periods keep donor-driven progress (they have no
		// recipient to miss, so they would never complete).
		if c.v == VariantRecipientMissOnly && ds.hasRecipient() && (core == d || hit) {
			continue
		}
		if !ds.bits.Set(set) {
			continue // bit already set: nothing to flush (Fig. 4, step 5)
		}
		tr := c.Transitions()
		for _, t := range ds.transfers {
			if !l2.ValidAt(set, t.way) || l2.OwnerAt(set, t.way) != d {
				continue
			}
			// FlushBlock is a no-op (false) on clean blocks, so no
			// separate dirty check is needed.
			if flushed, wb := l2.FlushBlock(set, t.way); wb {
				c.Writeback(flushed, now)
				res.Writebacks++
				tr.RecordFlush(now-ds.start, 1)
			}
			if t.recipient >= 0 {
				l2.SetOwner(set, t.way, t.recipient)
			}
		}
		// Figure 14 classifies the events that set takeover bits when
		// transferring ways *between cores*; pure turn-off periods have
		// no recipient and are excluded.
		if ds.hasRecipient() {
			if core == d {
				if hit {
					tr.DonorHits++
				} else {
					tr.DonorMisses++
				}
			} else {
				if hit {
					tr.RecipientHits++
				} else {
					tr.RecipientMisses++
				}
			}
		}
		if ds.bits.Full() {
			c.completeDonor(d, now)
		}
	}

	c.lastNow = now
	lat := int64(l2.Latency())
	if hit {
		l2.Touch(set, way)
		res.Latency = lat + c.wakeWay(way, now)
		if isWrite {
			if c.perms.CanWrite(way, core) {
				l2.MarkDirty(set, way)
			} else {
				// A store hit in a way the core may read but no longer
				// write (it is donating the way): the line moves into
				// one of the core's writable ways, preserving the
				// single-copy invariant.
				l2.InvalidateBlock(set, way)
				if victim := l2.Victim(set, c.perms.WriteMask(core)); victim >= 0 {
					ev := l2.InstallAt(set, victim, tag, core, true)
					if ev.Valid && ev.Dirty {
						c.Writeback(ev.Line, now)
						res.Writebacks++
					}
				}
			}
		}
	} else {
		victim := c.pickVictim(set, c.perms.WriteMask(core))
		var wake int64
		if victim >= 0 {
			ev := l2.InstallAt(set, victim, tag, core, isWrite)
			if ev.Valid && ev.Dirty {
				c.Writeback(ev.Line, now)
				res.Writebacks++
			}
			wake = c.wakeWay(victim, now)
		}
		res.Latency = lat + wake + c.Fill(line, now+lat)
	}

	c.Record(core, hit, res.TagsConsulted)
	return res
}

// completeDonor finishes donor d's transition period: read permission
// is withdrawn from every transferring way, ways with no new owner are
// power-gated, and the Figure 15 statistics are recorded.
func (c *CoopPart) completeDonor(d int, now int64) {
	ds := &c.donors[d]
	l2 := c.Cache()
	for _, t := range ds.transfers {
		c.perms.SetRead(t.way, d, false)
		if t.recipient < 0 {
			// Power the way off (gated-Vdd is not state-preserving).
			// Every set was flushed during the takeover, so remaining
			// dirtiness is impossible; write back defensively anyway.
			way := t.way
			l2.InvalidateWay(way, func(line uint64) { c.Writeback(line, now) })
			c.owner[way] = -1
		} else {
			c.owner[t.way] = t.recipient
		}
	}
	tr := c.Transitions()
	tr.Completed++
	tr.WaysMoved += uint64(len(ds.transfers))
	tr.TotalCycles += (now - ds.start) * int64(len(ds.transfers))
	ds.active = false
	ds.transfers = nil
}

// settledWays returns the ways core fully owns right now (writer with
// no co-reader: not already part of a transition).
func (c *CoopPart) settledWays(core int) []int {
	var ws []int
	for w := 0; w < c.perms.Ways(); w++ {
		if c.perms.Writer(w) == core && c.perms.Readers(w) == 1 {
			ws = append(ws, w)
		}
	}
	return ws
}

// startDonation registers one way migration with donor d's state,
// resetting its bit vector as Section 2.3 prescribes (even when a prior
// transition of the same donor is still in flight — that one simply
// takes longer).
func (c *CoopPart) startDonation(d int, t transfer, now int64) {
	ds := &c.donors[d]
	if !ds.active {
		ds.active = true
		ds.start = now
	}
	ds.bits.Reset()
	ds.transfers = append(ds.transfers, t)
}

// Decide implements partition.Scheme: Algorithm 1 picks the new
// allocation from the utility monitors, then Algorithm 2 programs the
// RAP/WAP registers to start the cooperative takeovers.
func (c *CoopPart) Decide(now int64) {
	st := c.Stats()
	st.Decisions++
	l2 := c.Cache()
	n := c.NumCores()

	next := umon.ThresholdLookahead(c.MissCurves(c.mons), l2.Ways(), c.Cfg().Threshold)
	c.DecayMonitors(c.mons)

	// Pre in Algorithm 2: the allocation the registers are already
	// converging to (writers of each way, including in-flight
	// recipients).
	pre := make([]int, n)
	for w := 0; w < l2.Ways(); w++ {
		if wr := c.perms.Writer(w); wr >= 0 {
			pre[wr]++
		}
	}

	receive := make([]int, n)
	donate := make([]int, n)
	changed := false
	for i := 0; i < n; i++ {
		switch {
		case next[i] > pre[i]:
			receive[i] = next[i] - pre[i]
			changed = true
		case next[i] < pre[i]:
			donate[i] = pre[i] - next[i]
			changed = true
		}
	}
	if !changed {
		c.alloc = next
		return
	}
	st.Repartitions++

	// Donor -> recipient pairing, picking random settled ways: one walk
	// around the takeover ring, matching recipients (ring order from
	// core 0) with donors (likewise). Donor budgets only shrink, so the
	// donor cursor never needs to revisit a core it has passed — a
	// single O(n) ring pass that reproduces the old pairwise nested
	// scan exactly (same transfer sequence, same RNG draws) while
	// scaling to many-core CMPs.
	j := 0
	for i := 0; i < n && j < n; i++ {
		for receive[i] > 0 && j < n {
			if donate[j] == 0 {
				j++
				continue
			}
			w := c.pickWay(c.settledWays(j))
			if w < 0 {
				donate[j] = 0
				j++
				continue
			}
			c.perms.SetRead(w, i, true)
			c.perms.SetWrite(w, i, true)
			c.perms.SetWrite(w, j, false)
			c.startDonation(j, transfer{way: w, recipient: i}, now)
			receive[i]--
			donate[j]--
		}
	}

	// Leftover donations turn ways off; leftover receipts turn ways on.
	for i := 0; i < n; i++ {
		for donate[i] > 0 {
			w := c.pickWay(c.settledWays(i))
			if w < 0 {
				break
			}
			c.perms.SetWrite(w, i, false)
			c.startDonation(i, transfer{way: w, recipient: -1}, now)
			donate[i]--
		}
		for receive[i] > 0 {
			w := c.pickOffWay()
			if w < 0 {
				break
			}
			// Powering on is immediate: the way's contents were
			// invalidated when it was gated.
			c.perms.SetRead(w, i, true)
			c.perms.SetWrite(w, i, true)
			c.owner[w] = i
			receive[i]--
		}
	}
	c.alloc = next
}

// pickVictim chooses the fill victim among the masked ways: LRU by
// default, or pseudo-random under VariantRandomVictim (invalid ways
// are preferred either way).
func (c *CoopPart) pickVictim(set int, mask uint64) int {
	if c.v != VariantRandomVictim {
		return c.Cache().Victim(set, mask)
	}
	l2 := c.Cache()
	var candidates []int
	for m := mask; m != 0; m &= m - 1 {
		w := bits.TrailingZeros64(m)
		if !l2.ValidAt(set, w) {
			return w
		}
		candidates = append(candidates, w)
	}
	return c.pickWay(candidates)
}

// pickWay selects one way pseudo-randomly from candidates (-1 if none).
func (c *CoopPart) pickWay(candidates []int) int {
	if len(candidates) == 0 {
		return -1
	}
	return candidates[c.nextRand()%uint64(len(candidates))]
}

// pickOffWay returns a powered-off way, or -1.
func (c *CoopPart) pickOffWay() int {
	var off []int
	for w := 0; w < c.perms.Ways(); w++ {
		if c.perms.IsOff(w) {
			off = append(off, w)
		}
	}
	return c.pickWay(off)
}

// PoweredWayEquiv implements partition.Scheme: ways with any permission
// bit set are powered; the rest are gated (under VariantNoGating
// everything stays powered, and VariantDrowsy weights idle ways by
// their drowsy leakage).
func (c *CoopPart) PoweredWayEquiv() float64 {
	switch c.v {
	case VariantNoGating:
		return float64(c.Cache().Ways())
	case VariantDrowsy:
		return c.drowsyPoweredEquiv(c.lastNow)
	}
	return float64(c.perms.PoweredWays())
}

// Allocations implements partition.Scheme: the target way allocation.
func (c *CoopPart) Allocations() []int { return append([]int(nil), c.alloc...) }

// BeginTransfer programs the permission registers for a single way
// migration exactly as Algorithm 2 does — the recipient gains full
// access, the donor loses write access (pass recipient -1 to turn the
// way off) — and starts the donor's takeover period at time now. It is
// the building block Decide uses, exported for examples and for
// library users who drive partitioning decisions themselves. It panics
// if donor does not fully own the way.
func (c *CoopPart) BeginTransfer(way, donor, recipient int, now int64) {
	if c.perms.Writer(way) != donor || c.perms.Readers(way) != 1 {
		panic("core: BeginTransfer on a way the donor does not fully own")
	}
	if recipient >= 0 {
		c.perms.SetRead(way, recipient, true)
		c.perms.SetWrite(way, recipient, true)
	}
	c.perms.SetWrite(way, donor, false)
	c.startDonation(donor, transfer{way: way, recipient: recipient}, now)
}

// TakeoverBitsSet reports how many takeover bits are currently set in
// core's bit vector (all sets covered == transition complete).
func (c *CoopPart) TakeoverBitsSet(core int) int { return c.donors[core].bits.Count() }
