package trace

import "math/bits"

// Event-compressed generation (DESIGN.md §10). The large majority of
// records in most mixes are ALU instructions whose only architectural
// effects are one RNG draw and a sequential PC advance; materializing
// a Record for each one is pure overhead for a consumer that models
// them as "retire one slot, maybe fetch a new I-line". An Event
// run-length-encodes the stream: a run of consecutive ALU instructions
// (count + starting PC, the rest of the walk being `+4, wrap at the
// code region's end`) followed by the non-ALU record that terminated
// the run. The event stream performs the exact per-record RNG draw
// sequence — compression removes Record materialization, not
// randomness — so it decompresses to the record stream of the
// per-record reference generator (reference_test.go), pinned by
// TestEventStreamMatchesNext and FuzzEventStreamMatchesNext.

// MaxALURun caps the ALU run length of a single Event so that a
// branch-free, memory-free configuration (BranchFrac+MemFrac == 0,
// a legal config used by CPU unit tests) cannot spin NextEvent
// forever. A capped event carries HasRec == false and the next event
// continues the run.
const MaxALURun = 1 << 16

// Event is one run-length-encoded span of the instruction stream: a
// run of ALURun consecutive ALU instructions starting at ALUPC (PCs
// advance by 4, wrapping from the code region's limit to its base —
// CodeBounds), followed by the single non-ALU record Rec. A run capped
// at MaxALURun carries HasRec == false and no record.
type Event struct {
	Rec    Record // terminating non-ALU record (valid only if HasRec)
	ALUPC  uint64 // PC of the run's first ALU instruction (if ALURun > 0)
	ALURun int    // number of ALU instructions preceding Rec
	HasRec bool   // false only when the run was capped at MaxALURun
}

// CodeBounds returns the [base, limit) byte range of the code region:
// sequential PCs advance by 4 within it and wrap from limit to base.
// Consumers replaying an ALU run's PC walk (cpu.Core.StepEvent) need
// the same bounds the generator walks with.
func (g *Generator) CodeBounds() (base, limit uint64) {
	return g.codeBase, g.codeBase + uint64(g.cfg.CodeLines)*uint64(g.cfg.LineBytes)
}

// NextEvent fills ev with the next event of the stream. It is the
// generator's only body and performs the per-record stream's exact
// draw sequence; only the Record stores of ALU instructions are
// elided.
//
// Trace generation is the hot loop of the whole simulator, so every
// random decision is taken once, as an integer compare of the raw
// draw's top 53 bits with a precomputed cut (see cut), and every
// modulo is a precomputed reciprocal (see modulus). An ALU run, one
// draw per instruction, is found four draws at a time: SplitMix64's
// j-th next state is state + j·γ, so the four draws are independent
// mixes, and the run length is the number of trailing ALU draws in
// their below-cut mask. The run's PC walk is one wrap of its total
// advance, since PCs stay 4-byte aligned in a line-aligned region.
// The cores pull one event at a time (DESIGN.md §2), which keeps
// generation interleaved with the memory-bound cache-model work it
// overlaps with.
func (g *Generator) NextEvent(ev *Event) {
	rng := g.rng
	gamma := uint64(smGamma) // a variable, so its multiples wrap
	run := 0
	var x uint64 // the draw that ended the run
	for {
		s, c := rng.state, g.recCut
		s1, s2, s3, s4 := s+gamma, s+2*gamma, s+3*gamma, s+4*gamma
		k := bits.TrailingZeros64(below(smMix(s1)>>11, c) | below(smMix(s2)>>11, c)<<1 |
			below(smMix(s3)>>11, c)<<2 | below(smMix(s4)>>11, c)<<3 | 1<<4)
		if left := MaxALURun - run; k >= left {
			rng.state = s + uint64(left)*gamma
			run = MaxALURun
			break
		}
		run += k
		if k < 4 {
			rng.state = s + uint64(k+1)*gamma
			x = smMix(rng.state) >> 11
			break
		}
		rng.state = s4
	}
	codeBase, lineBytes := g.codeBase, uint64(g.cfg.LineBytes)
	ev.ALUPC = g.curPC
	ev.ALURun = run
	ev.HasRec = run < MaxALURun
	curPC := codeBase + g.codeSpan.mod(g.curPC-codeBase+uint64(run)*4)
	if ev.HasRec {
		r := &ev.Rec
		r.PC = curPC
		taken := false
		if x < g.memCut {
			// Memory access: load or store with an address drawn from
			// the stream/huge/working-set mixture.
			g.memCount++
			r.Kind = KindLoad + Kind(below(rng.next()>>11, g.storeCut))
			var line uint64
			switch y := rng.next() >> 11; {
			case y < g.streamCut:
				g.strmPos++
				line = g.strmBase + g.strmPos
			case y < g.hugeCut:
				line = g.hugeBase + g.hugeLines.mod(rng.next())
			default:
				line = g.wsLine(&rng)
			}
			r.Addr = line * lineBytes
		} else {
			// Branch with a partially-predictable outcome: drawn from a
			// 64-bit pattern register (learnable by gshare), flipped
			// randomly with probability BranchNoise.
			r.Kind = KindBranch
			p := g.pattern
			g.pattern = p>>1 | (p&1^p>>3&1)<<63 // LFSR-ish
			taken = p&1 == 1
			if rng.next()>>11 < g.noiseCut {
				taken = rng.next()&1 == 0
			}
			r.Taken = taken
		}
		if taken {
			// Jump to the start of a uniformly-chosen line of the region.
			curPC = codeBase + g.codeLines.mod(rng.next())*lineBytes
		} else if curPC += 4; curPC >= codeBase+g.codeSpan.n {
			curPC = codeBase
		}
	}
	g.rng = rng
	g.curPC = curPC
}

// wsLine draws a working-set access: a set by weight, then a line
// uniformly within the currently-active fraction of its footprint, or
// the next line of its sweep (positions maintained division-free — see
// the Generator's working-set fields).
func (g *Generator) wsLine(rng *rng) uint64 {
	z := rng.next() >> 11
	idx := len(g.wsCut) - 1
	for k, c := range g.wsCut {
		if z < c {
			idx = k
			break
		}
	}
	active := g.wsActiveFull[idx]
	if g.period.mod(g.memCount) >= g.halfPeriod {
		active = g.wsActiveSmall[idx]
	}
	if !g.cfg.WorkingSets[idx].Sweep {
		return g.wsBase[idx] + active.mod(rng.next())
	}
	g.wsPos[idx]++
	pos := g.wsSweepPos[idx] + 1
	if g.wsActiveCur[idx] != int(active.n) {
		g.wsActiveCur[idx] = int(active.n)
		pos = active.mod(g.wsPos[idx])
	} else if pos >= active.n {
		pos = 0
	}
	g.wsSweepPos[idx] = pos
	return g.wsBase[idx] + pos
}
