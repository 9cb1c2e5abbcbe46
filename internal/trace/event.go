package trace

import "unsafe"

// Event-compressed generation (DESIGN.md §10). The large majority of
// records in most mixes are ALU instructions whose only architectural
// effects are one RNG draw and a sequential PC advance; materializing
// a Record for each one is pure overhead for a consumer that models
// them as "retire one slot, maybe fetch a new I-line". An Event
// run-length-encodes the stream: a run of consecutive ALU instructions
// (count + starting PC, the rest of the walk being `+4, wrap at the
// code region's end`) followed by the non-ALU record that terminated
// the run. The event stream performs the exact per-record RNG draw
// sequence of Next/Fill — compression removes Record materialization,
// not randomness — so it decompresses to the bit-identical record
// stream (TestEventStreamMatchesNext, FuzzEventStreamMatchesNext), and
// events can be interleaved freely with Next/Fill calls on the same
// generator.

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
// one-event form of FillEvents, which holds the canonical event loop;
// the two are bit-identical by construction. The simulator's cores
// consume the stream through NextEvent one event at a time — the same
// per-pull discipline as Next (DESIGN.md §2): generation stays
// interleaved with the memory-bound cache-model work it overlaps with.
func (g *Generator) NextEvent(ev *Event) {
	// A one-element view of ev itself (plain pointer-to-slice
	// conversion; ev is a valid *Event) — the consumer's event is
	// filled in place, with no intermediate copy on the hot path.
	g.FillEvents(unsafe.Slice(ev, 1))
}

// FillEvents overwrites evs with the next len(evs) events of the
// stream. The records the events decompress to are exactly the records
// Fill/Next would produce — each ALU instruction of a run still costs
// its one mixture draw (x >= MemFrac+BranchFrac), so the RNG walk, the
// PC walk and every downstream draw are unchanged; only the Record
// stores are elided. The record-materialization arm below mirrors
// Fill's body line for line and must stay in lockstep with it — the
// pairing is pinned by TestEventStreamMatchesNext and
// FuzzEventStreamMatchesNext.
func (g *Generator) FillEvents(evs []Event) {
	cfg := &g.cfg
	rng := g.rng
	curPC := g.curPC
	pattern := g.pattern
	memCount := g.memCount
	strmPos := g.strmPos
	lineBytes := uint64(cfg.LineBytes)
	codeBase := g.codeBase
	codeLimit := codeBase + uint64(cfg.CodeLines)*lineBytes
	memFrac := cfg.MemFrac
	branchCut := cfg.MemFrac + cfg.BranchFrac
	streamFrac := cfg.StreamFrac
	hugeCut := cfg.StreamFrac + cfg.HugeFrac
	period, halfPeriod := phaseBounds(cfg.PhasePeriod, g.halfPeriod)
	phasePos := memCount % period
	var emitted uint64

	for i := range evs {
		ev := &evs[i]
		ev.ALUPC = curPC
		ev.HasRec = false
		run := 0
		for {
			x := rng.float()
			if x >= branchCut {
				// ALU: one draw, sequential PC advance, nothing else.
				run++
				curPC += 4
				if curPC >= codeLimit {
					curPC = codeBase
				}
				if run == MaxALURun {
					break
				}
				continue
			}
			r := &ev.Rec
			r.PC = curPC
			if x < memFrac {
				// Memory access: load or store with an address drawn from
				// the stream/huge/working-set mixture.
				memCount++
				if phasePos++; phasePos == period {
					phasePos = 0
				}
				if rng.float() < cfg.StoreFrac {
					r.Kind = KindStore
				} else {
					r.Kind = KindLoad
				}
				y := rng.float()
				var line uint64
				switch {
				case y < streamFrac:
					strmPos++
					line = g.strmBase + strmPos
				case y < hugeCut:
					line = g.hugeBase + uint64(rng.intn(cfg.HugeLines))
				default:
					// Working sets: pick one by weight, index uniformly
					// within the currently-active fraction of its footprint
					// (precomputed per phase; sweep positions maintained
					// division-free — see the Generator fast-path fields).
					z := rng.float()
					idx := len(g.wsCum) - 1
					for k, c := range g.wsCum {
						if z < c {
							idx = k
							break
						}
					}
					active := g.wsActiveFull[idx]
					if phasePos >= halfPeriod {
						active = g.wsActiveSmall[idx]
					}
					if cfg.WorkingSets[idx].Sweep {
						g.wsPos[idx]++
						pos := g.wsSweepPos[idx] + 1
						if g.wsActiveCur[idx] != active {
							g.wsActiveCur[idx] = active
							pos = g.wsPos[idx] % uint64(active)
						} else if pos >= uint64(active) {
							pos = 0
						}
						g.wsSweepPos[idx] = pos
						line = g.wsBase[idx] + pos
					} else {
						line = g.wsBase[idx] + uint64(rng.intn(active))
					}
				}
				r.Addr = line * lineBytes
			} else {
				// Branch with a partially-predictable outcome: drawn from a
				// 64-bit pattern register (learnable by gshare), flipped
				// randomly with probability BranchNoise.
				r.Kind = KindBranch
				bit := pattern & 1
				pattern = pattern>>1 | (pattern&1^pattern>>3&1)<<63 // LFSR-ish
				taken := bit == 1
				if rng.float() < cfg.BranchNoise {
					taken = rng.next()&1 == 0
				}
				r.Taken = taken
			}
			if r.Kind == KindBranch && r.Taken {
				// Jump to the start of a uniformly-chosen line of the region.
				curPC = codeBase + uint64(rng.intn(cfg.CodeLines))*lineBytes
			} else {
				curPC += 4
				if curPC >= codeLimit {
					curPC = codeBase
				}
			}
			ev.HasRec = true
			break
		}
		ev.ALURun = run
		emitted += uint64(run)
		if ev.HasRec {
			emitted++
		}
	}

	g.rng = rng
	g.curPC = curPC
	g.pattern = pattern
	g.memCount = memCount
	g.strmPos = strmPos
	g.emitted += emitted
}
