package trace

// The per-record reference generator. NextEvent is the only generator
// in production; this file keeps an independent implementation of the
// same stream, one record per call, for the differential tests
// (TestEventStreamMatchesNext, FuzzEventStreamMatchesNext) and for the
// package's property tests, which read records. It shares NextEvent's
// draw order but none of its shortcuts: one draw at a time, float
// compares with the config's probabilities instead of integer cuts,
// and plain modulos instead of precomputed reciprocals and cached
// phase and sweep positions.

// float returns a uniform float64 in [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// intn returns a uniform int in [0, n).
func (r *rng) intn(n int) int {
	if n <= 0 {
		return 0
	}
	return int(r.next() % uint64(n))
}

// wsCum returns the cumulative working-set weights NewGenerator derives
// its integer cuts from, by the same float sum.
func wsCum(sets []WS) []float64 {
	var total, cum float64
	for _, ws := range sets {
		total += ws.Weight
	}
	out := make([]float64, len(sets))
	for i, ws := range sets {
		if total > 0 {
			cum += ws.Weight / total
		}
		out[i] = cum
	}
	return out
}

// Next fills r with the next instruction of the stream. It keeps the
// cached sweep fields (wsActiveCur, wsSweepPos) at the values their
// definitions give, so Next and NextEvent can be interleaved on one
// generator.
func (g *Generator) Next(r *Record) {
	cfg := &g.cfg
	base, limit := g.CodeBounds()
	lineBytes := uint64(cfg.LineBytes)
	*r = Record{PC: g.curPC, Kind: KindALU}
	x := g.rng.float()
	switch {
	case x < cfg.MemFrac:
		g.memCount++
		r.Kind = KindLoad
		if g.rng.float() < cfg.StoreFrac {
			r.Kind = KindStore
		}
		var line uint64
		switch y := g.rng.float(); {
		case y < cfg.StreamFrac:
			g.strmPos++
			line = g.strmBase + g.strmPos
		case y < cfg.StreamFrac+cfg.HugeFrac:
			line = g.hugeBase + uint64(g.rng.intn(cfg.HugeLines))
		default:
			z := g.rng.float()
			idx := len(cfg.WorkingSets) - 1
			for k, c := range wsCum(cfg.WorkingSets) {
				if z < c {
					idx = k
					break
				}
			}
			scale := 1.0
			if p := uint64(cfg.PhasePeriod); p > 0 && g.memCount%p >= p/2 {
				scale = cfg.PhaseDepth
			}
			active := activeLines(cfg.WorkingSets[idx].Lines, scale)
			if cfg.WorkingSets[idx].Sweep {
				g.wsPos[idx]++
				pos := g.wsPos[idx] % uint64(active)
				g.wsActiveCur[idx], g.wsSweepPos[idx] = active, pos
				line = g.wsBase[idx] + pos
			} else {
				line = g.wsBase[idx] + uint64(g.rng.intn(active))
			}
		}
		r.Addr = line * lineBytes
	case x < cfg.MemFrac+cfg.BranchFrac:
		r.Kind = KindBranch
		p := g.pattern
		g.pattern = p>>1 | (p&1^p>>3&1)<<63
		r.Taken = p&1 == 1
		if g.rng.float() < cfg.BranchNoise {
			r.Taken = g.rng.next()&1 == 0
		}
	}
	if r.Kind == KindBranch && r.Taken {
		g.curPC = base + uint64(g.rng.intn(cfg.CodeLines))*lineBytes
	} else if g.curPC += 4; g.curPC >= limit {
		g.curPC = base
	}
}
