// Package cpu models the out-of-order cores of Table 2: a 4-wide,
// 7-stage pipeline with a 128-entry ROB, 48-entry LSQ, gshare branch
// prediction with a 1024-entry 4-way BTB, and a minimum 10-cycle
// misprediction penalty. The model is cycle-batched: instructions are
// consumed from a synthetic trace and charged retirement slots, branch
// bubbles and memory stalls, with miss latencies overlapped up to the
// window's memory-level parallelism. The pipeline depth has no
// parameter of its own: its only timing effect is the cost of a
// misprediction, which gshare's 10-cycle minimum penalty models.
package cpu

// GshareConfig configures the direction predictor and BTB.
type GshareConfig struct {
	HistoryBits       int // global history register length
	TableBits         int // log2 of the PHT size
	BTBEntries        int
	BTBWays           int
	MispredictPenalty int // minimum bubble, cycles
}

// DefaultGshareConfig matches Table 2.
func DefaultGshareConfig() GshareConfig {
	return GshareConfig{
		HistoryBits:       12,
		TableBits:         12,
		BTBEntries:        1024,
		BTBWays:           4,
		MispredictPenalty: 10,
	}
}

// Gshare is a global-history XOR-indexed 2-bit-counter predictor with a
// set-associative BTB for target presence.
type Gshare struct {
	cfg     GshareConfig
	history uint64
	pht     []uint8 // 2-bit saturating counters
	btbTags []uint64
	btbLRU  []uint64
	btbSets int
	clock   uint64
	stats   BranchStats
}

// BranchStats counts predictor events.
type BranchStats struct {
	Branches    uint64
	Mispredicts uint64
	BTBMisses   uint64
}

// NewGshare builds the predictor; counters initialise weakly not-taken.
func NewGshare(cfg GshareConfig) *Gshare {
	if cfg.TableBits <= 0 || cfg.BTBEntries <= 0 || cfg.BTBWays <= 0 {
		panic("cpu: invalid gshare config")
	}
	sets := cfg.BTBEntries / cfg.BTBWays
	return &Gshare{
		cfg:     cfg,
		pht:     make([]uint8, 1<<uint(cfg.TableBits)),
		btbTags: make([]uint64, sets*cfg.BTBWays),
		btbLRU:  make([]uint64, sets*cfg.BTBWays),
		btbSets: sets,
	}
}

// Stats returns predictor counters.
func (g *Gshare) Stats() BranchStats { return g.stats }

// index computes the gshare PHT index for pc.
func (g *Gshare) index(pc uint64) int {
	mask := uint64(len(g.pht) - 1)
	return int(((pc >> 2) ^ g.history) & mask)
}

// Predict records one branch with its actual outcome and returns
// whether the prediction was correct. BTB misses on taken branches also
// count as mispredictions (no target available).
func (g *Gshare) Predict(pc uint64, taken bool) bool {
	g.stats.Branches++
	idx := g.index(pc)
	predTaken := g.pht[idx] >= 2

	// Update the 2-bit counter.
	if taken && g.pht[idx] < 3 {
		g.pht[idx]++
	} else if !taken && g.pht[idx] > 0 {
		g.pht[idx]--
	}
	// Update global history.
	g.history = g.history<<1 | b2u(taken)
	if g.cfg.HistoryBits < 64 {
		g.history &= (1 << uint(g.cfg.HistoryBits)) - 1
	}

	correct := predTaken == taken
	if taken {
		if !g.btbLookupInsert(pc) {
			g.stats.BTBMisses++
			correct = false
		}
	}
	if !correct {
		g.stats.Mispredicts++
	}
	return correct
}

// Penalty returns the misprediction bubble in cycles.
func (g *Gshare) Penalty() int { return g.cfg.MispredictPenalty }

// MispredictRate returns mispredictions per branch.
func (g *Gshare) MispredictRate() float64 {
	if g.stats.Branches == 0 {
		return 0
	}
	return float64(g.stats.Mispredicts) / float64(g.stats.Branches)
}

// btbLookupInsert probes the BTB for pc, inserting on miss, and reports
// whether it hit.
func (g *Gshare) btbLookupInsert(pc uint64) bool {
	set := int((pc >> 2) % uint64(g.btbSets))
	base := set * g.cfg.BTBWays
	g.clock++
	victim, victimLRU := base, ^uint64(0)
	for i := 0; i < g.cfg.BTBWays; i++ {
		if g.btbTags[base+i] == pc {
			g.btbLRU[base+i] = g.clock
			return true
		}
		if g.btbLRU[base+i] < victimLRU {
			victim, victimLRU = base+i, g.btbLRU[base+i]
		}
	}
	g.btbTags[victim] = pc
	g.btbLRU[victim] = g.clock
	return false
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
