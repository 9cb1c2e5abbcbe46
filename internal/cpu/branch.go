// Package cpu models the out-of-order cores of Table 2: a 4-wide,
// 7-stage pipeline with a 128-entry ROB, 48-entry LSQ, gshare branch
// prediction with a 1024-entry 4-way BTB, and a minimum 10-cycle
// misprediction penalty. Table 2's values are the package's constants,
// so every run simulates that one core. The model is cycle-batched:
// instructions are consumed from a synthetic trace and charged
// retirement slots, branch bubbles and memory stalls, with miss
// latencies overlapped up to the window's memory-level parallelism. The
// pipeline depth has no parameter of its own: its only timing effect is
// the cost of a misprediction, which gshare's 10-cycle minimum penalty
// models.
package cpu

// Table 2's direction predictor and BTB.
const (
	historyBits       = 12 // global history register length
	tableBits         = 12 // log2 of the PHT size
	btbEntries        = 1024
	btbWays           = 4
	btbSets           = btbEntries / btbWays
	mispredictPenalty = 10 // minimum bubble, cycles
)

// Gshare is a global-history XOR-indexed 2-bit-counter predictor with a
// set-associative BTB for target presence.
type Gshare struct {
	history uint64
	pht     []uint8 // 2-bit saturating counters
	btbTags []uint64
	btbLRU  []uint64
	clock   uint64
}

// NewGshare builds the predictor; counters initialise weakly not-taken.
func NewGshare() *Gshare {
	return &Gshare{
		pht:     make([]uint8, 1<<tableBits),
		btbTags: make([]uint64, btbEntries),
		btbLRU:  make([]uint64, btbEntries),
	}
}

// index computes the gshare PHT index for pc.
func (g *Gshare) index(pc uint64) int {
	return int(((pc >> 2) ^ g.history) & (1<<tableBits - 1))
}

// Predict records one branch with its actual outcome and returns
// whether the prediction was correct. BTB misses on taken branches also
// count as mispredictions (no target available); every taken branch
// probes the BTB, so a miss fills it even after a direction mispredict.
func (g *Gshare) Predict(pc uint64, taken bool) bool {
	idx := g.index(pc)
	predTaken := g.pht[idx] >= 2

	// Update the 2-bit counter.
	if taken && g.pht[idx] < 3 {
		g.pht[idx]++
	} else if !taken && g.pht[idx] > 0 {
		g.pht[idx]--
	}
	// Update global history.
	g.history = (g.history<<1 | b2u(taken)) & (1<<historyBits - 1)

	correct := predTaken == taken
	if taken && !g.btbLookupInsert(pc) {
		correct = false
	}
	return correct
}

// btbLookupInsert probes the BTB for pc, inserting on miss, and reports
// whether it hit.
func (g *Gshare) btbLookupInsert(pc uint64) bool {
	base := int((pc>>2)%btbSets) * btbWays
	g.clock++
	victim, victimLRU := base, ^uint64(0)
	for i := 0; i < btbWays; i++ {
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
