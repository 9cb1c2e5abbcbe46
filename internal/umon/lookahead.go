package umon

// This file implements the partitioning algorithms that consume the
// monitors' utility curves:
//
//   - Lookahead: UCP's look-ahead way allocation (Qureshi & Patt,
//     MICRO 2006), which repeatedly awards the application with the
//     highest marginal utility the minimum number of ways needed to
//     reach that utility, until every way is assigned.
//   - ThresholdLookahead: the paper's Algorithm 1 — the same loop
//     gated by a threshold T. A winner is awarded extra ways only while
//     it significantly benefits from them; once the winner's relative
//     miss reduction falls below T the loop stops and the remaining
//     ways stay unassigned, to be power-gated for static energy.
//
// Note on fidelity: the pseudocode printed in the paper gates the award
// on |prev_max_mu - max_mu| < prev_max_mu * T_hold, which cannot be
// executed literally (with T = 0 the condition is never true, yet
// Section 5.1 states T = 0 allocates "in the same manner as UCP", and
// with prev_max_mu initialised to 0 the first award is impossible).
// We therefore implement the semantics the paper describes in prose:
// "the threshold controls the decrease in miss-ratio for each
// application, preventing each core from being awarded additional ways
// unless it can significantly benefit from them", with the stated
// endpoints T=0 == UCP and T=1 == no ways ever allocated. Concretely, a
// winner's award of j extra ways is accepted only if it reduces the
// winner's miss ratio by at least T (curve[0], the misses at zero ways,
// equals the application's total accesses):
//
//	(miss[alloc] - miss[alloc+j]) / accesses >= T
//
// Both algorithms operate on miss curves rather than on the monitors
// directly, so they can be unit-tested and reused by the CPE profiler.

// Curve is a miss curve: Curve[w] is the number of misses the
// application would suffer with w ways allocated; len(Curve) == ways+1.
type Curve []uint64

// maxMU computes UCP's get_max_mu: the maximum marginal utility the
// application can achieve by growing from alloc ways by at most balance
// extra ways, together with the minimum number of ways required to
// reach that utility (blocks_req in the paper's pseudocode).
func maxMU(curve Curve, alloc, balance int) (mu float64, blocksReq int) {
	for j := 1; j <= balance; j++ {
		if alloc+j >= len(curve) {
			break
		}
		missA := curve[alloc]
		missB := curve[alloc+j]
		var gain float64
		if missA > missB {
			gain = float64(missA-missB) / float64(j)
		}
		if gain > mu {
			mu = gain
			blocksReq = j
		}
	}
	return mu, blocksReq
}

// Lookahead runs UCP's look-ahead algorithm: distribute total ways
// among the applications, each guaranteed minAlloc ways (UCP uses 1 so
// every core can make progress). The returned counts always sum to
// total: UCP never leaves capacity unused.
func Lookahead(curves []Curve, total, minAlloc int) []int {
	return ThresholdLookahead(curves, total, minAlloc, 0)
}

// ThresholdLookahead is Algorithm 1 of the paper (see the fidelity note
// above). threshold is the paper's T parameter in [0, 1]. With
// threshold == 0 it is exactly UCP's look-ahead and all ways are
// allocated. With threshold > 0, allocation stops as soon as the best
// winner's relative miss reduction falls below the threshold, leaving
// the remaining ways unallocated (the caller turns them off).
//
// Each application is guaranteed minAlloc ways, allocated up front, so
// no core is starved of the LLC entirely.
func ThresholdLookahead(curves []Curve, total, minAlloc int, threshold float64) []int {
	n := len(curves)
	alloc := make([]int, n)
	if n == 0 {
		return alloc
	}
	balance := total
	for i := range alloc {
		if minAlloc > 0 {
			alloc[i] = minAlloc
			balance -= minAlloc
		}
	}
	if balance < 0 {
		// minAlloc over-subscribes the cache: fall back to the plain
		// equal split, keeping the sum-to-total guarantee.
		for i := range alloc {
			alloc[i] = 0
		}
		for i := 0; i < total; i++ {
			alloc[i%n]++
		}
		return alloc
	}

	// An application leaves the auction once its best award fails the
	// threshold gate: utility curves are non-increasing, so a failed
	// award never passes later in the same decision. Other applications
	// keep competing for the remaining ways.
	eligible := make([]bool, n)
	for i := range eligible {
		eligible[i] = true
	}
	for balance > 0 {
		winner, winnerMU, winnerReq := -1, 0.0, 0
		for i, curve := range curves {
			if !eligible[i] {
				continue
			}
			mu, req := maxMU(curve, alloc[i], balance)
			if req == 0 || mu <= 0 {
				continue
			}
			if winner == -1 || mu > winnerMU {
				winner, winnerMU, winnerReq = i, mu, req
			}
		}
		if winner == -1 {
			// Nobody (eligible) benefits from additional ways at all.
			if threshold > 0 {
				break // leave the remainder off
			}
			// Pure UCP distributes the remainder round-robin so the
			// whole cache stays in use.
			for i := 0; balance > 0; i = (i + 1) % n {
				alloc[i]++
				balance--
			}
			break
		}
		if threshold > 0 {
			missA := curves[winner][alloc[winner]]
			missB := curves[winner][alloc[winner]+winnerReq]
			accesses := curves[winner][0]
			if accesses == 0 || float64(missA-missB) < threshold*float64(accesses) {
				eligible[winner] = false
				continue
			}
		}
		alloc[winner] += winnerReq
		balance -= winnerReq
	}
	return alloc
}

// Sum returns the total ways assigned by an allocation vector.
func Sum(alloc []int) int {
	s := 0
	for _, a := range alloc {
		s += a
	}
	return s
}
