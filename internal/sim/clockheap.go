package sim

import "math"

// clockHeap is an indexed binary min-heap over the local clocks of a
// fixed set of cores, ordered by (clock, core index). The secondary
// index order makes Min agree exactly with a linear scan using strict
// less-than — the tie-break the serial simulator always had — so
// replacing the O(n) scan with the heap cannot change simulation
// results.
//
// Clocks are cached as plain int64 keys: the stepping loop reads each
// core's clock once per step (on FixMin) instead of n times per
// linear scan, and heap comparisons are integer compares. The loop
// only ever advances the clock of the minimum core, so Min followed by
// FixMin (a single sift-down of the root) is the whole interface.
type clockHeap struct {
	now []int64 // cached clock per item index
	idx []int   // heap of item indices
}

// newClockHeap heapifies the given initial clocks; clocks is retained.
func newClockHeap(clocks []int64) *clockHeap {
	h := &clockHeap{now: clocks, idx: make([]int, len(clocks))}
	for i := range h.idx {
		h.idx[i] = i
	}
	for i := len(h.idx)/2 - 1; i >= 0; i-- {
		h.siftDown(i)
	}
	return h
}

// less orders heap slots a, b by (clock, item index).
func (h *clockHeap) less(a, b int) bool {
	ia, ib := h.idx[a], h.idx[b]
	na, nb := h.now[ia], h.now[ib]
	if na != nb {
		return na < nb
	}
	return ia < ib
}

func (h *clockHeap) siftDown(i int) {
	n := len(h.idx)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		m := l
		if r := l + 1; r < n && h.less(r, l) {
			m = r
		}
		if !h.less(m, i) {
			return
		}
		h.idx[i], h.idx[m] = h.idx[m], h.idx[i]
		i = m
	}
}

// Min returns the item index with the smallest (clock, index).
func (h *clockHeap) Min() int { return h.idx[0] }

// FixMin records the minimum item's advanced clock and restores heap
// order.
func (h *clockHeap) FixMin(now int64) {
	h.now[h.idx[0]] = now
	h.siftDown(0)
}

// secondBound returns the largest clock value the minimum item minIdx
// can reach while still being selected by Min: the runner-up's clock,
// minus one when the runner-up has the smaller index and so wins the
// tie. The runner-up is the smaller of the root's children (each heap
// subtree's minimum is at its root). math.MaxInt64 when there is no
// other item.
func (h *clockHeap) secondBound(minIdx int) int64 {
	best := int64(math.MaxInt64)
	bestIdx := int(^uint(0) >> 1)
	for s := 1; s <= 2 && s < len(h.idx); s++ {
		i := h.idx[s]
		if n := h.now[i]; n < best || (n == best && i < bestIdx) {
			best, bestIdx = n, i
		}
	}
	if bestIdx < minIdx {
		best--
	}
	return best
}
