package umon

import (
	"fmt"
	"math/bits"
)

// SetSampler is the address-interleaved set-sampling map of the UMON
// ATDs (dynamic set sampling): sample every stride-th set (those whose
// index is a multiple of the stride), and pack the sampled sets densely
// into rows by dropping the stride bits.
//
// The stride must be a power of two (the sampled-set test is then one
// AND; a non-power-of-two stride has no mask form and the old modulo
// fallback silently aliased distinct sampled sets onto one row when it
// did not divide the set count — rejected loudly here instead). A
// stride larger than the set count degenerates to a single sampled row
// (set 0), and Ratio reports the true Sets/rows scale factor — which is
// the clamped stride, not the nominal one.
type SetSampler struct {
	stride int
	mask   int
	shift  uint
	rows   int
}

// NewSetSampler builds the sampling map for a cache with the given
// number of sets. It panics on an unsatisfiable configuration (the
// geometry is fixed by the cache being shadowed, so failure is a
// programming error): a non-power-of-two stride above 1, or a stride
// that does not divide the set count.
func NewSetSampler(sets, stride int) SetSampler {
	if sets <= 0 {
		panic(fmt.Sprintf("umon: sampler needs a positive set count, got %d", sets))
	}
	if stride <= 1 {
		return SetSampler{stride: 1, rows: sets}
	}
	if stride&(stride-1) != 0 {
		panic(fmt.Sprintf("umon: sampling stride %d is not a power of two", stride))
	}
	if stride > sets {
		// Degenerate clamp: only set 0 is sampled. Requires a
		// power-of-two set count so the mask form stays exact.
		if sets&(sets-1) != 0 {
			panic(fmt.Sprintf("umon: stride %d exceeds non-power-of-two set count %d", stride, sets))
		}
		stride = sets
	}
	if sets%stride != 0 {
		panic(fmt.Sprintf("umon: sampling stride %d does not divide %d sets", stride, sets))
	}
	return SetSampler{
		stride: stride,
		mask:   stride - 1,
		shift:  uint(bits.TrailingZeros(uint(stride))),
		rows:   sets / stride,
	}
}

// Stride returns the effective (clamped) stride — exactly the true
// Sets/Rows ratio, the factor counters measured on the sampled subset
// must be scaled by to estimate all sets of the monitored cache.
func (s SetSampler) Stride() int { return s.stride }

// Rows returns how many sets are sampled.
func (s SetSampler) Rows() int { return s.rows }

// Sampled reports whether the given cache set is in the sampled subset.
func (s SetSampler) Sampled(set int) bool { return set&s.mask == 0 }

// Row maps a sampled cache set to its dense row index in [0, Rows).
// The caller must only pass sets for which Sampled is true.
func (s SetSampler) Row(set int) int { return set >> s.shift }
