package sim

import (
	"math/rand"
	"testing"
)

// scanMin is the reference linear scan the heap replaced: strict
// less-than, so the lowest index wins ties.
func scanMin(clocks []int64) int {
	min := 0
	for i := 1; i < len(clocks); i++ {
		if clocks[i] < clocks[min] {
			min = i
		}
	}
	return min
}

// TestClockHeapMatchesLinearScan drives the heap exactly as the
// simulator does — read Min, advance that item's clock, FixMin — and
// checks every selection against the linear scan, including the
// tie-heavy start where all clocks are equal.
func TestClockHeapMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, n := range []int{1, 2, 3, 4, 7, 16} {
		clocks := make([]int64, n)
		h := newClockHeap(make([]int64, n)) // heap keeps its own copy
		for step := 0; step < 2000; step++ {
			got, want := h.Min(), scanMin(clocks)
			if got != want {
				t.Fatalf("n=%d step %d: heap min %d, scan min %d", n, step, got, want)
			}
			// Advance by 0..3 cycles: zero advances keep ties alive and
			// exercise the index tie-break.
			clocks[got] += rng.Int63n(4)
			h.FixMin(clocks[got])
		}
	}
}

func TestEncodeThresholdRoundTrip(t *testing.T) {
	cases := []struct {
		in     float64
		scheme SchemeKind
		want   float64
	}{
		{0, CoopPart, 0},       // explicit zero survives the round trip
		{0, DynCPE, 0},         //
		{0.20, CoopPart, 0.20}, // non-zero passes through
		{DefaultThreshold, CoopPart, DefaultThreshold},
	}
	for _, c := range cases {
		if got := effectiveThreshold(EncodeThreshold(c.in), c.scheme); got != c.want {
			t.Errorf("effective(encode(%v), %s) = %v, want %v", c.in, c.scheme, got, c.want)
		}
		if got := DecodeThreshold(EncodeThreshold(c.in)); got != c.in {
			t.Errorf("decode(encode(%v)) = %v", c.in, got)
		}
	}
	// An unset RunConfig.Threshold selects the paper's default for the
	// thresholded schemes only.
	if got := effectiveThreshold(0, CoopPart); got != DefaultThreshold {
		t.Errorf("unset threshold for CoopPart = %v, want %v", got, DefaultThreshold)
	}
	if got := effectiveThreshold(0, Unmanaged); got != 0 {
		t.Errorf("unset threshold for Unmanaged = %v, want 0", got)
	}
}
