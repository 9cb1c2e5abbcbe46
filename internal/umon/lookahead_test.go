package umon

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// flatCurve builds a curve with constant misses (no benefit from ways).
func flatCurve(ways int, misses uint64) Curve {
	c := make(Curve, ways+1)
	for i := range c {
		c[i] = misses
	}
	return c
}

// linearCurve builds a curve where each way removes step misses until
// saturation at floor.
func linearCurve(ways int, start, step, floor uint64) Curve {
	c := make(Curve, ways+1)
	cur := start
	for i := range c {
		c[i] = cur
		if cur > floor+step {
			cur -= step
		} else {
			cur = floor
		}
	}
	return c
}

// kneeCurve gives big gains up to knee ways, nothing after.
func kneeCurve(ways, knee int, start uint64) Curve {
	c := make(Curve, ways+1)
	for i := range c {
		if i >= knee {
			c[i] = 0
		} else {
			c[i] = start - start*uint64(i)/uint64(knee)
		}
	}
	return c
}

func TestLookaheadAllocatesAllWays(t *testing.T) {
	curves := []Curve{linearCurve(8, 1000, 100, 0), linearCurve(8, 500, 10, 0)}
	alloc := Lookahead(curves, 8, 1)
	if Sum(alloc) != 8 {
		t.Fatalf("UCP allocated %d ways, want 8 (alloc=%v)", Sum(alloc), alloc)
	}
	for i, a := range alloc {
		if a < 1 {
			t.Fatalf("core %d got %d ways, want >= minAlloc 1", i, a)
		}
	}
}

func TestLookaheadFavorsHighUtility(t *testing.T) {
	// Core 0 gains 1000 misses/way; core 1 gains 10/way.
	curves := []Curve{
		linearCurve(8, 8000, 1000, 0),
		linearCurve(8, 80, 10, 0),
	}
	alloc := Lookahead(curves, 8, 1)
	if alloc[0] <= alloc[1] {
		t.Fatalf("high-utility core got %d ways vs %d", alloc[0], alloc[1])
	}
}

func TestLookaheadKneeDetection(t *testing.T) {
	// Core 0 saturates at 3 ways; core 1 keeps benefiting.
	curves := []Curve{
		kneeCurve(8, 3, 9000),
		linearCurve(8, 8000, 900, 0),
	}
	alloc := Lookahead(curves, 8, 1)
	if alloc[0] > 4 {
		t.Fatalf("saturated core got %d ways, want <= 4 (alloc=%v)", alloc[0], alloc)
	}
	if Sum(alloc) != 8 {
		t.Fatalf("total = %d, want 8", Sum(alloc))
	}
}

func TestLookaheadNoUtility(t *testing.T) {
	// Nobody benefits: UCP still assigns every way (round-robin).
	curves := []Curve{flatCurve(8, 100), flatCurve(8, 100)}
	alloc := Lookahead(curves, 8, 1)
	if Sum(alloc) != 8 {
		t.Fatalf("UCP with flat curves allocated %d ways, want 8", Sum(alloc))
	}
}

func TestThresholdZeroMatchesUCP(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		curves := make([]Curve, 2)
		for i := range curves {
			c := make(Curve, 9)
			v := uint64(rng.Intn(10000) + 100)
			for w := range c {
				c[w] = v
				v -= uint64(rng.Intn(int(v/8) + 1))
			}
			curves[i] = c
		}
		ucp := Lookahead(curves, 8, 1)
		thr := ThresholdLookahead(curves, 8, 1, 0)
		if !reflect.DeepEqual(ucp, thr) {
			t.Fatalf("trial %d: T=0 alloc %v != UCP alloc %v", trial, thr, ucp)
		}
	}
}

func TestThresholdLeavesWaysOff(t *testing.T) {
	// Both cores saturate quickly: with a threshold, ways stay off.
	curves := []Curve{kneeCurve(8, 2, 10000), kneeCurve(8, 2, 10000)}
	alloc := ThresholdLookahead(curves, 8, 1, 0.05)
	if Sum(alloc) >= 8 {
		t.Fatalf("threshold run allocated all ways: %v", alloc)
	}
	if Sum(alloc) < 2 {
		t.Fatalf("minAlloc violated: %v", alloc)
	}
}

func TestThresholdOneAllocatesOnlyMinimum(t *testing.T) {
	curves := []Curve{linearCurve(8, 1000, 50, 0), linearCurve(8, 900, 40, 0)}
	alloc := ThresholdLookahead(curves, 8, 1, 1.0)
	// T=1 requires a 100% miss reduction per award, which a linear curve
	// never provides: only the guaranteed minimum is handed out.
	if Sum(alloc) != 2 {
		t.Fatalf("T=1 allocated %v, want only minAlloc", alloc)
	}
}

func TestThresholdMonotoneInT(t *testing.T) {
	curves := []Curve{linearCurve(8, 10000, 600, 100), kneeCurve(8, 4, 8000)}
	prev := 9
	for _, T := range []float64{0, 0.01, 0.05, 0.10, 0.20, 0.5} {
		alloc := ThresholdLookahead(curves, 8, 1, T)
		if Sum(alloc) > prev {
			t.Fatalf("allocation grew as T rose: T=%v alloc=%v prev=%d", T, alloc, prev)
		}
		prev = Sum(alloc)
	}
}

func TestLookaheadOversubscribedMinAllocStillSumsToTotal(t *testing.T) {
	// minAlloc over-subscribes the cache but the cores still fit in the
	// ways: the equal split keeps the sum-to-total guarantee — 4 cores
	// on 8 ways with minAlloc 3 get [2 2 2 2].
	curves := make([]Curve, 4)
	for i := range curves {
		curves[i] = linearCurve(8, 100, 10, 0)
	}
	alloc := Lookahead(curves, 8, 3)
	if Sum(alloc) != 8 {
		t.Fatalf("allocated %d ways, want 8: %v", Sum(alloc), alloc)
	}
	for i, a := range alloc {
		if a != 2 {
			t.Fatalf("core %d got %d ways, want 2: %v", i, a, alloc)
		}
	}
}

func TestLookaheadEmptyInputs(t *testing.T) {
	if got := Lookahead(nil, 8, 1); len(got) != 0 {
		t.Fatalf("Lookahead(nil) = %v", got)
	}
}

// Property: allocations never exceed the total, never go negative, and
// with threshold 0 exactly exhaust the cache.
func TestPropertyLookaheadBounds(t *testing.T) {
	f := func(seed int64, tByte uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(3)
		ways := 8
		curves := make([]Curve, n)
		for i := range curves {
			c := make(Curve, ways+1)
			v := uint64(rng.Intn(100000))
			for w := range c {
				c[w] = v
				if v > 0 {
					v -= uint64(rng.Intn(int(v)/4 + 1))
				}
			}
			curves[i] = c
		}
		T := float64(tByte%25) / 100
		alloc := ThresholdLookahead(curves, ways, 1, T)
		sum := 0
		for _, a := range alloc {
			if a < 0 {
				return false
			}
			sum += a
		}
		if sum > ways {
			return false
		}
		if T == 0 && sum != ways {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: the utility monitor's curve plugged into the lookahead gives
// each core at least minAlloc and never allocates beyond the cache.
func TestPropertyMonitorToLookahead(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		mons := []*Monitor{
			New(Config{Sets: 16, Ways: 8, Sampling: 1}),
			New(Config{Sets: 16, Ways: 8, Sampling: 1}),
		}
		for i := 0; i < 3000; i++ {
			m := mons[rng.Intn(2)]
			m.Access(rng.Intn(16), uint64(rng.Intn(40)))
		}
		curves := []Curve{mons[0].MissCurve(), mons[1].MissCurve()}
		alloc := Lookahead(curves, 8, 1)
		return Sum(alloc) == 8 && alloc[0] >= 1 && alloc[1] >= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
