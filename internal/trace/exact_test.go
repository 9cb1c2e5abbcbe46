package trace

import (
	"math"
	"testing"
)

// TestCutMatchesFloatCompare pins the integer cuts NextEvent compares
// raw draws with: for every probability c, the 53-bit draw m passes
// m < cut(c) exactly when the reference's float draw m·2⁻⁵³ passes
// x < c. The boundary draws m = cut−1 and m = cut are checked for
// zero, one, values just above one (a cumulative weight rounded past
// 1), tiny values and random ones.
func TestCutMatchesFloatCompare(t *testing.T) {
	cs := []float64{
		0, 1, math.Nextafter(1, 2), 1 + 4*0x1p-52, 2,
		math.SmallestNonzeroFloat64, 1e-300, 0x1p-54, 0x1p-53, 3 * 0x1p-54,
		math.Nextafter(0x1p-53, 1), math.Nextafter(1, 0), 0.5, 0.05, 1.0 / 3,
	}
	// The cumulative weights NewGenerator cuts: these round to just
	// past 1 at the last set.
	cum := wsCum([]WS{{Weight: 2}, {Weight: 7}, {Weight: 0.7}})
	if cum[2] <= 1 {
		t.Fatalf("cumulative weights %v do not round past 1", cum)
	}
	cs = append(cs, cum...)
	r := rng{state: 11}
	for i := 0; i < 2000; i++ {
		cs = append(cs, r.float(), float64(r.next()>>11)/(1<<53)+0x1p-60)
	}
	for _, c := range cs {
		k := cut(c)
		for _, m := range []uint64{k - 1, k} {
			if m >= 1<<53 { // not a draw (k-1 wraps at k = 0)
				continue
			}
			x := float64(m) / (1 << 53)
			if (x < c) != (m < k) {
				t.Fatalf("c = %v (%#x): draw m = %d gives x < c = %v but m < cut = %v (cut %d)",
					c, math.Float64bits(c), m, x < c, m < k, k)
			}
		}
	}
}

// TestModulusMatchesRemainder pins the precomputed reciprocals that
// replace NextEvent's modulos against Go's %, for n = 1, every power of
// two and its neighbours, and large odd divisors, at the edge values
// 0, n−1, n and 2⁶⁴−1 and at random values.
func TestModulusMatchesRemainder(t *testing.T) {
	ns := []uint64{1, 3, 5, 7, 1000003, 0xffffffffffffffc5, 1<<63 + 1, ^uint64(0), ^uint64(0) - 1}
	for k := 1; k < 64; k++ {
		ns = append(ns, 1<<k, 1<<k-1, 1<<k+1)
	}
	r := rng{state: 5}
	for i := 0; i < 200; i++ {
		ns = append(ns, r.next()>>(r.next()%64)|1)
	}
	for _, n := range ns {
		d := newModulus(n)
		xs := []uint64{0, n - 1, n, n + 1, 2*n - 1, ^uint64(0), ^uint64(0) - 1}
		for i := 0; i < 200; i++ {
			xs = append(xs, r.next())
		}
		for _, x := range xs {
			if got, want := d.mod(x), x%n; got != want {
				t.Fatalf("newModulus(%d).mod(%d) = %d, want %d", n, x, got, want)
			}
		}
	}
}
