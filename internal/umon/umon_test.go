package umon

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMonitorStackProperty(t *testing.T) {
	m := New(Config{Sets: 16, Ways: 4, Sampling: 1})
	// Access lines A B C D A: A is at stack distance 4 on its re-access.
	for _, tag := range []uint64{1, 2, 3, 4} {
		m.Access(0, tag)
	}
	m.Access(0, 1)
	// With 4 ways allocated the re-access hits; with fewer it misses.
	if got := m.HitsUpTo(4); got != 1 {
		t.Fatalf("HitsUpTo(4) = %d, want 1", got)
	}
	if got := m.HitsUpTo(3); got != 0 {
		t.Fatalf("HitsUpTo(3) = %d, want 0", got)
	}
}

func TestMonitorMRUHit(t *testing.T) {
	m := New(Config{Sets: 16, Ways: 4, Sampling: 1})
	m.Access(3, 9)
	m.Access(3, 9)
	if got := m.HitsUpTo(1); got != 1 {
		t.Fatalf("HitsUpTo(1) = %d, want 1 (MRU re-access)", got)
	}
}

func TestMonitorMissesCurveMonotone(t *testing.T) {
	m := New(Config{Sets: 8, Ways: 8, Sampling: 1})
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 20000; i++ {
		m.Access(rng.Intn(8), uint64(rng.Intn(64)))
	}
	curve := m.MissCurve()
	if len(curve) != 9 {
		t.Fatalf("curve length = %d, want 9", len(curve))
	}
	for w := 1; w < len(curve); w++ {
		if curve[w] > curve[w-1] {
			t.Fatalf("miss curve not non-increasing at w=%d: %v", w, curve)
		}
	}
	if curve[0] != m.Accesses() {
		t.Fatalf("curve[0] = %d, want all accesses %d", curve[0], m.Accesses())
	}
}

func TestMonitorSampling(t *testing.T) {
	m := New(Config{Sets: 64, Ways: 4, Sampling: 32})
	if rows := len(m.valid); rows != 2 {
		t.Fatalf("ATD rows = %d, want 2", rows)
	}
	m.Access(1, 5) // not sampled: set 1 % 32 != 0
	if m.Accesses() != 0 {
		t.Fatal("non-sampled set was recorded")
	}
	m.Access(32, 5) // sampled
	if m.Accesses() != 32 {
		t.Fatalf("Accesses = %d, want scaled 32", m.Accesses())
	}
}

func TestMonitorDecay(t *testing.T) {
	m := New(Config{Sets: 4, Ways: 2, Sampling: 1})
	for i := 0; i < 10; i++ {
		m.Access(0, 7)
	}
	hitsBefore := m.HitsUpTo(2)
	m.Decay()
	if got := m.HitsUpTo(2); got != hitsBefore/2 {
		t.Fatalf("after decay hits = %d, want %d", got, hitsBefore/2)
	}
}

func TestMonitorReset(t *testing.T) {
	m := New(Config{Sets: 4, Ways: 2, Sampling: 1})
	m.Access(0, 1)
	m.Access(0, 1)
	m.Reset()
	if m.Accesses() != 0 || m.HitsUpTo(2) != 0 || m.Misses(0) != 0 {
		t.Fatal("Reset left counters non-zero")
	}
	// After reset the previously-hot tag must miss again.
	m.Access(0, 1)
	if m.HitsUpTo(2) != 0 {
		t.Fatal("ATD not invalidated by Reset")
	}
}

// TestMonitorHardwareBits: the ATD's tag storage is one entry per way
// of each sampled set, so sampling 1 in 32 sets shrinks it 32-fold.
func TestMonitorHardwareBits(t *testing.T) {
	m := New(Config{Sets: 4096, Ways: 8, Sampling: 32})
	if got := len(m.tags); got != 4096/32*8 {
		t.Fatalf("sampled ATD holds %d tags, want %d", got, 4096/32*8)
	}
	full := New(Config{Sets: 4096, Ways: 8, Sampling: 1})
	if got := len(full.tags); got != 4096*8 {
		t.Fatalf("full ATD holds %d tags, want %d", got, 4096*8)
	}
}

// Property: for any access stream, Misses is non-increasing in ways and
// HitsUpTo is non-decreasing; hits(w) + misses(w) == accesses.
func TestPropertyMonitorCurves(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		m := New(Config{Sets: 8, Ways: 6, Sampling: 1})
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < int(n)*10; i++ {
			m.Access(rng.Intn(8), uint64(rng.Intn(32)))
		}
		for w := 0; w <= 6; w++ {
			if m.HitsUpTo(w)+m.Misses(w) != m.Accesses() {
				return false
			}
			if w > 0 && (m.HitsUpTo(w) < m.HitsUpTo(w-1) || m.Misses(w) > m.Misses(w-1)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNewPanicsOnBadGeometry(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New with zero ways did not panic")
		}
	}()
	New(Config{Sets: 4, Ways: 0})
}
