package umon

import (
	"math/rand"
	"testing"
)

// TestNewRejectsNonPowerOfTwoSampling is the regression test for the
// non-power-of-two aliasing bug: the old modulo fallback accepted
// Sampling=3 with 8 sets and mapped the sampled sets {0,3,6} onto rows
// {0,1,2%2=0} of a truncated 8/3=2-row ATD, silently aliasing sets 0
// and 6. Construction must now reject the configuration loudly.
func TestNewRejectsNonPowerOfTwoSampling(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New with Sampling=3 did not panic")
		}
	}()
	New(Config{Sets: 8, Ways: 2, Sampling: 3})
}

// TestClampedSamplingScalesByTrueRatio is the regression test for the
// clamped scale-factor bug: with Sets=4 and Sampling=8 the ATD clamps
// to one row (only set 0 sampled), so the true traffic scale is
// Sets/Rows = 4 — the old code scaled by the nominal 8,
// overestimating every count by 2x.
func TestClampedSamplingScalesByTrueRatio(t *testing.T) {
	m := New(Config{Sets: 4, Ways: 2, Sampling: 8})
	if rows := len(m.valid); rows != 1 {
		t.Fatalf("ATD rows = %d, want 1", rows)
	}
	m.Access(1, 7) // not sampled
	m.Access(0, 7) // sampled miss
	m.Access(0, 7) // sampled hit at MRU
	if got := m.Accesses(); got != 8 {
		t.Fatalf("Accesses = %d, want 2 raw x true ratio 4 = 8", got)
	}
	if got := m.HitsUpTo(1); got != 4 {
		t.Fatalf("HitsUpTo(1) = %d, want 1 raw hit x true ratio 4 = 4", got)
	}
	if got := m.Misses(2); got != 4 {
		t.Fatalf("Misses(2) = %d, want 1 raw miss x true ratio 4 = 4", got)
	}
}

func TestSetSamplerGeometry(t *testing.T) {
	s := NewSetSampler(128, 8)
	if s.Stride() != 8 || s.Rows() != 16 {
		t.Fatalf("stride/rows = %d/%d, want 8/16", s.Stride(), s.Rows())
	}
	row := 0
	for set := 0; set < 128; set++ {
		if s.Sampled(set) != (set%8 == 0) {
			t.Fatalf("Sampled(%d) = %v, want %v", set, s.Sampled(set), set%8 == 0)
		}
		if s.Sampled(set) {
			if got := s.Row(set); got != row {
				t.Fatalf("Row(%d) = %d, want dense %d", set, got, row)
			}
			row++
		}
	}
	if row != s.Rows() {
		t.Fatalf("visited %d sampled sets, want Rows()=%d", row, s.Rows())
	}

	one := NewSetSampler(32, 1)
	if one.Stride() != 1 || one.Rows() != 32 || !one.Sampled(17) || one.Row(17) != 17 {
		t.Fatal("stride-1 sampler must be the identity over all sets")
	}

	clamped := NewSetSampler(4, 16)
	if clamped.Stride() != 4 || clamped.Rows() != 1 || !clamped.Sampled(0) || clamped.Sampled(2) {
		t.Fatalf("clamped sampler: stride/rows = %d/%d, want 4/1 with only set 0 sampled",
			clamped.Stride(), clamped.Rows())
	}
}

func TestSetSamplerRejectsNonDividingStride(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewSetSampler(12, 8) did not panic")
		}
	}()
	NewSetSampler(12, 8)
}

// oldRefMonitor is the pre-extraction monitor algorithm (power-of-two
// mask filter, row = (set/Sampling) % sampled, plain-slice LRU stack),
// kept as the oracle for the differential test below: routing the
// monitor through the shared SetSampler must not change behavior on
// any configuration the old code handled correctly.
type oldRefMonitor struct {
	sets, ways, sampling int
	sampled              int
	tags                 [][]uint64
	valid                [][]bool
	hits                 []uint64
	accesses             uint64
}

func newOldRef(sets, ways, sampling int) *oldRefMonitor {
	sampled := sets / sampling
	if sampled == 0 {
		sampled = 1
	}
	r := &oldRefMonitor{sets: sets, ways: ways, sampling: sampling, sampled: sampled,
		hits: make([]uint64, ways)}
	for i := 0; i < sampled; i++ {
		r.tags = append(r.tags, make([]uint64, ways))
		r.valid = append(r.valid, make([]bool, ways))
	}
	return r
}

func (r *oldRefMonitor) access(set int, tag uint64) {
	if set&(r.sampling-1) != 0 {
		return
	}
	row := (set / r.sampling) % r.sampled
	r.accesses++
	pos := -1
	for i := 0; i < r.ways; i++ {
		if r.valid[row][i] && r.tags[row][i] == tag {
			pos = i
			break
		}
	}
	if pos >= 0 {
		r.hits[pos]++
	} else {
		pos = r.ways - 1
	}
	copy(r.tags[row][1:pos+1], r.tags[row][:pos])
	copy(r.valid[row][1:pos+1], r.valid[row][:pos])
	r.tags[row][0] = tag
	r.valid[row][0] = true
}

// TestMonitorBitIdenticalAfterExtraction drives the production monitor
// and the pre-extraction reference over identical random access streams
// at several power-of-two geometries and requires identical counters —
// the differential guarantee that extracting SetSampler changed no
// observable behavior.
func TestMonitorBitIdenticalAfterExtraction(t *testing.T) {
	configs := []Config{
		{Sets: 64, Ways: 8, Sampling: 1},
		{Sets: 64, Ways: 8, Sampling: 4},
		{Sets: 128, Ways: 16, Sampling: 32},
		{Sets: 4, Ways: 2, Sampling: 4},
	}
	for _, cfg := range configs {
		m := New(cfg)
		ref := newOldRef(cfg.Sets, cfg.Ways, cfg.Sampling)
		rng := rand.New(rand.NewSource(42))
		for i := 0; i < 50000; i++ {
			set := rng.Intn(cfg.Sets)
			tag := uint64(rng.Intn(cfg.Ways * 5))
			m.Access(set, tag)
			ref.access(set, tag)
		}
		if m.accesses != ref.accesses {
			t.Fatalf("%+v: raw accesses %d, reference %d", cfg, m.accesses, ref.accesses)
		}
		for d := 0; d < cfg.Ways; d++ {
			if m.hits[d] != ref.hits[d] {
				t.Fatalf("%+v: hits[%d] = %d, reference %d", cfg, d, m.hits[d], ref.hits[d])
			}
		}
	}
}
