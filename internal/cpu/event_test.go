package cpu

import (
	"math"
	"testing"

	"repro/internal/trace"
)

// stallMem is a deterministic MemPort whose replies vary with the
// address/pc and call count: a mix of L1 hits and misses with varying
// latencies, so differential tests exercise stalls that leave the
// clock both on and off the retireCost grid (fractional MLP division).
type stallMem struct {
	calls   int
	fetches int
}

func (m *stallMem) Access(core int, addr uint64, isWrite bool, now int64) AccessReply {
	m.calls++
	if m.calls%3 == 0 {
		return AccessReply{Latency: 2, L1Hit: true}
	}
	return AccessReply{Latency: int64(17 + m.calls%7), L1Hit: false}
}

func (m *stallMem) Fetch(core int, pc uint64, now int64) AccessReply {
	m.fetches++
	if m.fetches%4 != 0 {
		return AccessReply{Latency: 2, L1Hit: true}
	}
	return AccessReply{Latency: int64(11 + m.fetches%5), L1Hit: false}
}

// eventTestConfig is a mix with real ALU runs, branches (taken jumps
// move the fetch line), loads/stores (fractional-MLP stalls knock the
// clock off the retireCost grid) and a code footprint that wraps.
func eventTestConfig(mlp float64, seed uint64) trace.Config {
	return trace.Config{
		MemFrac:     0.25,
		StoreFrac:   0.3,
		BranchFrac:  0.1,
		BranchNoise: 0.2,
		StreamFrac:  0.5,
		HugeFrac:    0.5,
		HugeLines:   5000,
		MLP:         mlp,
		CodeLines:   40,
		LineBytes:   64,
		Seed:        seed,
	}
}

// driveEquivalent steps ref per record and ev through StepEvent over a
// schedule of (bound, maxRetire) windows, comparing full core state
// after every window. The reference applies the identical windowing:
// per-record stepping re-checks bound and cap before every Step, which
// is exactly the contract StepEvent batches under.
func driveEquivalent(t *testing.T, ref, ev *Core, width int) {
	t.Helper()
	sched := rngSched{state: 0xfeed}
	var bound int64
	for w := 0; w < 4000; w++ {
		bound += int64(sched.intn(40))
		maxRetire := uint64(1 + sched.intn(50))
		var n uint64
		for n < maxRetire && ref.Now() <= bound {
			ref.Step()
			n++
		}
		got := ev.StepEvent(bound, maxRetire)
		if got != n {
			t.Fatalf("width %d window %d (bound %d, cap %d): StepEvent retired %d, Step %d",
				width, w, bound, maxRetire, got, n)
		}
		if math.Float64bits(ev.clock) != math.Float64bits(ref.clock) {
			t.Fatalf("width %d window %d: clock %v (%#x) != %v (%#x)",
				width, w, ev.clock, math.Float64bits(ev.clock), ref.clock, math.Float64bits(ref.clock))
		}
		if ev.retired != ref.retired || ev.fetchLine != ref.fetchLine {
			t.Fatalf("width %d window %d: retired/fetchLine diverged: %d/%#x != %d/%#x",
				width, w, ev.retired, ev.fetchLine, ref.retired, ref.fetchLine)
		}
		if ev.stats != ref.stats {
			t.Fatalf("width %d window %d: stats %+v != %+v", width, w, ev.stats, ref.stats)
		}
	}
	if ref.stats.Loads == 0 || ref.stats.Branches == 0 || ref.stats.FetchMisses == 0 {
		t.Fatalf("width %d: test mix did not exercise loads/branches/fetch misses: %+v",
			width, ref.stats)
	}
}

// rngSched is a tiny deterministic schedule source for the windows.
type rngSched struct{ state uint64 }

func (r *rngSched) intn(n int) int {
	r.state = r.state*6364136223846793005 + 1442695040888963407
	return int((r.state >> 33) % uint64(n))
}

// TestStepEventMatchesStep is the core-level differential oracle: for
// every power-of-two width up to 8 and integer and fractional effective
// MLP, StepEvent under arbitrary (bound, cap) windows is bit-identical
// — clock bits included — to per-instruction stepping under the same
// windows.
func TestStepEventMatchesStep(t *testing.T) {
	for _, width := range []int{1, 2, 4, 8} {
		for _, mlp := range []float64{1, 1.5, 2, 3} {
			cfg := DefaultConfig()
			cfg.Width = width
			mk := func() *Core {
				return NewCore(0, cfg, trace.NewGenerator(eventTestConfig(mlp, 77)), &stallMem{})
			}
			driveEquivalent(t, mk(), mk(), width)
		}
	}
}

// TestStepEventMixedWithStep checks the two consumption styles can be
// interleaved on one core without reordering the stream: both consume
// the one pending event and pull the next only when it is drained.
func TestStepEventMixedWithStep(t *testing.T) {
	mk := func() *Core {
		return NewCore(0, DefaultConfig(), trace.NewGenerator(eventTestConfig(1.5, 31)), &stallMem{})
	}
	ref, mixed := mk(), mk()
	sched := rngSched{state: 4}
	for ref.retired < 30000 {
		if sched.intn(2) == 0 {
			n := uint64(1 + sched.intn(20))
			mixed.StepEvent(math.MaxInt64, n)
			for i := uint64(0); i < n; i++ {
				ref.Step()
			}
		} else {
			mixed.Step()
			ref.Step()
		}
		if math.Float64bits(mixed.clock) != math.Float64bits(ref.clock) || mixed.retired != ref.retired {
			t.Fatalf("mixed consumption diverged at %d: clock %v != %v",
				ref.retired, mixed.clock, ref.clock)
		}
	}
}

// TestStepEventAllocationFree extends the hot-path allocation pinning
// to the event consumer.
func TestStepEventAllocationFree(t *testing.T) {
	c := NewCore(0, DefaultConfig(), trace.NewGenerator(eventTestConfig(2, 3)), &stallMem{})
	bound := int64(0)
	if n := testing.AllocsPerRun(1000, func() {
		bound += 25
		c.StepEvent(bound, 100)
	}); n != 0 {
		t.Fatalf("StepEvent allocates %v per call, want 0", n)
	}
}

func BenchmarkStepEvent(b *testing.B) {
	c := NewCore(0, DefaultConfig(), trace.NewGenerator(eventTestConfig(2, 3)), &stallMem{})
	b.ReportAllocs()
	b.ResetTimer()
	var done uint64
	for done < uint64(b.N) {
		done += c.StepEvent(math.MaxInt64, uint64(b.N)-done)
	}
}

func BenchmarkStep(b *testing.B) {
	c := NewCore(0, DefaultConfig(), trace.NewGenerator(eventTestConfig(2, 3)), &stallMem{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Step()
	}
}
