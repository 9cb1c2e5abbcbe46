package cpu

import (
	"math"
	"reflect"
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

// The probes predict the next call's outcome.
func (m *stallMem) AccessHits(core int, addr uint64) bool { return (m.calls+1)%3 == 0 }
func (m *stallMem) FetchHits(core int, pc uint64) bool    { return (m.fetches+1)%4 != 0 }

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
		got := ev.StepEvent(bound, bound, maxRetire)
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
			mixed.StepEvent(math.MaxInt64, math.MaxInt64, n)
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

// footprint is a code region of Lines lines of LineBytes bytes.
type footprint struct{ Lines, LineBytes int }

// footprints are the code regions TestStepEventWholeEventsMatchStep
// runs on. One 64-byte line is one I-line: every run of its 16
// instructions wraps inside the fetched line, which never changes after
// the first fetch. Three 16-byte lines end in the middle of an I-line.
var footprints = []footprint{{1, 64}, {2, 64}, {40, 64}, {3, 16}}

// wholeEventConfig is eventTestConfig with longer ALU runs and the
// code footprint fp.
func wholeEventConfig(mlp float64, fp footprint, seed uint64) trace.Config {
	cfg := eventTestConfig(mlp, seed)
	cfg.MemFrac, cfg.BranchFrac = 0.15, 0.05
	cfg.CodeLines, cfg.LineBytes = fp.Lines, fp.LineBytes
	return cfg
}

// sameCore reports whether a and b agree on what a retirement path
// writes (clock bits, counters, fetch line, the pending event) and,
// when full is set, on the whole State(), predictor and generator
// included. Divergence persists, so the costly full comparison can run
// on a subset of the calls.
func sameCore(a, b *Core, full bool) bool {
	if math.Float64bits(a.clock) != math.Float64bits(b.clock) || a.retired != b.retired ||
		a.fetchLine != b.fetchLine || a.ev != b.ev || a.stats != b.stats {
		return false
	}
	return !full || reflect.DeepEqual(a.State(), b.State())
}

// TestStepEventWholeEventsMatchStep drives StepEvent, which retires a
// freshly pulled event's in-line run with one clock add and then its
// record, against per-instruction Step under the same (bound, cap)
// windows. Stalls are non-dyadic (MLP 1.5 and 3 leave the clock off the
// retireCost grid), on every footprint in footprints. The cores must
// match after every window (sameCore), in full State() every 16th, so
// the event StepEvent leaves pending (ALUPC advanced past the run) is
// the one Step leaves.
func TestStepEventWholeEventsMatchStep(t *testing.T) {
	for _, fp := range footprints {
		for _, width := range []int{1, 2, 4, 8} {
			for _, mlp := range []float64{1.5, 3} {
				cfg := DefaultConfig()
				cfg.Width = width
				mk := func() *Core {
					return NewCore(0, cfg, trace.NewGenerator(wholeEventConfig(mlp, fp, 5)), &stallMem{})
				}
				ref, ev := mk(), mk()
				sched := rngSched{state: uint64(100*width + fp.Lines)}
				var bound int64
				for w := 0; w < 800; w++ {
					bound += int64(sched.intn(30))
					maxRetire := uint64(1 + sched.intn(60))
					var n uint64
					for n < maxRetire && ref.Now() <= bound {
						ref.Step()
						n++
					}
					if got := ev.StepEvent(bound, bound, maxRetire); got != n {
						t.Fatalf("%+v width %d mlp %v window %d: StepEvent retired %d, Step %d",
							fp, width, mlp, w, got, n)
					}
					if !sameCore(ev, ref, w%16 == 0) {
						t.Fatalf("%+v width %d mlp %v window %d: state diverged:\n%+v\n%+v",
							fp, width, mlp, w, ev.ev, ref.ev)
					}
				}
			}
		}
	}
}

// hashMem is a stateless MemPort: whether an access or a fetch hits
// the L1 is a hash of its line, and so is a miss's latency, so its
// probes answer exactly. It counts the misses it serves.
type hashMem struct{ misses int }

func lineHash(addr, salt uint64) uint64 {
	x := (addr>>6 ^ salt) * 0x9e3779b97f4a7c15
	return x ^ x>>29
}

func (m *hashMem) Access(core int, addr uint64, isWrite bool, now int64) AccessReply {
	if m.AccessHits(core, addr) {
		return AccessReply{Latency: 2, L1Hit: true}
	}
	m.misses++
	return AccessReply{Latency: int64(15 + lineHash(addr, 1)%23), L1Hit: false}
}

func (m *hashMem) Fetch(core int, pc uint64, now int64) AccessReply {
	if m.FetchHits(core, pc) {
		return AccessReply{Latency: 1, L1Hit: true}
	}
	m.misses++
	return AccessReply{Latency: int64(9 + lineHash(pc, 2)%11), L1Hit: false}
}

func (m *hashMem) AccessHits(core int, addr uint64) bool { return lineHash(addr, 1)%4 != 0 }
func (m *hashMem) FetchHits(core int, pc uint64) bool    { return lineHash(pc, 2)%8 != 0 }

// stepPrivate is the per-record reference for StepEvent's run-ahead,
// stated without StepEvent's logic: Step at most maxRetire
// instructions, none that starts above priv, and none that starts
// above bound and serves a miss. Such an instruction is stepped, seen
// to miss, and undone (core state and miss count restored), and
// stepping stops there. It returns how many retired and how many of
// those started above bound.
func stepPrivate(ref *Core, m *hashMem, bound, priv int64, maxRetire uint64) (n, ahead uint64) {
	for n < maxRetire && ref.Now() <= priv {
		start := ref.Now()
		if start <= bound {
			ref.Step()
			n++
			continue
		}
		st, misses := ref.State(), m.misses
		ref.Step()
		if m.misses != misses {
			if err := ref.Restore(st); err != nil {
				panic(err)
			}
			m.misses = misses
			return n, ahead
		}
		n++
		ahead++
	}
	return n, ahead
}

// TestStepEventRunAheadMatchesStep drives StepEvent(bound, priv, cap)
// against stepPrivate under random windows, priv from bound (no
// run-ahead) to unbounded, at every width up to 8, on every footprint
// in footprints. After each window the two cores must have retired the
// same instructions to the same clock bits, and the event core's
// memory must have served no miss the reference did not, so StepEvent
// never issued a missing access or fetch for an instruction past bound
// and stopped at the first one; the pending events must match too, and
// every 16th window the whole State(). StepEvent may have pulled the
// event whose first instruction stopped it, so the reference pulls it
// too when it holds none.
func TestStepEventRunAheadMatchesStep(t *testing.T) {
	var ahead, stops uint64
	for _, fp := range footprints {
		for _, width := range []int{1, 2, 4, 8} {
			for _, mlp := range []float64{1.5, 3} {
				cfg := DefaultConfig()
				cfg.Width = width
				refMem, evMem := &hashMem{}, &hashMem{}
				ref := NewCore(0, cfg, trace.NewGenerator(wholeEventConfig(mlp, fp, 11)), refMem)
				ev := NewCore(0, cfg, trace.NewGenerator(wholeEventConfig(mlp, fp, 11)), evMem)
				sched := rngSched{state: uint64(7*width + fp.Lines)}
				var bound int64
				for w := 0; w < 800; w++ {
					bound += int64(sched.intn(30))
					priv := bound + int64(sched.intn(200))
					switch sched.intn(4) {
					case 0:
						priv = bound
					case 1:
						priv = math.MaxInt64
					}
					maxRetire := uint64(1 + sched.intn(80))
					n, a := stepPrivate(ref, refMem, bound, priv, maxRetire)
					ahead += a
					if n < maxRetire && ref.Now() > bound && ref.Now() <= priv {
						stops++
					}
					if got := ev.StepEvent(bound, priv, maxRetire); got != n {
						t.Fatalf("%+v width %d mlp %v window %d (bound %d, priv %d, cap %d): StepEvent retired %d, reference %d",
							fp, width, mlp, w, bound, priv, maxRetire, got, n)
					}
					if evMem.misses != refMem.misses {
						t.Fatalf("%+v width %d mlp %v window %d: StepEvent served %d misses, reference %d",
							fp, width, mlp, w, evMem.misses, refMem.misses)
					}
					if ref.ev.ALURun == 0 && !ref.ev.HasRec && (ev.ev.ALURun != 0 || ev.ev.HasRec) {
						ref.gen.NextEvent(&ref.ev)
					}
					if !sameCore(ev, ref, w%16 == 0) {
						t.Fatalf("%+v width %d mlp %v window %d: state diverged:\n%+v\n%+v",
							fp, width, mlp, w, ev.ev, ref.ev)
					}
				}
			}
		}
	}
	if ahead == 0 || stops == 0 {
		t.Fatalf("windows never exercised run-ahead: %d instructions past bound, %d stops at a miss", ahead, stops)
	}
	t.Logf("%d instructions retired past bound, %d stops at a miss", ahead, stops)
}

// TestAdvanceClockMatchesPerSlot pins advanceClock's one-add path
// against the per-slot float additions it replaces, at every width up
// to 8: on- and off-grid clocks, clocks just below a power of two
// (where a batch crosses into the next binade and must fall back),
// clocks past 2⁵²·retireCost, bounds that stop a batch before, at,
// and in the middle of its slots, and the zero-slot batch of an empty
// run.
func TestAdvanceClockMatchesPerSlot(t *testing.T) {
	sched := rngSched{state: 3}
	for _, width := range []int{1, 2, 4, 8} {
		cfg := DefaultConfig()
		cfg.Width = width
		c := NewCore(0, cfg, trace.NewGenerator(eventTestConfig(1.5, 1)), &stallMem{})
		rc := c.retireCost
		clocks := []float64{0, rc, 3 * rc, 1.0 / 3, 7.3, 1000.123456, 0x1p52 * rc, 0x1p53 * rc / 3}
		for _, e := range []int{1, 4, 10, 20, 30} {
			p := math.Ldexp(1, e)
			clocks = append(clocks, math.Nextafter(p, 0), p-rc/3, p-2.5*rc, p-rc)
		}
		for i := 0; i < 200; i++ {
			clocks = append(clocks, float64(sched.intn(1<<30))/7)
		}
		for _, clock := range clocks {
			for _, k := range []uint64{0, 1, 2, 3, 7, 15, 63} {
				now := int64(clock)
				for _, bound := range []int64{now - 1, now, now + 1, int64(clock + float64(k)*rc/2), 1 << 52} {
					want, wantN := clock, uint64(0)
					for wantN < k && int64(want) <= bound {
						want += rc
						wantN++
					}
					c.clock = clock
					if n := c.advanceClock(k, bound); n != wantN || math.Float64bits(c.clock) != math.Float64bits(want) {
						t.Fatalf("width %d clock %v k %d bound %d: advanced %d slots to %v, per-slot adds give %d to %v",
							width, clock, k, bound, n, c.clock, wantN, want)
					}
				}
			}
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
		c.StepEvent(bound, bound, 100)
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
		done += c.StepEvent(math.MaxInt64, math.MaxInt64, uint64(b.N)-done)
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
