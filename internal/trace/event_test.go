package trace

import (
	"fmt"
	"testing"
)

// decompressCheck consumes one event and checks it against the
// reference generator record by record, returning how many records the
// event covered. ALU records carry only Kind and PC; the terminating
// record is compared on the fields its kind defines (Record's Addr and
// Taken are don't-care outside their kinds).
func decompressCheck(t *testing.T, ref *Generator, ev *Event, where string) int {
	t.Helper()
	base, limit := ref.CodeBounds()
	pc := ev.ALUPC
	var want Record
	for i := 0; i < ev.ALURun; i++ {
		ref.Next(&want)
		if want.Kind != KindALU || want.PC != pc {
			t.Fatalf("%s: run record %d = {%v pc=%#x}, want {alu pc=%#x}",
				where, i, want.Kind, want.PC, pc)
		}
		pc += 4
		if pc >= limit {
			pc = base
		}
	}
	n := ev.ALURun
	if !ev.HasRec {
		if ev.ALURun != MaxALURun {
			t.Fatalf("%s: record-less event with run %d != MaxALURun", where, ev.ALURun)
		}
		return n
	}
	ref.Next(&want)
	got := ev.Rec
	same := got.Kind == want.Kind && got.PC == want.PC
	if want.Kind == KindLoad || want.Kind == KindStore {
		same = same && got.Addr == want.Addr
	}
	if want.Kind == KindBranch {
		same = same && got.Taken == want.Taken
	}
	if want.Kind == KindALU || !same {
		t.Fatalf("%s: terminating record %+v != Next %+v", where, got, want)
	}
	return n + 1
}

// TestEventStreamMatchesNext pins the compression contract: the event
// stream decompresses to the exact record sequence of the per-record
// reference Next, with phase oscillation straddling events and the PC
// wrapping inside ALU runs, at the largest and smallest line sizes
// Validate accepts as well as the simulator's 64 bytes (the run's PC
// wrap and the branch targets scale with LineBytes).
func TestEventStreamMatchesNext(t *testing.T) {
	for _, lineBytes := range []int{64, 16, 4} {
		cfg := baseConfig()
		cfg.PhasePeriod = 100
		cfg.PhaseDepth = 0.5
		cfg.BranchFrac = 0.1
		cfg.CodeLines = 24 // PC wraps inside ALU runs
		cfg.LineBytes = lineBytes
		ref := NewGenerator(cfg)
		ev := NewGenerator(cfg)
		var evt Event
		where := fmt.Sprintf("NextEvent, %d-byte lines", lineBytes)
		for consumed := 0; consumed < 20000; {
			ev.NextEvent(&evt)
			consumed += decompressCheck(t, ref, &evt, where)
			if ev.Emitted() != ref.Emitted() {
				t.Fatalf("%s: Emitted %d != %d", where, ev.Emitted(), ref.Emitted())
			}
		}
	}
}

// TestEventStreamInterleavesWithNext checks that NextEvent and the
// reference Next can be mixed freely on one generator: both write back
// the full generator state, so any interleaving continues the one
// stream.
func TestEventStreamInterleavesWithNext(t *testing.T) {
	cfg := baseConfig()
	cfg.PhasePeriod = 64
	cfg.PhaseDepth = 0.25
	ref := NewGenerator(cfg)
	mixed := NewGenerator(cfg)
	pick := rng{state: 7}
	var want, got Record
	var evt Event
	for consumed := 0; consumed < 20000; {
		if pick.intn(2) == 0 {
			mixed.NextEvent(&evt)
			consumed += decompressCheck(t, ref, &evt, "interleaved NextEvent")
			continue
		}
		mixed.Next(&got)
		ref.Next(&want)
		if got != want {
			t.Fatalf("interleaved Next %+v != %+v", got, want)
		}
		consumed++
	}
}

// TestEventRunCap pins MaxALURun: a memory- and branch-free mix is an
// endless ALU run, delivered as capped record-less events whose PC
// walk keeps wrapping the code region.
func TestEventRunCap(t *testing.T) {
	cfg := Config{StreamFrac: 1, LineBytes: 64, CodeLines: 2, Seed: 9}
	g := NewGenerator(cfg)
	base, _ := g.CodeBounds()
	var ev Event
	g.NextEvent(&ev)
	if ev.HasRec || ev.ALURun != MaxALURun {
		t.Fatalf("pure-ALU event = {run %d hasRec %v}, want capped run %d", ev.ALURun, ev.HasRec, MaxALURun)
	}
	if ev.ALUPC != base {
		t.Fatalf("first run starts at %#x, want code base %#x", ev.ALUPC, base)
	}
	g.NextEvent(&ev)
	if ev.HasRec || ev.ALURun != MaxALURun {
		t.Fatalf("second pure-ALU event not capped: %+v", ev)
	}
	// 2 lines of 16 instructions: after 65536 instructions the walk is
	// back at the base.
	if ev.ALUPC != base {
		t.Fatalf("second run starts at %#x, want wrapped %#x", ev.ALUPC, base)
	}
	if g.Emitted() != 2*MaxALURun {
		t.Fatalf("Emitted = %d, want %d", g.Emitted(), 2*MaxALURun)
	}
}

// TestEventAllocationFree extends the hot-path pinning discipline
// (cache.TestHotPathAllocationFree) to the event entry points: every
// core pulls events on the simulator's hot loop.
func TestEventAllocationFree(t *testing.T) {
	g := NewGenerator(baseConfig())
	var ev Event
	if n := testing.AllocsPerRun(1000, func() {
		g.NextEvent(&ev)
	}); n != 0 {
		t.Fatalf("NextEvent allocates %v per event, want 0", n)
	}
}

// benchNextEvent drives the event stream of cfg; ns/op is per
// instruction.
func benchNextEvent(b *testing.B, cfg Config) {
	b.Helper()
	g := NewGenerator(cfg)
	var ev Event
	b.ReportAllocs()
	b.ResetTimer()
	records := 0
	for i := 0; i < b.N; i += records {
		g.NextEvent(&ev)
		records = ev.ALURun
		if ev.HasRec {
			records++
		}
		if records == 0 {
			records = 1
		}
	}
}

func BenchmarkNextEvent(b *testing.B) {
	benchNextEvent(b, baseConfig())
}

// BenchmarkNextEventLongRuns is BenchmarkNextEvent on an ALU-heavy mix
// (90% ALU, mean run ~9), where the per-draw ALU-run walk dominates
// generation.
func BenchmarkNextEventLongRuns(b *testing.B) {
	cfg := baseConfig()
	cfg.MemFrac, cfg.BranchFrac = 0.06, 0.04
	benchNextEvent(b, cfg)
}
