package trace

import "testing"

// decompressCheck consumes one event and checks it against the
// reference generator record by record, returning how many records the
// event covered. ALU records carry only Kind and PC (Addr/Taken are
// don't-care, as in TestFillMatchesNext); the terminating record is
// compared on the fields its kind defines.
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
// stream decompresses to the exact record sequence Next produces,
// through NextEvent, FillEvents at several chunk sizes, and with phase
// oscillation straddling events.
func TestEventStreamMatchesNext(t *testing.T) {
	cfg := baseConfig()
	cfg.PhasePeriod = 100
	cfg.PhaseDepth = 0.5
	cfg.BranchFrac = 0.1
	cfg.CodeLines = 24 // PC wraps inside ALU runs
	for _, chunk := range []int{1, 3, 16} {
		ref := NewGenerator(cfg)
		ev := NewGenerator(cfg)
		evs := make([]Event, chunk)
		consumed := 0
		for consumed < 20000 {
			ev.FillEvents(evs)
			for i := range evs {
				consumed += decompressCheck(t, ref, &evs[i], "FillEvents")
			}
			if ev.Emitted() != ref.Emitted() {
				t.Fatalf("chunk %d: Emitted %d != %d", chunk, ev.Emitted(), ref.Emitted())
			}
		}
	}
}

// TestEventStreamInterleavesWithNext checks that NextEvent, Next and
// Fill can be mixed freely on one generator: the event API restores
// full generator state, so any interleaving continues the one stream.
func TestEventStreamInterleavesWithNext(t *testing.T) {
	cfg := baseConfig()
	cfg.PhasePeriod = 64
	cfg.PhaseDepth = 0.25
	ref := NewGenerator(cfg)
	mixed := NewGenerator(cfg)
	pick := rng{state: 7}
	var want, got Record
	var evt Event
	// Compare only the fields the kind defines (Addr and Taken are
	// stale outside their kinds, as in TestFillMatchesNext).
	same := func(got, want Record) bool {
		ok := got.Kind == want.Kind && got.PC == want.PC
		if want.Kind == KindLoad || want.Kind == KindStore {
			ok = ok && got.Addr == want.Addr
		}
		if want.Kind == KindBranch {
			ok = ok && got.Taken == want.Taken
		}
		return ok
	}
	buf := make([]Record, 5)
	for consumed := 0; consumed < 20000; {
		switch pick.intn(3) {
		case 0:
			mixed.NextEvent(&evt)
			consumed += decompressCheck(t, ref, &evt, "interleaved NextEvent")
		case 1:
			mixed.Next(&got)
			ref.Next(&want)
			if !same(got, want) {
				t.Fatalf("interleaved Next %+v != %+v", got, want)
			}
			consumed++
		default:
			mixed.Fill(buf)
			for i := range buf {
				ref.Next(&want)
				if !same(buf[i], want) {
					t.Fatalf("interleaved Fill %+v != %+v", buf[i], want)
				}
			}
			consumed += len(buf)
		}
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
	evs := make([]Event, 8)
	if n := testing.AllocsPerRun(1000, func() {
		g.NextEvent(&ev)
	}); n != 0 {
		t.Fatalf("NextEvent allocates %v per event, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() {
		g.FillEvents(evs)
	}); n != 0 {
		t.Fatalf("FillEvents allocates %v per batch, want 0", n)
	}
}

func BenchmarkFillEvents(b *testing.B) {
	g := NewGenerator(baseConfig())
	evs := make([]Event, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for done := 0; done < b.N; {
		g.FillEvents(evs)
		for i := range evs {
			done += evs[i].ALURun
			if evs[i].HasRec {
				done++
			}
		}
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
