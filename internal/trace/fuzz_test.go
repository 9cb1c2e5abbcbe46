package trace

import "testing"

// fuzzConfig maps raw fuzz bytes onto a valid Config covering the
// generator's whole behaviour space: mix fractions, phase oscillation,
// working-set shapes, code footprints and every line size from 4 to
// 128 bytes. Fractions are quantised from
// single bytes; the pair constraints (MemFrac+BranchFrac <= 1,
// StreamFrac+HugeFrac <= 1) are enforced by scaling, not rejection, so
// every input exercises the generator.
func fuzzConfig(mem, branch, stream, huge, depth, noise, line byte, period uint16, code, ws uint8, seed uint64) Config {
	frac := func(b byte) float64 { return float64(b) / 255 }
	m, br := frac(mem), frac(branch)
	if s := m + br; s > 1 {
		// Scale into the simplex; the scaled sum can still round a hair
		// above 1, so clamp the second term outright.
		m = m / s
		br = 1 - m
	}
	st, hu := frac(stream), frac(huge)
	if s := st + hu; s > 1 {
		st = st / s
		hu = 1 - st
	}
	cfg := Config{
		MemFrac:     m,
		StoreFrac:   frac(mem ^ branch),
		BranchFrac:  br,
		BranchNoise: frac(noise),
		StreamFrac:  st,
		HugeFrac:    hu,
		HugeLines:   1 + int(period)%5000,
		PhasePeriod: int(period) % 700,
		PhaseDepth:  frac(depth),
		MLP:         1 + 3*frac(depth^noise),
		CodeLines:   1 + int(code)%200,
		LineBytes:   4 << (line % 6),
		Seed:        seed,
	}
	// The working-set share must be covered whenever it is non-zero;
	// always defining sets also exercises the weight-draw path when the
	// share is zero-probability.
	nws := 1 + int(ws)%3
	for i := 0; i < nws; i++ {
		cfg.WorkingSets = append(cfg.WorkingSets, WS{
			Lines:  1 + (int(ws)*31+i*97)%4096,
			Weight: 1 + float64(i),
			Sweep:  (ws>>uint(i))&1 == 1,
		})
	}
	return cfg
}

// FuzzEventStreamMatchesNext fuzzes generator configurations and
// asserts the event stream decompresses to the exact Next record
// sequence — the bit-identity foundation of the event-compressed
// stepping path (DESIGN.md §10).
func FuzzEventStreamMatchesNext(f *testing.F) {
	f.Add(byte(76), byte(38), byte(51), byte(25), byte(128), byte(12), byte(4), uint16(100), uint8(20), uint8(1), uint64(42))
	f.Add(byte(0), byte(0), byte(255), byte(0), byte(0), byte(0), byte(0), uint16(0), uint8(0), uint8(0), uint64(1))
	f.Add(byte(255), byte(0), byte(0), byte(0), byte(255), byte(255), byte(2), uint16(3), uint8(199), uint8(7), uint64(9))
	f.Add(byte(10), byte(245), byte(90), byte(90), byte(77), byte(200), byte(5), uint16(655), uint8(1), uint8(255), uint64(31337))
	f.Fuzz(func(t *testing.T, mem, branch, stream, huge, depth, noise, line byte, period uint16, code, ws uint8, seed uint64) {
		cfg := fuzzConfig(mem, branch, stream, huge, depth, noise, line, period, code, ws, seed)
		if err := cfg.Validate(); err != nil {
			t.Fatalf("fuzzConfig produced an invalid config: %v", err)
		}
		ref := NewGenerator(cfg)
		ev := NewGenerator(cfg)
		var evt Event
		for consumed := 0; consumed < 3000; {
			ev.NextEvent(&evt)
			consumed += decompressCheck(t, ref, &evt, "fuzz")
		}
	})
}
