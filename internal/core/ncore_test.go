package core

// Many-core tests: the N-core takeover ring (cores well beyond the
// paper's 2/4), and the loud rejection of more cores than ways.

import (
	"math/bits"
	"testing"

	"repro/internal/cache"
	"repro/internal/mem"
	"repro/internal/partition"
)

// nCoreScheme builds a CoopPart with the given core and way counts.
func nCoreScheme(t *testing.T, cores, ways, sets int) *CoopPart {
	t.Helper()
	return New(partition.Config{
		Cache:          cache.Config{Name: "l2", SizeBytes: sets * ways * 64, LineBytes: 64, Ways: ways, Latency: 15},
		NumCores:       cores,
		DRAM:           mem.New(mem.DefaultConfig()),
		Threshold:      0.05,
		TimelineBucket: 100,
	}, VariantNone)
}

func TestMoreCoresThanWaysRejectedLoudly(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("8 cores on 4 ways must panic")
		}
	}()
	nCoreScheme(t, 8, 4, 16)
}

func TestNCoreRingDecideInvariants(t *testing.T) {
	// 8 cores on 32 ways and 16 cores on 64 ways (the geometry of the
	// 16-core scaling point, where the way masks use all 64 bits): the
	// full takeover machinery at core counts beyond the paper's. Skewed
	// access intensity forces the lookahead to move ways around the
	// ring; every decision must preserve the Section 2.2 permission
	// invariants and never strand a core without a way.
	for _, geom := range []struct{ cores, ways int }{{8, 32}, {16, 64}} {
		const sets = 32
		cores, ways := geom.cores, geom.ways
		c := nCoreScheme(t, cores, ways, sets)
		now := int64(0)
		for round := 0; round < 12; round++ {
			for core := 0; core < cores; core++ {
				// The lower half of the cores hammer many distinct tags
				// (high utility); the upper half idle on one line each.
				n := 2
				if core < cores/2 {
					n = 3 + 4*core
				}
				for k := 0; k < n; k++ {
					c.Access(core, addrFor(c, core, (k*7+round)%sets, k), k%4 == 0, now)
					now += 7
				}
			}
			c.Decide(now)
			if err := c.Perms().Invariants(); err != nil {
				t.Fatalf("%d cores, round %d: %v", cores, round, err)
			}
			total := 0
			for core := 0; core < cores; core++ {
				if c.Perms().WriteMask(core) == 0 {
					t.Fatalf("%d cores, round %d: core %d stranded with no writable way", cores, round, core)
				}
				total += bits.OnesCount64(c.Perms().WriteMask(core))
			}
			if total > ways {
				t.Fatalf("%d cores, round %d: %d writable ways exceed %d", cores, round, total, ways)
			}
		}
		if c.Stats().Repartitions == 0 {
			t.Fatalf("skewed %d-core load never repartitioned", cores)
		}
	}
}
