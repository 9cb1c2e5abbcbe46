package cache

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func testConfig() Config {
	return Config{Name: "test", SizeBytes: 8 * 1024, LineBytes: 64, Ways: 4, Latency: 2}
}

func TestConfigSets(t *testing.T) {
	cfg := testConfig()
	if got, want := cfg.Sets(), 32; got != want {
		t.Fatalf("Sets() = %d, want %d", got, want)
	}
}

func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		ok   bool
	}{
		{"valid", testConfig(), true},
		{"zero size", Config{SizeBytes: 0, LineBytes: 64, Ways: 4}, false},
		{"non-pow2 line", Config{SizeBytes: 8192, LineBytes: 48, Ways: 4}, false},
		{"non-pow2 sets", Config{SizeBytes: 3 * 64 * 4, LineBytes: 64, Ways: 4}, false},
		{"too many ways", Config{SizeBytes: 1 << 20, LineBytes: 64, Ways: 128}, false},
		{"paper L2 two-core", Config{SizeBytes: 2 << 20, LineBytes: 64, Ways: 8, Latency: 15}, true},
		{"paper L2 four-core", Config{SizeBytes: 4 << 20, LineBytes: 64, Ways: 16, Latency: 20}, true},
	}
	for _, tc := range cases {
		err := tc.cfg.Validate()
		if (err == nil) != tc.ok {
			t.Errorf("%s: Validate() error = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

func TestPaperGeometries(t *testing.T) {
	two := Config{SizeBytes: 2 << 20, LineBytes: 64, Ways: 8}
	four := Config{SizeBytes: 4 << 20, LineBytes: 64, Ways: 16}
	if got := two.Sets(); got != 4096 {
		t.Errorf("two-core L2 sets = %d, want 4096", got)
	}
	if got := four.Sets(); got != 4096 {
		t.Errorf("four-core L2 sets = %d, want 4096", got)
	}
}

func TestAddressSplitRoundTrip(t *testing.T) {
	c := New(testConfig())
	f := func(addr uint64) bool {
		line := c.Line(addr)
		set := c.Index(line)
		tag := c.TagOf(line)
		return c.LineFrom(set, tag) == line && set >= 0 && set < c.NumSets()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestProbeMissOnEmpty(t *testing.T) {
	c := New(testConfig())
	if _, hit := c.Probe(0, 42, c.AllMask()); hit {
		t.Fatal("probe hit in empty cache")
	}
}

func TestInstallThenProbeHits(t *testing.T) {
	c := New(testConfig())
	line := LineAddr(0x1234)
	set, tag := c.Index(line), c.TagOf(line)
	ev := c.InstallAt(set, 2, tag, 1, false)
	if ev.Valid {
		t.Fatalf("install into empty way evicted %+v", ev)
	}
	way, hit := c.Probe(set, tag, c.AllMask())
	if !hit || way != 2 {
		t.Fatalf("Probe = (%d, %v), want (2, true)", way, hit)
	}
	if b := c.Block(set, 2); b.Owner != 1 || b.Dirty {
		t.Fatalf("block = %+v, want owner 1, clean", b)
	}
}

func TestProbeRespectsMask(t *testing.T) {
	c := New(testConfig())
	line := LineAddr(0x40)
	set, tag := c.Index(line), c.TagOf(line)
	c.InstallAt(set, 3, tag, 0, false)
	if _, hit := c.Probe(set, tag, 0b0111); hit {
		t.Fatal("probe hit outside mask")
	}
	if way, hit := c.Probe(set, tag, 0b1000); !hit || way != 3 {
		t.Fatalf("masked probe = (%d,%v), want (3,true)", way, hit)
	}
}

func TestVictimPrefersInvalid(t *testing.T) {
	c := New(testConfig())
	c.InstallAt(5, 0, 1, 0, false)
	c.InstallAt(5, 1, 2, 0, false)
	// Ways 2 and 3 are invalid; victim must be one of them.
	v := c.Victim(5, c.AllMask())
	if v != 2 && v != 3 {
		t.Fatalf("Victim = %d, want an invalid way (2 or 3)", v)
	}
}

func TestVictimIsLRU(t *testing.T) {
	c := New(testConfig())
	for w := 0; w < 4; w++ {
		c.InstallAt(7, w, uint64(w+1), 0, false)
	}
	// Touch ways 0, 2, 3 — way 1 becomes LRU.
	c.Touch(7, 0)
	c.Touch(7, 2)
	c.Touch(7, 3)
	if v := c.Victim(7, c.AllMask()); v != 1 {
		t.Fatalf("Victim = %d, want 1", v)
	}
	// Restrict the mask so way 1 is not eligible: LRU among {2,3} is 2.
	if v := c.Victim(7, 0b1100); v != 2 {
		t.Fatalf("masked Victim = %d, want 2", v)
	}
}

func TestVictimEmptyMask(t *testing.T) {
	c := New(testConfig())
	if v := c.Victim(0, 0); v != -1 {
		t.Fatalf("Victim(empty mask) = %d, want -1", v)
	}
}

func TestVictimOwnedBy(t *testing.T) {
	c := New(testConfig())
	c.InstallAt(3, 0, 1, 0, false)
	c.InstallAt(3, 1, 2, 1, false)
	c.InstallAt(3, 2, 3, 0, false)
	c.Touch(3, 0) // way 2 is now core 0's LRU block
	if v := c.VictimOwnedBy(3, 0, c.AllMask()); v != 2 {
		t.Fatalf("VictimOwnedBy(0) = %d, want 2", v)
	}
	if v := c.VictimOwnedBy(3, 1, c.AllMask()); v != 1 {
		t.Fatalf("VictimOwnedBy(1) = %d, want 1", v)
	}
	if v := c.VictimOwnedBy(3, 7, c.AllMask()); v != -1 {
		t.Fatalf("VictimOwnedBy(absent owner) = %d, want -1", v)
	}
}

func TestCountOwnedAndOwnedWays(t *testing.T) {
	c := New(testConfig())
	c.InstallAt(9, 0, 1, 0, false)
	c.InstallAt(9, 1, 2, 1, false)
	c.InstallAt(9, 3, 4, 0, false)
	if n := c.CountOwned(9, 0, c.AllMask()); n != 2 {
		t.Fatalf("CountOwned(0) = %d, want 2", n)
	}
	if n := c.CountOwned(9, 0, 0b0001); n != 1 {
		t.Fatalf("masked CountOwned(0) = %d, want 1", n)
	}
	if m := c.OwnedWays(9, 0); m != 0b1001 {
		t.Fatalf("OwnedWays(0) = %b, want 1001", m)
	}
}

func TestInstallEviction(t *testing.T) {
	c := New(testConfig())
	c.InstallAt(4, 0, 10, 1, true)
	ev := c.InstallAt(4, 0, 11, 0, false)
	if !ev.Valid || !ev.Dirty {
		t.Fatalf("eviction = %+v, want valid dirty", ev)
	}
	if ev.Line != c.LineFrom(4, 10) {
		t.Fatalf("evicted line = %#x, want %#x", ev.Line, c.LineFrom(4, 10))
	}
}

func TestFlushBlock(t *testing.T) {
	c := New(testConfig())
	c.InstallAt(2, 1, 5, 0, true)
	line, wb := c.FlushBlock(2, 1)
	if !wb || line != c.LineFrom(2, 5) {
		t.Fatalf("FlushBlock = (%#x,%v), want dirty writeback", line, wb)
	}
	if b := c.Block(2, 1); !b.Valid || b.Dirty {
		t.Fatalf("after flush block = %+v, want valid clean", b)
	}
	if _, wb := c.FlushBlock(2, 1); wb {
		t.Fatal("second flush reported dirty data")
	}
	if _, wb := c.FlushBlock(2, 3); wb {
		t.Fatal("flush of invalid block reported dirty data")
	}
}

func TestInvalidateWay(t *testing.T) {
	c := New(testConfig())
	for s := 0; s < c.NumSets(); s++ {
		c.InstallAt(s, 2, uint64(s+1), 0, s%2 == 0)
	}
	var wbs []LineAddr
	c.InvalidateWay(2, func(l LineAddr) { wbs = append(wbs, l) })
	if len(wbs) != c.NumSets()/2 {
		t.Fatalf("writebacks = %d, want %d", len(wbs), c.NumSets()/2)
	}
	for s := 0; s < c.NumSets(); s++ {
		if c.Block(s, 2).Valid {
			t.Fatalf("set %d way 2 still valid after InvalidateWay", s)
		}
	}
}

func TestSetOwnerPreservesState(t *testing.T) {
	c := New(testConfig())
	c.InstallAt(1, 0, 9, 0, true)
	before := c.Block(1, 0)
	c.SetOwner(1, 0, 1)
	after := c.Block(1, 0)
	if after.Owner != 1 || after.Dirty != before.Dirty || after.LRU != before.LRU || after.Tag != before.Tag {
		t.Fatalf("SetOwner changed more than owner: %+v -> %+v", before, after)
	}
}

func TestAccessLRUBehaviour(t *testing.T) {
	c := New(testConfig())
	// Fill one set with 4 distinct lines that map to set 0.
	stride := uint64(c.NumSets())
	var lines []LineAddr
	for i := 0; i < 4; i++ {
		lines = append(lines, stride*uint64(i))
	}
	for _, l := range lines {
		if _, hit := c.Access(l, 0, false); hit {
			t.Fatalf("unexpected hit filling line %#x", l)
		}
	}
	for _, l := range lines {
		if _, hit := c.Access(l, 0, false); !hit {
			t.Fatalf("expected hit on resident line %#x", l)
		}
	}
	// A 5th line evicts the LRU (lines[0], since all were re-touched in order).
	if _, hit := c.Access(stride*4, 0, false); hit {
		t.Fatal("unexpected hit on new line")
	}
	if _, hit := c.Access(lines[0], 0, false); hit {
		t.Fatal("LRU line should have been evicted")
	}
}

func TestAccessWriteMarksDirty(t *testing.T) {
	c := New(testConfig())
	line := c.Line(0x100)
	c.Access(line, 0, true)
	set, tag := c.Index(line), c.TagOf(line)
	way, hit := c.Probe(set, tag, c.AllMask())
	if !hit {
		t.Fatal("line not resident after write")
	}
	if !c.Block(set, way).Dirty {
		t.Fatal("write did not mark block dirty")
	}
}

func TestStatsAccounting(t *testing.T) {
	c := New(testConfig())
	c.Access(0, 0, false)  // miss
	c.Access(0, 0, false)  // hit
	c.Access(64, 0, false) // miss (next line)
	st := c.Stats()
	if st.Accesses != 3 || st.Hits != 1 {
		t.Fatalf("stats = %+v, want 3 accesses, 1 hit", st)
	}
	if got := st.HitRate(); got != 1.0/3.0 {
		t.Fatalf("HitRate = %v", got)
	}
	st.Reset()
	if st.Accesses != 0 {
		t.Fatal("Reset did not zero counters")
	}
}

func TestStatsRatesEmpty(t *testing.T) {
	var s Stats
	if s.HitRate() != 0 {
		t.Fatal("hit rate on empty stats should be 0")
	}
}

// Property: the number of valid blocks never exceeds sets*ways and
// every resident line probes back to the way it was installed in.
func TestPropertyInstallProbeConsistency(t *testing.T) {
	c := New(testConfig())
	rng := rand.New(rand.NewSource(1))
	resident := make(map[LineAddr]bool)
	for i := 0; i < 5000; i++ {
		line := LineAddr(rng.Intn(4096))
		ev, hit := c.Access(line, rng.Intn(2), rng.Intn(2) == 0)
		if hit != resident[line] {
			t.Fatalf("access %d: hit=%v, resident=%v for line %#x", i, hit, resident[line], line)
		}
		if !hit {
			resident[line] = true
			if ev.Valid {
				if !resident[ev.Line] {
					t.Fatalf("evicted non-resident line %#x", ev.Line)
				}
				delete(resident, ev.Line)
			}
		}
	}
	count := 0
	c.ForEachValid(func(_, _ int, _ Block) { count++ })
	if count != len(resident) {
		t.Fatalf("valid blocks = %d, tracked resident = %d", count, len(resident))
	}
}

// Property: Victim always returns a way inside the mask.
func TestPropertyVictimInMask(t *testing.T) {
	c := New(testConfig())
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 2000; i++ {
		set := rng.Intn(c.NumSets())
		mask := uint64(rng.Intn(16)) // 4 ways
		v := c.Victim(set, mask)
		if mask == 0 {
			if v != -1 {
				t.Fatalf("victim %d from empty mask", v)
			}
			continue
		}
		if v < 0 || mask&(1<<uint(v)) == 0 {
			t.Fatalf("victim %d outside mask %b", v, mask)
		}
		c.InstallAt(set, v, uint64(i+1), 0, false)
	}
}

func TestAllMaskWidth(t *testing.T) {
	for _, ways := range []int{1, 2, 4, 8, 16} {
		cfg := Config{Name: "w", SizeBytes: 64 * 64 * ways, LineBytes: 64, Ways: ways}
		c := New(cfg)
		if got, want := c.AllMask(), (uint64(1)<<uint(ways))-1; got != want {
			t.Errorf("ways=%d: AllMask=%b want %b", ways, got, want)
		}
	}
}
