package mem

import (
	"testing"
	"testing/quick"
)

func TestUncontendedReadLatency(t *testing.T) {
	d := New(DefaultConfig())
	if lat := d.Read(0, 0); lat != 400 {
		t.Fatalf("uncontended read latency = %d, want 400", lat)
	}
}

func TestBankConflictSerialises(t *testing.T) {
	d := New(DefaultConfig())
	d.Read(0, 0)        // bank 0 busy until 40
	lat := d.Read(8, 0) // line 8 -> bank 0 again
	if lat <= 400 {
		t.Fatalf("conflicting read latency = %d, want > 400", lat)
	}
	if d.Stats().BankConflicts != 1 {
		t.Fatalf("BankConflicts = %d, want 1", d.Stats().BankConflicts)
	}
}

func TestDifferentBanksOverlap(t *testing.T) {
	d := New(DefaultConfig())
	d.Read(0, 0) // bank 0
	lat := d.Read(1, 0)
	// Bank 1 is free; only the bus (8 cycles) serialises.
	if lat != 408 {
		t.Fatalf("second-bank read latency = %d, want 408", lat)
	}
}

func TestOutstandingLimit(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxOutstanding = 2
	cfg.BankBusyCycles = 0
	cfg.BusCycles = 0
	d := New(cfg)
	d.Read(0, 0)
	d.Read(1, 0)
	lat := d.Read(2, 0) // queue full: waits for an earlier completion
	if lat != 800 {
		t.Fatalf("queued read latency = %d, want 800", lat)
	}
	if d.Stats().QueueStalls != 1 {
		t.Fatalf("QueueStalls = %d, want 1", d.Stats().QueueStalls)
	}
}

func TestWritesArePosted(t *testing.T) {
	d := New(DefaultConfig())
	d.Write(0, 0)
	if d.Stats().Writes != 1 {
		t.Fatal("write not recorded")
	}
	// A read to another bank at the same time only pays bus occupancy.
	if lat := d.Read(1, 0); lat != 408 {
		t.Fatalf("read after posted write latency = %d, want 408", lat)
	}
}

func TestRequestsDrainOverTime(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxOutstanding = 1
	d := New(cfg)
	d.Read(0, 0)
	// Long after completion, a new request sees no queueing.
	if lat := d.Read(1, 10000); lat != 400 {
		t.Fatalf("later read latency = %d, want 400", lat)
	}
	if d.Stats().QueueStalls != 0 {
		t.Fatal("unexpected queue stall after drain")
	}
}

// avgReadLatency is the mean observed read latency from the DRAM's
// counters.
func avgReadLatency(d *DRAM) float64 {
	st := d.Stats()
	if st.Reads == 0 {
		return 0
	}
	return float64(st.TotalLatency) / float64(st.Reads)
}

func TestAvgReadLatency(t *testing.T) {
	d := New(DefaultConfig())
	if st := d.Stats(); st.Reads != 0 || st.TotalLatency != 0 {
		t.Fatalf("empty DRAM counted %+v", st)
	}
	d.Read(0, 0)
	d.Read(1, 10000)
	if got := avgReadLatency(d); got != 400 {
		t.Fatalf("average read latency = %v, want 400", got)
	}
}

// TestReset: ResetStats, the end of warm-up, zeroes the counters but
// keeps the timing state, so a read right after it still waits for the
// bank the read before it holds.
func TestReset(t *testing.T) {
	d := New(DefaultConfig())
	d.Read(0, 0)
	d.Write(1, 0)
	d.ResetStats()
	if st := d.Stats(); st != (Stats{}) {
		t.Fatalf("ResetStats left counters %+v", st)
	}
	if lat := d.Read(0, 0); lat <= 400 {
		t.Fatalf("post-reset latency = %d, want > 400 (bank 0 still busy)", lat)
	}
}

func TestValidate(t *testing.T) {
	bad := []Config{
		{Banks: 0, LatencyCycles: 1, MaxOutstanding: 1},
		{Banks: 3, LatencyCycles: 1, MaxOutstanding: 1},
		{Banks: 8, LatencyCycles: 0, MaxOutstanding: 1},
		{Banks: 8, LatencyCycles: 400, MaxOutstanding: 0},
	}
	for i, cfg := range bad {
		if cfg.Validate() == nil {
			t.Errorf("config %d should fail validation: %+v", i, cfg)
		}
	}
	if DefaultConfig().Validate() != nil {
		t.Error("default config should validate")
	}
}

// Property: latency is always at least the uncontended latency and
// monotone time never runs backwards.
func TestPropertyLatencyBounds(t *testing.T) {
	f := func(lines []uint64) bool {
		d := New(DefaultConfig())
		now := int64(0)
		for _, l := range lines {
			lat := d.Read(l, now)
			if lat < 400 {
				return false
			}
			now += 13
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
