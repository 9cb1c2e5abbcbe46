package mem

// High-pressure DRAM tests: the outstanding-request window under a
// 16-core miss storm, the regime the many-core scaling sweep drives
// the memory system into.

import "testing"

func TestSixteenCorePressureBoundsInflight(t *testing.T) {
	cfg := DefaultConfig()
	d := New(cfg)
	const cores = 16
	// Every core fires a miss burst in the same cycle window, far more
	// than MaxOutstanding can hold: the window must bound the in-flight
	// set and convert the excess into queue stalls, never dropping or
	// duplicating requests.
	var issued int
	for round := 0; round < 40; round++ {
		now := int64(round * 10)
		for core := 0; core < cores; core++ {
			line := uint64(core)<<20 | uint64(round)
			lat := d.Read(line, now)
			issued++
			if lat < int64(cfg.LatencyCycles) {
				t.Fatalf("round %d core %d: latency %d below uncontended %d",
					round, core, lat, cfg.LatencyCycles)
			}
			if len(d.inflight) > cfg.MaxOutstanding {
				t.Fatalf("in-flight window grew to %d (limit %d)",
					len(d.inflight), cfg.MaxOutstanding)
			}
		}
	}
	st := d.Stats()
	if st.Reads != uint64(issued) {
		t.Fatalf("reads = %d, want %d", st.Reads, issued)
	}
	if st.QueueStalls == 0 {
		t.Fatal("640 overlapping reads never stalled on the outstanding window")
	}
	if st.BankConflicts == 0 {
		t.Fatal("16-core storm produced no bank conflicts")
	}
	if avgReadLatency(d) <= float64(cfg.LatencyCycles) {
		t.Fatalf("average latency %v not above uncontended %d under pressure",
			avgReadLatency(d), cfg.LatencyCycles)
	}
}

func TestPressureLatencyGrowsWithOffered(t *testing.T) {
	// Offered load beyond the bank/bus service rate: the mean latency
	// of a saturating burst must exceed that of a sparse stream on an
	// identical configuration.
	sparse, burst := New(DefaultConfig()), New(DefaultConfig())
	for i := 0; i < 200; i++ {
		sparse.Read(uint64(i), int64(i)*1000) // one at a time, banks idle
		burst.Read(uint64(i), 0)              // all at cycle 0
	}
	if avgReadLatency(burst) <= avgReadLatency(sparse) {
		t.Fatalf("burst latency %v not above sparse %v",
			avgReadLatency(burst), avgReadLatency(sparse))
	}
}

func TestPressureMixedWritebacksStillBounded(t *testing.T) {
	// Posted writebacks compete for banks/bus and the outstanding
	// window alongside reads (a dirty-eviction storm at 16 cores).
	cfg := DefaultConfig()
	d := New(cfg)
	for round := 0; round < 30; round++ {
		now := int64(round * 5)
		for core := 0; core < 16; core++ {
			line := uint64(core)<<20 | uint64(round)
			if core%2 == 0 {
				d.Write(line, now)
			} else {
				d.Read(line, now)
			}
			if len(d.inflight) > cfg.MaxOutstanding {
				t.Fatalf("in-flight window grew to %d (limit %d)",
					len(d.inflight), cfg.MaxOutstanding)
			}
		}
	}
	st := d.Stats()
	if st.Writes != 30*8 || st.Reads != 30*8 {
		t.Fatalf("writes/reads = %d/%d, want 240/240", st.Writes, st.Reads)
	}
	// Time heals the window: after a long quiet gap a read sees no
	// queue stall.
	stallsBefore := d.Stats().QueueStalls
	if lat := d.Read(1, 1<<30); lat != int64(cfg.LatencyCycles) {
		t.Fatalf("post-drain read latency %d, want uncontended %d", lat, cfg.LatencyCycles)
	}
	if d.Stats().QueueStalls != stallsBefore {
		t.Fatal("post-drain read queue-stalled")
	}
}
