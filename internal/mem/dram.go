// Package mem models the main-memory system behind the shared LLC:
// a fixed-latency DRAM with multiple banks, per-bank conflict
// serialisation, a shared bus queue, and a bound on outstanding
// requests — the configuration of Table 2 in the paper (8 banks,
// 400-cycle latency, 64 outstanding requests).
package mem

import "fmt"

// Config describes the DRAM system.
type Config struct {
	Banks          int // independent banks
	LatencyCycles  int // uncontended access latency
	BankBusyCycles int // cycles a bank stays busy per request
	BusCycles      int // data-bus occupancy per transfer
	MaxOutstanding int // in-flight request limit (MSHR-style)
}

// DefaultConfig returns the paper's Table 2 memory system.
func DefaultConfig() Config {
	return Config{
		Banks:          8,
		LatencyCycles:  400,
		BankBusyCycles: 40, // row cycle time: bank unavailable after a request
		BusCycles:      8,  // 64B line over the data bus
		MaxOutstanding: 64,
	}
}

// maxOutstanding caps Config.MaxOutstanding far above any shipped
// configuration (the paper's is 64): New allocates the in-flight queue
// at that capacity, and a configuration can arrive from outside the
// program (expd).
const maxOutstanding = 1 << 16

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Banks <= 0 || c.Banks&(c.Banks-1) != 0 {
		return fmt.Errorf("mem: banks %d must be a positive power of two", c.Banks)
	}
	if c.LatencyCycles <= 0 {
		return fmt.Errorf("mem: latency %d must be positive", c.LatencyCycles)
	}
	if c.MaxOutstanding <= 0 || c.MaxOutstanding > maxOutstanding {
		return fmt.Errorf("mem: max outstanding %d must be in [1, %d]", c.MaxOutstanding, maxOutstanding)
	}
	return nil
}

// Stats counts DRAM activity.
type Stats struct {
	Reads         uint64
	Writes        uint64
	BankConflicts uint64
	BusStalls     uint64
	QueueStalls   uint64
	TotalLatency  uint64 // sum of observed request latencies (reads only)
}

// DRAM is the memory system model. Like the caches it is driven from a
// single goroutine; request timing is resolved immediately from the
// bank/bus availability bookkeeping rather than with an event queue.
type DRAM struct {
	cfg      Config
	bankFree []int64 // cycle at which each bank becomes available
	busFree  int64   // cycle at which the data bus becomes available
	inflight []int64 // completion times of outstanding requests (ring)
	stats    Stats
}

// New builds a DRAM model. It panics on invalid configuration, which is
// fixed by the experiment definitions.
func New(cfg Config) *DRAM {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &DRAM{
		cfg:      cfg,
		bankFree: make([]int64, cfg.Banks),
		inflight: make([]int64, 0, cfg.MaxOutstanding),
	}
}

// Stats returns the accumulated counters.
func (d *DRAM) Stats() Stats { return d.stats }

// bank maps a line address to its bank (low-order line bits interleave
// lines across banks).
func (d *DRAM) bank(line uint64) int { return int(line) & (d.cfg.Banks - 1) }

// reserve finds the earliest issue time for a request arriving at now,
// honouring the outstanding-request limit, bank availability and bus
// occupancy, and updates the bookkeeping.
func (d *DRAM) reserve(line uint64, now int64) (issue int64) {
	issue = now

	// Outstanding-request limit: if full, wait for the earliest
	// completion.
	live := d.inflight[:0]
	for _, done := range d.inflight {
		if done > now {
			live = append(live, done)
		}
	}
	d.inflight = live
	if len(d.inflight) >= d.cfg.MaxOutstanding {
		earliest := d.inflight[0]
		idx := 0
		for i, done := range d.inflight {
			if done < earliest {
				earliest, idx = done, i
			}
		}
		d.inflight = append(d.inflight[:idx], d.inflight[idx+1:]...)
		if earliest > issue {
			issue = earliest
			d.stats.QueueStalls++
		}
	}

	b := d.bank(line)
	if d.bankFree[b] > issue {
		issue = d.bankFree[b]
		d.stats.BankConflicts++
	}
	if d.busFree > issue {
		issue = d.busFree
		d.stats.BusStalls++
	}
	d.bankFree[b] = issue + int64(d.cfg.BankBusyCycles)
	d.busFree = issue + int64(d.cfg.BusCycles)
	return issue
}

// Read issues a read for line at time now and returns its latency in
// cycles (including any queueing and conflict delays).
func (d *DRAM) Read(line uint64, now int64) int64 {
	issue := d.reserve(line, now)
	done := issue + int64(d.cfg.LatencyCycles)
	d.inflight = append(d.inflight, done)
	d.stats.Reads++
	lat := done - now
	d.stats.TotalLatency += uint64(lat)
	return lat
}

// Write issues a writeback for line at time now. Writebacks are
// posted: they occupy a bank and the bus but the issuing core does not
// wait for them, so no latency is returned.
func (d *DRAM) Write(line uint64, now int64) {
	issue := d.reserve(line, now)
	d.inflight = append(d.inflight, issue+int64(d.cfg.LatencyCycles))
	d.stats.Writes++
}

// ResetStats clears counters while preserving bank/bus timing state
// (used at the end of a warm-up period).
func (d *DRAM) ResetStats() { d.stats = Stats{} }
