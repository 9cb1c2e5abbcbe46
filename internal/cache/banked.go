// Banked substrate. The cache's struct-of-arrays state is split into
// B power-of-two banks, each owning an address-interleaved slice of the
// sets: global set s lives in bank s & (B-1) at local row s >> log2(B),
// exactly as a physically banked LLC interleaves consecutive sets
// across banks. Each bank preserves the SoA layout (dense tags/owners/
// lru rows plus one valid/dirty word per local set) documented in
// DESIGN.md §2, so the per-access hot path is unchanged: one bank
// select, then the same dense-row walk.
//
// Bit-identity guarantee: banking only regroups storage — which set an
// address maps to, which way is victimised and every recency decision
// are computed from the same global state, so the *state machine* is
// identical for every B. With Banks <= 1 the single bank's arrays are
// laid out exactly like the pre-banking monolithic cache and the bank
// routing degenerates to identity (mask 0, shift 0). Timing differs
// from the monolithic cache only when BankBusyCycles > 0 enables the
// bank-port contention model below; the zero value keeps today's
// unlimited-throughput behaviour, which is what pins the B=1 (and, for
// state, any-B) bit-identity in banked_test.go and oracle_test.go.
package cache

import "math/bits"

// bank is one bank's slice of the struct-of-arrays state. Rows are
// local: a bank with S/B of the S sets holds S/B rows of `ways` tags.
type bank struct {
	tags   []uint64 // localSets * ways, row-major
	owners []int32  // localSets * ways
	lru    []uint64 // localSets * ways
	valid  []uint64 // localSets bitmask words
	dirty  []uint64 // localSets bitmask words
}

// newBank allocates a cleared bank of localSets rows.
func newBank(localSets, ways int) bank {
	b := bank{
		tags:   make([]uint64, localSets*ways),
		owners: make([]int32, localSets*ways),
		lru:    make([]uint64, localSets*ways),
		valid:  make([]uint64, localSets),
		dirty:  make([]uint64, localSets),
	}
	for i := range b.owners {
		b.owners[i] = NoOwner
	}
	return b
}

// at routes a global set index to its bank and the bank-local set row.
func (c *Cache) at(set int) (*bank, int) {
	return &c.banks[uint64(set)&c.bankMask], set >> c.bankShift
}

// Banks returns the number of banks (1 for a monolithic cache).
func (c *Cache) Banks() int { return len(c.banks) }

// BankOf returns the bank serving a global set index.
func (c *Cache) BankOf(set int) int { return int(uint64(set) & c.bankMask) }

// AcquireBank models bank-port contention for an access to set arriving
// at time now: each bank serves one access per BankBusyCycles window,
// so an access finding its bank busy waits until the port frees. It
// returns the queueing delay and reserves the port. With
// BankBusyCycles == 0 (the default, and the pre-banking behaviour)
// contention is not modelled and the delay is always zero.
func (c *Cache) AcquireBank(set int, now int64) int64 {
	if c.bankBusyCyc == 0 {
		return 0
	}
	i := uint64(set) & c.bankMask
	delay := c.bankFree[i] - now
	if delay < 0 {
		delay = 0
	} else if delay > 0 {
		c.stats.BankConflicts++
	}
	c.bankFree[i] = now + delay + c.bankBusyCyc
	return delay
}

// bankCount resolves the configured bank count (0 means 1).
func (cfg Config) bankCount() int {
	if cfg.Banks <= 0 {
		return 1
	}
	return cfg.Banks
}

// bankGeometry returns (bankMask, bankShift) for the configured banks.
func (cfg Config) bankGeometry() (uint64, uint) {
	b := cfg.bankCount()
	return uint64(b - 1), uint(bits.TrailingZeros(uint(b)))
}
