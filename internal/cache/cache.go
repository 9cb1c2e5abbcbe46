// Package cache implements the set-associative cache substrate used for
// the private L1 caches and the shared last-level cache (LLC) in the
// Cooperative Partitioning reproduction.
//
// The cache is a mechanics-only model: it stores tags, per-block dirty
// bits, per-block owner IDs (the two extra bits per tag entry described
// in Section 2.5 of the paper) and LRU recency state. Policy —
// which ways a core may consult, which block is victimised, when blocks
// are flushed — is supplied by the caller through way masks and victim
// selectors, so the same substrate serves the Unmanaged, Fair Share,
// Dynamic CPE, UCP and Cooperative Partitioning schemes.
//
// Internally the state is laid out struct-of-arrays, mirroring the
// paper's own split between the tag array and the 2-bit-per-tag
// partitioning metadata (Section 2.5): a dense tags slice, one
// valid/dirty bitmask word per set, and separate owner and recency
// slices. The per-access hot path (Probe, Victim) therefore touches
// only the tags plus one valid word — a validity test is a bit test,
// and the invalid-way scan in Victim is a single trailing-zeros
// instruction — instead of striding across ~40-byte Block structs.
// The Block type survives as the assembled per-way view returned to
// callers; see DESIGN.md §2 for the layout invariants.
package cache

import (
	"fmt"
	"math/bits"
)

// Addr is a byte address in the simulated machine.
type Addr = uint64

// LineAddr is an address shifted right by the line-offset bits; it
// uniquely identifies a cache line.
type LineAddr = uint64

// NoOwner marks a block that is valid but not attributed to any core
// (only used transiently, e.g. after an ownership hand-off).
const NoOwner = -1

// Block is one cache line's metadata, assembled on demand from the
// struct-of-arrays state. Data contents are not simulated; only the
// state needed for timing, energy and coherence-free partitioning
// decisions is kept.
type Block struct {
	Tag   uint64
	Valid bool
	Dirty bool
	Owner int    // core that inserted the block (2 bits/tag in the paper)
	LRU   uint64 // recency stamp; larger = more recently used
}

// Config describes the geometry and latency of a cache.
type Config struct {
	Name      string
	SizeBytes int
	LineBytes int
	Ways      int
	Latency   int // access latency in cycles
}

// Sets returns the number of sets implied by the geometry.
func (c Config) Sets() int {
	return c.SizeBytes / (c.LineBytes * c.Ways)
}

// Validate checks that the configuration is internally consistent.
func (c Config) Validate() error {
	if c.SizeBytes <= 0 || c.LineBytes <= 0 || c.Ways <= 0 {
		return fmt.Errorf("cache %q: non-positive geometry %d/%d/%d",
			c.Name, c.SizeBytes, c.LineBytes, c.Ways)
	}
	if c.LineBytes&(c.LineBytes-1) != 0 {
		return fmt.Errorf("cache %q: line size %d is not a power of two", c.Name, c.LineBytes)
	}
	if c.Ways > 64 {
		return fmt.Errorf("cache %q: %d ways exceed the 64-way mask limit", c.Name, c.Ways)
	}
	// Compared by division: LineBytes*Ways can wrap for a power-of-two
	// line size near the top of int, and Sets would divide by zero.
	if c.LineBytes > c.SizeBytes/c.Ways {
		return fmt.Errorf("cache %q: %d ways of %d-byte lines exceed %d bytes",
			c.Name, c.Ways, c.LineBytes, c.SizeBytes)
	}
	s := c.Sets()
	if s&(s-1) != 0 {
		return fmt.Errorf("cache %q: set count %d is not a positive power of two", c.Name, s)
	}
	return nil
}

// Cache is a set-associative cache. It is not safe for concurrent use;
// the simulator drives it from a single goroutine.
//
// Layout invariants (struct-of-arrays):
//   - tags, owners and lru are numSets*ways long, row-major by set;
//   - valid and dirty hold one bitmask word per set (bit w = way w;
//     Ways <= 64 is enforced by Config.Validate);
//   - dirty is always a subset of valid;
//   - an invalid way has tag 0, owner NoOwner and lru 0, exactly the
//     state a zero-value or invalidated Block had in the old
//     array-of-structs layout.
type Cache struct {
	cfg     Config
	tags    []uint64 // numSets * ways, row-major
	owners  []int32  // numSets * ways
	lru     []uint64 // numSets * ways
	valid   []uint64 // one bitmask word per set
	dirty   []uint64 // one bitmask word per set
	numSets int
	ways    int
	idxMask uint64
	offBits uint
	setBits uint   // log2(numSets), hoisted out of TagOf/LineFrom
	allMask uint64 // mask with every way enabled, precomputed
	clock   uint64 // global recency counter
	stats   Stats
}

// New constructs a cache from cfg. It panics on an invalid
// configuration: geometry is fixed at build time by the experiment
// definitions, so a bad config is a programming error, not input error.
func New(cfg Config) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	numSets := cfg.Sets()
	c := &Cache{
		cfg:     cfg,
		tags:    make([]uint64, numSets*cfg.Ways),
		owners:  make([]int32, numSets*cfg.Ways),
		lru:     make([]uint64, numSets*cfg.Ways),
		valid:   make([]uint64, numSets),
		dirty:   make([]uint64, numSets),
		numSets: numSets,
		ways:    cfg.Ways,
		idxMask: uint64(numSets - 1),
		offBits: uint(bits.TrailingZeros(uint(cfg.LineBytes))),
		setBits: uint(bits.TrailingZeros(uint(numSets))),
	}
	for i := range c.owners {
		c.owners[i] = NoOwner
	}
	if cfg.Ways == 64 {
		c.allMask = ^uint64(0)
	} else {
		c.allMask = (uint64(1) << uint(cfg.Ways)) - 1
	}
	return c
}

// Config returns the cache's configuration.
func (c *Cache) Config() Config { return c.cfg }

// NumSets returns the number of sets.
func (c *Cache) NumSets() int { return c.numSets }

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.ways }

// Latency returns the configured access latency in cycles.
func (c *Cache) Latency() int { return c.cfg.Latency }

// Stats returns a pointer to the cache's statistics counters.
func (c *Cache) Stats() *Stats { return &c.stats }

// Line converts a byte address to a line address.
func (c *Cache) Line(addr Addr) LineAddr { return addr >> c.offBits }

// Index returns the set index for a line address.
func (c *Cache) Index(line LineAddr) int { return int(line & c.idxMask) }

// TagOf returns the tag for a line address.
func (c *Cache) TagOf(line LineAddr) uint64 { return line >> c.setBits }

// LineFrom reconstructs a line address from a set index and tag.
func (c *Cache) LineFrom(set int, tag uint64) LineAddr {
	return tag<<c.setBits | uint64(set)
}

// Block assembles a copy of the block at (set, way) for inspection.
func (c *Cache) Block(set, way int) Block {
	i := set*c.ways + way
	bit := uint64(1) << uint(way)
	return Block{
		Tag:   c.tags[i],
		Valid: c.valid[set]&bit != 0,
		Dirty: c.dirty[set]&bit != 0,
		Owner: int(c.owners[i]),
		LRU:   c.lru[i],
	}
}

// ValidAt reports whether the block at (set, way) is valid. It is a
// single bit test; callers that need only one field should prefer the
// *At accessors over assembling a whole Block.
func (c *Cache) ValidAt(set, way int) bool {
	return c.valid[set]&(1<<uint(way)) != 0
}

// OwnerAt returns the owner of the block at (set, way).
func (c *Cache) OwnerAt(set, way int) int {
	return int(c.owners[set*c.ways+way])
}

// LRUAt returns the recency stamp of the block at (set, way).
func (c *Cache) LRUAt(set, way int) uint64 {
	return c.lru[set*c.ways+way]
}

// AllMask returns the way mask with every way enabled.
func (c *Cache) AllMask() uint64 { return c.allMask }

// Probe searches the ways selected by mask for the tag of line. It
// returns the hit way and true, or -1 and false. Probe does not update
// recency state; callers that want a full access should use Access.
//
// Only valid masked ways are visited (ascending, matching the old
// array-of-structs walk): the valid word prunes empty ways before any
// tag is read, so the scan is a dense tag compare. The dynamic-energy
// model still charges the popcount of mask — the hardware enables that
// many tag ways regardless of how many the simulator's pruned walk
// actually reads — which the schemes compute from mask, not from this
// walk.
func (c *Cache) Probe(set int, tag uint64, mask uint64) (int, bool) {
	base := set * c.ways
	tags := c.tags[base : base+c.ways]
	for m := c.valid[set] & mask; m != 0; m &= m - 1 {
		w := bits.TrailingZeros64(m)
		if tags[w] == tag {
			return w, true
		}
	}
	return -1, false
}

// Touch marks (set, way) as most recently used.
func (c *Cache) Touch(set, way int) {
	c.clock++
	c.lru[set*c.ways+way] = c.clock
}

// Victim returns the way to replace among the ways in mask: an invalid
// way if one exists, otherwise the least recently used way in the mask.
// It returns -1 if the mask is empty.
//
// The invalid-way scan is a single bit operation on the set's valid
// word; the LRU scan then only visits valid masked ways.
func (c *Cache) Victim(set int, mask uint64) int {
	valid := c.valid[set]
	if inv := ^valid & mask; inv != 0 {
		// First invalid masked way, as in the old ascending walk.
		return bits.TrailingZeros64(inv)
	}
	best, bestLRU := -1, ^uint64(0)
	base := set * c.ways
	lru := c.lru[base : base+c.ways]
	for m := valid & mask; m != 0; m &= m - 1 {
		w := bits.TrailingZeros64(m)
		if lru[w] < bestLRU {
			best, bestLRU = w, lru[w]
		}
	}
	return best
}

// VictimOwnedBy returns the LRU way in mask whose block is owned by
// owner, or -1 if owner has no block in the masked ways of the set.
// Invalid blocks are treated as owned by nobody.
func (c *Cache) VictimOwnedBy(set, owner int, mask uint64) int {
	best, bestLRU := -1, ^uint64(0)
	base := set * c.ways
	for m := c.valid[set] & mask; m != 0; m &= m - 1 {
		w := bits.TrailingZeros64(m)
		if int(c.owners[base+w]) != owner {
			continue
		}
		if c.lru[base+w] < bestLRU {
			best, bestLRU = w, c.lru[base+w]
		}
	}
	return best
}

// CountOwned returns how many valid blocks in the masked ways of set are
// owned by owner.
func (c *Cache) CountOwned(set, owner int, mask uint64) int {
	n := 0
	base := set * c.ways
	for m := c.valid[set] & mask; m != 0; m &= m - 1 {
		w := bits.TrailingZeros64(m)
		if int(c.owners[base+w]) == owner {
			n++
		}
	}
	return n
}

// Evicted describes a block displaced by Install or flush operations.
type Evicted struct {
	Line  LineAddr
	Dirty bool
	Owner int
	Valid bool // false if the victim way was empty
}

// InstallAt writes a new block into (set, way), returning the displaced
// block. The new block is marked most recently used.
func (c *Cache) InstallAt(set, way int, tag uint64, owner int, dirty bool) Evicted {
	i := set*c.ways + way
	bit := uint64(1) << uint(way)
	ev := Evicted{
		Valid: c.valid[set]&bit != 0,
		Dirty: c.dirty[set]&bit != 0,
		Owner: int(c.owners[i]),
	}
	if ev.Valid {
		ev.Line = c.LineFrom(set, c.tags[i])
	}
	c.clock++
	c.tags[i] = tag
	c.owners[i] = int32(owner)
	c.lru[i] = c.clock
	c.valid[set] |= bit
	if dirty {
		c.dirty[set] |= bit
	} else {
		c.dirty[set] &^= bit
	}
	if ev.Valid {
		c.stats.Evictions++
		if ev.Dirty {
			c.stats.DirtyEvictions++
		}
	}
	return ev
}

// MarkDirty sets the dirty bit of the block at (set, way).
func (c *Cache) MarkDirty(set, way int) {
	c.dirty[set] |= 1 << uint(way)
}

// SetOwner rewrites the owner of the block at (set, way) without
// touching recency or dirtiness. Used when ownership of a way's contents
// transfers between cores.
func (c *Cache) SetOwner(set, way, owner int) {
	c.owners[set*c.ways+way] = int32(owner)
}

// FlushBlock cleans the block at (set, way). It returns the line address
// and true if the block was valid and dirty (i.e. a writeback to memory
// is required). The block remains valid but clean.
func (c *Cache) FlushBlock(set, way int) (LineAddr, bool) {
	bit := uint64(1) << uint(way)
	if c.valid[set]&c.dirty[set]&bit == 0 {
		return 0, false
	}
	c.dirty[set] &^= bit
	c.stats.Flushes++
	return c.LineFrom(set, c.tags[set*c.ways+way]), true
}

// clearBlock resets (set, way) to the invalid state the zero-value
// array-of-structs layout had: tag 0, owner NoOwner, lru 0, valid and
// dirty bits cleared.
func (c *Cache) clearBlock(set, way int) {
	i := set*c.ways + way
	bit := uint64(1) << uint(way)
	c.tags[i] = 0
	c.owners[i] = NoOwner
	c.lru[i] = 0
	c.valid[set] &^= bit
	c.dirty[set] &^= bit
}

// InvalidateBlock invalidates the block at (set, way), returning the
// evicted metadata (callers write back dirty data themselves).
func (c *Cache) InvalidateBlock(set, way int) Evicted {
	i := set*c.ways + way
	bit := uint64(1) << uint(way)
	ev := Evicted{
		Valid: c.valid[set]&bit != 0,
		Dirty: c.dirty[set]&bit != 0,
		Owner: int(c.owners[i]),
	}
	if ev.Valid {
		ev.Line = c.LineFrom(set, c.tags[i])
	}
	c.clearBlock(set, way)
	return ev
}

// InvalidateWay invalidates every block in the given way across all
// sets, invoking wb for each valid dirty block. This models the
// gated-Vdd power-off of a way (non-state-preserving, Section 6).
func (c *Cache) InvalidateWay(way int, wb func(LineAddr)) {
	bit := uint64(1) << uint(way)
	for s := 0; s < c.numSets; s++ {
		if c.valid[s]&c.dirty[s]&bit != 0 && wb != nil {
			wb(c.LineFrom(s, c.tags[s*c.ways+way]))
		}
		c.clearBlock(s, way)
	}
}

// ForEachValid calls fn for every valid block, with its set and way.
func (c *Cache) ForEachValid(fn func(set, way int, b Block)) {
	for s := 0; s < c.numSets; s++ {
		for m := c.valid[s]; m != 0; m &= m - 1 {
			w := bits.TrailingZeros64(m)
			fn(s, w, c.Block(s, w))
		}
	}
}

// OwnedWays returns, for the given set, the mask of ways whose valid
// block is owned by owner.
func (c *Cache) OwnedWays(set, owner int) uint64 {
	var mask uint64
	base := set * c.ways
	for m := c.valid[set]; m != 0; m &= m - 1 {
		w := bits.TrailingZeros64(m)
		if int(c.owners[base+w]) == owner {
			mask |= 1 << uint(w)
		}
	}
	return mask
}

// Access performs a simple full-mask read or write access with plain
// LRU replacement, as used by the private L1 caches: probe all ways,
// update recency on hit, replace the LRU block on miss. The returned
// Evicted describes the displaced block on a miss fill (Valid=false on
// hit). The bool reports hit/miss.
func (c *Cache) Access(line LineAddr, owner int, isWrite bool) (Evicted, bool) {
	set := c.Index(line)
	tag := c.TagOf(line)
	c.stats.Accesses++
	if way, hit := c.Probe(set, tag, c.allMask); hit {
		c.stats.Hits++
		c.Touch(set, way)
		if isWrite {
			c.MarkDirty(set, way)
		}
		return Evicted{}, true
	}
	c.stats.Misses++
	victim := c.Victim(set, c.allMask)
	ev := c.InstallAt(set, victim, tag, owner, isWrite)
	return ev, false
}

// Stats holds raw event counters for a cache.
type Stats struct {
	Accesses       uint64
	Hits           uint64
	Misses         uint64
	Evictions      uint64
	DirtyEvictions uint64
	Flushes        uint64
}

// HitRate returns hits/accesses, or 0 when no accesses occurred.
func (s *Stats) HitRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Accesses)
}

// Reset zeroes all counters.
func (s *Stats) Reset() { *s = Stats{} }

// SetLRU overwrites the recency stamp of the block at (set, way).
// Schemes that manage the replacement stack directly (PIPP's insertion
// position and single-step promotion) use it; plain-LRU schemes never
// need to.
func (c *Cache) SetLRU(set, way int, lru uint64) {
	c.lru[set*c.ways+way] = lru
}
