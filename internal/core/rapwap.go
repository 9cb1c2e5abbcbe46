// Package core implements Cooperative Partitioning, the paper's
// contribution (Section 2): way-aligned LLC partitioning driven by a
// thresholded look-ahead allocation (Algorithm 1), enforced by per-way
// read/write access-permission registers (RAP/WAP, Algorithm 2), with
// way migration through cooperative takeover (Sections 2.3-2.4) and
// gated-Vdd power-off of unallocated ways.
package core

import (
	"fmt"
	"math/bits"
)

// PermRegs is the file of per-way RAP and WAP registers. Each register
// holds one bit per core: RAP grants read access to a way, WAP write
// access. The three operating modes of Section 2.2 per (way, core):
//
//	RAP=1 WAP=1: full access (the way's owner, or the recipient during
//	             a transition)
//	RAP=1 WAP=0: read-only (a donor during a transition, or a donor
//	             draining a way that is being turned off)
//	RAP=0 WAP=0: no access
//
// The file also maintains the per-core read/write way masks that the
// access path consults, so a lookup is one AND rather than a scan, and
// the mask of powered ways, so PoweredWays is one popcount.
type PermRegs struct {
	ways, cores int
	rap         []uint64 // per way: core bitmask with read permission
	wap         []uint64 // per way: core bitmask with write permission
	readMask    []uint64 // per core: ways readable
	writeMask   []uint64 // per core: ways writable
	powered     uint64   // ways with any permission bit set
}

// NewPermRegs builds an all-clear register file.
func NewPermRegs(ways, cores int) *PermRegs {
	if ways <= 0 || ways > 64 || cores <= 0 || cores > 64 {
		panic(fmt.Sprintf("core: invalid PermRegs geometry %d ways / %d cores", ways, cores))
	}
	return &PermRegs{
		ways:      ways,
		cores:     cores,
		rap:       make([]uint64, ways),
		wap:       make([]uint64, ways),
		readMask:  make([]uint64, cores),
		writeMask: make([]uint64, cores),
	}
}

// Ways returns the number of ways covered.
func (p *PermRegs) Ways() int { return p.ways }

// CanRead reports whether core may read way.
func (p *PermRegs) CanRead(way, core int) bool { return p.rap[way]&(1<<uint(core)) != 0 }

// CanWrite reports whether core may write way.
func (p *PermRegs) CanWrite(way, core int) bool { return p.wap[way]&(1<<uint(core)) != 0 }

// SetRead sets or clears core's RAP bit for way.
func (p *PermRegs) SetRead(way, core int, v bool) {
	bit := uint64(1) << uint(core)
	wbit := uint64(1) << uint(way)
	if v {
		p.rap[way] |= bit
		p.readMask[core] |= wbit
	} else {
		p.rap[way] &^= bit
		p.readMask[core] &^= wbit
	}
	p.setPowered(way)
}

// SetWrite sets or clears core's WAP bit for way.
func (p *PermRegs) SetWrite(way, core int, v bool) {
	bit := uint64(1) << uint(core)
	wbit := uint64(1) << uint(way)
	if v {
		p.wap[way] |= bit
		p.writeMask[core] |= wbit
	} else {
		p.wap[way] &^= bit
		p.writeMask[core] &^= wbit
	}
	p.setPowered(way)
}

// setPowered updates way's bit in the powered mask from its registers.
func (p *PermRegs) setPowered(way int) {
	wbit := uint64(1) << uint(way)
	if p.IsOff(way) {
		p.powered &^= wbit
	} else {
		p.powered |= wbit
	}
}

// ReadMask returns the ways core may read (its tag-lookup mask: the
// dynamic-energy win is that only these tags are consulted).
func (p *PermRegs) ReadMask(core int) uint64 { return p.readMask[core] }

// WriteMask returns the ways core may write (its replacement mask).
func (p *PermRegs) WriteMask(core int) uint64 { return p.writeMask[core] }

// RAP returns the raw RAP register of a way (reporting/tests).
func (p *PermRegs) RAP(way int) uint64 { return p.rap[way] }

// WAP returns the raw WAP register of a way (reporting/tests).
func (p *PermRegs) WAP(way int) uint64 { return p.wap[way] }

// Writer returns the core with write permission on way, or -1. At most
// one core ever holds write permission (checked by Invariants).
func (p *PermRegs) Writer(way int) int {
	if p.wap[way] == 0 {
		return -1
	}
	return bits.TrailingZeros64(p.wap[way])
}

// Readers returns the number of cores with read permission on way.
func (p *PermRegs) Readers(way int) int { return bits.OnesCount64(p.rap[way]) }

// IsOff reports whether way has no permissions at all — the condition
// for power-gating it (Section 2.2).
func (p *PermRegs) IsOff(way int) bool { return p.rap[way] == 0 && p.wap[way] == 0 }

// PoweredWays counts ways that are not gated.
func (p *PermRegs) PoweredWays() int { return bits.OnesCount64(p.powered) }

// Invariants checks the structural properties Section 2.2 guarantees:
//
//  1. write permission implies read permission;
//  2. at most one core holds write permission on a way;
//  3. at most two cores hold read permission on a way, and when two do
//     (a transition), exactly one of them is the writer (the recipient).
//
// It returns the first violation found, or nil.
func (p *PermRegs) Invariants() error {
	for w := 0; w < p.ways; w++ {
		if p.wap[w]&^p.rap[w] != 0 {
			return fmt.Errorf("way %d: WAP %b grants write without read (RAP %b)", w, p.wap[w], p.rap[w])
		}
		if bits.OnesCount64(p.wap[w]) > 1 {
			return fmt.Errorf("way %d: multiple writers (WAP %b)", w, p.wap[w])
		}
		readers := bits.OnesCount64(p.rap[w])
		if readers > 2 {
			return fmt.Errorf("way %d: %d readers (RAP %b)", w, readers, p.rap[w])
		}
		if readers == 2 && bits.OnesCount64(p.wap[w]) != 1 {
			return fmt.Errorf("way %d: transition without a writer (RAP %b, WAP %b)", w, p.rap[w], p.wap[w])
		}
	}
	// Cross-check the cached masks against the registers.
	var powered uint64
	for w := 0; w < p.ways; w++ {
		if !p.IsOff(w) {
			powered |= 1 << uint(w)
		}
	}
	if powered != p.powered {
		return fmt.Errorf("cached powered mask out of sync (%b, registers say %b)", p.powered, powered)
	}
	for c := 0; c < p.cores; c++ {
		var rm, wm uint64
		for w := 0; w < p.ways; w++ {
			if p.CanRead(w, c) {
				rm |= 1 << uint(w)
			}
			if p.CanWrite(w, c) {
				wm |= 1 << uint(w)
			}
		}
		if rm != p.readMask[c] || wm != p.writeMask[c] {
			return fmt.Errorf("core %d: cached masks out of sync (read %b/%b, write %b/%b)",
				c, rm, p.readMask[c], wm, p.writeMask[c])
		}
	}
	return nil
}
