// Takeover walks through the paper's Figures 3 and 4 step by step on a
// miniature cache: two cores, four ways, four sets. Core 1 donates way
// 2 to core 0; each access by either core flushes the donor's dirty
// data in the transferring way, sets the set's takeover bit, and once
// every bit is set, core 0 owns the way outright.
//
//	go run ./examples/takeover
package main

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/partition"
)

func main() {
	cp := core.New(partition.Config{
		// 4 sets x 4 ways of 64B lines, as in Figure 4.
		Cache:    cache.Config{Name: "L2", SizeBytes: 4 * 4 * 64, LineBytes: 64, Ways: 4, Latency: 15},
		NumCores: 2,
		DRAM:     mem.New(mem.DefaultConfig()),
	}, core.VariantNone)
	l2 := cp.Cache()

	fmt.Println("initial state: each core owns two ways")
	printPerms(cp)

	// Fill way 2 (owned by core 1) with dirty lines in every set, and
	// way 3 with some clean data, mirroring Figure 4's starting point.
	for set := 0; set < l2.NumSets(); set++ {
		l2.InstallAt(set, 2, uint64(0x100+set), 1, set != 3) // set d starts clean (Fig. 4)
		l2.InstallAt(set, 3, uint64(0x200+set), 1, set == 3)
	}

	// A partitioning decision transfers way 2 to core 0 (Figure 3's
	// "during transition" register state).
	fmt.Println("\npartitioning decision: core 1 donates way 2 to core 0")
	cp.BeginTransfer(2, 1, 0, 50)
	printPerms(cp)

	steps := []struct {
		core  int
		set   int
		tag   uint64
		write bool
		label string
	}{
		{1, 2, 0x100 + 2, false, "core 1 read hits set c: its dirty line in way 2 is flushed, bit c set"},
		{0, 1, 0x900, true, "core 0 write misses set b: core 1's dirty line flushed, fill goes to way 2, bit b set"},
		{0, 3, 0x200 + 3, false, "core 0 read in set d: line in way 2 clean, nothing to flush, bit d set"},
		{1, 1, 0x100 + 1, false, "core 1 read in set b: way 2 now owned by core 0; bit already set, no flush"},
		{1, 0, 0x800, false, "core 1 read misses set a: last takeover bit set — transfer completes"},
	}
	for i, s := range steps {
		addr := l2.LineFrom(s.set, s.tag) * 64
		wbBefore := cp.Stats().WritebacksToMem
		res := cp.Access(s.core, addr, s.write, int64(100+i*10))
		fmt.Printf("\nstep %d: %s\n", i+1, s.label)
		fmt.Printf("  hit=%v, flushed %d line(s), takeover bits set: %d/%d\n",
			res.Hit, cp.Stats().WritebacksToMem-wbBefore, takeoverCount(cp), l2.NumSets())
	}

	fmt.Println("\nafter the transition: core 0 owns way 2, core 1's read permission withdrawn")
	printPerms(cp)
	fmt.Printf("way 2 owner: core %d; transition stats: %+d way(s) moved, %d lines flushed\n",
		cp.OwnerOf(2), int(cp.Transitions().WaysMoved), cp.Transitions().FlushedLines)
}

func takeoverCount(cp *core.CoopPart) int { return cp.TakeoverBitsSet(1) }

func printPerms(cp *core.CoopPart) {
	p := cp.Perms()
	for w := 0; w < p.Ways(); w++ {
		fmt.Printf("  way %d: RAP=%02b WAP=%02b", w, p.RAP(w), p.WAP(w))
		switch {
		case p.IsOff(w):
			fmt.Print("  (off)")
		case p.Readers(w) == 2:
			fmt.Print("  (in transition)")
		default:
			fmt.Printf("  (core %d)", p.Writer(w))
		}
		fmt.Println()
	}
}
