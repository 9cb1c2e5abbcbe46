package partition

// This file implements the quota-enforced victim selection shared by
// Fair Share and UCP. Both schemes keep logical per-core way quotas:
// data is not way-aligned, every access probes all tag ways, and the
// quota is enforced by the replacement policy (as in Qureshi & Patt):
// a core below its quota victimises the LRU block of an over-quota
// core, while a core at or above quota victimises its own LRU block.
// The probe/fill mechanics around it live in Controller.access; the
// schemes inject quotaVictim through their accessHooks.

// victimEvent reports which block a quota miss displaced, so UCP can
// track way-migration progress.
type victimEvent struct {
	set       int
	victimWay int
	owner     int // previous owner of the victim block (NoOwner if empty)
	dirty     bool
	valid     bool
}

// quotaVictim picks the replacement way in set for core under quotas.
func (b *Controller) quotaVictim(set, core int, quotas []int) int {
	l2 := b.l2
	mask := l2.AllMask()
	// Invalid ways first: no one loses data.
	if w := l2.Victim(set, mask); w >= 0 && !l2.ValidAt(set, w) {
		return w
	}
	owned := l2.CountOwned(set, core, mask)
	if owned < quotas[core] {
		// Take the LRU block among cores holding more than their quota.
		best, bestLRU := -1, ^uint64(0)
		for w := 0; w < l2.Ways(); w++ {
			if !l2.ValidAt(set, w) {
				continue
			}
			o := l2.OwnerAt(set, w)
			if o == core {
				continue
			}
			if o >= 0 && o < b.n && l2.CountOwned(set, o, mask) <= quotas[o] {
				continue
			}
			if lru := l2.LRUAt(set, w); lru < bestLRU {
				best, bestLRU = w, lru
			}
		}
		if best >= 0 {
			return best
		}
		// No over-quota victim: take any other core's LRU block.
		best, bestLRU = -1, ^uint64(0)
		for w := 0; w < l2.Ways(); w++ {
			if !l2.ValidAt(set, w) || l2.OwnerAt(set, w) == core {
				continue
			}
			if lru := l2.LRUAt(set, w); lru < bestLRU {
				best, bestLRU = w, lru
			}
		}
		if best >= 0 {
			return best
		}
	}
	// At/above quota (or the set holds only this core's data): own LRU,
	// falling back to global LRU.
	if w := b.l2.VictimOwnedBy(set, core, mask); w >= 0 {
		return w
	}
	return b.l2.Victim(set, mask)
}
