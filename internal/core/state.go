package core

import (
	"encoding/json"
	"fmt"
	"math/bits"

	"repro/internal/umon"
)

// Snapshot/restore layer for Cooperative Partitioning (DESIGN.md §14).
// CoopPart implements partition.Stateful like the comparison schemes:
// the whole dynamic state — controller, monitors, RAP/WAP registers,
// way ownership, in-flight donor transitions and the Algorithm 2 RNG —
// round-trips through one JSON document. Derived state is recomputed:
// the per-core read/write masks and the powered-way mask are rebuilt
// from the restored registers (then cross-checked by Invariants) and
// the takeover bit counts are repopcounted from the words.

// permState serializes the RAP/WAP register file: only the registers
// travel; the cached masks are derived.
type permState struct {
	RAP []uint64
	WAP []uint64
}

// restore overwrites p's registers from st and rebuilds the cached
// masks.
func (p *PermRegs) restore(st *permState) error {
	if len(st.RAP) != p.ways || len(st.WAP) != p.ways {
		return fmt.Errorf("core: snapshot has %d/%d permission registers, file has %d ways",
			len(st.RAP), len(st.WAP), p.ways)
	}
	copy(p.rap, st.RAP)
	copy(p.wap, st.WAP)
	for w := 0; w < p.ways; w++ {
		p.setPowered(w)
	}
	for c := 0; c < p.cores; c++ {
		var rm, wm uint64
		cbit := uint64(1) << uint(c)
		for w := 0; w < p.ways; w++ {
			if p.rap[w]&cbit != 0 {
				rm |= 1 << uint(w)
			}
			if p.wap[w]&cbit != 0 {
				wm |= 1 << uint(w)
			}
		}
		p.readMask[c] = rm
		p.writeMask[c] = wm
	}
	return p.Invariants()
}

// transferState is one in-flight way migration.
type transferState struct {
	Way       int
	Recipient int
}

// donorStateState is one donor core's transition period. The bit
// vector's set count is derived from the words on restore.
type donorStateState struct {
	Active    bool
	Start     int64
	Bits      []uint64
	Transfers []transferState
}

type coopState struct {
	Controller json.RawMessage // the embedded partition.Controller's document
	Monitors   []*umon.State
	Perms      permState
	Owner      []int
	Donors     []donorStateState
	Alloc      []int
	RNG        uint64
	LastTouch  []int64 // nil when the drowsy extension is off
	LastNow    int64
}

// StateJSON implements partition.Stateful.
func (c *CoopPart) StateJSON() ([]byte, error) {
	ctl, err := c.ControllerStateJSON()
	if err != nil {
		return nil, err
	}
	mons := make([]*umon.State, len(c.mons))
	for i, m := range c.mons {
		mons[i] = m.State()
	}
	st := coopState{
		Controller: ctl,
		Monitors:   mons,
		Perms:      permState{RAP: c.perms.rap, WAP: c.perms.wap},
		Owner:      c.owner,
		Alloc:      c.alloc,
		RNG:        c.rng,
		LastTouch:  c.lastTouch,
		LastNow:    c.lastNow,
	}
	st.Donors = make([]donorStateState, len(c.donors))
	for i := range c.donors {
		ds := &c.donors[i]
		d := donorStateState{
			Active: ds.active,
			Start:  ds.start,
			Bits:   append([]uint64(nil), ds.bits.words...),
		}
		for _, t := range ds.transfers {
			d.Transfers = append(d.Transfers, transferState{Way: t.way, Recipient: t.recipient})
		}
		st.Donors[i] = d
	}
	return json.Marshal(st)
}

// RestoreStateJSON implements partition.Stateful.
func (c *CoopPart) RestoreStateJSON(data []byte) error {
	var st coopState
	if err := json.Unmarshal(data, &st); err != nil {
		return err
	}
	if len(st.Owner) != len(c.owner) || len(st.Alloc) != len(c.alloc) ||
		len(st.Donors) != len(c.donors) {
		return fmt.Errorf("core: snapshot geometry mismatch (%d/%d owners, %d/%d allocs, %d/%d donors)",
			len(st.Owner), len(c.owner), len(st.Alloc), len(c.alloc), len(st.Donors), len(c.donors))
	}
	if (c.lastTouch != nil) != (st.LastTouch != nil) {
		return fmt.Errorf("core: snapshot drowsy state does not match scheme configuration")
	}
	if st.LastTouch != nil && len(st.LastTouch) != len(c.lastTouch) {
		return fmt.Errorf("core: snapshot has %d drowsy touch stamps, scheme has %d",
			len(st.LastTouch), len(c.lastTouch))
	}
	if len(st.Monitors) != len(c.mons) {
		return fmt.Errorf("core: snapshot has %d monitors, scheme has %d", len(st.Monitors), len(c.mons))
	}
	if err := c.RestoreControllerStateJSON(st.Controller); err != nil {
		return err
	}
	for i, m := range c.mons {
		if err := m.Restore(st.Monitors[i]); err != nil {
			return fmt.Errorf("core: monitor %d: %w", i, err)
		}
	}
	if err := c.perms.restore(&st.Perms); err != nil {
		return err
	}
	copy(c.owner, st.Owner)
	copy(c.alloc, st.Alloc)
	c.rng = st.RNG
	if st.LastTouch != nil {
		copy(c.lastTouch, st.LastTouch)
	}
	c.lastNow = st.LastNow
	for i := range c.donors {
		ds := &c.donors[i]
		d := &st.Donors[i]
		if len(d.Bits) != len(ds.bits.words) {
			return fmt.Errorf("core: donor %d snapshot bit vector has %d words, scheme has %d",
				i, len(d.Bits), len(ds.bits.words))
		}
		ds.active = d.Active
		ds.start = d.Start
		copy(ds.bits.words, d.Bits)
		count := 0
		for _, w := range ds.bits.words {
			count += bits.OnesCount64(w)
		}
		ds.bits.count = count
		ds.transfers = ds.transfers[:0]
		for _, t := range d.Transfers {
			ds.transfers = append(ds.transfers, transfer{way: t.Way, recipient: t.Recipient})
		}
	}
	return nil
}
