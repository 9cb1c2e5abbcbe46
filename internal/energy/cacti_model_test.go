package energy

// A geometry model of the per-event energy constants, standing in for
// the authors' use of CACTI 5.1 at 45nm (Section 3.1). The model
// follows CACTI's first-order structure — access energy is dominated
// by bitline + wordline switching, which grows with the square root of
// the array area, and leakage grows linearly with stored bits —
// without reproducing its circuit-level detail. Only energy *ratios*
// enter the paper's normalised figures. The simulator charges
// DefaultParams; this model lives under test to tie those constants to
// geometry (tag vs data array width, ways, line size):
// TestFromGeometryAnchoredToDefaults pins that the paper's two-core LLC
// reproduces them.

import (
	"fmt"
	"math"
)

// Geometry describes one SRAM cache for energy derivation.
type Geometry struct {
	SizeBytes  int
	LineBytes  int
	Ways       int
	TagBits    int     // tag width per entry (address bits - index - offset)
	TechNM     float64 // feature size in nanometres (the paper uses 45)
	SerialMode bool    // serial tag-then-data access (LLC); false = parallel
}

// Validate reports geometry errors.
func (g Geometry) Validate() error {
	if g.SizeBytes <= 0 || g.LineBytes <= 0 || g.Ways <= 0 {
		return fmt.Errorf("energy: invalid geometry %+v", g)
	}
	if g.TagBits <= 0 || g.TagBits > 64 {
		return fmt.Errorf("energy: tag bits %d out of range", g.TagBits)
	}
	if g.TechNM <= 0 {
		return fmt.Errorf("energy: tech node %v", g.TechNM)
	}
	return nil
}

// referenceTech is the paper's process node; energies scale relative
// to it.
const referenceTech = 45.0

// FromGeometry derives a Params set for the given cache. The absolute
// scale is anchored so that a 2MB/8-way/64B cache at 45nm reproduces
// DefaultParams' tag-probe unit (1.0), keeping all committed results
// comparable.
func FromGeometry(g Geometry) (Params, error) {
	if err := g.Validate(); err != nil {
		return Params{}, err
	}
	sets := float64(g.SizeBytes / (g.LineBytes * g.Ways))
	// Dynamic energy per array access ~ sqrt(bits in the array)
	// (bitline length times wordline length both grow with the square
	// root of area), scaled quadratically with feature size.
	techScale := (g.TechNM / referenceTech) * (g.TechNM / referenceTech)
	tagArrayBits := sets * float64(g.TagBits+2) // +valid +dirty
	dataWayBits := sets * float64(g.LineBytes*8)

	// Anchor: one tag-way probe of the reference 2MB/8-way cache
	// (4096-set tag array) costs 1.0 units.
	refTagArray := math.Sqrt(4096 * float64(g.TagBits+2))
	tagRead := math.Sqrt(tagArrayBits) / refTagArray * techScale

	refDataArray := math.Sqrt(4096 * 64 * 8)
	dataRead := 8.0 * math.Sqrt(dataWayBits) / refDataArray * techScale
	dataWrite := dataRead * 9 / 8 // write drivers cost ~12% extra

	// Leakage per way per cycle ~ bits stored in the way, anchored to
	// DefaultParams at the reference geometry (4096-set way = 256KB).
	refWayBits := 4096.0 * (64*8 + float64(g.TagBits) + 2)
	wayBits := sets * (float64(g.LineBytes*8) + float64(g.TagBits) + 2)
	leak := 0.02 * wayBits / refWayBits * techScale

	p := DefaultParams()
	p.TagReadPerWay = tagRead
	p.DataRead = dataRead
	p.DataWrite = dataWrite
	p.LeakPerWayCyc = leak
	// Monitoring overheads scale with the tag probe (they are small
	// tag-like structures).
	p.UMONAccess = 0.2 * tagRead
	p.PermRegCheck = 0.01 * tagRead
	p.TakeoverBitOp = 0.02 * tagRead
	return p, nil
}

// PaperTwoCoreGeometry returns the 2MB/8-way LLC of Table 2 with a
// 40-bit physical address space.
func PaperTwoCoreGeometry() Geometry {
	return Geometry{
		SizeBytes: 2 << 20, LineBytes: 64, Ways: 8,
		TagBits: tagBitsFor(40, 2<<20, 64, 8), TechNM: 45, SerialMode: true,
	}
}

// PaperFourCoreGeometry returns the 4MB/16-way LLC of Table 2.
func PaperFourCoreGeometry() Geometry {
	return Geometry{
		SizeBytes: 4 << 20, LineBytes: 64, Ways: 16,
		TagBits: tagBitsFor(40, 4<<20, 64, 16), TechNM: 45, SerialMode: true,
	}
}

// tagBitsFor computes the tag width for a physical address width and
// cache geometry.
func tagBitsFor(addrBits, size, line, ways int) int {
	sets := size / (line * ways)
	idx := 0
	for s := sets; s > 1; s >>= 1 {
		idx++
	}
	off := 0
	for l := line; l > 1; l >>= 1 {
		off++
	}
	return addrBits - idx - off
}
