package core

// Overhead is the hardware cost of Cooperative Partitioning (Table 1):
// one takeover bit vector per core (one bit per set), plus per-way RAP
// and WAP registers with one bit per core.
type Overhead struct {
	Sets  int
	Ways  int
	Cores int
}

// TakeoverBits returns the takeover bit-vector cost: sets * cores.
func (o Overhead) TakeoverBits() int { return o.Sets * o.Cores }

// RAPBits returns the read-access-permission register cost.
func (o Overhead) RAPBits() int { return o.Ways * o.Cores }

// WAPBits returns the write-access-permission register cost.
func (o Overhead) WAPBits() int { return o.Ways * o.Cores }

// TotalBits sums all storage.
func (o Overhead) TotalBits() int { return o.TakeoverBits() + o.RAPBits() + o.WAPBits() }

// PaperTable1 reproduces the published Table 1 rows. The paper counts
// 2048 sets for both caches (2048*2 and 2048*4 takeover bits); note
// that a 2MB/8-way/64B cache actually has 4096 sets — the published
// table appears to assume one takeover bit per pair of sets (or a
// 2048-set L2). Both variants are returned so the discrepancy is
// visible: the first entry uses the paper's 2048 sets, the second the
// geometric set count.
func PaperTable1(cores, ways, geometricSets int) (published, computed Overhead) {
	published = Overhead{Sets: 2048, Ways: ways, Cores: cores}
	computed = Overhead{Sets: geometricSets, Ways: ways, Cores: cores}
	return published, computed
}
