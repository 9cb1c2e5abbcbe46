package core

// Drowsy extension (Section 6 of the paper): Kedzierski et al.'s
// power-aware partitioning keeps idle lines in a state-preserving
// low-voltage "drowsy" mode, and the paper notes the technique is
// complementary — "the drowsy scheme can also be implemented in our
// cache to offer further energy reductions". This file implements that
// extension at way granularity on top of Cooperative Partitioning:
//
//   - a way whose data array has not been touched for drowsyWindow
//     cycles drops to drowsy voltage (leakage scaled by drowsyFactor,
//     contents preserved — unlike the gated-Vdd power-off of
//     unallocated ways, which loses state);
//   - the next data access to a drowsy way pays drowsyWakePenalty
//     cycles to restore full voltage;
//   - tag arrays stay awake, so lookups are unaffected (the standard
//     drowsy-cache design point).
//
// The extension is VariantDrowsy and changes neither allocations nor
// takeover behaviour — only the static-power accounting and a small
// wake latency.

// The extension's literature-typical constants.
const (
	// drowsyWindow is the idle time, in cycles, after which a way's
	// data array goes drowsy.
	drowsyWindow = 4000
	// drowsyFactor is a drowsy way's leakage relative to full voltage
	// (~0.25 at 45nm).
	drowsyFactor = 0.25
	// drowsyWakePenalty is the extra access latency to wake a drowsy
	// way.
	drowsyWakePenalty = 1
)

// wakeWay records a data-array touch on way at time now and returns
// the wake penalty if the way was drowsy.
func (c *CoopPart) wakeWay(way int, now int64) int64 {
	if c.v != VariantDrowsy || way < 0 {
		return 0
	}
	var penalty int64
	if now-c.lastTouch[way] > drowsyWindow {
		penalty = drowsyWakePenalty
	}
	c.lastTouch[way] = now
	return penalty
}

// IsDrowsy reports whether way's data array is drowsy at time now.
func (c *CoopPart) IsDrowsy(way int, now int64) bool {
	if c.v != VariantDrowsy || c.perms.IsOff(way) {
		return false
	}
	return now-c.lastTouch[way] > drowsyWindow
}

// drowsyPoweredEquiv returns powered way-equivalents with drowsy ways
// weighted by the drowsy leakage factor.
func (c *CoopPart) drowsyPoweredEquiv(now int64) float64 {
	var eq float64
	for w := 0; w < c.perms.Ways(); w++ {
		switch {
		case c.perms.IsOff(w):
			// gated: counted by the meter's gated-leak residual
		case c.IsDrowsy(w, now):
			eq += drowsyFactor
		default:
			eq++
		}
	}
	return eq
}
