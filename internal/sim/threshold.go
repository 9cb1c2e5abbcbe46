package sim

// DefaultThreshold is the paper's operating point for Cooperative
// Partitioning's T parameter (Section 5.1), shared by Dynamic CPE's
// profile-driven allocator.
const DefaultThreshold = 0.05

// explicitZeroThreshold is the RunConfig.Threshold sentinel for "the
// caller asked for T exactly 0". RunConfig follows the Go convention
// that the zero value selects the default, so a literal 0 cannot mean
// "no threshold"; EncodeThreshold and DecodeThreshold are the only two
// places that know about the sentinel.
const explicitZeroThreshold = -1

// EncodeThreshold maps a user-facing threshold (>= 0, where 0 really
// means zero, as in the T sweep of Figures 11-13) to its
// RunConfig.Threshold encoding.
func EncodeThreshold(t float64) float64 {
	if t == 0 {
		return explicitZeroThreshold
	}
	return t
}

// DecodeThreshold maps an encoded threshold back to the user-facing
// value: an unset (zero) value selects the paper's default, and the
// explicit-zero sentinel decodes to 0.
func DecodeThreshold(t float64) float64 {
	switch {
	case t == 0:
		return DefaultThreshold
	case t < 0:
		return 0
	}
	return t
}

// effectiveThreshold resolves an encoded RunConfig.Threshold for a
// scheme: only the schemes that use a threshold get the default for an
// unset value.
func effectiveThreshold(t float64, scheme SchemeKind) float64 {
	if t == 0 && scheme != CoopPart && scheme != DynCPE {
		return 0
	}
	return DecodeThreshold(t)
}
