package experiments

import (
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/workload"
)

// This file implements the ablation studies of DESIGN.md §7 — the
// design choices the paper calls out, each isolated against the full
// Cooperative Partitioning scheme on the two-core workloads. Ablated
// arms run through RunGroupVariant, so they are memoised (the report
// binary regenerates several ablations from one runner) and fan out
// across the worker pool like every other run.

// AblationVictim quantifies the cost of way-aligned victim selection
// (Section 2.5): Cooperative Partitioning must place fills within the
// owner's ways, while UCP may victimise any block in the set. Both run
// with all ways allocated (threshold 0) so only the placement freedom
// differs. The paper reports a negligible difference.
func (r *Runner) AblationVictim() (metrics.Figure, error) {
	err := r.runPairs(workload.Groups2, true,
		request{Scheme: sim.UCP, Threshold: r.cfg.Threshold},
		request{Scheme: sim.CoopPart, Threshold: 0})
	if err != nil {
		return metrics.Figure{}, err
	}
	fig := metrics.Figure{
		ID:     "AblationVictim",
		Title:  "Way-aligned victim choice (CoopPart, T=0) vs free per-set choice (UCP)",
		YLabel: "weighted speedup",
		XLabel: "group",
	}
	var free, aligned []float64
	for _, g := range workload.Groups2 {
		fig.X = append(fig.X, g.Name)
		ucp, err := r.RunGroup(g, sim.UCP)
		if err != nil {
			return metrics.Figure{}, err
		}
		cp0, err := r.RunGroupVariant(g, sim.CoopPart, 0, core.VariantNone)
		if err != nil {
			return metrics.Figure{}, err
		}
		wsU, err := r.WeightedSpeedup(ucp)
		if err != nil {
			return metrics.Figure{}, err
		}
		wsC, err := r.WeightedSpeedup(cp0)
		if err != nil {
			return metrics.Figure{}, err
		}
		free = append(free, wsU)
		aligned = append(aligned, wsC)
	}
	fig.Series = []metrics.NamedSeries{
		{Name: "UCP(free)", Values: free},
		{Name: "CoopPart(aligned)", Values: aligned},
	}
	fig.AppendGeoMeanColumn("AVG")
	return fig, nil
}

// AblationTakeover isolates why cooperative takeover transfers ways
// quickly: the full scheme advances on every donor or recipient access,
// the ablated variant only on recipient misses (UCP-style convergence).
// The series report average cycles per way transfer.
func (r *Runner) AblationTakeover() (metrics.Figure, error) {
	// Both arms run at threshold 0 so every repartition is a pure
	// core-to-core transfer (turn-off periods have no recipient and
	// would bias the ablated arm: its slow transitions simply never
	// finish and drop out of the average).
	err := r.runPairs(workload.Groups2, false,
		request{Scheme: sim.CoopPart, Threshold: 0},
		request{Scheme: sim.CoopPart, Threshold: 0, Variant: core.VariantRecipientMissOnly})
	if err != nil {
		return metrics.Figure{}, err
	}
	fig := metrics.Figure{
		ID:     "AblationTakeover",
		Title:  "Takeover on all accesses vs recipient misses only",
		YLabel: "cycles per way transfer",
		XLabel: "group",
	}
	var full, missOnly []float64
	for _, g := range workload.Groups2 {
		fig.X = append(fig.X, g.Name)
		cp, err := r.RunGroupVariant(g, sim.CoopPart, 0, core.VariantNone)
		if err != nil {
			return metrics.Figure{}, err
		}
		ablated, err := r.RunGroupVariant(g, sim.CoopPart, 0, core.VariantRecipientMissOnly)
		if err != nil {
			return metrics.Figure{}, err
		}
		full = append(full, cp.Transition.AvgTransferCycles())
		missOnly = append(missOnly, ablated.Transition.AvgTransferCycles())
	}
	fig.Series = []metrics.NamedSeries{
		{Name: "AllAccesses", Values: append(full, metrics.MeanNonZero(full))},
		{Name: "RecipientMissOnly", Values: append(missOnly, metrics.MeanNonZero(missOnly))},
	}
	fig.X = append(fig.X, "AVG")
	return fig, nil
}

// AblationGating isolates the static-energy contribution of powering
// unallocated ways off: the ablated variant partitions identically but
// never gates.
func (r *Runner) AblationGating() (metrics.Figure, error) {
	err := r.runPairs(workload.Groups2, false,
		request{Scheme: sim.CoopPart, Threshold: r.cfg.Threshold},
		request{Scheme: sim.CoopPart, Threshold: r.cfg.Threshold, Variant: core.VariantNoGating})
	if err != nil {
		return metrics.Figure{}, err
	}
	fig := metrics.Figure{
		ID:     "AblationGating",
		Title:  "Static power with and without gated-Vdd way power-off",
		YLabel: "static power normalised to no gating",
		XLabel: "group",
	}
	var ratio []float64
	for _, g := range workload.Groups2 {
		fig.X = append(fig.X, g.Name)
		gated, err := r.RunGroup(g, sim.CoopPart)
		if err != nil {
			return metrics.Figure{}, err
		}
		ungated, err := r.RunGroupVariant(g, sim.CoopPart, r.cfg.Threshold, core.VariantNoGating)
		if err != nil {
			return metrics.Figure{}, err
		}
		ratio = append(ratio, gated.StaticPower/ungated.StaticPower)
	}
	fig.Series = []metrics.NamedSeries{{Name: "Gated/Ungated", Values: ratio}}
	fig.AppendGeoMeanColumn("AVG")
	return fig, nil
}

// AblationRandomVictim compares Cooperative Partitioning's LRU victim
// choice within a core's writable ways against a pseudo-random choice —
// Section 2.5's observation that way alignment makes the scheme
// "closer in performance to a random choice of replacement block".
func (r *Runner) AblationRandomVictim() (metrics.Figure, error) {
	err := r.runPairs(workload.Groups2, true,
		request{Scheme: sim.CoopPart, Threshold: r.cfg.Threshold},
		request{Scheme: sim.CoopPart, Threshold: r.cfg.Threshold, Variant: core.VariantRandomVictim})
	if err != nil {
		return metrics.Figure{}, err
	}
	fig := metrics.Figure{
		ID:     "AblationRandomVictim",
		Title:  "CoopPart fill victim: LRU vs random within the owner's ways",
		YLabel: "weighted speedup",
		XLabel: "group",
	}
	var lru, random []float64
	for _, g := range workload.Groups2 {
		fig.X = append(fig.X, g.Name)
		base, err := r.RunGroup(g, sim.CoopPart)
		if err != nil {
			return metrics.Figure{}, err
		}
		rnd, err := r.RunGroupVariant(g, sim.CoopPart, r.cfg.Threshold, core.VariantRandomVictim)
		if err != nil {
			return metrics.Figure{}, err
		}
		wsL, err := r.WeightedSpeedup(base)
		if err != nil {
			return metrics.Figure{}, err
		}
		wsR, err := r.WeightedSpeedup(rnd)
		if err != nil {
			return metrics.Figure{}, err
		}
		lru = append(lru, wsL)
		random = append(random, wsR)
	}
	fig.Series = []metrics.NamedSeries{
		{Name: "LRU", Values: lru},
		{Name: "Random", Values: random},
	}
	fig.AppendGeoMeanColumn("AVG")
	return fig, nil
}
