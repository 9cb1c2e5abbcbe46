package experiments

import (
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/workload"
)

// This file implements the ablation studies of DESIGN.md §7 — the
// design choices the paper calls out, each isolated against the full
// Cooperative Partitioning scheme on the two-core workloads. Each is a
// list of columns on the per-group figure builder, so its runs are
// memoised (the report binary regenerates several ablations from one
// runner) and fan out across the worker pool like every other run.

// AblationVictim quantifies the cost of way-aligned victim selection
// (Section 2.5): Cooperative Partitioning must place fills within the
// owner's ways, while UCP may victimise any block in the set. Both run
// with all ways allocated (threshold 0) so only the placement freedom
// differs. The paper reports a negligible difference.
func (r *Runner) AblationVictim() (metrics.Figure, error) {
	return r.groupFigure(metrics.Figure{ID: "AblationVictim",
		Title:  "Way-aligned victim choice (CoopPart, T=0) vs free per-set choice (UCP)",
		YLabel: "weighted speedup"},
		workload.Groups2, []column{
			{name: "UCP(free)", request: request{Scheme: sim.UCP, Threshold: r.cfg.Threshold}, metric: weightedSpeedup},
			{name: "CoopPart(aligned)", request: request{Scheme: sim.CoopPart}, metric: weightedSpeedup},
		}, metrics.GeoMean)
}

// AblationTakeover isolates why cooperative takeover transfers ways
// quickly: the full scheme advances on every donor or recipient access,
// the ablated variant only on recipient misses (UCP-style convergence).
// The series report average cycles per way transfer. Both arms run at
// threshold 0 so every repartition is a pure core-to-core transfer
// (turn-off periods have no recipient and would bias the ablated arm:
// its slow transitions simply never finish and drop out of the
// average).
func (r *Runner) AblationTakeover() (metrics.Figure, error) {
	return r.groupFigure(metrics.Figure{ID: "AblationTakeover",
		Title:  "Takeover on all accesses vs recipient misses only",
		YLabel: "cycles per way transfer"},
		workload.Groups2, []column{
			{name: "AllAccesses", request: request{Scheme: sim.CoopPart}, metric: transferCycles},
			{name: "RecipientMissOnly", metric: transferCycles,
				request: request{Scheme: sim.CoopPart, Variant: core.VariantRecipientMissOnly}},
		}, metrics.MeanNonZero)
}

// AblationGating isolates the static-energy contribution of powering
// unallocated ways off: the ablated variant partitions identically but
// never gates.
func (r *Runner) AblationGating() (metrics.Figure, error) {
	T := r.cfg.Threshold
	return r.groupFigure(metrics.Figure{ID: "AblationGating",
		Title:  "Static power with and without gated-Vdd way power-off",
		YLabel: "static power normalised to no gating"},
		workload.Groups2, []column{
			{name: "Gated/Ungated", request: request{Scheme: sim.CoopPart, Threshold: T}, metric: staticPower,
				baseline: &request{Scheme: sim.CoopPart, Threshold: T, Variant: core.VariantNoGating}},
		}, metrics.GeoMean)
}

// AblationRandomVictim compares Cooperative Partitioning's LRU victim
// choice within a core's writable ways against a pseudo-random choice —
// Section 2.5's observation that way alignment makes the scheme
// "closer in performance to a random choice of replacement block".
func (r *Runner) AblationRandomVictim() (metrics.Figure, error) {
	T := r.cfg.Threshold
	return r.groupFigure(metrics.Figure{ID: "AblationRandomVictim",
		Title:  "CoopPart fill victim: LRU vs random within the owner's ways",
		YLabel: "weighted speedup"},
		workload.Groups2, []column{
			{name: "LRU", request: request{Scheme: sim.CoopPart, Threshold: T}, metric: weightedSpeedup},
			{name: "Random", metric: weightedSpeedup,
				request: request{Scheme: sim.CoopPart, Threshold: T, Variant: core.VariantRandomVictim}},
		}, metrics.GeoMean)
}
