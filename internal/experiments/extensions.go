package experiments

import (
	"math"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/workload"
)

// This file implements the paper's forward-looking extensions:
//
//   - ExtDrowsy: Section 6 notes that a drowsy cache (Kedzierski et
//     al.) "can also be implemented in our cache to offer further
//     energy reductions" — measured here by running Cooperative
//     Partitioning with and without the drowsy extension.
//   - Headroom: the conclusion observes that the energy savings "create
//     additional headroom in the processor's thermal design power",
//     which could buy higher clock rates. Headroom quantifies that:
//     with dynamic power scaling as f*V^2 and voltage tracking
//     frequency, power goes as f^3, so an LLC power saving fraction s
//     of the chip budget permits a frequency uplift of
//     (1/(1-s))^(1/3) - 1.

// ExtDrowsy compares Cooperative Partitioning's static power and
// performance with and without the drowsy extension, normalised to the
// plain scheme.
func (r *Runner) ExtDrowsy() (metrics.Figure, error) {
	plain := request{Scheme: sim.CoopPart, Threshold: r.cfg.Threshold}
	drowsy := request{Scheme: sim.CoopPart, Threshold: r.cfg.Threshold, Variant: core.VariantDrowsy}
	return r.groupFigure(metrics.Figure{ID: "ExtDrowsy",
		Title:  "Cooperative Partitioning + drowsy ways: static power vs plain CP",
		YLabel: "static power normalised to plain CoopPart"},
		workload.Groups2, []column{
			{"StaticPower", drowsy, &plain, staticPower},
			{"Performance", drowsy, &plain, weightedSpeedup},
		}, metrics.GeoMean)
}

// HeadroomRow is one workload's thermal-headroom estimate.
type HeadroomRow struct {
	Group string
	// SavedFraction is Cooperative Partitioning's total (dynamic +
	// static) LLC energy saving versus Fair Share, scaled by
	// LLCShareOfChip to a whole-chip fraction.
	SavedFraction float64
	// FreqUplift is the permissible clock increase at equal power,
	// assuming cubic power-frequency scaling.
	FreqUplift float64
}

// LLCShareOfChip is the assumed share of total chip power attributable
// to the LLC (the paper's motivation: the LLC is "responsible for a
// significant fraction of the total processor power budget").
const LLCShareOfChip = 0.20

// Headroom estimates, per two-core workload, how much clock-frequency
// headroom Cooperative Partitioning's energy savings create.
func (r *Runner) Headroom() ([]HeadroomRow, error) {
	if err := r.Prefetch(workload.Groups2, []sim.SchemeKind{sim.FairShare, sim.CoopPart}); err != nil {
		return nil, err
	}
	var rows []HeadroomRow
	for _, g := range workload.Groups2 {
		fair, err := r.RunGroup(g, sim.FairShare)
		if err != nil {
			return nil, err
		}
		coop, err := r.RunGroup(g, sim.CoopPart)
		if err != nil {
			return nil, err
		}
		fairTotal := fair.Dynamic + fair.Static
		coopTotal := coop.Dynamic + coop.Static
		if fairTotal <= 0 {
			continue
		}
		saved := (1 - coopTotal/fairTotal) * LLCShareOfChip
		if saved < 0 {
			saved = 0
		}
		uplift := math.Pow(1/(1-saved), 1.0/3.0) - 1
		rows = append(rows, HeadroomRow{Group: g.Name, SavedFraction: saved, FreqUplift: uplift})
	}
	return rows, nil
}
