package experiments

import (
	"fmt"

	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/workload"
)

// schemeSeries runs every group under every scheme and returns one
// series per scheme of value(results) normalised to the FairShare run
// of the same group, with the paper's AVG (geometric mean) appended.
func (r *Runner) schemeSeries(cores int, id, title, ylabel string, speedup bool,
	value func(*Runner, *sim.Results) (float64, error)) (metrics.Figure, error) {

	groups, err := groupsFor(cores)
	if err != nil {
		return metrics.Figure{}, err
	}
	// Fan every (group, scheme) run — and, for the weighted-speedup
	// figures, the solo runs Equation 1 needs — out over the worker
	// pool; the serial collection below then hits the warm memo.
	if err := r.runAll(r.crossRequests(groups, sim.AllSchemes), speedup); err != nil {
		return metrics.Figure{}, err
	}
	fig := metrics.Figure{ID: id, Title: title, YLabel: ylabel, XLabel: "group"}
	for _, g := range groups {
		fig.X = append(fig.X, g.Name)
	}

	base := make([]float64, len(groups))
	for i, g := range groups {
		res, err := r.RunGroup(g, sim.FairShare)
		if err != nil {
			return metrics.Figure{}, err
		}
		if base[i], err = value(r, res); err != nil {
			return metrics.Figure{}, err
		}
	}

	for _, scheme := range sim.AllSchemes {
		vals := make([]float64, len(groups))
		for i, g := range groups {
			res, err := r.RunGroup(g, scheme)
			if err != nil {
				return metrics.Figure{}, err
			}
			v, err := value(r, res)
			if err != nil {
				return metrics.Figure{}, err
			}
			if base[i] == 0 {
				return metrics.Figure{}, fmt.Errorf("%s: zero FairShare baseline for %s", id, g.Name)
			}
			vals[i] = v / base[i]
		}
		fig.Series = append(fig.Series, metrics.NamedSeries{Name: string(scheme), Values: vals})
	}
	fig.AppendGeoMeanColumn("AVG")
	return fig, nil
}

// wsValue is the weighted-speedup metric (Equation 1).
func wsValue(r *Runner, res *sim.Results) (float64, error) { return r.WeightedSpeedup(res) }

// dynValue is the LLC dynamic energy.
func dynValue(_ *Runner, res *sim.Results) (float64, error) { return res.Dynamic, nil }

// statValue is the LLC static energy.
func statValue(_ *Runner, res *sim.Results) (float64, error) { return res.StaticPower, nil }

// Fig5 is the weighted speedup of the two-application workloads,
// normalised to Fair Share.
func (r *Runner) Fig5() (metrics.Figure, error) {
	return r.schemeSeries(2, "Fig5",
		"Weighted speedup of two-application workloads",
		"weighted speedup normalised to Fair Share", true, wsValue)
}

// Fig6 is the dynamic energy of the two-application workloads.
func (r *Runner) Fig6() (metrics.Figure, error) {
	return r.schemeSeries(2, "Fig6",
		"Dynamic energy consumption of the two-application workloads",
		"dynamic energy normalised to Fair Share", false, dynValue)
}

// Fig7 is the static energy of the two-application workloads.
func (r *Runner) Fig7() (metrics.Figure, error) {
	return r.schemeSeries(2, "Fig7",
		"Static energy consumption of the two-application workloads",
		"static energy normalised to Fair Share", false, statValue)
}

// Fig8 is the weighted speedup of the four-application workloads.
func (r *Runner) Fig8() (metrics.Figure, error) {
	return r.schemeSeries(4, "Fig8",
		"Weighted speedup of the four-application workloads",
		"weighted speedup normalised to Fair Share", true, wsValue)
}

// Fig9 is the dynamic energy of the four-application workloads.
func (r *Runner) Fig9() (metrics.Figure, error) {
	return r.schemeSeries(4, "Fig9",
		"Dynamic energy consumption of the four-application workloads",
		"dynamic energy normalised to Fair Share", false, dynValue)
}

// Fig10 is the static energy of the four-application workloads.
func (r *Runner) Fig10() (metrics.Figure, error) {
	return r.schemeSeries(4, "Fig10",
		"Static energy consumption of the four-application workloads",
		"static energy normalised to Fair Share", false, statValue)
}

// thresholdSeries runs CoopPart at every threshold of Figures 11-13 on
// the two-core groups and normalises each group's metric to the T=0
// run.
func (r *Runner) thresholdSeries(id, title, ylabel string, speedup bool,
	value func(*Runner, *sim.Results) (float64, error)) (metrics.Figure, error) {

	groups := workload.Groups2
	var reqs []request
	for _, T := range Thresholds {
		for _, g := range groups {
			reqs = append(reqs, request{Group: g, Scheme: sim.CoopPart, Threshold: T})
		}
	}
	if err := r.runAll(reqs, speedup); err != nil {
		return metrics.Figure{}, err
	}
	fig := metrics.Figure{ID: id, Title: title, YLabel: ylabel, XLabel: "group"}
	for _, g := range groups {
		fig.X = append(fig.X, g.Name)
	}

	base := make([]float64, len(groups))
	for i, g := range groups {
		res, err := r.RunGroupVariant(g, sim.CoopPart, 0, VariantNone)
		if err != nil {
			return metrics.Figure{}, err
		}
		if base[i], err = value(r, res); err != nil {
			return metrics.Figure{}, err
		}
	}
	for _, T := range Thresholds {
		vals := make([]float64, len(groups))
		for i, g := range groups {
			res, err := r.RunGroupVariant(g, sim.CoopPart, T, VariantNone)
			if err != nil {
				return metrics.Figure{}, err
			}
			v, err := value(r, res)
			if err != nil {
				return metrics.Figure{}, err
			}
			if base[i] == 0 {
				return metrics.Figure{}, fmt.Errorf("%s: zero T=0 baseline for %s", id, g.Name)
			}
			vals[i] = v / base[i]
		}
		fig.Series = append(fig.Series, metrics.NamedSeries{
			Name: fmt.Sprintf("T=%.2f", T), Values: vals})
	}
	fig.AppendGeoMeanColumn("AVG")
	return fig, nil
}

// Fig11 is the takeover-threshold sweep's performance impact.
func (r *Runner) Fig11() (metrics.Figure, error) {
	return r.thresholdSeries("Fig11",
		"Impact of the takeover threshold value on performance",
		"weighted speedup normalised to T=0", true, wsValue)
}

// Fig12 is the takeover-threshold sweep's dynamic-energy impact.
func (r *Runner) Fig12() (metrics.Figure, error) {
	return r.thresholdSeries("Fig12",
		"Impact of the takeover threshold value on dynamic energy",
		"dynamic energy normalised to T=0", false, dynValue)
}

// Fig13 is the takeover-threshold sweep's static-energy impact.
func (r *Runner) Fig13() (metrics.Figure, error) {
	return r.thresholdSeries("Fig13",
		"Impact of the takeover threshold value on static energy",
		"static energy normalised to T=0", false, statValue)
}

// Fig14 is the breakdown of events that set takeover bits during way
// transfers, as fractions per group (stacking to 1).
func (r *Runner) Fig14() (metrics.Figure, error) {
	groups := workload.Groups2
	if err := r.Prefetch(groups, []sim.SchemeKind{sim.CoopPart}); err != nil {
		return metrics.Figure{}, err
	}
	fig := metrics.Figure{
		ID:     "Fig14",
		Title:  "Events that set takeover bits when transferring ways between cores",
		YLabel: "fraction of events",
		XLabel: "group",
	}
	classes := []string{"RecipientMisses", "RecipientHits", "DonorMisses", "DonorHits"}
	vals := make(map[string][]float64, len(classes))
	for _, g := range groups {
		res, err := r.RunGroup(g, sim.CoopPart)
		if err != nil {
			return metrics.Figure{}, err
		}
		fig.X = append(fig.X, g.Name)
		tr := res.Transition
		total := float64(tr.TakeoverEventTotal())
		frac := func(v uint64) float64 {
			if total == 0 {
				return 0
			}
			return float64(v) / total
		}
		vals["RecipientMisses"] = append(vals["RecipientMisses"], frac(tr.RecipientMisses))
		vals["RecipientHits"] = append(vals["RecipientHits"], frac(tr.RecipientHits))
		vals["DonorMisses"] = append(vals["DonorMisses"], frac(tr.DonorMisses))
		vals["DonorHits"] = append(vals["DonorHits"], frac(tr.DonorHits))
	}
	// The AVG bar averages only the groups whose runs actually moved
	// ways between cores (groups without core-to-core transfers have no
	// events to classify).
	for _, c := range classes {
		var withEvents []float64
		for i := range groups {
			var sum float64
			for _, cls := range classes {
				sum += vals[cls][i]
			}
			if sum > 0 {
				withEvents = append(withEvents, vals[c][i])
			}
		}
		fig.Series = append(fig.Series, metrics.NamedSeries{
			Name: c, Values: append(vals[c], metrics.Mean(withEvents))})
	}
	fig.X = append(fig.X, "AVG")
	return fig, nil
}

// Fig15 is the average number of cycles needed to transfer a way, UCP
// versus Cooperative Partitioning.
func (r *Runner) Fig15() (metrics.Figure, error) {
	groups := workload.Groups2
	if err := r.Prefetch(groups, []sim.SchemeKind{sim.UCP, sim.CoopPart}); err != nil {
		return metrics.Figure{}, err
	}
	fig := metrics.Figure{
		ID:     "Fig15",
		Title:  "Cycles taken to transfer a way",
		YLabel: "cycles per way transfer",
		XLabel: "group",
	}
	var ucp, coop []float64
	for _, g := range groups {
		fig.X = append(fig.X, g.Name)
		ru, err := r.RunGroup(g, sim.UCP)
		if err != nil {
			return metrics.Figure{}, err
		}
		rc, err := r.RunGroup(g, sim.CoopPart)
		if err != nil {
			return metrics.Figure{}, err
		}
		ucp = append(ucp, ru.Transition.AvgTransferCycles())
		coop = append(coop, rc.Transition.AvgTransferCycles())
	}
	// Groups whose runs completed no transfer report 0 and are skipped
	// by the average.
	fig.Series = []metrics.NamedSeries{
		{Name: "UCP", Values: append(ucp, metrics.MeanNonZero(ucp))},
		{Name: "CoopPart", Values: append(coop, metrics.MeanNonZero(coop))},
	}
	fig.X = append(fig.X, "AVG")
	return fig, nil
}

// Fig16 is the LLC-to-memory flush bandwidth over time after a
// partitioning decision, averaged per repartition across the two-core
// groups.
func (r *Runner) Fig16() (metrics.Figure, error) {
	groups := workload.Groups2
	if err := r.Prefetch(groups, []sim.SchemeKind{sim.UCP, sim.CoopPart}); err != nil {
		return metrics.Figure{}, err
	}
	var ucpTL, coopTL []float64
	var ucpReps, coopReps uint64
	var bucket int64
	for _, g := range groups {
		ru, err := r.RunGroup(g, sim.UCP)
		if err != nil {
			return metrics.Figure{}, err
		}
		rc, err := r.RunGroup(g, sim.CoopPart)
		if err != nil {
			return metrics.Figure{}, err
		}
		bucket = rc.Transition.TimelineBucket
		if ucpTL == nil {
			ucpTL = make([]float64, len(ru.Transition.Timeline))
			coopTL = make([]float64, len(rc.Transition.Timeline))
		}
		for i, v := range ru.Transition.Timeline {
			ucpTL[i] += float64(v)
		}
		for i, v := range rc.Transition.Timeline {
			coopTL[i] += float64(v)
		}
		ucpReps += ru.SchemeStats.Repartitions
		coopReps += rc.SchemeStats.Repartitions
	}
	if ucpReps > 0 {
		for i := range ucpTL {
			ucpTL[i] /= float64(ucpReps)
		}
	}
	if coopReps > 0 {
		for i := range coopTL {
			coopTL[i] /= float64(coopReps)
		}
	}
	fig := metrics.Figure{
		ID:     "Fig16",
		Title:  "LLC to memory bandwidth usage for flushing data after a partitioning decision",
		YLabel: "lines flushed per repartition",
		XLabel: "cycles since decision",
	}
	for i := range ucpTL {
		fig.X = append(fig.X, fmt.Sprintf("%d", int64(i)*bucket))
	}
	fig.Series = []metrics.NamedSeries{
		{Name: "UCP", Values: ucpTL},
		{Name: "CoopPart", Values: coopTL},
	}
	return fig, nil
}

// Figure dispatches by number (5-16).
func (r *Runner) Figure(n int) (metrics.Figure, error) {
	switch n {
	case 5:
		return r.Fig5()
	case 6:
		return r.Fig6()
	case 7:
		return r.Fig7()
	case 8:
		return r.Fig8()
	case 9:
		return r.Fig9()
	case 10:
		return r.Fig10()
	case 11:
		return r.Fig11()
	case 12:
		return r.Fig12()
	case 13:
		return r.Fig13()
	case 14:
		return r.Fig14()
	case 15:
		return r.Fig15()
	case 16:
		return r.Fig16()
	default:
		return metrics.Figure{}, fmt.Errorf("experiments: no figure %d (5-16 are data figures)", n)
	}
}
