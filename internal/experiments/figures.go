package experiments

import (
	"fmt"
	"slices"

	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/workload"
)

// metric reads one value off a run. solo marks a metric that needs
// Equation 1's solo runs, so groupFigure's fan-out includes them.
type metric struct {
	value func(r *Runner, res *sim.Results) (float64, error)
	solo  bool
}

var (
	weightedSpeedup = &metric{solo: true,
		value: func(r *Runner, res *sim.Results) (float64, error) { return r.WeightedSpeedup(res) }}
	dynamicEnergy = &metric{
		value: func(_ *Runner, res *sim.Results) (float64, error) { return res.Dynamic, nil }}
	staticPower = &metric{
		value: func(_ *Runner, res *sim.Results) (float64, error) { return res.StaticPower, nil }}
	transferCycles = &metric{
		value: func(_ *Runner, res *sim.Results) (float64, error) { return res.Transition.AvgTransferCycles(), nil }}
)

// column is one series of a per-group figure: the metric of the run
// request names, divided by the baseline run's metric when there is a
// baseline. Neither request names a group; the builder fills it in.
type column struct {
	name     string
	request  request
	baseline *request
	metric   *metric
}

// groupFigure is the one builder of the per-group figures: it fans out
// every run the columns read, fills one value per column and group,
// and appends the AVG bar, avg of each series (metrics.GeoMean, or
// metrics.MeanNonZero for the transfer-cycle figures).
func (r *Runner) groupFigure(fig metrics.Figure, groups []workload.Group, cols []column,
	avg func([]float64) float64) (metrics.Figure, error) {

	// Each run is listed once: a duplicate task would park a worker on
	// the in-flight original. Runs of different groups never coincide.
	reqs := make([]request, 0, len(groups)*(len(cols)+1))
	solo := false
	for _, g := range groups {
		first := len(reqs)
		for i := range cols {
			c := &cols[i]
			solo = solo || c.metric.solo
			for _, q := range []*request{&c.request, c.baseline} {
				if q == nil || slices.ContainsFunc(reqs[first:], func(o request) bool {
					return o.Scheme == q.Scheme && o.Threshold == q.Threshold && o.Variant == q.Variant
				}) {
					continue
				}
				run := *q
				run.Group = g
				reqs = append(reqs, run)
			}
		}
	}
	if err := r.runAll(reqs, solo); err != nil {
		return metrics.Figure{}, err
	}

	value := func(q request, g workload.Group, m *metric) (float64, error) {
		res, err := r.RunGroupVariant(g, q.Scheme, q.Threshold, q.Variant)
		if err != nil {
			return 0, err
		}
		return m.value(r, res)
	}
	// Columns that share a baseline point at one request (all of Figs
	// 5-13's do); its metric is read once per group.
	type baseRead struct {
		baseline *request
		metric   *metric
		group    int
	}
	bases := make(map[baseRead]float64)
	fig.XLabel = "group"
	for _, g := range groups {
		fig.X = append(fig.X, g.Name)
	}
	for _, c := range cols {
		vals := make([]float64, 0, len(groups)+1)
		for i, g := range groups {
			v, err := value(c.request, g, c.metric)
			if err != nil {
				return metrics.Figure{}, err
			}
			if c.baseline != nil {
				k := baseRead{c.baseline, c.metric, i}
				base, ok := bases[k]
				if !ok {
					if base, err = value(*c.baseline, g, c.metric); err != nil {
						return metrics.Figure{}, err
					}
					bases[k] = base
				}
				if base == 0 {
					return metrics.Figure{}, fmt.Errorf("%s: zero baseline for %s on %s", fig.ID, c.name, g.Name)
				}
				v /= base
			}
			vals = append(vals, v)
		}
		fig.Series = append(fig.Series, metrics.NamedSeries{Name: c.name, Values: append(vals, avg(vals))})
	}
	fig.X = append(fig.X, "AVG")
	return fig, nil
}

// schemeColumns are the series of Figures 5-10: every scheme's metric
// normalised to the Fair Share run of the same group.
func (r *Runner) schemeColumns(m *metric) []column {
	fair := request{Scheme: sim.FairShare, Threshold: r.cfg.Threshold}
	var cols []column
	for _, s := range sim.AllSchemes {
		cols = append(cols, column{string(s), request{Scheme: s, Threshold: r.cfg.Threshold}, &fair, m})
	}
	return cols
}

// Fig5 is the weighted speedup of the two-application workloads,
// normalised to Fair Share.
func (r *Runner) Fig5() (metrics.Figure, error) {
	return r.groupFigure(metrics.Figure{ID: "Fig5",
		Title:  "Weighted speedup of two-application workloads",
		YLabel: "weighted speedup normalised to Fair Share"},
		workload.Groups2, r.schemeColumns(weightedSpeedup), metrics.GeoMean)
}

// Fig6 is the dynamic energy of the two-application workloads.
func (r *Runner) Fig6() (metrics.Figure, error) {
	return r.groupFigure(metrics.Figure{ID: "Fig6",
		Title:  "Dynamic energy consumption of the two-application workloads",
		YLabel: "dynamic energy normalised to Fair Share"},
		workload.Groups2, r.schemeColumns(dynamicEnergy), metrics.GeoMean)
}

// Fig7 is the static energy of the two-application workloads.
func (r *Runner) Fig7() (metrics.Figure, error) {
	return r.groupFigure(metrics.Figure{ID: "Fig7",
		Title:  "Static energy consumption of the two-application workloads",
		YLabel: "static energy normalised to Fair Share"},
		workload.Groups2, r.schemeColumns(staticPower), metrics.GeoMean)
}

// Fig8 is the weighted speedup of the four-application workloads.
func (r *Runner) Fig8() (metrics.Figure, error) {
	return r.groupFigure(metrics.Figure{ID: "Fig8",
		Title:  "Weighted speedup of the four-application workloads",
		YLabel: "weighted speedup normalised to Fair Share"},
		workload.Groups4, r.schemeColumns(weightedSpeedup), metrics.GeoMean)
}

// Fig9 is the dynamic energy of the four-application workloads.
func (r *Runner) Fig9() (metrics.Figure, error) {
	return r.groupFigure(metrics.Figure{ID: "Fig9",
		Title:  "Dynamic energy consumption of the four-application workloads",
		YLabel: "dynamic energy normalised to Fair Share"},
		workload.Groups4, r.schemeColumns(dynamicEnergy), metrics.GeoMean)
}

// Fig10 is the static energy of the four-application workloads.
func (r *Runner) Fig10() (metrics.Figure, error) {
	return r.groupFigure(metrics.Figure{ID: "Fig10",
		Title:  "Static energy consumption of the four-application workloads",
		YLabel: "static energy normalised to Fair Share"},
		workload.Groups4, r.schemeColumns(staticPower), metrics.GeoMean)
}

// thresholdColumns are the series of Figures 11-13: CoopPart at every
// threshold of the sweep, normalised to its T=0 run on the same group.
func thresholdColumns(m *metric) []column {
	zero := request{Scheme: sim.CoopPart}
	var cols []column
	for _, T := range Thresholds {
		cols = append(cols, column{fmt.Sprintf("T=%.2f", T), request{Scheme: sim.CoopPart, Threshold: T}, &zero, m})
	}
	return cols
}

// Fig11 is the takeover-threshold sweep's performance impact.
func (r *Runner) Fig11() (metrics.Figure, error) {
	return r.groupFigure(metrics.Figure{ID: "Fig11",
		Title:  "Impact of the takeover threshold value on performance",
		YLabel: "weighted speedup normalised to T=0"},
		workload.Groups2, thresholdColumns(weightedSpeedup), metrics.GeoMean)
}

// Fig12 is the takeover-threshold sweep's dynamic-energy impact.
func (r *Runner) Fig12() (metrics.Figure, error) {
	return r.groupFigure(metrics.Figure{ID: "Fig12",
		Title:  "Impact of the takeover threshold value on dynamic energy",
		YLabel: "dynamic energy normalised to T=0"},
		workload.Groups2, thresholdColumns(dynamicEnergy), metrics.GeoMean)
}

// Fig13 is the takeover-threshold sweep's static-energy impact.
func (r *Runner) Fig13() (metrics.Figure, error) {
	return r.groupFigure(metrics.Figure{ID: "Fig13",
		Title:  "Impact of the takeover threshold value on static energy",
		YLabel: "static energy normalised to T=0"},
		workload.Groups2, thresholdColumns(staticPower), metrics.GeoMean)
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
// versus Cooperative Partitioning. Groups whose runs completed no
// transfer report 0 and are skipped by the average.
func (r *Runner) Fig15() (metrics.Figure, error) {
	return r.groupFigure(metrics.Figure{ID: "Fig15",
		Title:  "Cycles taken to transfer a way",
		YLabel: "cycles per way transfer"},
		workload.Groups2, []column{
			{name: "UCP", request: request{Scheme: sim.UCP, Threshold: r.cfg.Threshold}, metric: transferCycles},
			{name: "CoopPart", request: request{Scheme: sim.CoopPart, Threshold: r.cfg.Threshold}, metric: transferCycles},
		}, metrics.MeanNonZero)
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
