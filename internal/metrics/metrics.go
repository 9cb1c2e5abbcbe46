// Package metrics provides the statistics and formatting helpers the
// evaluation uses: geometric means (the paper's average), weighted
// speedup normalisation, and plain-text/CSV rendering of figure series.
package metrics

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// GeoMean returns the geometric mean of xs, the paper's average for
// normalised metrics. Non-positive values are rejected by returning 0.
func GeoMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		if x <= 0 {
			return 0
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// Mean returns the arithmetic mean of xs.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// NamedSeries is one labelled data series of a figure.
type NamedSeries struct {
	Name   string
	Values []float64
}

// Figure is a reproduced figure: X categories (workload groups, time
// buckets or threshold values) against one or more series.
type Figure struct {
	ID     string // "Fig5"
	Title  string
	YLabel string
	XLabel string
	X      []string
	Series []NamedSeries
}

// Validate checks internal consistency.
func (f Figure) Validate() error {
	for _, s := range f.Series {
		if len(s.Values) != len(f.X) {
			return fmt.Errorf("metrics: %s series %q has %d values for %d x-labels",
				f.ID, s.Name, len(s.Values), len(f.X))
		}
	}
	return nil
}

// Get returns the named series, or nil.
func (f Figure) Get(name string) []float64 {
	for _, s := range f.Series {
		if s.Name == name {
			return s.Values
		}
	}
	return nil
}

// WriteTable renders the figure as an aligned plain-text table.
func (f Figure) WriteTable(w io.Writer) error {
	if err := f.Validate(); err != nil {
		return err
	}
	fmt.Fprintf(w, "%s: %s\n", f.ID, f.Title)
	if f.YLabel != "" {
		fmt.Fprintf(w, "y: %s\n", f.YLabel)
	}
	width := 10
	for _, x := range f.X {
		if len(x) > width {
			width = len(x)
		}
	}
	fmt.Fprintf(w, "%-*s", width+2, f.XLabel)
	for _, s := range f.Series {
		fmt.Fprintf(w, "%14s", s.Name)
	}
	fmt.Fprintln(w)
	for i, x := range f.X {
		fmt.Fprintf(w, "%-*s", width+2, x)
		for _, s := range f.Series {
			fmt.Fprintf(w, "%14.3f", s.Values[i])
		}
		fmt.Fprintln(w)
	}
	return nil
}

// WriteCSV renders the figure as CSV (header: x,series...).
func (f Figure) WriteCSV(w io.Writer) error {
	if err := f.Validate(); err != nil {
		return err
	}
	cols := []string{csvEscape(f.XLabel)}
	for _, s := range f.Series {
		cols = append(cols, csvEscape(s.Name))
	}
	fmt.Fprintln(w, strings.Join(cols, ","))
	for i, x := range f.X {
		row := []string{csvEscape(x)}
		for _, s := range f.Series {
			row = append(row, fmt.Sprintf("%g", s.Values[i]))
		}
		fmt.Fprintln(w, strings.Join(row, ","))
	}
	return nil
}

func csvEscape(s string) string {
	if strings.ContainsAny(s, ",\"\n") {
		return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
	}
	return s
}

// MeanNonZero returns the arithmetic mean of the non-zero values of xs
// (zero meaning "no data for this group", e.g. a workload with no way
// transfers). Returns 0 when every value is zero.
func MeanNonZero(xs []float64) float64 {
	sum, n := 0.0, 0
	for _, x := range xs {
		if x != 0 {
			sum += x
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}
