// Command figures regenerates Figures 5-16 of the paper's evaluation as
// plain-text tables or CSV, plus the many-core scaling sweep that goes
// beyond the paper's 2/4-core evaluation.
//
// Usage:
//
//	figures [-fig N] [-scale unit|test|full] [-seed N] [-csv] [-threshold T] [-workers N]
//	        [-cache-dir DIR] [-server URL]
//	        [-checkpoint-dir DIR] [-checkpoint-every N]
//	        [-cpuprofile cpu.out] [-memprofile mem.out]
//	figures -sweep scaling [-sweep-cores 2,4,8,16] [-sweep-groups N] [...]
//
// Without -fig, every data figure (5-16) is printed. Figures 1-4 are
// schematics with no data series; the takeover mechanics they
// illustrate are demonstrated by examples/takeover. With -sweep=scaling
// the scaling figures (weighted speedup and total energy vs core
// count) are printed instead.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/cliutil"
	"repro/internal/metrics"
)

func main() {
	fig := flag.Int("fig", 0, "figure number (5-16; 0 = all)")
	csv := flag.Bool("csv", false, "emit CSV instead of aligned tables")
	sweep := flag.String("sweep", "", `sweep to run instead of figures ("scaling")`)
	sweepCores := flag.String("sweep-cores", "", "comma-separated core counts for -sweep=scaling (default 2,4,8,16)")
	sweepGroups := flag.Int("sweep-groups", 0, "groups per core count in the sweep (0 = all)")
	r, cleanup, err := cliutil.Setup("figures", cliutil.Options{Threshold: true, Profile: true})
	if err != nil {
		fatal(err)
	}
	defer cleanup()
	if *sweepGroups < 0 {
		fatal(fmt.Errorf("invalid -sweep-groups=%d: must be >= 0 (0 = all groups)", *sweepGroups))
	}

	if *sweep != "" {
		if *sweep != "scaling" {
			fatal(fmt.Errorf("unknown sweep %q (scaling)", *sweep))
		}
		counts, err := parseCores(*sweepCores)
		if err != nil {
			fatal(err)
		}
		figs, err := r.ScalingSweep(counts, *sweepGroups)
		if err != nil {
			fatal(err)
		}
		for _, f := range figs {
			if err := writeFigure(f, *csv); err != nil {
				fatal(err)
			}
			fmt.Println()
		}
		return
	}

	figs := []int{*fig}
	if *fig == 0 {
		figs = nil
		for n := 5; n <= 16; n++ {
			figs = append(figs, n)
		}
	}
	for _, n := range figs {
		f, err := r.Figure(n)
		if err != nil {
			fatal(err)
		}
		if err := writeFigure(f, *csv); err != nil {
			fatal(err)
		}
		fmt.Println()
	}
}

func writeFigure(f metrics.Figure, csv bool) error {
	if csv {
		return f.WriteCSV(os.Stdout)
	}
	return f.WriteTable(os.Stdout)
}

// parseCores parses a comma-separated core-count list ("" = default).
func parseCores(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var counts []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad core count %q: %v", part, err)
		}
		counts = append(counts, n)
	}
	return counts, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "figures:", err)
	os.Exit(1)
}
