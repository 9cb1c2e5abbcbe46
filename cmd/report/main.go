// Command report regenerates the complete evaluation — Tables 1-4,
// Figures 5-16, the ablations and the extensions — in one run (sharing
// simulations across figures) and writes a self-contained markdown
// report plus per-figure CSV files. The output directory is a pure
// function of the scale and seed: two runs of the same code write
// identical files at any worker count, so `diff -r` compares reports.
//
// Usage:
//
//	report [-out report] [-scale unit|test|full] [-seed 1] [-workers N]
//	       [-cache-dir DIR] [-server URL]
//	       [-checkpoint-dir DIR] [-checkpoint-every N]
//	       [-cpuprofile cpu.out] [-memprofile mem.out]
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/cliutil"
	"repro/internal/experiments"
	"repro/internal/metrics"
)

func main() {
	out := flag.String("out", "report", "output directory")
	r, cleanup, err := cliutil.Setup("report", cliutil.Options{Profile: true})
	if err != nil {
		fatal(err)
	}
	defer cleanup()
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fatal(err)
	}

	md, err := os.Create(filepath.Join(*out, "report.md"))
	if err != nil {
		fatal(err)
	}
	defer md.Close()

	fmt.Fprintf(md, "# Cooperative Partitioning — regenerated evaluation\n\n")
	fmt.Fprintf(md, "scale: %s, seed: %d\n\n", r.Scale().Name, r.Seed())

	// Tables.
	fmt.Fprintf(md, "## Tables\n\n```\n")
	if err := r.Table1(md); err != nil {
		fatal(err)
	}
	fmt.Fprintln(md)
	if err := r.Table2(md); err != nil {
		fatal(err)
	}
	fmt.Fprintln(md)
	rows, err := r.Table3()
	if err != nil {
		fatal(err)
	}
	experiments.WriteTable3(md, rows)
	fmt.Fprintln(md)
	if err := r.Table4(md); err != nil {
		fatal(err)
	}
	fmt.Fprintf(md, "```\n\n")

	// Figures.
	fmt.Fprintf(md, "## Figures\n\n")
	for n := 5; n <= 16; n++ {
		fig, err := r.Figure(n)
		if err != nil {
			fatal(err)
		}
		writeFigure(md, *out, fig)
		fmt.Fprintf(os.Stderr, "report: figure %d done\n", n)
	}

	// Ablations and extensions.
	fmt.Fprintf(md, "## Ablations\n\n")
	for _, gen := range []func() (metrics.Figure, error){
		r.AblationVictim, r.AblationTakeover, r.AblationGating,
		r.AblationRandomVictim, r.ExtDrowsy,
	} {
		fig, err := gen()
		if err != nil {
			fatal(err)
		}
		writeFigure(md, *out, fig)
		fmt.Fprintf(os.Stderr, "report: %s done\n", fig.ID)
	}

	// Many-core scaling sweep (beyond the paper's 2/4-core evaluation):
	// two representative groups per core count keep the report
	// tractable; cmd/figures -sweep=scaling runs the full group lists.
	fmt.Fprintf(md, "## Scaling sweep\n\n")
	sweepFigs, err := r.ScalingSweep(nil, 2)
	if err != nil {
		fatal(err)
	}
	for _, fig := range sweepFigs {
		writeFigure(md, *out, fig)
		fmt.Fprintf(os.Stderr, "report: %s done\n", fig.ID)
	}

	hr, err := r.Headroom()
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(md, "## TDP headroom (paper conclusion)\n\n```\n")
	fmt.Fprintf(md, "%-8s %14s %12s\n", "group", "chip saving", "freq uplift")
	for _, row := range hr {
		fmt.Fprintf(md, "%-8s %13.1f%% %11.2f%%\n",
			row.Group, 100*row.SavedFraction, 100*row.FreqUplift)
	}
	fmt.Fprintf(md, "```\n")

	fmt.Printf("report written to %s\n", filepath.Join(*out, "report.md"))
}

func writeFigure(md *os.File, dir string, fig metrics.Figure) {
	fmt.Fprintf(md, "### %s\n\n```\n", fig.ID)
	if err := fig.WriteTable(md); err != nil {
		fatal(err)
	}
	fmt.Fprintf(md, "```\n\n")
	csv, err := os.Create(filepath.Join(dir, fig.ID+".csv"))
	if err != nil {
		fatal(err)
	}
	defer csv.Close()
	if err := fig.WriteCSV(csv); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "report:", err)
	os.Exit(1)
}
