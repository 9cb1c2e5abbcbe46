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
	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/prof"
	"repro/internal/service"
	"repro/internal/store"
)

func main() {
	fig := flag.Int("fig", 0, "figure number (5-16; 0 = all)")
	scale := flag.String("scale", "test", "simulation scale: unit, test or full")
	seed := flag.Uint64("seed", 1, "workload seed")
	csv := flag.Bool("csv", false, "emit CSV instead of aligned tables")
	threshold := flag.Float64("threshold", experiments.DefaultThreshold,
		"Cooperative Partitioning takeover threshold T")
	workers := flag.Int("workers", cliutil.DefaultWorkers(),
		"concurrent simulations (default: one per CPU)")
	server := flag.String("server", "",
		"expd server URL to fetch results from (empty = compute locally)")
	sweep := flag.String("sweep", "", `sweep to run instead of figures ("scaling")`)
	sweepCores := flag.String("sweep-cores", "", "comma-separated core counts for -sweep=scaling (default 2,4,8,16)")
	sweepGroups := flag.Int("sweep-groups", 0, "groups per core count in the sweep (0 = all)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memprofile := flag.String("memprofile", "", "write an allocation profile to this file at exit")
	cacheDir := flag.String("cache-dir", "",
		"persistent result cache directory shared across runs and processes (empty = in-memory only)")
	ckptDir := flag.String("checkpoint-dir", "",
		"checkpoint directory: warm-up prefixes and mid-run state persist here, and a rerun resumes from the last valid checkpoint (empty = in-memory warm-up sharing only)")
	ckptEvery := flag.Int64("checkpoint-every", 0,
		"measured instructions between mid-run checkpoints (0 = warm-up checkpoints only; requires -checkpoint-dir)")
	flag.Parse()

	stopProf, err := prof.Start(*cpuprofile, *memprofile)
	if err != nil {
		fatal(err)
	}
	defer func() {
		if err := stopProf(); err != nil {
			fatal(err)
		}
	}()

	sc, err := cliutil.Scale(*scale)
	if err != nil {
		fatal(err)
	}
	nw, err := cliutil.Workers(*workers)
	if err != nil {
		fatal(err)
	}
	th, err := cliutil.Threshold(*threshold)
	if err != nil {
		fatal(err)
	}
	every, err := cliutil.Checkpointing(*ckptDir, *ckptEvery)
	if err != nil {
		fatal(err)
	}
	if _, err := cliutil.CacheDir(*cacheDir); err != nil {
		fatal(err)
	}
	st := store.OpenCLI(*cacheDir, "figures")
	defer st.ReportStats("figures")
	ckpts, ckptStore := cliutil.OpenCheckpoints(*ckptDir, every, "figures")
	defer ckpts.ReportStats("figures")
	defer ckptStore.ReportStats("figures: checkpoints")
	defer store.HandleSignals("figures", st, ckptStore)()
	cl, err := service.OpenCLI(*server, "figures")
	if err != nil {
		fatal(err)
	}
	defer cl.ReportStats("figures")
	cfg := experiments.Config{
		Scale: sc, Seed: *seed, Threshold: th, Workers: nw,
		Store: st, Checkpoints: ckpts,
	}
	if cl != nil {
		cfg.Remote = cl
	}
	r := experiments.NewRunner(cfg)

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
