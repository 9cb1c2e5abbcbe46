// Command tables regenerates Tables 1-4 of the paper.
//
// Usage:
//
//	tables [-table N] [-scale unit|test|full] [-seed N] [-workers N]
//	       [-cache-dir DIR] [-server URL]
//	       [-checkpoint-dir DIR] [-checkpoint-every N]
//
// Without -table, all four tables are printed.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/cliutil"
	"repro/internal/experiments"
	"repro/internal/service"
	"repro/internal/store"
)

func main() {
	table := flag.Int("table", 0, "table number (1-4; 0 = all)")
	scale := flag.String("scale", "test", "simulation scale: unit, test or full")
	seed := flag.Uint64("seed", 1, "workload seed")
	workers := flag.Int("workers", cliutil.DefaultWorkers(),
		"concurrent simulations (default: one per CPU)")
	cacheDir := flag.String("cache-dir", "",
		"persistent result cache directory shared across runs and processes (empty = in-memory only)")
	server := flag.String("server", "",
		"expd server URL to fetch results from (empty = compute locally)")
	ckptDir := flag.String("checkpoint-dir", "",
		"checkpoint directory: warm-up prefixes and mid-run state persist here, and a rerun resumes from the last valid checkpoint (empty = in-memory warm-up sharing only)")
	ckptEvery := flag.Int64("checkpoint-every", 0,
		"measured instructions between mid-run checkpoints (0 = warm-up checkpoints only; requires -checkpoint-dir)")
	flag.Parse()

	sc, err := cliutil.Scale(*scale)
	if err != nil {
		fatal(err)
	}
	nw, err := cliutil.Workers(*workers)
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
	st := store.OpenCLI(*cacheDir, "tables")
	defer st.ReportStats("tables")
	ckpts, ckptStore := cliutil.OpenCheckpoints(*ckptDir, every, "tables")
	defer ckpts.ReportStats("tables")
	defer ckptStore.ReportStats("tables: checkpoints")
	defer store.HandleSignals("tables", st, ckptStore)()
	cl, err := service.OpenCLI(*server, "tables")
	if err != nil {
		fatal(err)
	}
	defer cl.ReportStats("tables")
	cfg := experiments.Config{Scale: sc, Seed: *seed, Workers: nw, Store: st, Checkpoints: ckpts}
	if cl != nil {
		cfg.Remote = cl
	}
	r := experiments.NewRunner(cfg)

	run := func(n int) error {
		switch n {
		case 1:
			return r.Table1(os.Stdout)
		case 2:
			return r.Table2(os.Stdout)
		case 3:
			rows, err := r.Table3()
			if err != nil {
				return err
			}
			experiments.WriteTable3(os.Stdout, rows)
			return nil
		case 4:
			return r.Table4(os.Stdout)
		default:
			return fmt.Errorf("no table %d", n)
		}
	}

	if *table != 0 {
		if err := run(*table); err != nil {
			fatal(err)
		}
		return
	}
	for n := 1; n <= 4; n++ {
		if err := run(n); err != nil {
			fatal(err)
		}
		fmt.Println()
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tables:", err)
	os.Exit(1)
}
