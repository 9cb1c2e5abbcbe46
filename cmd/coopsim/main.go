// Command coopsim runs one multiprogrammed workload on the simulated
// CMP under a chosen LLC partitioning scheme and reports everything the
// run produced: per-application IPC and MPKI, weighted speedup against
// solo runs, energy, way allocations and transition statistics.
//
// Usage:
//
//	coopsim -group G2-8 -scheme CoopPart [-threshold 0.05]
//	        [-scale unit|test|full] [-seed 1] [-compare] [-workers N]
//	        [-cache-dir DIR] [-server URL]
//	        [-checkpoint-dir DIR] [-checkpoint-every N]
//	        [-cpuprofile cpu.out] [-memprofile mem.out]
//
// With -compare, all five schemes run on the group and a comparison
// table is printed. The -cpuprofile/-memprofile flags write pprof
// profiles of the run, so perf work can profile a single simulation
// (`go tool pprof cpu.out`) without editing code.
package main

import (
	"flag"
	"fmt"
	"os"
	"text/tabwriter"

	"repro/internal/cliutil"
	"repro/internal/experiments"
	"repro/internal/prof"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/workload"
)

func main() {
	group := flag.String("group", "G2-8", "workload group from Table 4 (G2-1..G2-14, G4-1..G4-14)")
	scheme := flag.String("scheme", "CoopPart",
		"LLC scheme: Unmanaged, FairShare, DynCPE, UCP or CoopPart")
	threshold := flag.Float64("threshold", experiments.DefaultThreshold,
		"Cooperative Partitioning takeover threshold T (0..1)")
	scaleName := flag.String("scale", "test", "simulation scale: unit, test or full")
	seed := flag.Uint64("seed", 1, "workload seed")
	compare := flag.Bool("compare", false, "run every scheme and print a comparison")
	workers := flag.Int("workers", cliutil.DefaultWorkers(),
		"concurrent simulations (default: one per CPU)")
	server := flag.String("server", "",
		"expd server URL to fetch results from (empty = compute locally)")
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

	g, err := workload.FindGroup(*group)
	if err != nil {
		fatal(err)
	}
	scale, err := cliutil.Scale(*scaleName)
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
	st := store.OpenCLI(*cacheDir, "coopsim")
	defer st.ReportStats("coopsim")
	ckpts, ckptStore := cliutil.OpenCheckpoints(*ckptDir, every, "coopsim")
	defer ckpts.ReportStats("coopsim")
	defer ckptStore.ReportStats("coopsim: checkpoints")
	defer store.HandleSignals("coopsim", st, ckptStore)()
	cl, err := service.OpenCLI(*server, "coopsim")
	if err != nil {
		fatal(err)
	}
	defer cl.ReportStats("coopsim")
	cfg := experiments.Config{
		Scale: scale, Seed: *seed, Threshold: th, Workers: nw,
		Store: st, Checkpoints: ckpts,
	}
	if cl != nil {
		cfg.Remote = cl
	}
	runner := experiments.NewRunner(cfg)

	if *compare {
		compareAll(runner, g)
		return
	}
	res, err := runner.RunGroup(g, sim.SchemeKind(*scheme))
	if err != nil {
		fatal(err)
	}
	report(runner, res)
}

func report(r *experiments.Runner, res *sim.Results) {
	fmt.Printf("scheme %s on %s (%v)\n\n", res.Scheme, res.Group, res.Benchmarks)
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "benchmark\tIPC\tMPKI\tL1 miss rate")
	for i, b := range res.Benchmarks {
		fmt.Fprintf(w, "%s\t%.3f\t%.2f\t%.1f%%\n", b, res.IPC[i], res.MPKI[i], 100*res.L1MissRate[i])
	}
	w.Flush()

	if ws, err := r.WeightedSpeedup(res); err == nil {
		fmt.Printf("\nweighted speedup (vs solo): %.3f\n", ws)
	}
	fmt.Printf("cycles: %d, LLC accesses: %d (%.2f tag ways probed per access)\n",
		res.Cycles, res.SchemeStats.TotalAccesses(), res.AvgWaysConsulted)
	fmt.Printf("dynamic energy: %.0f, static power: %.3f/cycle\n", res.Dynamic, res.StaticPower)
	fmt.Printf("final way allocation: %v\n", res.Allocations)
	fmt.Printf("decisions: %d, repartitions: %d, writebacks to memory: %d\n",
		res.SchemeStats.Decisions, res.SchemeStats.Repartitions, res.SchemeStats.WritebacksToMem)
	tr := res.Transition
	if tr.WaysMoved > 0 {
		fmt.Printf("way transfers: %d completed (%d ways), avg %.0f cycles/way, %d lines flushed\n",
			tr.Completed, tr.WaysMoved, tr.AvgTransferCycles(), tr.FlushedLines)
	}
}

func compareAll(r *experiments.Runner, g workload.Group) {
	fmt.Printf("comparison on %s (%v), normalised to FairShare\n\n", g.Name, g.Benchmarks)
	// All five scheme runs (and the solo runs weighted speedup needs)
	// are independent: warm them concurrently, then collect.
	if err := r.PrefetchSpeedup([]workload.Group{g}, sim.AllSchemes); err != nil {
		fatal(err)
	}
	fair, err := r.RunGroup(g, sim.FairShare)
	if err != nil {
		fatal(err)
	}
	fairWS, err := r.WeightedSpeedup(fair)
	if err != nil {
		fatal(err)
	}
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "scheme\tweighted speedup\tdynamic energy\tstatic power\tways/access\tallocation")
	for _, kind := range sim.AllSchemes {
		res, err := r.RunGroup(g, kind)
		if err != nil {
			fatal(err)
		}
		ws, err := r.WeightedSpeedup(res)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(w, "%s\t%.3f\t%.3f\t%.3f\t%.2f\t%v\n",
			res.Scheme, ws/fairWS, res.Dynamic/fair.Dynamic,
			res.StaticPower/fair.StaticPower, res.AvgWaysConsulted, res.Allocations)
	}
	w.Flush()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "coopsim:", err)
	os.Exit(1)
}
