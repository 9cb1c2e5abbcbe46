// Energysweep explores the takeover-threshold trade-off of Section 5.1
// on a single workload: sweep T from 0 to 0.2 and report performance,
// dynamic energy and static power, each normalised to T=0 — a
// one-workload slice of the paper's Figures 11-13.
//
//	go run ./examples/energysweep [group]
package main

import (
	"fmt"
	"log"
	"os"

	"repro/internal/sim"
	"repro/internal/workload"
)

func main() {
	groupName := "G2-2"
	if len(os.Args) > 1 {
		groupName = os.Args[1]
	}
	group, err := workload.FindGroup(groupName)
	if err != nil {
		log.Fatal(err)
	}

	type point struct {
		T   float64
		res *sim.Results
	}
	var points []point
	for _, T := range []float64{0, 0.01, 0.05, 0.10, 0.20} {
		res, err := sim.Run(sim.RunConfig{
			Scale:     sim.TestScale(),
			Scheme:    sim.CoopPart,
			Group:     group,
			Threshold: sim.EncodeThreshold(T),
			Seed:      1,
		})
		if err != nil {
			log.Fatal(err)
		}
		points = append(points, point{T, res})
	}

	base := points[0].res
	baseIPC := sum(base.IPC)
	fmt.Printf("workload %s: %v (all values normalised to T=0)\n\n", group.Name, group.Benchmarks)
	fmt.Printf("%8s %12s %12s %12s %14s %10s\n",
		"T", "perf", "dynamic", "static", "ways consulted", "alloc")
	for _, p := range points {
		fmt.Printf("%8.2f %12.3f %12.3f %12.3f %14.2f %10s\n",
			p.T,
			sum(p.res.IPC)/baseIPC,
			p.res.Dynamic/base.Dynamic,
			p.res.StaticPower/base.StaticPower,
			p.res.AvgWaysConsulted,
			fmt.Sprint(p.res.Allocations))
	}
	fmt.Println("\nHigher thresholds strand more ways (power-gated for static savings)")
	fmt.Println("and shrink the tag lookup masks (dynamic savings) at the cost of")
	fmt.Println("denying marginally-useful ways — the paper picks T=0.05.")
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}
