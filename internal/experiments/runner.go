// Package experiments regenerates every table and figure of the
// paper's evaluation (Tables 1-4, Figures 5-16) plus the ablations
// listed in DESIGN.md §7. A Runner memoises simulation runs so that
// figures sharing the same underlying experiments (e.g. Figures 5-7 all
// consume the fourteen two-core runs per scheme) execute each run once,
// and fans independent runs out over a bounded worker pool so that the
// full reproduction scales with the host's cores (DESIGN.md §6).
package experiments

import (
	"context"
	"fmt"
	"runtime"
	"runtime/pprof"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/flight"
	"repro/internal/partition"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/workload"
)

// DefaultThreshold is the paper's operating point for Cooperative
// Partitioning's T parameter (Section 5.1).
const DefaultThreshold = sim.DefaultThreshold

// Thresholds is the sweep of Figures 11-13.
var Thresholds = []float64{0, 0.01, 0.05, 0.10, 0.20}

// Config parameterises a Runner.
type Config struct {
	Scale sim.Scale
	Seed  uint64
	// Threshold for CoopPart/DynCPE runs; DefaultThreshold if zero.
	// sim.EncodeThreshold(0) asks for exactly zero (DESIGN.md §3).
	Threshold float64
	// Workers bounds the number of simulations the prefetchers execute
	// concurrently; GOMAXPROCS if zero. Results are bit-identical for
	// every worker count: each simulation is an independent
	// single-goroutine run keyed only by its configuration.
	Workers int
	// Store is the persistent result cache layered under the in-memory
	// memo (nil = memory only): lookups go memory → disk → simulate,
	// and every simulated result is published back. Results are
	// bit-identical either way — JSON round-trips every field exactly —
	// and a store fault can only cost recomputation, never correctness
	// (the store degrades internally and never fails a caller).
	Store *store.Store
	// Remote is an optional experiment server layered between the disk
	// store and local simulation (nil = compute locally): lookups go
	// memory → disk → remote → simulate. Like the store, the remote
	// layer can only save work, never change bytes or fail a run — a
	// Remote that returns ok=false (server down, degraded, mismatched)
	// just falls through to local computation, and results fetched
	// remotely are published into Store so later runs are serverless-
	// warm. service.Client is the production implementation.
	Remote Remote
	// Checkpoints executes every simulation the runner performs
	// locally (DESIGN.md §14): with a checkpoint store attached, a run
	// resumes from the newest checkpoint an earlier process left, from
	// the end of warm-up on. nil gets a storeless manager, which
	// snapshots nothing and only counts warm-ups — results are
	// bit-identical in every configuration.
	Checkpoints *ckpt.Manager
}

// Remote is the client surface of the distributed experiment service
// (DESIGN.md §13), defined here so experiments does not depend on the
// transport. Every method receives the canonical store key of the run
// — the same identity the disk cache uses — plus the full request
// fields, so the server can recompute and verify the key (a mismatch
// means config or version skew, never a wrong answer). ok=false means
// the remote layer is unavailable for this request; the caller
// computes locally. Implementations must be safe for concurrent use
// and must never block unboundedly — a dead server has to degrade to
// ok=false in bounded time. The fid arguments are always
// sim.FidelityExact and implementations ignore them (see sim.Fidelity
// for why the parameter survives).
type Remote interface {
	RemoteRun(key string, sc sim.Scale, seed uint64, g workload.Group,
		scheme sim.SchemeKind, threshold float64, v Variant, fid sim.Fidelity) (*sim.Results, bool)
	RemoteAlone(key string, sc sim.Scale, seed uint64,
		benchmark string, cores int, fid sim.Fidelity) (*sim.Results, bool)
	RemoteProfile(key string, sc sim.Scale, seed uint64,
		benchmark string, cores int, fid sim.Fidelity) (partition.CoreProfile, bool)
}

// Variant is the ablation or extension arm of a run (DESIGN.md §7).
// Its values are the core.Variant constants; the alias keeps the name
// the Remote interface and the service protocol spell.
type Variant = core.Variant

// Runner executes and memoises simulation runs. All methods are safe
// for concurrent use: each distinct run executes exactly once, with
// duplicate requests blocking on the in-flight execution instead of
// racing or serialising behind a global lock.
type Runner struct {
	cfg     Config
	workers int
	// scaleFP fingerprints every field of the scale configuration into
	// the persistent-store key space, so two scales that differ in any
	// parameter never alias even if they share a name.
	scaleFP string
	sims    atomic.Uint64

	runs     flight.Group[runKey, *sim.Results]
	alone    flight.Group[aloneKey, *sim.Results]
	profiles flight.Group[aloneKey, partition.CoreProfile]
}

type runKey struct {
	group     string
	scheme    sim.SchemeKind
	threshold float64
	variant   Variant
}

type aloneKey struct {
	benchmark string
	cores     int
}

// NewRunner builds a Runner; a zero-value Config gets the test scale,
// seed 1, the paper's threshold and one worker per CPU. The runner
// keeps the decoded threshold, so an encoded explicit zero shares the
// memo and store keys of RunGroupVariant(g, s, 0, core.VariantNone).
func NewRunner(cfg Config) *Runner {
	if cfg.Scale.Name == "" {
		cfg.Scale = sim.TestScale()
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	cfg.Threshold = sim.DecodeThreshold(cfg.Threshold)
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if cfg.Checkpoints == nil {
		cfg.Checkpoints = ckpt.New(ckpt.Options{})
	}
	r := &Runner{cfg: cfg, workers: workers}
	// The fingerprint is always computed: the disk store, the remote
	// layer and the exported key strings all address runs by it, and
	// one SHA-256 of the Scale JSON per runner is free.
	r.scaleFP = store.Fingerprint(cfg.Scale)
	return r
}

// RunKey renders the canonical store identity of a fully keyed group
// run: the string the persistent cache and the service protocol
// address it by. The service sends the key with every request and the
// server recomputes and verifies it, so client and server can never
// silently disagree about what a result is for. Seed and the full
// scale fingerprint are explicit — the memo is scoped to one runner,
// the disk store is shared by every process pointed at the directory.
func (r *Runner) RunKey(g workload.Group, scheme sim.SchemeKind, threshold float64, v Variant) string {
	return fmt.Sprintf("run|scale=%s|seed=%d|group=%s|scheme=%s|threshold=%s|variant=%s",
		r.scaleFP, r.cfg.Seed, g.Name, scheme, strconv.FormatFloat(threshold, 'g', -1, 64), v)
}

// AloneKey renders the canonical store identity of a solo run.
func (r *Runner) AloneKey(benchmark string, cores int) string {
	return r.benchmarkKey("alone", benchmark, cores)
}

// ProfileKey renders the canonical store identity of a DynCPE profile.
func (r *Runner) ProfileKey(benchmark string, cores int) string {
	return r.benchmarkKey("profile", benchmark, cores)
}

func (r *Runner) benchmarkKey(kind, benchmark string, cores int) string {
	return fmt.Sprintf("%s|scale=%s|seed=%d|benchmark=%s|cores=%d",
		kind, r.scaleFP, r.cfg.Seed, benchmark, cores)
}

// Scale returns the runner's simulation scale.
func (r *Runner) Scale() sim.Scale { return r.cfg.Scale }

// Seed returns the runner's workload seed.
func (r *Runner) Seed() uint64 { return r.cfg.Seed }

// Simulations returns how many simulator executions the runner has
// actually performed (as opposed to answered from the memo) — the
// observability hook the memoisation and singleflight tests pin.
func (r *Runner) Simulations() uint64 { return r.sims.Load() }

// Checkpoints exposes the checkpoint manager (never nil), for stats
// reporting and the warm-up exactly-once assertions.
func (r *Runner) Checkpoints() *ckpt.Manager { return r.cfg.Checkpoints }

// lookup is the one result-lookup chain every kind of result goes
// through (DESIGN.md §6): the in-memory memo, then the disk store, then
// the remote layer, then local computation. Whatever the store did not
// answer is published to it, so remote results make later runs
// serverless-warm. The store key is rendered only on a memo miss.
func lookup[K comparable, V any](r *Runner, memo *flight.Group[K, V], key K, storeKey func() string,
	remote func(rem Remote, skey string) (V, bool), compute func() (V, error)) (V, error) {
	return memo.Do(key, func() (V, error) {
		skey := storeKey()
		st := r.cfg.Store
		if st != nil {
			var cached V
			if st.Get(skey, &cached) {
				return cached, nil
			}
		}
		var (
			v  V
			ok bool
		)
		if r.cfg.Remote != nil {
			v, ok = remote(r.cfg.Remote, skey)
		}
		if !ok {
			var err error
			if v, err = compute(); err != nil {
				return v, err
			}
		}
		if st != nil {
			st.Put(skey, v)
		}
		return v, nil
	})
}

// simulate executes one run locally through the checkpoint manager,
// counting it for Simulations. The run carries pprof labels for its
// scheme, group and simulated core count, so a -cpuprofile of a sweep
// can be sliced by them: go tool pprof -tagfocus 'cores=^16$' (pprof
// reads a bare cores=16 as a numeric-label filter, which matches
// nothing).
func (r *Runner) simulate(cfg sim.RunConfig) (res *sim.Results, err error) {
	r.sims.Add(1)
	labels := pprof.Labels("scheme", string(cfg.Scheme), "group", cfg.Group.Name,
		"cores", strconv.Itoa(len(cfg.Group.Benchmarks)))
	pprof.Do(context.Background(), labels, func(context.Context) {
		res, err = r.cfg.Checkpoints.Run(cfg)
	})
	return res, err
}

// AloneResults returns (memoised) the solo run of a benchmark on the
// LLC geometry used by groups of the given core count.
func (r *Runner) AloneResults(benchmark string, cores int) (*sim.Results, error) {
	return lookup(r, &r.alone, aloneKey{benchmark, cores},
		func() string { return r.AloneKey(benchmark, cores) },
		func(rem Remote, skey string) (*sim.Results, bool) {
			return rem.RemoteAlone(skey, r.cfg.Scale, r.cfg.Seed, benchmark, cores, sim.FidelityExact)
		},
		func() (*sim.Results, error) {
			cfg, err := sim.AloneConfig(benchmark, r.cfg.Scale, cores, r.cfg.Seed)
			if err != nil {
				return nil, err
			}
			return r.simulate(cfg)
		})
}

// AloneIPC returns a benchmark's alone IPC for Equation 1.
func (r *Runner) AloneIPC(benchmark string, cores int) (float64, error) {
	res, err := r.AloneResults(benchmark, cores)
	if err != nil {
		return 0, err
	}
	return res.IPC[0], nil
}

// Profile returns (memoised) the per-phase utility profile of a
// benchmark for Dynamic CPE.
func (r *Runner) Profile(benchmark string, cores int) (partition.CoreProfile, error) {
	return lookup(r, &r.profiles, aloneKey{benchmark, cores},
		func() string { return r.ProfileKey(benchmark, cores) },
		func(rem Remote, skey string) (partition.CoreProfile, bool) {
			return rem.RemoteProfile(skey, r.cfg.Scale, r.cfg.Seed, benchmark, cores, sim.FidelityExact)
		},
		func() (partition.CoreProfile, error) {
			cfg, err := sim.ProfileConfig(benchmark, r.cfg.Scale, cores, r.cfg.Seed)
			if err != nil {
				return partition.CoreProfile{}, err
			}
			res, err := r.simulate(cfg)
			if err != nil {
				return partition.CoreProfile{}, err
			}
			return res.Profile, nil
		})
}

// RunGroup executes (memoised) one group under one scheme at the
// runner's threshold.
func (r *Runner) RunGroup(g workload.Group, scheme sim.SchemeKind) (*sim.Results, error) {
	return r.RunGroupVariant(g, scheme, r.cfg.Threshold, core.VariantNone)
}

// RunGroupVariant is the fully keyed run: group x scheme x threshold x
// ablation variant. A threshold of 0 means exactly zero (Figures 11-13
// sweep it): it is memoised distinctly from DefaultThreshold and
// encoded for the simulator by sim.EncodeThreshold. A store or remote
// hit also skips the DynCPE profile runs the simulation would need.
func (r *Runner) RunGroupVariant(g workload.Group, scheme sim.SchemeKind, threshold float64, v Variant) (*sim.Results, error) {
	return lookup(r, &r.runs, runKey{g.Name, scheme, threshold, v},
		func() string { return r.RunKey(g, scheme, threshold, v) },
		func(rem Remote, skey string) (*sim.Results, bool) {
			return rem.RemoteRun(skey, r.cfg.Scale, r.cfg.Seed, g, scheme, threshold, v, sim.FidelityExact)
		},
		func() (*sim.Results, error) {
			cfg := sim.RunConfig{
				Scale:     r.cfg.Scale,
				Scheme:    scheme,
				Group:     g,
				Threshold: sim.EncodeThreshold(threshold),
				Seed:      r.cfg.Seed,
				Variant:   v,
			}
			if scheme == sim.DynCPE {
				for _, b := range g.Benchmarks {
					p, err := r.Profile(b, len(g.Benchmarks))
					if err != nil {
						return nil, err
					}
					cfg.Profiles = append(cfg.Profiles, p)
				}
			}
			return r.simulate(cfg)
		})
}

// WeightedSpeedup computes Equation 1 for one run.
func (r *Runner) WeightedSpeedup(res *sim.Results) (float64, error) {
	alone := make(map[string]float64, len(res.Benchmarks))
	for _, b := range res.Benchmarks {
		ipc, err := r.AloneIPC(b, len(res.Benchmarks))
		if err != nil {
			return 0, err
		}
		alone[b] = ipc
	}
	return res.WeightedSpeedup(alone)
}

// request names one memoisable run for runAll. Threshold follows
// RunGroupVariant semantics: 0 is an explicit zero threshold, not the
// runner's default.
type request struct {
	Group     workload.Group
	Scheme    sim.SchemeKind
	Threshold float64
	Variant   Variant
}

// runAll executes every request — plus the Dynamic CPE profiles any
// DynCPE request needs and, with speedup, the solo run of each
// involved benchmark (Equation 1's denominators, which WeightedSpeedup
// would otherwise execute serially afterwards) — across the runner's
// worker pool, blocking until all finish. Requests already memoised
// cost nothing; duplicate requests collapse onto one execution. The
// first error encountered is returned after all workers drain.
func (r *Runner) runAll(reqs []request, speedup bool) error {
	var tasks []func() error
	seenAlone := make(map[aloneKey]bool)
	seenProfile := make(map[aloneKey]bool)
	for _, req := range reqs {
		cores := len(req.Group.Benchmarks)
		for _, b := range req.Group.Benchmarks {
			k := aloneKey{b, cores}
			if speedup && !seenAlone[k] {
				seenAlone[k] = true
				tasks = append(tasks, func() error {
					_, err := r.AloneResults(k.benchmark, k.cores)
					return err
				})
			}
			if req.Scheme == sim.DynCPE && !seenProfile[k] {
				seenProfile[k] = true
				tasks = append(tasks, func() error {
					_, err := r.Profile(k.benchmark, k.cores)
					return err
				})
			}
		}
	}
	for _, req := range reqs {
		tasks = append(tasks, func() error {
			_, err := r.RunGroupVariant(req.Group, req.Scheme, req.Threshold, req.Variant)
			return err
		})
	}
	return r.fanOut(tasks)
}

// Prefetch warms the memo for the cross product of groups and schemes
// at the runner's threshold, fanning the runs out over the worker pool.
// Figure and table generators call it (or PrefetchSpeedup, when they
// also need Equation 1's solo runs) first, then collect results from
// the warm cache serially.
func (r *Runner) Prefetch(groups []workload.Group, schemes []sim.SchemeKind) error {
	return r.runAll(r.crossRequests(groups, schemes), false)
}

// PrefetchSpeedup is Prefetch plus the solo runs of every involved
// benchmark.
func (r *Runner) PrefetchSpeedup(groups []workload.Group, schemes []sim.SchemeKind) error {
	return r.runAll(r.crossRequests(groups, schemes), true)
}

// crossRequests builds the groups x schemes request list at the
// runner's threshold.
func (r *Runner) crossRequests(groups []workload.Group, schemes []sim.SchemeKind) []request {
	reqs := make([]request, 0, len(groups)*len(schemes))
	for _, g := range groups {
		for _, s := range schemes {
			reqs = append(reqs, request{Group: g, Scheme: s, Threshold: r.cfg.Threshold})
		}
	}
	return reqs
}

// PrefetchAlone warms the solo runs of the given benchmarks on the
// LLC geometry of cores-sized groups (Table 3 measures all of them).
func (r *Runner) PrefetchAlone(benchmarks []string, cores int) error {
	tasks := make([]func() error, 0, len(benchmarks))
	for _, b := range benchmarks {
		tasks = append(tasks, func() error {
			_, err := r.AloneResults(b, cores)
			return err
		})
	}
	return r.fanOut(tasks)
}

// fanOut runs tasks on the runner's bounded worker pool and returns the
// first error. Tasks execute nested dependencies (profiles, solo runs)
// inline through the singleflight memo, so a worker never submits work
// back to the pool and the pool cannot deadlock.
func (r *Runner) fanOut(tasks []func() error) error {
	if len(tasks) == 0 {
		return nil
	}
	workers := r.workers
	if workers > len(tasks) {
		workers = len(tasks)
	}
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	work := make(chan func() error)
	wg.Add(workers)
	for i := 0; i < workers; i++ {
		go func() {
			defer wg.Done()
			for task := range work {
				if err := task(); err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
				}
			}
		}()
	}
	for _, task := range tasks {
		work <- task
	}
	close(work)
	wg.Wait()
	return firstErr
}

// groupsFor returns the group list for a core count: the paper's
// Table 4 lists for 2 and 4 cores, the scaling-sweep lists beyond.
func groupsFor(cores int) ([]workload.Group, error) {
	switch cores {
	case 2:
		return workload.Groups2, nil
	case 4:
		return workload.Groups4, nil
	case 8:
		return workload.Groups8, nil
	case 16:
		return workload.Groups16, nil
	default:
		return nil, fmt.Errorf("experiments: no groups for %d cores", cores)
	}
}
