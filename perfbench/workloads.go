package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"

	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/partition"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/workload"
)

// figsWorkers is the worker-pool size of the figure workloads. It is
// fixed, not taken from the host, so the load an op generates does not
// change with the machine.
const figsWorkers = 2

// An op is one timed operation. run does the work that is timed; output
// summarises what the last run produced (its digest and layer counts)
// and is not timed. run records its calls into the layers as spans on
// tr.
type op struct {
	run    func(tr *tracer) error
	output func() (outcome, error)
	// storeWrites is how many entries set-up published to a store.
	storeWrites uint64
	// pinned ops run with the process on the CPU that is fastest when
	// they start (see pinFastest).
	pinned bool
}

// outcome is what the checker compares across ops.
type outcome struct {
	digest string
	counts counts
}

// counts are the per-op layer counts, read from public results and
// stats. They are a pure function of the workload and seed, so every op
// of a run must produce the same counts, traced or not.
type counts struct {
	Cycles        int64
	L1MissPct     float64
	LLCAccesses   uint64
	LLCMisses     uint64
	Decisions     uint64
	Repartitions  uint64
	WaysMoved     uint64
	DRAMReads     uint64
	DRAMWrites    uint64
	BankConflicts uint64
	Sims          uint64
	WarmupsDone   uint64
	WarmupsReused uint64
	StoreHits     uint64
}

// countResults sums the layer counts of a set of simulation results.
func countResults(results []*sim.Results) counts {
	var c counts
	var l1Sum float64
	var l1N int
	for _, res := range results {
		c.Cycles += res.Cycles
		for _, m := range res.L1MissRate {
			l1Sum += m
			l1N++
		}
		st := res.SchemeStats
		c.LLCAccesses += st.TotalAccesses()
		for _, pc := range st.PerCore {
			c.LLCMisses += pc.Misses
		}
		c.Decisions += st.Decisions
		c.Repartitions += st.Repartitions
		c.WaysMoved += res.Transition.WaysMoved
		c.DRAMReads += res.DRAM.Reads
		c.DRAMWrites += res.DRAM.Writes
		c.BankConflicts += res.DRAM.BankConflicts
	}
	if l1N > 0 {
		c.L1MissPct = 100 * l1Sum / float64(l1N)
	}
	return c
}

// workloadDef is one named workload of the benchmark.
type workloadDef struct {
	name string
	// instrPerOp is the measured-region instruction budget of the
	// simulations whose results one op produces: the sum over them of
	// cores × InstrPerApp.
	instrPerOp float64
	// golden maps seeds to the digest every op's output must have.
	golden map[uint64]string
	// setup builds everything an op needs for seed and returns the op.
	// Outputs produced on the way go to chk.
	setup func(seed uint64, env setupEnv, chk *checker) (op, error)
}

// setupEnv is where a set-up may keep files.
type setupEnv struct {
	// store is the directory of the set-up's own store, if it needs one.
	store string
	// source, when set, is a store that another set-up populated with
	// the same results; figs-warm replays it instead of simulating.
	source string
}

var workloads = []*workloadDef{
	simWorkload("pair", "G2-8", pairGoldens),
	simWorkload("cmp16", "G16-1", cmp16Goldens),
	{name: "sweep", instrPerOp: sweepInstr(sweepGroups()), golden: sweepGoldens, setup: sweepSetup},
	{name: "figs-cold", instrPerOp: sweepInstr(workload.Groups2), golden: figsGoldens, setup: figsColdSetup},
	{name: "figs-warm", instrPerOp: sweepInstr(workload.Groups2), golden: figsGoldens, setup: figsWarmSetup},
}

func findWorkload(name string) (*workloadDef, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

// simWorkload is one CoopPart simulation of a group per op, built,
// warmed up and measured through sim's public API on the calling
// goroutine.
func simWorkload(name, group string, golden map[uint64]string) *workloadDef {
	g, err := workload.FindGroup(group)
	if err != nil {
		panic(err) // the group names above are fixed
	}
	sc := sim.UnitScale()
	return &workloadDef{
		name:       name,
		instrPerOp: float64(len(g.Benchmarks)) * float64(sc.InstrPerApp),
		golden:     golden,
		setup: func(seed uint64, _ setupEnv, _ *checker) (op, error) {
			cfg := sim.RunConfig{Scale: sc, Scheme: sim.CoopPart, Group: g, Seed: seed}
			var res *sim.Results
			return op{
				pinned: true,
				run: func(tr *tracer) error {
					var sys *sim.System
					var err error
					tr.span("sim.new_system", func() { sys, err = sim.NewSystem(cfg) })
					if err != nil {
						return err
					}
					tr.span("sim.warmup", sys.Warmup)
					tr.span("sim.measured", func() { res = sys.RunMeasured(0, nil) })
					return nil
				},
				output: func() (outcome, error) {
					b, err := json.Marshal(res)
					if err != nil {
						return outcome{}, err
					}
					return outcome{digest: digest(b), counts: countResults([]*sim.Results{res})}, nil
				},
			}, nil
		},
	}
}

// sweepBenchmarks lists the distinct benchmarks of groups: each has one
// solo run (Equation 1) and one DynCPE profile per sweep.
func sweepBenchmarks(groups []workload.Group) []string {
	var out []string
	seen := map[string]bool{}
	for _, g := range groups {
		for _, b := range g.Benchmarks {
			if !seen[b] {
				seen[b] = true
				out = append(out, b)
			}
		}
	}
	return out
}

// sweepSims is the number of simulations behind a sweep of groups under
// every scheme: one per group and scheme, plus a solo run and a profile
// per benchmark. It is 102 for Figs 5-7.
func sweepSims(groups []workload.Group) uint64 {
	return uint64(len(groups)*len(sim.AllSchemes) + 2*len(sweepBenchmarks(groups)))
}

// sweepInstr is the measured-region instruction budget of those
// simulations. Solo runs and profiles simulate one core.
func sweepInstr(groups []workload.Group) float64 {
	var cores int
	for _, g := range groups {
		cores += len(g.Benchmarks) * len(sim.AllSchemes)
	}
	cores += 2 * len(sweepBenchmarks(groups))
	return float64(cores) * float64(sim.UnitScale().InstrPerApp)
}

func newFigsRunner(seed uint64, st *store.Store, rem experiments.Remote) *experiments.Runner {
	return experiments.NewRunner(experiments.Config{
		Scale: sim.UnitScale(), Seed: seed, Workers: figsWorkers, Store: st, Remote: rem,
	})
}

// renderFigs generates Figs 5, 6 and 7 on r and renders each as
// cmd/figures prints it: the table followed by a blank line.
func renderFigs(tr *tracer, r *experiments.Runner) ([]byte, error) {
	var buf bytes.Buffer
	for _, n := range []int{5, 6, 7} {
		var fig metrics.Figure
		var err error
		tr.span(fmt.Sprintf("experiments.fig%d", n), func() { fig, err = r.Figure(n) })
		if err != nil {
			return nil, err
		}
		tr.span("metrics.render", func() {
			err = fig.WriteTable(&buf)
			buf.WriteByte('\n')
		})
		if err != nil {
			return nil, err
		}
	}
	return buf.Bytes(), nil
}

// sweepResults are the results a runner holds for a sweep of two-core
// groups under every scheme. Its lookups are memo hits, so they run no
// simulation and touch no store.
type sweepResults struct {
	Runs     []*sim.Results
	Alone    []*sim.Results
	Profiles []partition.CoreProfile
}

func collectSweep(r *experiments.Runner, groups []workload.Group) (sweepResults, error) {
	var sr sweepResults
	for _, g := range groups {
		for _, s := range sim.AllSchemes {
			res, err := r.RunGroup(g, s)
			if err != nil {
				return sr, err
			}
			sr.Runs = append(sr.Runs, res)
		}
	}
	for _, b := range sweepBenchmarks(groups) {
		res, err := r.AloneResults(b, 2)
		if err != nil {
			return sr, err
		}
		sr.Alone = append(sr.Alone, res)
		p, err := r.Profile(b, 2)
		if err != nil {
			return sr, err
		}
		sr.Profiles = append(sr.Profiles, p)
	}
	return sr, nil
}

// sweepCounts reads the layer counts of a runner that has run a sweep
// of groups, and of its store if it has one. DynCPE profile runs return
// only their profile, so the simulation counts cover the group and solo
// runs.
func sweepCounts(r *experiments.Runner, groups []workload.Group, st *store.Store) (counts, error) {
	sr, err := collectSweep(r, groups)
	if err != nil {
		return counts{}, err
	}
	c := countResults(append(sr.Runs, sr.Alone...))
	c.Sims = r.Simulations()
	ck := r.Checkpoints().Stats()
	c.WarmupsDone, c.WarmupsReused = ck.WarmupsComputed, ck.WarmupsResumed
	if st != nil {
		c.StoreHits = st.Stats().Hits
	}
	return c, nil
}

// sweepGroups is the sweep workload's one group, pair's G2-8.
func sweepGroups() []workload.Group {
	g, err := workload.FindGroup("G2-8")
	if err != nil {
		panic(err) // the group name is fixed
	}
	return []workload.Group{g}
}

// sweepSetup: each op runs one two-core group under all five schemes,
// with its two Equation-1 solo runs and two DynCPE profiles, on a fresh
// runner with the figure workloads' worker pool: the experiment engine
// and warm-up sharing of figs-cold in ops short enough to pin. The
// digest is of the JSON of every result the sweep produced.
func sweepSetup(seed uint64, _ setupEnv, _ *checker) (op, error) {
	groups := sweepGroups()
	var r *experiments.Runner
	return op{
		pinned: true,
		run: func(tr *tracer) error {
			r = newFigsRunner(seed, nil, nil)
			var err error
			tr.span("experiments.prefetch", func() { err = r.PrefetchSpeedup(groups, sim.AllSchemes) })
			return err
		},
		output: func() (outcome, error) {
			sr, err := collectSweep(r, groups)
			if err != nil {
				return outcome{}, err
			}
			b, err := json.Marshal(sr)
			if err != nil {
				return outcome{}, err
			}
			c, err := sweepCounts(r, groups, nil)
			if err == nil && c.Sims != sweepSims(groups) {
				err = fmt.Errorf("ran %d simulations, want %d", c.Sims, sweepSims(groups))
			}
			return outcome{digest: digest(b), counts: c}, err
		},
	}, nil
}

// figsOutcome digests the rendered tables and reads the layer counts of
// the runner that rendered them.
func figsOutcome(r *experiments.Runner, tables []byte, st *store.Store) (outcome, error) {
	c, err := sweepCounts(r, workload.Groups2, st)
	return outcome{digest: digest(tables), counts: c}, err
}

// figsColdSetup: each op regenerates Figs 5-7 from nothing on a fresh
// runner with the default in-memory checkpoint manager.
func figsColdSetup(seed uint64, _ setupEnv, _ *checker) (op, error) {
	var r *experiments.Runner
	var tables []byte
	return op{
		run: func(tr *tracer) error {
			r = newFigsRunner(seed, nil, nil)
			var err error
			tables, err = renderFigs(tr, r)
			return err
		},
		output: func() (outcome, error) {
			o, err := figsOutcome(r, tables, nil)
			if want := sweepSims(workload.Groups2); err == nil && o.counts.Sims != want {
				err = fmt.Errorf("ran %d simulations, want %d", o.counts.Sims, want)
			}
			return o, err
		},
	}, nil
}

// figsWarmSetup populates a fresh store with the 102 results behind
// Figs 5-7 and checks the tables it rendered on the way like an op's
// output. Each op then serves the same figures from a fresh runner over
// the re-opened store.
//
// Without env.source, the run's own set-up, the results are simulated
// into a store on disk in env.store, which the timed ops read through
// real system calls. With env.source, a set-up process, they are read
// from that store and published into a fresh in-memory one through the
// runner's Remote layer, exactly as simulated results are published, so
// the set-up times the store's read and write paths rather than the
// simulations figs-cold already times.
func figsWarmSetup(seed uint64, env setupEnv, chk *checker) (op, error) {
	want := sweepSims(workload.Groups2)
	opts := store.Options{FS: synclessFS{}}
	var rem experiments.Remote // stays nil, not a nil storeRemote, without a source
	if env.source != "" {
		src, err := store.Open(env.source, opts)
		if err != nil {
			return op{}, err
		}
		rem = storeRemote{src}
		opts.FS = newMemFS()
	}
	st, err := store.Open(env.store, opts)
	if err != nil {
		return op{}, err
	}
	populate := newFigsRunner(seed, st, rem)
	tables, err := renderFigs(nil, populate)
	if err != nil {
		return op{}, err
	}
	chk.check(outcome{digest: digest(tables)}, nil, false)
	writes := st.Stats().Writes
	if writes != want {
		return op{}, fmt.Errorf("populating the store wrote %d entries, want %d", writes, want)
	}
	if rem != nil && populate.Simulations() != 0 {
		return op{}, fmt.Errorf("replaying a populated store ran %d simulations", populate.Simulations())
	}

	var r *experiments.Runner
	return op{
		pinned:      true,
		storeWrites: writes,
		run: func(tr *tracer) error {
			var err error
			tr.span("store.open", func() { st, err = store.Open(env.store, opts) })
			if err != nil {
				return err
			}
			r = newFigsRunner(seed, st, nil)
			tables, err = renderFigs(tr, r)
			return err
		},
		output: func() (outcome, error) {
			o, err := figsOutcome(r, tables, st)
			if err == nil && (o.counts.Sims != 0 || o.counts.StoreHits < want) {
				err = fmt.Errorf("served from the store with %d simulations and %d hits, want 0 and %d",
					o.counts.Sims, o.counts.StoreHits, want)
			}
			return o, err
		},
	}, nil
}

// storeRemote serves the results of a populated store as an
// experiments.Remote.
type storeRemote struct{ src *store.Store }

func (s storeRemote) RemoteRun(key string, _ sim.Scale, _ uint64, _ workload.Group,
	_ sim.SchemeKind, _ float64, _ experiments.Variant, _ sim.Fidelity) (*sim.Results, bool) {
	return s.results(key)
}

func (s storeRemote) RemoteAlone(key string, _ sim.Scale, _ uint64, _ string, _ int, _ sim.Fidelity) (*sim.Results, bool) {
	return s.results(key)
}

func (s storeRemote) RemoteProfile(key string, _ sim.Scale, _ uint64, _ string, _ int, _ sim.Fidelity) (partition.CoreProfile, bool) {
	var p partition.CoreProfile
	ok := s.src.Get(key, &p)
	return p, ok
}

func (s storeRemote) results(key string) (*sim.Results, bool) {
	res := new(sim.Results)
	if !s.src.Get(key, res) {
		return nil, false
	}
	return res, true
}

// synclessFS is the store's production filesystem without fsync: every
// open, read, write and rename is a real system call, served from the
// page cache, but nothing waits for the disk.
type synclessFS struct{ store.OSFS }

func (synclessFS) OpenFile(path string, flag int, perm os.FileMode) (store.File, error) {
	f, err := os.OpenFile(path, flag, perm)
	if err != nil {
		return nil, err
	}
	return synclessFile{f}, nil
}

func (synclessFS) SyncDir(string) error { return nil }

type synclessFile struct{ *os.File }

func (synclessFile) Sync() error { return nil }

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
