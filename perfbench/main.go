// Command perfbench is the repository's benchmark. It runs one named
// workload as many short operations back to back (a closed loop with
// one client), checks every operation's output, and prints the
// end-to-end metrics, or with --trace 1 the per-layer metrics, as one
// JSON object on the last line of standard output. README.md describes
// the workloads and every metric.
//
// Usage:
//
//	perfbench --workload pair|cmp16|sweep|figs-cold|figs-warm [--seed N] [--seconds S] [--trace 0|1]
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"
)

// A run sets its workload up at least setupMin times, and more when a
// set-up is cheap, spending about setupShare of the run on set-ups;
// setup_s is their median. Each set-up runs in a new process of this
// program, which finds its task in the environment variable setupEnvVar.
const (
	setupMin    = 3
	setupMax    = 64
	setupShare  = 0.05
	setupEnvVar = "PERFBENCH_SETUP"
)

// A metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics an untraced run prints.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_s_p10", "s"},
	{"cpu_s_p10", "s"},
	{"sim_mips", "MIPS"},
	{"peak_rss_mb", "MB"},
}

// selfLayers are the layers whose share of CPU profile samples a
// traced run reports as <layer>.self_pct, and nsLayers those it also
// reports per simulated instruction.
var (
	selfLayers = []string{"trace", "cpu", "cache", "partition", "core", "umon", "mem", "energy", "sim",
		"experiments", "ckpt", "store"}
	nsLayers = []string{"trace", "cpu", "cache", "sim"}
)

// perLayer are the metrics a traced run prints.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"sim.instr", "count"},
		{"sim.cycles", "count"},
		{"cache.l1_miss_pct", "%"},
		{"partition.llc_accesses", "count"},
		{"partition.llc_misses", "count"},
		{"partition.decisions", "count"},
		{"partition.repartitions", "count"},
		{"core.ways_moved", "count"},
		{"mem.dram_reads", "count"},
		{"mem.dram_writes", "count"},
		{"mem.bank_conflicts", "count"},
		{"experiments.sims", "count"},
		{"ckpt.warmups_computed", "count"},
		{"ckpt.warmups_resumed", "count"},
		{"store.hits", "count"},
		{"store.writes", "count"},
		{"go.alloc_mb", "MB"},
		{"go.gc_cycles", "count"},
		{"sim.new_system_ms", "ms"},
		{"sim.warmup_ms", "ms"},
		{"sim.measured_ms", "ms"},
		{"experiments.fig5_ms", "ms"},
		{"experiments.fig6_ms", "ms"},
		{"experiments.fig7_ms", "ms"},
		{"metrics.render_ms", "ms"},
		{"store.open_ms", "ms"},
		{"store.get_us", "us"},
		{"experiments.worker_util", "ratio"},
	}
	for _, l := range selfLayers {
		defs = append(defs, metricDef{l + ".self_pct", "%"})
	}
	defs = append(defs, metricDef{"store.json_pct", "%"}, metricDef{"go.runtime_pct", "%"})
	for _, l := range nsLayers {
		defs = append(defs, metricDef{l + ".ns_per_instr", "ns"})
	}
	return append(defs, metricDef{"host.ref_ms", "ms"}, metricDef{"tracing.overhead_pct", "%"})
}()

// spanMetrics maps span names to the metric reporting their p10 per op.
var spanMetrics = map[string]string{
	"sim.new_system":   "sim.new_system_ms",
	"sim.warmup":       "sim.warmup_ms",
	"sim.measured":     "sim.measured_ms",
	"experiments.fig5": "experiments.fig5_ms",
	"experiments.fig6": "experiments.fig6_ms",
	"experiments.fig7": "experiments.fig7_ms",
	"metrics.render":   "metrics.render_ms",
	"store.open":       "store.open_ms",
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	if spec := os.Getenv(setupEnvVar); spec != "" {
		if err := setupChild(spec); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: set-up:", err)
			os.Exit(1)
		}
		return
	}
	name := flag.String("workload", "", "workload to run: pair, cmp16, sweep, figs-cold or figs-warm")
	seed := flag.Uint64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 10, "seconds of timed operations")
	traceMode := flag.Int("trace", 0, "1 runs traced and prints the per-layer metrics instead")
	flag.Parse()
	if err := mainErr(*name, *seed, *seconds, *traceMode); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func mainErr(name string, seed uint64, seconds float64, traceMode int) error {
	w, err := findWorkload(name)
	if err != nil {
		return err
	}
	if traceMode != 0 && traceMode != 1 {
		return fmt.Errorf("--trace must be 0 or 1, not %d", traceMode)
	}
	if seconds <= 0 {
		return fmt.Errorf("--seconds must be positive, not %g", seconds)
	}
	// The figure workloads' pool is two workers; two Ps keep the GC's
	// share of the machine the same on any host.
	runtime.GOMAXPROCS(figsWorkers)

	dir := filepath.Join(".bench_build", "run", fmt.Sprintf("%s-%d", w.name, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	r := &runner{w: w, seed: seed, dur: time.Duration(seconds * float64(time.Second)), dir: dir}
	var vals map[string]float64
	var defs []metricDef
	if traceMode == 1 {
		vals, err = r.traced(filepath.Join(".bench_build", "trace"))
		defs = perLayer
	} else {
		vals, err = r.untraced()
		defs = endToEnd
	}
	if err != nil {
		return err
	}
	res := result{
		Correct:   r.chk.failed == 0 && r.chk.attempted > 0,
		Attempted: r.chk.attempted,
		Failed:    r.chk.failed,
		Metrics:   map[string]metric{},
	}
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		res.Metrics[d.name] = metric{v, d.unit}
	}
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(r.summary)
	fmt.Println(string(out))
	return nil
}

// runner runs one workload: its set-ups, then its timed ops.
type runner struct {
	w    *workloadDef
	seed uint64
	dur  time.Duration
	// dir holds the files of the run's set-ups, such as figs-warm's
	// stores.
	dir string

	chk     *checker
	op      op
	setups  []float64 // wall seconds of each set-up process
	refMS   [2]float64 // reference kernel at the start and end of the run
	summary string
}

// sample is the cost of one op that passed its check: wall and CPU
// seconds, and the bytes the Go heap allocated and the GC cycles it
// completed while the op ran.
type sample struct{ wall, cpu, alloc, gcs float64 }

// start probes the host and sets the workload up in this process,
// running the first op untimed. The set-up runs on one CPU, as pinned
// ops do, so that the peak resident set of figs-warm's two-worker
// population of its store does not depend on how the host schedules
// the two workers.
func (r *runner) start() error {
	r.refMS[0] = refKernelMS()
	r.chk = &checker{want: r.w.golden[r.seed]}
	undo := pinFastest()
	o, err := r.w.setup(r.seed, setupEnv{store: filepath.Join(r.dir, "store")}, r.chk)
	undo()
	if err != nil {
		return fmt.Errorf("%s set-up: %w", r.w.name, err)
	}
	r.op = o
	r.runOp(o, nil)
	return nil
}

// setupTask is what a set-up process is asked to do.
type setupTask struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	// Want is the digest its output must have.
	Want string `json:"want"`
	// Store and Source are its setupEnv.
	Store  string `json:"store"`
	Source string `json:"source"`
}

// setUp sets the workload up once more, in a new process of this
// program, and records its wall time: from starting the process until
// it exits after checking its first op. Every sample thus pays the
// one-time costs of a run, such as runtime and package initialisation,
// heap growth and tables built on first use, and a cost moved out of
// ops into anything built once per process shows in setup_s. The
// process's failure counts as a failed output.
func (r *runner) setUp() error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	task := setupTask{Workload: r.w.name, Seed: r.seed, Want: r.chk.want,
		Store: "store", Source: filepath.Join(r.dir, "store")}
	spec, err := json.Marshal(task)
	if err != nil {
		return err
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), setupEnvVar+"="+string(spec))
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	undo := func() {}
	if r.op.pinned {
		// The process inherits the pinned CPU mask.
		undo = pinFastest()
	}
	t0 := time.Now()
	err = cmd.Run()
	wall := time.Since(t0).Seconds()
	undo()
	if r.chk.record(err) {
		r.setups = append(r.setups, wall)
	}
	return nil
}

// setupChild is a set-up process: it sets the workload up as spec
// says, runs the first op and checks its output.
func setupChild(spec string) error {
	var task setupTask
	if err := json.Unmarshal([]byte(spec), &task); err != nil {
		return err
	}
	w, err := findWorkload(task.Workload)
	if err != nil {
		return err
	}
	runtime.GOMAXPROCS(figsWorkers)
	chk := &checker{want: task.Want}
	o, err := w.setup(task.Seed, setupEnv{store: task.Store, source: task.Source}, chk)
	if err != nil {
		return err
	}
	err = o.run(nil)
	var out outcome
	if err == nil {
		out, err = o.output()
	}
	if !chk.check(out, err, false) || chk.failed > 0 {
		return errors.New("an output failed its check")
	}
	return nil
}

// timeOps runs ops back to back for d, and at least one, and returns
// the samples of those that passed their check. When setUps is set, it
// also sets the workload up again at evenly spaced points of d, the
// first at its start, so that setup_s samples the whole run and not
// only its first moments.
func (r *runner) timeOps(tr *tracer, d time.Duration, setUps bool) ([]sample, error) {
	planned := 0
	if setUps {
		planned = 1
	}
	var out []sample
	start := time.Now()
	for ran := 0; ran == 0 || time.Since(start) < d; {
		if done := len(r.setups); done < planned && time.Since(start) >= d*time.Duration(done)/time.Duration(planned) {
			if err := r.setUp(); err != nil {
				return nil, err
			}
			if planned == 1 && len(r.setups) == 1 {
				n := int(setupShare * d.Seconds() / r.setups[0])
				planned = max(setupMin, min(n, setupMax))
			}
			continue
		}
		if tr != nil {
			tr.op++
		}
		if s, ok := r.runOp(r.op, tr); ok {
			out = append(out, s)
		}
		ran++
	}
	return out, nil
}

// runOp runs one op, times it and checks its output.
func (r *runner) runOp(o op, tr *tracer) (sample, bool) {
	if o.pinned {
		defer pinFastest()()
	}
	c0, _ := usage()
	a0, g0 := goRuntime()
	t0 := time.Now()
	var err error
	tr.span("op", func() { err = o.run(tr) })
	wall := time.Since(t0).Seconds()
	a1, g1 := goRuntime()
	c1, _ := usage()
	var out outcome
	if err == nil {
		out, err = o.output()
	}
	return sample{wall, c1 - c0, a1 - a0, g1 - g0}, r.chk.check(out, err, true)
}

func walls(ss []sample) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = s.wall
	}
	return out
}

func cpus(ss []sample) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = s.cpu
	}
	return out
}

// untraced measures the end-to-end metrics.
func (r *runner) untraced() (map[string]float64, error) {
	if err := r.start(); err != nil {
		return nil, err
	}
	ss, err := r.timeOps(nil, r.dur, true)
	if err != nil {
		return nil, err
	}
	r.refMS[1] = refKernelMS()
	_, rss := usage()
	if len(r.setups) == 0 {
		return nil, errors.New("no set-up passed its check")
	}
	opS := percentile(walls(ss), 10)
	vals := map[string]float64{
		"setup_s":     percentile(r.setups, 50),
		"op_s_p10":    opS,
		"cpu_s_p10":   percentile(cpus(ss), 10),
		"sim_mips":    ratio(r.w.instrPerOp, opS) / 1e6,
		"peak_rss_mb": rss,
	}
	r.summarise(len(ss), vals)
	return vals, nil
}

// traced measures the per-layer metrics: half the run's time untraced,
// then half with spans and a CPU profile, and the difference between
// the two halves' op_s_p10 is the tracing overhead.
func (r *runner) traced(traceDir string) (map[string]float64, error) {
	if err := r.start(); err != nil {
		return nil, err
	}
	plain, err := r.timeOps(nil, r.dur/2, false)
	if err != nil {
		return nil, err
	}

	tr := newTracer()
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, err
	}
	traced, err := r.timeOps(tr, r.dur/2, false)
	pprof.StopCPUProfile()
	if err != nil {
		return nil, err
	}
	r.refMS[1] = refKernelMS()

	byPkg, err := foldProfile(prof.Bytes())
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return nil, err
	}
	base := filepath.Join(traceDir, fmt.Sprintf("%s-seed%d", r.w.name, r.seed))
	if err := tr.write(base + ".spans.jsonl"); err != nil {
		return nil, err
	}
	if err := os.WriteFile(base+".cpu.pprof", prof.Bytes(), 0o644); err != nil {
		return nil, err
	}
	if r.chk.counts == nil {
		return nil, errors.New("no op passed its check")
	}

	c := r.chk.counts
	var alloc, gcs float64
	for _, s := range plain {
		alloc += s.alloc
		gcs += s.gcs
	}
	n := float64(len(plain))
	vals := map[string]float64{
		"sim.instr":              r.w.instrPerOp,
		"sim.cycles":             float64(c.Cycles),
		"cache.l1_miss_pct":      c.L1MissPct,
		"partition.llc_accesses": float64(c.LLCAccesses),
		"partition.llc_misses":   float64(c.LLCMisses),
		"partition.decisions":    float64(c.Decisions),
		"partition.repartitions": float64(c.Repartitions),
		"core.ways_moved":        float64(c.WaysMoved),
		"mem.dram_reads":         float64(c.DRAMReads),
		"mem.dram_writes":        float64(c.DRAMWrites),
		"mem.bank_conflicts":     float64(c.BankConflicts),
		"experiments.sims":       float64(c.Sims),
		"ckpt.warmups_computed":  float64(c.WarmupsDone),
		"ckpt.warmups_resumed":   float64(c.WarmupsReused),
		"store.hits":             float64(c.StoreHits),
		"store.writes":           float64(r.op.storeWrites),
		"go.alloc_mb":            ratio(alloc, n) / 1e6,
		"go.gc_cycles":           ratio(gcs, n),
	}
	for span, m := range spanMetrics {
		vals[m] = percentile(tr.perOp(span), 10)
	}
	tracedS := percentile(walls(traced), 10)
	vals["store.get_us"] = ratio(tracedS, float64(c.StoreHits)) * 1e6
	util := make([]float64, len(traced))
	for i, s := range traced {
		util[i] = ratio(s.cpu, figsWorkers*s.wall)
	}
	vals["experiments.worker_util"] = percentile(util, 50)

	byLayer, total := selfTimes(byPkg)
	for _, l := range selfLayers {
		vals[l+".self_pct"] = 100 * ratio(float64(byLayer[l]), float64(total))
	}
	vals["store.json_pct"] = 100 * ratio(float64(byLayer["store.json"]), float64(total))
	vals["go.runtime_pct"] = 100 * ratio(float64(byLayer["go.runtime"]), float64(total))
	instr := r.w.instrPerOp * float64(len(traced))
	for _, l := range nsLayers {
		vals[l+".ns_per_instr"] = ratio(float64(byLayer[l]), instr)
	}
	vals["host.ref_ms"] = min(r.refMS[0], r.refMS[1])
	plainS := percentile(walls(plain), 10)
	vals["tracing.overhead_pct"] = 100 * ratio(tracedS-plainS, plainS)
	r.summarise(len(plain)+len(traced), map[string]float64{
		"op_s_p10": plainS, "traced_op_s_p10": tracedS,
	})
	return vals, nil
}

// summarise sets the human-readable line printed before the result:
// the op count beside the timings, the reference kernel at both ends of
// the run, and the digest the outputs were checked against.
func (r *runner) summarise(ops int, vals map[string]float64) {
	var keys []string
	for k := range vals {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	s := fmt.Sprintf("perfbench: workload=%s seed=%d timed_ops=%d setups=%d", r.w.name, r.seed, ops, len(r.setups))
	if len(r.setups) > 0 {
		s += fmt.Sprintf(" setup_s_min=%.6g setup_s_max=%.6g", percentile(r.setups, 1), percentile(r.setups, 100))
	}
	for _, k := range keys {
		s += fmt.Sprintf(" %s=%.6g", k, vals[k])
	}
	s += fmt.Sprintf(" host.ref_ms_start=%.3f host.ref_ms_end=%.3f digest=%s golden=%v",
		r.refMS[0], r.refMS[1], r.chk.want, r.w.golden[r.seed] != "")
	r.summary = s
}

// checker compares every output of a run with a reference: the golden
// digest recorded for the seed when there is one, else the run's first
// output. An op's counts must also equal the first op's.
type checker struct {
	want      string
	counts    *counts
	attempted int
	failed    int
}

// record counts one output that failed its check with err, or passed
// when err is nil, and reports whether it passed.
func (c *checker) record(err error) bool {
	c.attempted++
	if err != nil {
		c.failed++
		if c.failed <= 3 {
			fmt.Fprintf(os.Stderr, "perfbench: output %d failed its check: %v\n", c.attempted, err)
		}
		return false
	}
	return true
}

// check records one output and reports whether it passed. withCounts
// is false for outputs that are not timed ops of the workload (a set-up
// process's op, figs-warm's populating run), whose counts differ by
// design or have no reference.
func (c *checker) check(o outcome, err error, withCounts bool) bool {
	switch {
	case err != nil:
	case c.want == "" && o.digest == "":
		err = errors.New("empty digest")
	case c.want != "" && o.digest != c.want:
		err = fmt.Errorf("digest %s, want %s", o.digest, c.want)
	case withCounts && c.counts != nil && *c.counts != o.counts:
		err = fmt.Errorf("counts %+v, want %+v", o.counts, *c.counts)
	}
	if !c.record(err) {
		return false
	}
	if c.want == "" {
		c.want = o.digest
	}
	if withCounts && c.counts == nil {
		c.counts = &o.counts
	}
	return true
}
