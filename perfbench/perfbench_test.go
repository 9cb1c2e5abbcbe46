package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math/bits"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/pprof"
	"syscall"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/workload"
)

// TestMain lets the test binary serve as a set-up process, as the
// benchmark's own binary does.
func TestMain(m *testing.M) {
	if spec := os.Getenv(setupEnvVar); spec != "" {
		if err := setupChild(spec); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: set-up:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func TestPercentileSmallSamples(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending, so sorting matters
		}
		return xs
	}
	cases := []struct {
		xs   []float64
		p    int
		want float64
	}{
		{nil, 10, 0},
		{[]float64{7}, 10, 7},
		{[]float64{7}, 50, 7},
		{[]float64{3, 1, 2}, 10, 1},
		{[]float64{3, 1, 2}, 50, 2},
		{seq(9), 10, 1},
		{seq(10), 10, 1},
		{seq(11), 10, 2},
		{seq(20), 10, 2},
		{seq(21), 10, 3},
		{seq(30), 10, 3},
		{seq(4), 50, 2},
		{seq(5), 50, 3},
		{seq(5), 100, 5},
	}
	for _, c := range cases {
		in := append([]float64(nil), c.xs...)
		if got := percentile(c.xs, c.p); got != c.want {
			t.Errorf("percentile(%v, %d) = %g, want %g", c.xs, c.p, got, c.want)
		}
		if !reflect.DeepEqual(in, c.xs) {
			t.Errorf("percentile reordered its input %v", in)
		}
	}
}

// pb is a minimal protobuf encoder for building synthetic profiles.
type pb struct{ bytes.Buffer }

func (b *pb) varint(num int, v uint64) *pb {
	b.uvarint(uint64(num)<<3 | 0)
	b.uvarint(v)
	return b
}

func (b *pb) bytesField(num int, data []byte) *pb {
	b.uvarint(uint64(num)<<3 | 2)
	b.uvarint(uint64(len(data)))
	b.Write(data)
	return b
}

func (b *pb) packed(num int, vs ...uint64) *pb {
	var body pb
	for _, v := range vs {
		body.uvarint(v)
	}
	return b.bytesField(num, body.Bytes())
}

func (b *pb) uvarint(v uint64) { b.Write(binary.AppendUvarint(nil, v)) }

// syntheticProfile builds a gzip-compressed CPU profile with the
// layout runtime/pprof writes: sample types [samples/count,
// cpu/nanoseconds], and samples whose first location is the leaf.
func syntheticProfile(t *testing.T) []byte {
	t.Helper()
	strs := []string{"", "samples", "count", "cpu", "nanoseconds",
		"repro/internal/cache.(*Cache).Probe",
		"repro/internal/sim.(*System).Access",
		"runtime.mallocgc",
		"encoding/json.(*decodeState).object",
		"repro/internal/experiments.(*flight[go.shape.struct { repro/internal/sim.x int }]).Do",
		"internal/runtime/maps.(*Map).getWithKeySmall",
		"crypto/sha256.block",
	}
	var p pb
	valueType := func(typ, unit uint64) []byte {
		var v pb
		v.varint(1, typ).varint(2, unit)
		return v.Bytes()
	}
	p.bytesField(1, valueType(1, 2))
	p.bytesField(1, valueType(3, 4))
	sample := func(ns uint64, packed bool, locs ...uint64) {
		var s pb
		if packed {
			s.packed(1, locs...)
		} else {
			for _, l := range locs {
				s.varint(1, l)
			}
		}
		s.packed(2, 1, ns)
		p.bytesField(2, s.Bytes())
	}
	sample(10, true, 1, 2)  // cache, called from sim
	sample(20, false, 1)    // cache
	sample(5, true, 2)      // sim
	sample(7, false, 3, 2)  // inlined mallocgc into sim: the leaf is runtime
	sample(11, true, 4)     // encoding/json
	sample(13, false, 5, 2) // generic method of experiments
	sample(17, true, 6)     // internal/runtime/maps
	sample(19, true, 7)     // crypto/sha256
	location := func(id uint64, funcs ...uint64) {
		var l pb
		l.varint(1, id)
		for _, f := range funcs {
			var line pb
			line.varint(1, f).varint(2, 42)
			l.bytesField(4, line.Bytes())
		}
		p.bytesField(4, l.Bytes())
	}
	location(1, 1)
	location(2, 2)
	location(3, 3, 2) // mallocgc inlined into System.Access
	location(4, 4)
	location(5, 5)
	location(6, 6)
	location(7, 7)
	for id := uint64(1); id <= 7; id++ {
		var f pb
		f.varint(1, id).varint(2, id+4)
		p.bytesField(5, f.Bytes())
	}
	for _, s := range strs {
		p.bytesField(6, []byte(s))
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	if _, err := zw.Write(p.Bytes()); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return gz.Bytes()
}

func TestFoldSyntheticProfileByPackage(t *testing.T) {
	got, err := foldProfile(syntheticProfile(t))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{
		"repro/internal/cache":       30,
		"repro/internal/sim":         5,
		"runtime":                    7,
		"encoding/json":              11,
		"repro/internal/experiments": 13,
		"internal/runtime/maps":      17,
		"crypto/sha256":              19,
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("folded profile = %v, want %v", got, want)
	}
	layers, total := selfTimes(got)
	wantLayers := map[string]int64{
		"cache": 30, "sim": 5, "go.runtime": 24, "store.json": 11, "experiments": 13, "other": 19,
	}
	if !reflect.DeepEqual(layers, wantLayers) || total != 102 {
		t.Fatalf("layers = %v (total %d), want %v (total 102)", layers, total, wantLayers)
	}
}

func TestFoldRejectsMalformedProfile(t *testing.T) {
	if _, err := foldProfile([]byte{0x12, 0x05, 0x01}); err == nil {
		t.Fatal("truncated profile folded without error")
	}
}

// spin burns CPU in this package until d has passed.
func spin(d time.Duration) uint64 {
	var x uint64
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1<<16; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	return x
}

func TestFoldRealCPUProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	refSink += spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	got, err := foldProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, ns := range got {
		total += ns
	}
	if total == 0 {
		t.Skip("profile holds no samples")
	}
	if share := float64(got["repro/perfbench"]) / float64(total); share < 0.5 {
		t.Fatalf("spin loop's package has %.0f%% of the samples: %v", 100*share, got)
	}
}

func TestDigestMismatchCountsAsFailedOp(t *testing.T) {
	digests := []string{"a", "a", "b", "a"}
	i := 0
	o := op{
		run: func(*tracer) error { return nil },
		output: func() (outcome, error) {
			d := digests[i]
			i++
			return outcome{digest: d}, nil
		},
	}
	for _, golden := range []string{"a", ""} {
		i = 0
		chk := &checker{want: golden}
		r := &runner{chk: chk}
		var passed int
		for range digests {
			if _, ok := r.runOp(o, nil); ok {
				passed++
			}
		}
		if chk.attempted != 4 || chk.failed != 1 || passed != 3 {
			t.Errorf("golden %q: attempted %d failed %d passed %d, want 4, 1, 3",
				golden, chk.attempted, chk.failed, passed)
		}
	}

	chk := &checker{want: "a"}
	if chk.check(outcome{digest: "b"}, nil, true) {
		t.Error("an output differing from the golden passed")
	}
	if chk.check(outcome{digest: "a"}, errors.New("boom"), true) {
		t.Error("an op that returned an error passed")
	}
	chk.check(outcome{digest: "a", counts: counts{Sims: 1}}, nil, true)
	if chk.check(outcome{digest: "a", counts: counts{Sims: 2}}, nil, true) {
		t.Error("an op whose counts differ from the first op's passed")
	}
	if !chk.check(outcome{digest: "a", counts: counts{Sims: 2}}, nil, false) {
		t.Error("a check without counts compared counts")
	}
	if chk.attempted != 5 || chk.failed != 3 {
		t.Errorf("attempted %d failed %d, want 5 and 3", chk.attempted, chk.failed)
	}
}

func TestPinFastestPinsAndRestoresTheProcess(t *testing.T) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	mask := func() (set cpuSet) {
		if err := affinity(syscall.SYS_SCHED_GETAFFINITY, 0, &set); err != nil {
			t.Fatal(err)
		}
		return set
	}
	cpus := func(set cpuSet) (n int) {
		for _, w := range set {
			n += bits.OnesCount64(w)
		}
		return n
	}
	before := mask()
	undo := pinFastest()
	during := mask()
	undo()
	if after := mask(); after != before {
		t.Fatalf("CPU mask %x after undo, was %x", after, before)
	}
	if during == before && cpus(before) > 1 {
		t.Skip("CPU affinity cannot be changed here")
	}
	if cpus(during) != 1 || during[0]&^before[0] != 0 {
		t.Fatalf("pinned mask %x is not one CPU of %x", during, before)
	}
}

// The store must work over memFS and synclessFS as it does over OSFS:
// a published entry reads back after the store is re-opened, verifies,
// and leaves no lockfile or temp file behind.
func TestStoreOverBenchmarkFS(t *testing.T) {
	for _, c := range []struct {
		name string
		fs   store.FS
		dir  string
	}{{"memFS", newMemFS(), "store"}, {"synclessFS", synclessFS{}, t.TempDir()}} {
		opts := store.Options{FS: c.fs}
		st, err := store.Open(c.dir, opts)
		if err != nil {
			t.Fatal(err)
		}
		st.Put("k", map[string]int{"v": 42})
		if s := st.Stats(); s.Writes != 1 || s.Faults != 0 {
			t.Fatalf("%s: store stats after Put: %+v", c.name, s)
		}
		if st, err = store.Open(c.dir, opts); err != nil {
			t.Fatal(err)
		}
		var got map[string]int
		if !st.Get("k", &got) || got["v"] != 42 {
			t.Fatalf("%s: Get after re-open = %v", c.name, got)
		}
		if st.Get("missing", &got) {
			t.Fatalf("%s: Get of a missing key hit", c.name)
		}
		if valid, corrupt, err := st.Verify(); err != nil || valid != 1 || corrupt != 0 {
			t.Fatalf("%s: Verify = %d valid, %d corrupt, %v", c.name, valid, corrupt, err)
		}
		for _, sub := range []string{"locks", "tmp"} {
			if ents, err := c.fs.ReadDir(filepath.Join(c.dir, sub)); err != nil || len(ents) != 0 {
				t.Fatalf("%s: %s holds %v (%v)", c.name, sub, ents, err)
			}
		}
	}
}

// The simulation goldens must be what sim.Run, the package's one-call
// path, produces for the same configuration.
func TestSimGoldensMatchSimRun(t *testing.T) {
	for _, c := range []struct {
		group  string
		golden map[uint64]string
	}{{"G2-8", pairGoldens}, {"G16-1", cmp16Goldens}} {
		g, err := workload.FindGroup(c.group)
		if err != nil {
			t.Fatal(err)
		}
		for seed, want := range c.golden {
			res, err := sim.Run(sim.RunConfig{Scale: sim.UnitScale(), Scheme: sim.CoopPart, Group: g, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			b, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			if got := digest(b); got != want {
				t.Errorf("%s seed %d: digest %s, golden %s", c.group, seed, got, want)
			}
		}
	}
}

// The figure goldens were taken from cmd/figures; a fresh runner must
// still render the same bytes.
func TestFigsGoldensMatchRenderedTables(t *testing.T) {
	for seed, want := range figsGoldens {
		tables, err := renderFigs(nil, newFigsRunner(seed, nil, nil))
		if err != nil {
			t.Fatal(err)
		}
		if got := digest(tables); got != want {
			t.Errorf("seed %d: digest %s, golden %s", seed, got, want)
		}
	}
}

// A sweep op's CoopPart run must be pair's op, and its outputs must
// match the sweep goldens.
func TestSweepGoldens(t *testing.T) {
	for seed, want := range sweepGoldens {
		o, err := sweepSetup(seed, setupEnv{}, &checker{})
		if err != nil {
			t.Fatal(err)
		}
		if err := o.run(nil); err != nil {
			t.Fatal(err)
		}
		out, err := o.output()
		if err != nil {
			t.Fatal(err)
		}
		if out.digest != want {
			t.Errorf("seed %d: digest %s, golden %s", seed, out.digest, want)
		}
		sr, err := collectSweep(newFigsRunner(seed, nil, nil), sweepGroups())
		if err != nil {
			t.Fatal(err)
		}
		for _, res := range sr.Runs {
			if res.Scheme != string(sim.CoopPart) {
				continue
			}
			b, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			if got := digest(b); got != pairGoldens[seed] {
				t.Errorf("seed %d: sweep's CoopPart run has digest %s, pair's golden is %s", seed, got, pairGoldens[seed])
			}
		}
		if want := uint64(9); out.counts.Sims != want || out.counts.WarmupsDone+out.counts.WarmupsReused != want {
			t.Errorf("seed %d: %d simulations, %d warm-ups computed and %d resumed, want %d in all",
				seed, out.counts.Sims, out.counts.WarmupsDone, out.counts.WarmupsReused, want)
		}
	}
}

func newTestRunner(t *testing.T, name string, dur time.Duration) *runner {
	t.Helper()
	w, err := findWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	return &runner{w: w, seed: 1, dur: dur, dir: t.TempDir()}
}

func TestTracedRunMatchesUntracedCounts(t *testing.T) {
	plain := newTestRunner(t, "pair", 300*time.Millisecond)
	if _, err := plain.untraced(); err != nil {
		t.Fatal(err)
	}
	traced := newTestRunner(t, "pair", 200*time.Millisecond)
	vals, err := traced.traced(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []*runner{plain, traced} {
		if r.chk.failed != 0 || r.chk.attempted <= len(r.setups)+1 {
			t.Fatalf("attempted %d failed %d over %d set-ups", r.chk.attempted, r.chk.failed, len(r.setups))
		}
	}
	if len(plain.setups) < setupMin || len(traced.setups) != 0 {
		t.Fatalf("%d set-up processes untraced, %d traced; want at least %d and 0",
			len(plain.setups), len(traced.setups), setupMin)
	}
	if *plain.chk.counts != *traced.chk.counts {
		t.Fatalf("traced counts %+v differ from untraced %+v", *traced.chk.counts, *plain.chk.counts)
	}
	for _, d := range perLayer {
		if _, ok := vals[d.name]; !ok {
			t.Errorf("traced run did not measure %s", d.name)
		}
	}
	if vals["sim.measured_ms"] <= 0 || vals["sim.instr"] != 240000 || vals["go.alloc_mb"] <= 0 {
		t.Errorf("sim.measured_ms = %g, sim.instr = %g, go.alloc_mb = %g",
			vals["sim.measured_ms"], vals["sim.instr"], vals["go.alloc_mb"])
	}
}

// figs-warm's set-up processes replay the run's store into fresh
// in-memory stores from two workers at once; every output must pass.
func TestFigsWarmSetupsAndOps(t *testing.T) {
	r := newTestRunner(t, "figs-warm", 100*time.Millisecond)
	if _, err := r.untraced(); err != nil {
		t.Fatal(err)
	}
	if r.chk.failed != 0 || len(r.setups) < setupMin || r.chk.attempted < len(r.setups)+3 {
		t.Fatalf("attempted %d failed %d over %d set-ups", r.chk.attempted, r.chk.failed, len(r.setups))
	}
	if want := sweepSims(workload.Groups2); r.op.storeWrites != want {
		t.Fatalf("set-up published %d entries, want %d", r.op.storeWrites, want)
	}
}

// A set-up process whose output fails its check is a failed output and
// gives no set-up time.
func TestFailedSetupProcessCountsAsFailedOutput(t *testing.T) {
	r := newTestRunner(t, "pair", 0)
	r.chk = &checker{want: "not-a-digest"}
	if err := r.setUp(); err != nil {
		t.Fatal(err)
	}
	if r.chk.attempted != 1 || r.chk.failed != 1 || len(r.setups) != 0 {
		t.Fatalf("attempted %d failed %d with %d set-up times, want 1, 1 and 0",
			r.chk.attempted, r.chk.failed, len(r.setups))
	}
}

// BENCHMARK.json must declare exactly the metrics the command prints.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, declared []struct{ Name, Unit string }, defs []metricDef) {
		if len(declared) != len(defs) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the command prints %d", kind, len(declared), len(defs))
			return
		}
		for i, d := range defs {
			if declared[i].Name != d.name || declared[i].Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the command prints %s (%s)",
					kind, i, declared[i].Name, declared[i].Unit, d.name, d.unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
	for _, w := range spec.Workloads {
		if _, err := findWorkload(w.Name); err != nil {
			t.Errorf("BENCHMARK.json: %v", err)
		}
	}
}
