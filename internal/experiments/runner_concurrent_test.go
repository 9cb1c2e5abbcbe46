package experiments

import (
	"errors"
	"reflect"
	"sync"
	"testing"

	"repro/internal/flight"
	"repro/internal/sim"
	"repro/internal/workload"
)

// TestParallelMatchesSerialFig5 regenerates Figure 5 with one worker
// and with eight and requires bit-identical output: the parallel engine
// may change wall clock, never results. Run under -race this also
// exercises the singleflight memo from many goroutines.
func TestParallelMatchesSerialFig5(t *testing.T) {
	serial := NewRunner(Config{Scale: sim.UnitScale(), Workers: 1})
	parallel := NewRunner(Config{Scale: sim.UnitScale(), Workers: 8})

	fs, err := serial.Fig5()
	if err != nil {
		t.Fatal(err)
	}
	fp, err := parallel.Fig5()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fs, fp) {
		t.Fatalf("parallel Fig5 differs from serial:\nserial:   %+v\nparallel: %+v", fs, fp)
	}
}

// TestSingleflightRunGroup checks that N concurrent identical RunGroup
// calls execute the simulation exactly once and all observe the same
// memoised result.
func TestSingleflightRunGroup(t *testing.T) {
	r := NewRunner(Config{Scale: sim.UnitScale(), Workers: 8})
	g := workload.Groups2[0]

	const n = 16
	results := make([]*sim.Results, n)
	errs := make([]error, n)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			results[i], errs[i] = r.RunGroup(g, sim.CoopPart)
		}(i)
	}
	close(start)
	wg.Wait()

	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if results[i] != results[0] {
			t.Fatalf("caller %d got a different *Results than caller 0", i)
		}
	}
	if got := r.Simulations(); got != 1 {
		t.Fatalf("%d concurrent identical calls executed %d simulations, want 1", n, got)
	}
}

// TestThresholdZeroMemoisedDistinctly is the regression test for the
// threshold-sentinel wart: an explicit T=0 run and a default-threshold
// run must land under distinct memo keys (and an explicit
// DefaultThreshold must alias the default).
func TestThresholdZeroMemoisedDistinctly(t *testing.T) {
	r := NewRunner(Config{Scale: sim.UnitScale()})
	g := workload.Groups2[0]

	zero, err := r.RunGroupVariant(g, sim.CoopPart, 0, VariantNone)
	if err != nil {
		t.Fatal(err)
	}
	def, err := r.RunGroup(g, sim.CoopPart)
	if err != nil {
		t.Fatal(err)
	}
	if zero == def {
		t.Fatal("threshold-0 and default-threshold runs memoised under one key")
	}
	if got := r.Simulations(); got != 2 {
		t.Fatalf("executed %d simulations, want 2 (T=0 and T=default)", got)
	}
	defExplicit, err := r.RunGroupVariant(g, sim.CoopPart, DefaultThreshold, VariantNone)
	if err != nil {
		t.Fatal(err)
	}
	if defExplicit != def {
		t.Fatal("explicit DefaultThreshold did not hit the default-threshold memo")
	}
	if got := r.Simulations(); got != 2 {
		t.Fatalf("explicit DefaultThreshold re-executed: %d simulations", got)
	}
}

// TestEncodedZeroThresholdConfig pins the flag -> Config handoff of an
// explicit T=0: a runner built with sim.EncodeThreshold(0) runs its
// groups at T=0 under the memo and store key of Figure 11's T=0 point,
// not at the default threshold a plain 0 selects.
func TestEncodedZeroThresholdConfig(t *testing.T) {
	r := NewRunner(Config{Scale: sim.UnitScale(), Threshold: sim.EncodeThreshold(0)})
	g := workload.Groups2[0]
	got, err := r.RunGroup(g, sim.CoopPart)
	if err != nil {
		t.Fatal(err)
	}
	zero, err := r.RunGroupVariant(g, sim.CoopPart, 0, VariantNone)
	if err != nil {
		t.Fatal(err)
	}
	if got != zero || r.Simulations() != 1 {
		t.Fatalf("encoded-zero runner did not share the T=0 memo entry (%d simulations)", r.Simulations())
	}
	def := NewRunner(Config{Scale: sim.UnitScale()})
	if r.RunKey(g, sim.CoopPart, r.cfg.Threshold, VariantNone) == def.RunKey(g, sim.CoopPart, def.cfg.Threshold, VariantNone) {
		t.Fatal("encoded-zero runner shares the default threshold's store key")
	}
}

// TestPrefetchWarmsFigures checks PrefetchSpeedup completeness: after
// one warm-up of the two-core cross product, generating Figures 5-7
// must execute zero additional simulations (group runs, solo runs and
// profiles were all covered by the fan-out).
func TestPrefetchWarmsFigures(t *testing.T) {
	r := NewRunner(Config{Scale: sim.UnitScale(), Workers: 4})
	groups, err := groupsFor(2)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.PrefetchSpeedup(groups, sim.AllSchemes); err != nil {
		t.Fatal(err)
	}
	warm := r.Simulations()
	if _, err := r.Fig5(); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Fig6(); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Fig7(); err != nil {
		t.Fatal(err)
	}
	if got := r.Simulations(); got != warm {
		t.Fatalf("figures after Prefetch executed %d extra simulations", got-warm)
	}
}

// TestFig14RunsNoSoloSimulations pins that figures which never compute
// weighted speedups don't pay for Equation 1's solo runs: Fig14 on a
// fresh runner executes exactly its 14 CoopPart group runs.
func TestFig14RunsNoSoloSimulations(t *testing.T) {
	r := NewRunner(Config{Scale: sim.UnitScale(), Workers: 4})
	if _, err := r.Fig14(); err != nil {
		t.Fatal(err)
	}
	if got := r.Simulations(); got != uint64(len(workload.Groups2)) {
		t.Fatalf("Fig14 executed %d simulations, want %d group runs only",
			got, len(workload.Groups2))
	}
}

// TestRunAllPropagatesError checks the pool drains and reports the
// first failure instead of hanging or panicking.
func TestRunAllPropagatesError(t *testing.T) {
	r := NewRunner(Config{Scale: sim.UnitScale(), Workers: 4})
	bad := workload.Group{Name: "bad", Benchmarks: []string{"no-such-benchmark", "namd"}}
	err := r.runAll([]request{
		{Group: workload.Groups2[0], Scheme: sim.FairShare, Threshold: DefaultThreshold},
		{Group: bad, Scheme: sim.FairShare, Threshold: DefaultThreshold},
	}, false)
	if err == nil {
		t.Fatal("runAll with an unknown benchmark should fail")
	}
}

// TestFlightMemoisesErrors pins the flight contract the runner's memo
// relies on: an errored key is memoised like a value (deterministic
// runs cannot succeed on retry) and executes once.
func TestFlightMemoisesErrors(t *testing.T) {
	var f flight.Group[int, int]
	calls := 0
	boom := errors.New("boom")
	fn := func() (int, error) { calls++; return 0, boom }
	if _, err := f.Do(7, fn); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if _, err := f.Do(7, fn); !errors.Is(err, boom) {
		t.Fatalf("second err = %v, want memoised boom", err)
	}
	if calls != 1 {
		t.Fatalf("fn executed %d times, want 1", calls)
	}
}

// TestVariantKeyedSeparately makes sure an ablated run never aliases
// the plain run it is compared against.
func TestVariantKeyedSeparately(t *testing.T) {
	r := NewRunner(Config{Scale: sim.UnitScale()})
	g := workload.Groups2[0]
	plain, err := r.RunGroup(g, sim.CoopPart)
	if err != nil {
		t.Fatal(err)
	}
	gated, err := r.RunGroupVariant(g, sim.CoopPart, r.cfg.Threshold, VariantNoGating)
	if err != nil {
		t.Fatal(err)
	}
	if plain == gated {
		t.Fatal("variant run aliased the plain run")
	}
	if _, err := r.RunGroupVariant(g, sim.CoopPart, r.cfg.Threshold, Variant("bogus")); err == nil {
		t.Fatal("unknown variant should error")
	}
}
