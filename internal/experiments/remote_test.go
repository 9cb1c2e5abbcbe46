package experiments

import (
	"encoding/json"
	"sync/atomic"
	"testing"

	"repro/internal/partition"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/workload"
)

// runnerRemote adapts a second, fully local Runner into a Remote —
// the in-process stand-in for an expd server. It records the keys it
// was asked for so tests can pin the canonical-key contract.
type runnerRemote struct {
	r     *Runner
	calls atomic.Uint64
	fail  atomic.Bool
	keys  chan string
}

func newRunnerRemote(r *Runner) *runnerRemote {
	return &runnerRemote{r: r, keys: make(chan string, 128)}
}

func (f *runnerRemote) record(key string) bool {
	f.calls.Add(1)
	select {
	case f.keys <- key:
	default:
	}
	return !f.fail.Load()
}

func (f *runnerRemote) RemoteRun(key string, sc sim.Scale, seed uint64, g workload.Group,
	scheme sim.SchemeKind, threshold float64, v Variant, _ sim.Fidelity) (*sim.Results, bool) {
	if !f.record(key) {
		return nil, false
	}
	res, err := f.r.RunGroupVariant(g, scheme, threshold, v)
	if err != nil {
		return nil, false
	}
	return res, true
}

func (f *runnerRemote) RemoteAlone(key string, sc sim.Scale, seed uint64,
	benchmark string, cores int, _ sim.Fidelity) (*sim.Results, bool) {
	if !f.record(key) {
		return nil, false
	}
	res, err := f.r.AloneResults(benchmark, cores)
	if err != nil {
		return nil, false
	}
	return res, true
}

func (f *runnerRemote) RemoteProfile(key string, sc sim.Scale, seed uint64,
	benchmark string, cores int, _ sim.Fidelity) (partition.CoreProfile, bool) {
	if !f.record(key) {
		return partition.CoreProfile{}, false
	}
	p, err := f.r.Profile(benchmark, cores)
	if err != nil {
		return partition.CoreProfile{}, false
	}
	return p, true
}

func jsonOf(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestRemoteLayerServesRuns: with a Remote installed, the runner asks
// it before simulating — zero local simulations, byte-identical
// results, and the key handed to the Remote is the canonical store
// key.
func TestRemoteLayerServesRuns(t *testing.T) {
	sc := sim.UnitScale()
	g, err := workload.FindGroup("G2-1")
	if err != nil {
		t.Fatal(err)
	}
	backend := NewRunner(Config{Scale: sc})
	want, err := backend.RunGroup(g, sim.CoopPart)
	if err != nil {
		t.Fatal(err)
	}

	remote := newRunnerRemote(backend)
	front := NewRunner(Config{Scale: sc, Remote: remote})
	got, err := front.RunGroup(g, sim.CoopPart)
	if err != nil {
		t.Fatal(err)
	}
	if jsonOf(t, got) != jsonOf(t, want) {
		t.Fatal("remote-served result differs from backend computation")
	}
	if n := front.Simulations(); n != 0 {
		t.Fatalf("front runner simulated %d times despite the remote", n)
	}
	if remote.calls.Load() == 0 {
		t.Fatal("remote never consulted")
	}
	wantKey := front.RunKey(g, sim.CoopPart, DefaultThreshold, VariantNone)
	select {
	case key := <-remote.keys:
		if key != wantKey {
			t.Fatalf("remote asked for key %q, canonical is %q", key, wantKey)
		}
	default:
		t.Fatal("no key recorded")
	}

	// Second identical run: memoised, no second remote call.
	calls := remote.calls.Load()
	if _, err := front.RunGroup(g, sim.CoopPart); err != nil {
		t.Fatal(err)
	}
	if remote.calls.Load() != calls {
		t.Fatal("memoised run consulted the remote again")
	}
}

// TestRemoteFailureFallsBackLocally: a Remote answering ok=false is a
// clean miss — the runner simulates locally and the results match a
// never-remote run exactly.
func TestRemoteFailureFallsBackLocally(t *testing.T) {
	sc := sim.UnitScale()
	g, err := workload.FindGroup("G2-2")
	if err != nil {
		t.Fatal(err)
	}
	baseline := NewRunner(Config{Scale: sc})
	want, err := baseline.RunGroup(g, sim.UCP)
	if err != nil {
		t.Fatal(err)
	}

	backend := NewRunner(Config{Scale: sc})
	remote := newRunnerRemote(backend)
	remote.fail.Store(true)
	front := NewRunner(Config{Scale: sc, Remote: remote})
	got, err := front.RunGroup(g, sim.UCP)
	if err != nil {
		t.Fatal(err)
	}
	if jsonOf(t, got) != jsonOf(t, want) {
		t.Fatal("local fallback result differs from baseline")
	}
	if front.Simulations() == 0 {
		t.Fatal("front runner never simulated despite remote failure")
	}
	if remote.calls.Load() == 0 {
		t.Fatal("failing remote never consulted")
	}
}

// TestRemoteResultsPublishedToStore: results fetched remotely are Put
// into the local store, so a later run (new process, no server) hits
// disk instead of re-simulating or re-fetching.
func TestRemoteResultsPublishedToStore(t *testing.T) {
	sc := sim.UnitScale()
	g, err := workload.FindGroup("G2-3")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{Logf: func(string, ...any) {}})
	if err != nil {
		t.Fatal(err)
	}
	backend := NewRunner(Config{Scale: sc})
	remote := newRunnerRemote(backend)
	front := NewRunner(Config{Scale: sc, Remote: remote, Store: st})
	want, err := front.RunGroup(g, sim.Unmanaged)
	if err != nil {
		t.Fatal(err)
	}
	calls := remote.calls.Load()
	if calls == 0 {
		t.Fatal("remote never consulted")
	}

	// Fresh process equivalent: same store dir, no remote.
	st2, err := store.Open(dir, store.Options{Logf: func(string, ...any) {}})
	if err != nil {
		t.Fatal(err)
	}
	later := NewRunner(Config{Scale: sc, Store: st2})
	got, err := later.RunGroup(g, sim.Unmanaged)
	if err != nil {
		t.Fatal(err)
	}
	if jsonOf(t, got) != jsonOf(t, want) {
		t.Fatal("store round trip of a remote result differs")
	}
	if n := later.Simulations(); n != 0 {
		t.Fatalf("later runner simulated %d times; remote result was not published to the store", n)
	}
}

// TestStorePreemptsRemote: a disk hit answers before the remote is
// consulted — the lookup ladder is memory, store, remote, simulate.
func TestStorePreemptsRemote(t *testing.T) {
	sc := sim.UnitScale()
	g, err := workload.FindGroup("G2-4")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{Logf: func(string, ...any) {}})
	if err != nil {
		t.Fatal(err)
	}
	warm := NewRunner(Config{Scale: sc, Store: st})
	if _, err := warm.RunGroup(g, sim.FairShare); err != nil {
		t.Fatal(err)
	}

	st2, err := store.Open(dir, store.Options{Logf: func(string, ...any) {}})
	if err != nil {
		t.Fatal(err)
	}
	backend := NewRunner(Config{Scale: sc})
	remote := newRunnerRemote(backend)
	front := NewRunner(Config{Scale: sc, Store: st2, Remote: remote})
	if _, err := front.RunGroup(g, sim.FairShare); err != nil {
		t.Fatal(err)
	}
	if n := remote.calls.Load(); n != 0 {
		t.Fatalf("remote consulted %d times despite a warm store", n)
	}
	if n := front.Simulations(); n != 0 {
		t.Fatalf("front runner simulated %d times despite a warm store", n)
	}
}
