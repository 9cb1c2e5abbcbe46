package experiments

import (
	"encoding/json"
	"sync/atomic"
	"testing"

	"repro/internal/core"
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

// resultKind drives one kind of result — a group run, a solo run or a
// DynCPE profile — through a runner, so every lookup-chain test pins
// all three kinds.
type resultKind struct {
	name string
	get  func(r *Runner) (any, error)
	key  func(r *Runner) string
}

func resultKinds(g workload.Group, scheme sim.SchemeKind) []resultKind {
	b, cores := g.Benchmarks[0], len(g.Benchmarks)
	return []resultKind{
		{"run",
			func(r *Runner) (any, error) { return r.RunGroup(g, scheme) },
			func(r *Runner) string { return r.RunKey(g, scheme, DefaultThreshold, core.VariantNone) }},
		{"alone",
			func(r *Runner) (any, error) { return r.AloneResults(b, cores) },
			func(r *Runner) string { return r.AloneKey(b, cores) }},
		{"profile",
			func(r *Runner) (any, error) { return r.Profile(b, cores) },
			func(r *Runner) string { return r.ProfileKey(b, cores) }},
	}
}

func openStore(t *testing.T, dir string) *store.Store {
	t.Helper()
	st, err := store.Open(dir, store.Options{Logf: func(string, ...any) {}})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestRemoteLayerServesRuns: with a Remote installed, the runner asks
// it before simulating — zero local simulations, byte-identical
// results, and the key handed to the Remote is the canonical store
// key. The group run is DynCPE: a remote hit must also skip its
// profile runs, so the remote sees exactly one request.
func TestRemoteLayerServesRuns(t *testing.T) {
	sc := sim.UnitScale()
	g, err := workload.FindGroup("G2-1")
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range resultKinds(g, sim.DynCPE) {
		t.Run(k.name, func(t *testing.T) {
			backend := NewRunner(Config{Scale: sc})
			want, err := k.get(backend)
			if err != nil {
				t.Fatal(err)
			}

			remote := newRunnerRemote(backend)
			front := NewRunner(Config{Scale: sc, Remote: remote})
			got, err := k.get(front)
			if err != nil {
				t.Fatal(err)
			}
			if jsonOf(t, got) != jsonOf(t, want) {
				t.Fatal("remote-served result differs from backend computation")
			}
			if n := front.Simulations(); n != 0 {
				t.Fatalf("front runner simulated %d times despite the remote", n)
			}
			if n := remote.calls.Load(); n != 1 {
				t.Fatalf("remote consulted %d times, want 1", n)
			}
			if key := <-remote.keys; key != k.key(front) {
				t.Fatalf("remote asked for key %q, canonical is %q", key, k.key(front))
			}

			// Second identical request: memoised, no second remote call.
			if _, err := k.get(front); err != nil {
				t.Fatal(err)
			}
			if remote.calls.Load() != 1 {
				t.Fatal("memoised result consulted the remote again")
			}
		})
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
	for _, k := range resultKinds(g, sim.UCP) {
		t.Run(k.name, func(t *testing.T) {
			want, err := k.get(NewRunner(Config{Scale: sc}))
			if err != nil {
				t.Fatal(err)
			}

			remote := newRunnerRemote(NewRunner(Config{Scale: sc}))
			remote.fail.Store(true)
			front := NewRunner(Config{Scale: sc, Remote: remote})
			got, err := k.get(front)
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
		})
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
	for _, k := range resultKinds(g, sim.Unmanaged) {
		t.Run(k.name, func(t *testing.T) {
			dir := t.TempDir()
			remote := newRunnerRemote(NewRunner(Config{Scale: sc}))
			front := NewRunner(Config{Scale: sc, Remote: remote, Store: openStore(t, dir)})
			want, err := k.get(front)
			if err != nil {
				t.Fatal(err)
			}
			if remote.calls.Load() == 0 {
				t.Fatal("remote never consulted")
			}

			// Fresh process equivalent: same store dir, no remote.
			later := NewRunner(Config{Scale: sc, Store: openStore(t, dir)})
			got, err := k.get(later)
			if err != nil {
				t.Fatal(err)
			}
			if jsonOf(t, got) != jsonOf(t, want) {
				t.Fatal("store round trip of a remote result differs")
			}
			if n := later.Simulations(); n != 0 {
				t.Fatalf("later runner simulated %d times; remote result was not published to the store", n)
			}
		})
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
	for _, k := range resultKinds(g, sim.FairShare) {
		t.Run(k.name, func(t *testing.T) {
			dir := t.TempDir()
			if _, err := k.get(NewRunner(Config{Scale: sc, Store: openStore(t, dir)})); err != nil {
				t.Fatal(err)
			}

			remote := newRunnerRemote(NewRunner(Config{Scale: sc}))
			front := NewRunner(Config{Scale: sc, Store: openStore(t, dir), Remote: remote})
			if _, err := k.get(front); err != nil {
				t.Fatal(err)
			}
			if n := remote.calls.Load(); n != 0 {
				t.Fatalf("remote consulted %d times despite a warm store", n)
			}
			if n := front.Simulations(); n != 0 {
				t.Fatalf("front runner simulated %d times despite a warm store", n)
			}
		})
	}
}
