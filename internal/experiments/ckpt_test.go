package experiments

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"repro/internal/ckpt"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/workload"
)

// TestWarmupSharingExactlyOnce: across a TestScale sweep (every scheme
// on one group, plus the solo and profiling runs weighted speedup and
// DynCPE pull in), every simulation warms exactly once, and a manager
// without a store writes no checkpoint. No two runs share a warm-up:
// a benchmark's solo and profile runs differ in CaptureProfile, so
// each warms its own one-core prefix.
func TestWarmupSharingExactlyOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a TestScale sweep")
	}
	g, err := workload.FindGroup("G2-8")
	if err != nil {
		t.Fatal(err)
	}
	mgr := ckpt.New(ckpt.Options{Logf: func(format string, args ...any) { t.Logf("ckpt: "+format, args...) }})
	r := NewRunner(Config{Scale: sim.TestScale(), Seed: 1, Checkpoints: mgr})
	if err := r.PrefetchSpeedup([]workload.Group{g}, sim.AllSchemes); err != nil {
		t.Fatal(err)
	}

	// 5 scheme runs + 2 solo + 2 profile simulations, each warmed once.
	want := uint64(len(sim.AllSchemes) + 2*len(g.Benchmarks))
	if sims := r.Simulations(); sims != want {
		t.Fatalf("sweep ran %d simulations, want %d", sims, want)
	}
	if stats := mgr.Stats(); stats != (ckpt.Stats{WarmupsComputed: want}) {
		t.Fatalf("storeless sweep stats %v, want %d warm-ups computed and nothing else", stats, want)
	}
}

// TestWarmupSharingAcrossProcesses: a second runner over the same
// checkpoint directory (a rerun after a crash, or another process of a
// distributed sweep) re-warms nothing and reproduces the first
// runner's results exactly.
func TestWarmupSharingAcrossProcesses(t *testing.T) {
	g, err := workload.FindGroup("G2-8")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	opts := store.Options{
		Logf:        func(format string, args ...any) { t.Logf("store: "+format, args...) },
		LockTimeout: 50 * time.Millisecond,
		StaleAge:    10 * time.Millisecond,
	}
	logf := func(format string, args ...any) { t.Logf("ckpt: "+format, args...) }

	run := func() (*Runner, ckpt.Stats, *sim.Results) {
		st, err := store.Open(dir, opts)
		if err != nil {
			t.Fatal(err)
		}
		mgr := ckpt.New(ckpt.Options{Store: st, Every: 30_000, Logf: logf})
		r := NewRunner(Config{Scale: sim.UnitScale(), Seed: 1, Checkpoints: mgr})
		if err := r.PrefetchSpeedup([]workload.Group{g}, sim.AllSchemes); err != nil {
			t.Fatal(err)
		}
		res, err := r.RunGroup(g, sim.CoopPart)
		if err != nil {
			t.Fatal(err)
		}
		return r, mgr.Stats(), res
	}

	r1, stats1, res1 := run()
	if stats1.WarmupsComputed == 0 || stats1.CheckpointsWritten == 0 {
		t.Fatalf("first process wrote no checkpoints: %v", stats1)
	}
	r2, stats2, res2 := run()
	if stats2.WarmupsComputed != 0 {
		t.Fatalf("second process re-warmed %d times, want 0 (%v)", stats2.WarmupsComputed, stats2)
	}
	if stats2.WarmupsResumed+stats2.MidRunResumed == 0 {
		t.Fatalf("second process resumed nothing: %v", stats2)
	}
	if !reflect.DeepEqual(res1, res2) {
		t.Fatal("second process's results differ from the first's")
	}
	ws1, err := r1.WeightedSpeedup(res1)
	if err != nil {
		t.Fatal(err)
	}
	ws2, err := r2.WeightedSpeedup(res2)
	if err != nil {
		t.Fatal(err)
	}
	if ws1 != ws2 {
		t.Fatalf("weighted speedup drifted across processes: %v vs %v", ws1, ws2)
	}
}

// TestFigureBytesIdenticalWithCheckpointing: the figure pipeline's
// rendered output — the bytes a byte-comparison of cmd/figures would
// see — is identical between a default runner (a storeless
// checkpoint manager) and one running disk-backed mid-run
// checkpointing.
func TestFigureBytesIdenticalWithCheckpointing(t *testing.T) {
	render := func(mgr *ckpt.Manager) []byte {
		r := NewRunner(Config{Scale: sim.UnitScale(), Seed: 1, Checkpoints: mgr})
		fig, err := r.Figure(5)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := fig.WriteTable(&buf); err != nil {
			t.Fatal(err)
		}
		if err := fig.WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	baseline := render(nil) // NewRunner substitutes a storeless manager

	st, err := store.Open(t.TempDir(), store.Options{
		Logf: func(format string, args ...any) { t.Logf("store: "+format, args...) },
	})
	if err != nil {
		t.Fatal(err)
	}
	mgr := ckpt.New(ckpt.Options{Store: st, Every: 30_000,
		Logf: func(format string, args ...any) { t.Logf("ckpt: "+format, args...) }})
	if got := render(mgr); !bytes.Equal(got, baseline) {
		t.Fatal("figure bytes differ under disk-backed checkpointing")
	}
	// And a rerun over the populated directory — the crash-resume path.
	mgr2 := ckpt.New(ckpt.Options{Store: st, Every: 30_000,
		Logf: func(format string, args ...any) { t.Logf("ckpt: "+format, args...) }})
	if got := render(mgr2); !bytes.Equal(got, baseline) {
		t.Fatal("figure bytes differ on checkpoint resume")
	}
	if stats := mgr2.Stats(); stats.MidRunResumed+stats.WarmupsResumed == 0 {
		t.Fatalf("rerun reused no checkpoints: %v", stats)
	}
}
