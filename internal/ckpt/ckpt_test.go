package ckpt

import (
	"reflect"
	"testing"

	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/workload"
)

// testCfg is the oracle workload: CoopPart on a two-core group at unit
// scale exercises the richest snapshot surface (UMONs, the transition
// engine, way gating) while staying millisecond-fast.
func testCfg(t *testing.T) sim.RunConfig {
	t.Helper()
	g, err := workload.FindGroup("G2-8")
	if err != nil {
		t.Fatal(err)
	}
	return sim.RunConfig{
		Scale: sim.UnitScale(), Scheme: sim.CoopPart, Group: g,
		Threshold: 0.05, Seed: 1,
	}
}

// testEvery puts three mid-run boundaries (30k/60k/90k) inside unit
// scale's 120k-instruction measured region.
const testEvery = 30_000

func storeOptions(t *testing.T) store.Options {
	return store.Options{
		Logf: func(format string, args ...any) { t.Logf("store: "+format, args...) },
	}
}

func openStore(t *testing.T, dir string, opts store.Options) *store.Store {
	t.Helper()
	s, err := store.Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func managerOptions(t *testing.T, st *store.Store, every uint64) Options {
	return Options{
		Store: st, Every: every,
		Logf: func(format string, args ...any) { t.Logf("ckpt: "+format, args...) },
	}
}

// TestRunBitIdenticalAcrossLayers is the core oracle: the identical
// RunConfig through every checkpointing configuration — storeless,
// disk-backed with mid-run checkpoints, and a fresh-process resume
// over the populated directory — must produce results deeply equal to
// plain sim.Run.
func TestRunBitIdenticalAcrossLayers(t *testing.T) {
	// The case keeps the subtest name it had when this test looped over
	// fidelity tiers (the exact tier's value, rendered "\x00"), so its
	// pass history stays under one name.
	t.Run("\x00", func(t *testing.T) {
		cfg := testCfg(t)
		want, err := sim.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}

		mem := New(Options{Logf: func(string, ...any) {}})
		res, err := mem.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res, want) {
			t.Fatal("storeless checkpointed run differs from sim.Run")
		}
		if stats := mem.Stats(); stats != (Stats{WarmupsComputed: 1}) {
			t.Fatalf("storeless run stats off: %v", stats)
		}

		dir := t.TempDir()
		st := openStore(t, dir, storeOptions(t))
		m := New(managerOptions(t, st, testEvery))
		res, err = m.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res, want) {
			t.Fatal("disk-checkpointed run differs from sim.Run")
		}
		stats := m.Stats()
		if stats.WarmupsComputed != 1 || stats.CheckpointsWritten < 2 {
			t.Fatalf("first run stats off: %v", stats)
		}

		// A "new process" (fresh store and manager over the same
		// directory) must resume from the newest mid-run checkpoint
		// and still land on identical results.
		st2 := openStore(t, dir, storeOptions(t))
		m2 := New(managerOptions(t, st2, testEvery))
		res, err = m2.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res, want) {
			t.Fatal("resumed run differs from sim.Run")
		}
		stats = m2.Stats()
		if stats.MidRunResumed != 1 {
			t.Fatalf("rerun did not resume from a mid-run checkpoint: %v", stats)
		}
		if stats.WarmupsComputed != 0 {
			t.Fatalf("rerun re-warmed despite a mid-run checkpoint: %v", stats)
		}
	})
}

// TestProfileRunResumesAtBoundaryZero: a CaptureProfile run publishes
// its end of warm-up, profiling state included, as boundary 0, and a
// rerun over the directory restores it and reproduces the profile
// exactly. The benchmark's solo run, which differs only in
// CaptureProfile, has its own key and warms itself.
func TestProfileRunResumesAtBoundaryZero(t *testing.T) {
	g, err := workload.FindGroup("G2-8")
	if err != nil {
		t.Fatal(err)
	}
	b := g.Benchmarks[0]
	profile, err := sim.ProfileConfig(b, sim.UnitScale(), len(g.Benchmarks), 1)
	if err != nil {
		t.Fatal(err)
	}
	alone, err := sim.AloneConfig(b, sim.UnitScale(), len(g.Benchmarks), 1)
	if err != nil {
		t.Fatal(err)
	}
	want, err := sim.Run(profile)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	first := New(managerOptions(t, openStore(t, dir, storeOptions(t)), 0))
	if _, err := first.Run(profile); err != nil {
		t.Fatal(err)
	}
	if stats := first.Stats(); stats != (Stats{WarmupsComputed: 1, CheckpointsWritten: 1}) {
		t.Fatalf("first run stats off: %v", stats)
	}

	rerun := New(managerOptions(t, openStore(t, dir, storeOptions(t)), 0))
	got, err := rerun.Run(profile)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("profile run resumed at boundary 0 differs from sim.Run")
	}
	if stats := rerun.Stats(); stats.WarmupsResumed != 1 || stats.WarmupsComputed != 0 {
		t.Fatalf("profile rerun did not resume at boundary 0: %v", stats)
	}
	if _, err := rerun.Run(alone); err != nil {
		t.Fatal(err)
	}
	if stats := rerun.Stats(); stats.WarmupsComputed != 1 {
		t.Fatalf("solo run resumed the profile run's checkpoint: %v", stats)
	}
}

// TestMisfitCheckpointNeverTrusted: a checkpoint that passes its
// checksum but does not fit the system is rejected part-way through
// RestoreSnapshot (a truncated L1D of core 1 fails after the scheme and
// core 0 are restored). Whether it sits at boundary 0 or at a later
// boundary, the run must start over on a fresh system rather than
// continue from the half-restored one.
func TestMisfitCheckpointNeverTrusted(t *testing.T) {
	cfg := testCfg(t)
	want, err := sim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := sim.NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sys.Warmup()
	good, err := sys.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	misfit, err := sys.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	misfit.L1D[1].Tags = misfit.L1D[1].Tags[:1]

	id := identity(cfg)
	for _, c := range []struct {
		name    string
		entries map[uint64]*sim.Snapshot
	}{
		{"boundary 0", map[uint64]*sim.Snapshot{0: misfit}},
		{"mid-run", map[uint64]*sim.Snapshot{0: good, testEvery: misfit}},
	} {
		st := openStore(t, t.TempDir(), storeOptions(t))
		for b, snap := range c.entries {
			st.Put(id.key(b), snap)
		}
		m := New(managerOptions(t, st, testEvery))
		res, err := m.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res, want) {
			t.Fatalf("%s: run over a misfit checkpoint differs from sim.Run (cycles %d, want %d)",
				c.name, res.Cycles, want.Cycles)
		}
		if stats := m.Stats(); stats.WarmupsComputed != 1 || stats.WarmupsResumed+stats.MidRunResumed != 0 {
			t.Fatalf("%s: misfit checkpoint counted as resumed: %v", c.name, stats)
		}
	}
}

// TestCorruptCheckpointQuarantinedAndRecomputed: with every read
// corrupted in flight, the store must quarantine each poisoned
// checkpoint and the manager must recompute — results identical, no
// corrupt state ever trusted.
func TestCorruptCheckpointQuarantinedAndRecomputed(t *testing.T) {
	cfg := testCfg(t)
	want, err := sim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	st := openStore(t, dir, storeOptions(t))
	if _, err := New(managerOptions(t, st, testEvery)).Run(cfg); err != nil {
		t.Fatal(err)
	}

	// Second process: its reads flip a payload byte on the way back.
	ffs := store.NewFaultFS(store.OSFS{})
	ffs.FlipReadByte(700)
	opts := storeOptions(t)
	opts.FS = ffs
	st2 := openStore(t, dir, opts)
	m2 := New(managerOptions(t, st2, testEvery))
	res, err := m2.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, want) {
		t.Fatal("run over corrupted checkpoints differs from sim.Run")
	}
	if stats := m2.Stats(); stats.MidRunResumed != 0 || stats.WarmupsResumed != 0 {
		t.Fatalf("corrupt checkpoints were trusted: %v", stats)
	}
	if stats := st2.Stats(); stats.CorruptQuarantined == 0 {
		t.Fatalf("no corrupt entry quarantined: %v", stats)
	}
}

// TestCrashConsistencyEveryWriteBoundary is the checkpoint half of the
// store's failure-model proof: a checkpointed run is crashed at every
// write-path syscall boundary in turn (torn and untorn Write
// variants), the directory is reopened clean, and the invariants hold
// — the crashing run itself still returns correct results (the store
// degrades, the simulation never depends on it), every entry on disk
// is absent or fully valid, and a rerun over the survivors produces
// identical results.
func TestCrashConsistencyEveryWriteBoundary(t *testing.T) {
	if testing.Short() {
		t.Skip("enumerates O(100) crash points, a simulation each")
	}
	cfg := testCfg(t)
	want, err := sim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	crashed := 0
	for _, torn := range []int{0, 7} {
		for n := 1; ; n++ {
			dir := t.TempDir()
			ffs := store.NewFaultFS(store.OSFS{})
			ffs.CrashAtWriteOp(n, torn)
			opts := storeOptions(t)
			opts.FS = ffs
			// Open is part of the enumerated write path (its MkdirAll
			// calls); a crash inside it surfaces as an Open error, which
			// CLI callers degrade to a memory-only store — do the same.
			st, err := store.Open(dir, opts)
			if err != nil && !ffs.Fired() {
				t.Fatalf("crash at write-op %d (torn=%d): Open failed without a crash: %v", n, torn, err)
			}
			if err == nil {
				m := New(managerOptions(t, st, testEvery))
				res, err := m.Run(cfg)
				if err != nil {
					t.Fatalf("crash at write-op %d (torn=%d): checkpointed run failed: %v", n, torn, err)
				}
				if !reflect.DeepEqual(res, want) {
					t.Fatalf("crash at write-op %d (torn=%d): crashing run's results differ", n, torn)
				}
			}
			if !ffs.Fired() {
				// n walked past the last syscall of a complete run: the
				// schedule is exhausted.
				if n <= 6 {
					t.Fatalf("crash schedule exhausted implausibly early (n=%d)", n)
				}
				break
			}
			crashed++

			// Reopen over the real filesystem, as a rerun would.
			re := openStore(t, dir, storeOptions(t))
			valid, corrupt, err := re.Verify()
			if err != nil {
				t.Fatalf("crash at write-op %d (torn=%d): Verify: %v", n, torn, err)
			}
			if corrupt != 0 {
				t.Fatalf("crash at write-op %d (torn=%d): %d corrupt entries visible (absent-or-valid violated)",
					n, torn, corrupt)
			}
			_ = valid // any prefix of the checkpoint sequence is legal

			m2 := New(managerOptions(t, re, testEvery))
			res, err := m2.Run(cfg)
			if err != nil {
				t.Fatalf("crash at write-op %d (torn=%d): rerun failed: %v", n, torn, err)
			}
			if !reflect.DeepEqual(res, want) {
				t.Fatalf("crash at write-op %d (torn=%d): resumed results differ", n, torn)
			}
		}
	}
	if crashed == 0 {
		t.Fatal("no crash point ever fired — the schedule is not wired up")
	}
	t.Logf("enumerated %d crash points", crashed)
}

// TestEveryWithoutStoreIgnored: mid-run cadence without a store is
// normalised away (a checkpoint that dies with the process protects
// nothing), and the run still matches the oracle.
func TestEveryWithoutStoreIgnored(t *testing.T) {
	cfg := testCfg(t)
	want, err := sim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := New(Options{Every: testEvery, Logf: func(string, ...any) {}})
	if m.every != 0 {
		t.Fatalf("Every without Store kept cadence %d", m.every)
	}
	res, err := m.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, want) {
		t.Fatal("storeless manager run differs from sim.Run")
	}
}
