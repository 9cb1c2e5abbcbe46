package ckpt

import (
	"reflect"
	"testing"
	"time"

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
		Logf:        func(format string, args ...any) { t.Logf("store: "+format, args...) },
		LockTimeout: 50 * time.Millisecond,
		StaleAge:    10 * time.Millisecond,
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
// RunConfig through every checkpointing configuration — nil manager,
// memory-only, disk-backed, disk-backed with mid-run checkpoints, and
// a fresh-process resume over the populated directory — must produce
// results deeply equal to plain sim.Run.
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

		var nilMgr *Manager
		res, err := nilMgr.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res, want) {
			t.Fatal("nil-manager run differs from sim.Run")
		}

		mem := New(Options{Logf: func(string, ...any) {}})
		res, err = mem.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res, want) {
			t.Fatal("memory-only checkpointed run differs from sim.Run")
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

// TestWarmupSharedBetweenAloneAndProfile pins the exactly-once
// contract: a benchmark's alone run and its CaptureProfile run differ
// only in profile capture, so one manager warms the pair once and both
// results still match their uncheckpointed oracles.
func TestWarmupSharedBetweenAloneAndProfile(t *testing.T) {
	g, err := workload.FindGroup("G2-8")
	if err != nil {
		t.Fatal(err)
	}
	b := g.Benchmarks[0]
	alone, err := sim.AloneConfig(b, sim.UnitScale(), len(g.Benchmarks), 1)
	if err != nil {
		t.Fatal(err)
	}
	profile, err := sim.ProfileConfig(b, sim.UnitScale(), len(g.Benchmarks), 1)
	if err != nil {
		t.Fatal(err)
	}
	wantAlone, err := sim.Run(alone)
	if err != nil {
		t.Fatal(err)
	}
	wantProfile, err := sim.Run(profile)
	if err != nil {
		t.Fatal(err)
	}

	m := New(Options{Logf: func(format string, args ...any) { t.Logf("ckpt: "+format, args...) }})
	gotAlone, err := m.Run(alone)
	if err != nil {
		t.Fatal(err)
	}
	gotProfile, err := m.Run(profile)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotAlone, wantAlone) {
		t.Fatal("checkpointed alone run differs from sim.Run")
	}
	if !reflect.DeepEqual(gotProfile, wantProfile) {
		t.Fatal("checkpointed profile run differs from sim.Run")
	}
	stats := m.Stats()
	if stats.WarmupsComputed != 1 {
		t.Fatalf("alone+profile pair warmed %d times, want exactly 1 (%v)", stats.WarmupsComputed, stats)
	}
	if stats.WarmupsResumed != 1 {
		t.Fatalf("profile run did not resume the alone warm-up: %v", stats)
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
