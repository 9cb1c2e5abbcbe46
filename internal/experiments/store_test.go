package experiments

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/workload"
)

func openStoreT(t *testing.T, dir string) *store.Store {
	t.Helper()
	s, err := store.Open(dir, store.Options{
		Logf:        func(format string, args ...any) { t.Logf("store: "+format, args...) },
		LockTimeout: time.Second,
		StaleAge:    time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestStoreServesSecondProcess is the tentpole contract at runner
// level: a second runner over the same cache dir (a "second process")
// regenerates Figure 5 with ZERO simulator executions and identical
// output — memory → disk → simulate, with disk answering everything.
func TestStoreServesSecondProcess(t *testing.T) {
	dir := t.TempDir()
	cold := NewRunner(Config{Scale: sim.UnitScale(), Store: openStoreT(t, dir)})
	figCold, err := cold.Fig5()
	if err != nil {
		t.Fatal(err)
	}
	if cold.Simulations() == 0 {
		t.Fatal("cold runner executed no simulations")
	}

	warm := NewRunner(Config{Scale: sim.UnitScale(), Store: openStoreT(t, dir)})
	figWarm, err := warm.Fig5()
	if err != nil {
		t.Fatal(err)
	}
	if got := warm.Simulations(); got != 0 {
		t.Fatalf("warm runner executed %d simulations, want 0 (all from disk)", got)
	}
	if !reflect.DeepEqual(figCold, figWarm) {
		t.Fatalf("disk-served Fig5 differs:\ncold: %+v\nwarm: %+v", figCold, figWarm)
	}

	// And the disk layer is bit-transparent: a storeless runner agrees.
	none := NewRunner(Config{Scale: sim.UnitScale()})
	figNone, err := none.Fig5()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(figNone, figWarm) {
		t.Fatalf("store-served Fig5 differs from storeless run")
	}
}

// TestStoreRoundTripsResultsExactly pins bit-identity at the Results
// level: every field (floats included) survives the disk round trip.
func TestStoreRoundTripsResultsExactly(t *testing.T) {
	dir := t.TempDir()
	g := workload.Groups2[0]
	r1 := NewRunner(Config{Scale: sim.UnitScale(), Store: openStoreT(t, dir)})
	res1, err := r1.RunGroup(g, sim.DynCPE) // DynCPE: profiles ride along
	if err != nil {
		t.Fatal(err)
	}
	r2 := NewRunner(Config{Scale: sim.UnitScale(), Store: openStoreT(t, dir)})
	res2, err := r2.RunGroup(g, sim.DynCPE)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Simulations() != 0 {
		t.Fatalf("second runner simulated %d times", r2.Simulations())
	}
	if res1 == res2 {
		t.Fatal("second runner returned the same pointer — not a disk read")
	}
	b1, _ := json.Marshal(res1)
	b2, _ := json.Marshal(res2)
	if string(b1) != string(b2) {
		t.Fatalf("results differ across the disk round trip:\n%s\n%s", b1, b2)
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
		t.Fatalf("weighted speedup differs: %v vs %v", ws1, ws2)
	}
}

// TestStoreKeysDistinguishSeedAndScale: different seeds and scales
// must never alias in the shared directory.
func TestStoreKeysDistinguishSeedAndScale(t *testing.T) {
	dir := t.TempDir()
	g := workload.Groups2[0]
	r1 := NewRunner(Config{Scale: sim.UnitScale(), Seed: 1, Store: openStoreT(t, dir)})
	if _, err := r1.RunGroup(g, sim.FairShare); err != nil {
		t.Fatal(err)
	}
	r2 := NewRunner(Config{Scale: sim.UnitScale(), Seed: 2, Store: openStoreT(t, dir)})
	if _, err := r2.RunGroup(g, sim.FairShare); err != nil {
		t.Fatal(err)
	}
	if r2.Simulations() != 1 {
		t.Fatalf("seed-2 run served from seed-1's cache entry (%d sims)", r2.Simulations())
	}

	// A scale differing in any field (not just name) gets its own keys.
	mutated := sim.UnitScale()
	mutated.MSHRs++
	r3 := NewRunner(Config{Scale: mutated, Seed: 1, Store: openStoreT(t, dir)})
	if _, err := r3.RunGroup(g, sim.FairShare); err != nil {
		t.Fatal(err)
	}
	if r3.Simulations() != 1 {
		t.Fatalf("mutated scale served from original scale's entry (%d sims)", r3.Simulations())
	}
}

// TestStoreCorruptEntryRecomputed: flipping bytes of a cached entry on
// disk must cost exactly one quarantine + one recomputation, with the
// recomputed result identical to the original.
func TestStoreCorruptEntryRecomputed(t *testing.T) {
	dir := t.TempDir()
	g := workload.Groups2[0]
	st1 := openStoreT(t, dir)
	r1 := NewRunner(Config{Scale: sim.UnitScale(), Store: st1})
	res1, err := r1.RunGroup(g, sim.CoopPart)
	if err != nil {
		t.Fatal(err)
	}

	// Corrupt every entry in the store.
	ents, err := os.ReadDir(filepath.Join(dir, "entries"))
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, e := range ents {
		if !strings.HasSuffix(e.Name(), ".entry") {
			continue
		}
		p := filepath.Join(dir, "entries", e.Name())
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)/2] ^= 0xff
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		n++
	}
	if n == 0 {
		t.Fatal("no entries written by the cold run")
	}

	st2 := openStoreT(t, dir)
	r2 := NewRunner(Config{Scale: sim.UnitScale(), Store: st2})
	res2, err := r2.RunGroup(g, sim.CoopPart)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Simulations() != 1 {
		t.Fatalf("corrupt entry did not force recomputation (%d sims)", r2.Simulations())
	}
	b1, _ := json.Marshal(res1)
	b2, _ := json.Marshal(res2)
	if string(b1) != string(b2) {
		t.Fatal("recomputed result differs from original")
	}
	if stats := st2.Stats(); stats.CorruptQuarantined != 1 || stats.Degraded {
		t.Fatalf("stats after corruption: %v (want 1 quarantine, not degraded)", stats)
	}
	// The repaired entry serves the next process.
	r3 := NewRunner(Config{Scale: sim.UnitScale(), Store: openStoreT(t, dir)})
	if _, err := r3.RunGroup(g, sim.CoopPart); err != nil {
		t.Fatal(err)
	}
	if r3.Simulations() != 0 {
		t.Fatal("recomputed entry was not republished")
	}
}

// TestStoreFaultsNeverBreakARun is the graceful-degradation acceptance
// line: with a filesystem that fails every write, the runner's output
// is identical to a storeless run — the broken cache costs nothing but
// the recomputation.
func TestStoreFaultsNeverBreakARun(t *testing.T) {
	ffs := store.NewFaultFS(store.OSFS{})
	// Fail every data write from the start: op 1 onward.
	for i := 1; i < 400; i++ {
		ffs.FailOp(store.OpWrite, i, nil)
	}
	st, err := store.Open(t.TempDir(), store.Options{
		FS:          ffs,
		Logf:        func(format string, args ...any) { t.Logf("store: "+format, args...) },
		LockTimeout: time.Millisecond,
		StaleAge:    time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	broken := NewRunner(Config{Scale: sim.UnitScale(), Store: st})
	figBroken, err := broken.Fig5()
	if err != nil {
		t.Fatalf("runner failed because its cache was broken: %v", err)
	}
	clean := NewRunner(Config{Scale: sim.UnitScale()})
	figClean, err := clean.Fig5()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(figBroken, figClean) {
		t.Fatal("broken-store output differs from storeless output")
	}
	if stats := st.Stats(); !stats.Degraded {
		t.Fatalf("store never degraded under persistent write faults: %v", stats)
	}
}
