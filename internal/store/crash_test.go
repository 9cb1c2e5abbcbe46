package store

import (
	"reflect"
	"testing"
)

// TestCrashConsistencyEverySyscallBoundary is the failure-model proof
// the acceptance criteria name: the write path is killed at every
// write-path syscall boundary in turn (including torn variants of each
// Write, where part of the buffer lands before the crash), the store
// is reopened over a clean filesystem, and the invariant checked —
// every entry is either absent or fully valid, and entries published
// before the crash are still served bit-exactly.
func TestCrashConsistencyEverySyscallBoundary(t *testing.T) {
	keyA, keyB := "pre-existing", "in-flight"
	wantA, wantB := samplePayload(), samplePayload()
	wantB.Name = "in-flight-value"

	crashed := 0
	for _, torn := range []int{0, 7} {
		for n := 1; ; n++ {
			dir := t.TempDir()

			// Seed keyA with a clean store: the crash must never be
			// able to damage an already-published entry.
			seed := openTest(t, dir, testOptions(t))
			seed.Put(keyA, wantA)
			if got := seed.Stats(); got.Writes != 1 {
				t.Fatalf("seed write failed: %v", got)
			}

			ffs := NewFaultFS(OSFS{})
			ffs.CrashAtWriteOp(n, torn)
			opts := testOptions(t)
			opts.FS = ffs
			// Open itself is part of the enumerated path (MkdirAll x5).
			s, err := Open(dir, opts)
			if err == nil {
				s.Put(keyB, wantB)
			}
			if !ffs.Fired() {
				// n walked past the last syscall of a complete
				// Open+Put: the schedule is exhausted.
				if n <= 6 {
					t.Fatalf("crash schedule exhausted implausibly early (n=%d)", n)
				}
				break
			}
			crashed++

			// Reopen over the real filesystem, as the next process
			// would, and check the invariant.
			re := openTest(t, dir, testOptions(t))
			valid, corrupt, err := re.Verify()
			if err != nil {
				t.Fatalf("crash at write-op %d (torn=%d): Verify: %v", n, torn, err)
			}
			if corrupt != 0 {
				t.Fatalf("crash at write-op %d (torn=%d): %d corrupt entries visible (absent-or-valid violated)",
					n, torn, corrupt)
			}
			if valid < 1 || valid > 2 {
				t.Fatalf("crash at write-op %d (torn=%d): %d entries, want 1 or 2", n, torn, valid)
			}
			var gotA payload
			if !re.Get(keyA, &gotA) || !reflect.DeepEqual(gotA, wantA) {
				t.Fatalf("crash at write-op %d (torn=%d): pre-existing entry lost or wrong", n, torn)
			}
			var gotB payload
			if re.Get(keyB, &gotB) && !reflect.DeepEqual(gotB, wantB) {
				t.Fatalf("crash at write-op %d (torn=%d): in-flight entry visible but wrong", n, torn)
			}
			if st := re.Stats(); st.CorruptQuarantined != 0 {
				t.Fatalf("crash at write-op %d (torn=%d): clean reopen quarantined %d entries",
					n, torn, st.CorruptQuarantined)
			}
		}
	}
	if crashed == 0 {
		t.Fatal("no crash point ever fired — the schedule is not wired up")
	}
	t.Logf("enumerated %d crash points", crashed)
}
