package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"
)

// payload is a stand-in for sim.Results: a mix of the field shapes the
// store round-trips (floats must survive bit-exactly).
type payload struct {
	Name   string
	IPC    []float64
	Cycles int64
	Nested struct {
		Counts []uint64
	}
}

func samplePayload() payload {
	p := payload{
		Name:   "G2-8/CoopPart",
		IPC:    []float64{0.1234567890123456789, 1.0 / 3.0, 2.5e-17},
		Cycles: 123456789,
	}
	p.Nested.Counts = []uint64{1, 2, 1 << 62}
	return p
}

// testOptions silences logging and shortens every timeout so fault
// paths resolve in milliseconds.
func testOptions(t *testing.T) Options {
	return Options{
		Logf:        func(format string, args ...any) { t.Logf("store: "+format, args...) },
		LockTimeout: 50 * time.Millisecond,
		StaleAge:    10 * time.Millisecond,
	}
}

func openTest(t *testing.T, dir string, opts Options) *Store {
	t.Helper()
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, testOptions(t))
	want := samplePayload()

	var miss payload
	if s.Get("k1", &miss) {
		t.Fatal("Get on empty store hit")
	}
	s.Put("k1", want)

	var got payload
	if !s.Get("k1", &got) {
		t.Fatal("Get after Put missed")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round-trip mismatch:\ngot  %+v\nwant %+v", got, want)
	}

	// A second process (fresh Store over the same dir) sees it too.
	s2 := openTest(t, dir, testOptions(t))
	got = payload{}
	if !s2.Get("k1", &got) {
		t.Fatal("Get from second store missed")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("cross-store mismatch: %+v", got)
	}

	st := s.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Writes != 1 || st.CorruptQuarantined != 0 || st.Degraded {
		t.Fatalf("stats = %v", st)
	}
}

// findEntry returns the path of the single entry file in the store.
func findEntry(t *testing.T, dir string) string {
	t.Helper()
	ents, err := os.ReadDir(filepath.Join(dir, "entries"))
	if err != nil {
		t.Fatal(err)
	}
	var paths []string
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), ".entry") {
			paths = append(paths, filepath.Join(dir, "entries", e.Name()))
		}
	}
	if len(paths) != 1 {
		t.Fatalf("want exactly 1 entry, found %d", len(paths))
	}
	return paths[0]
}

// TestCorruptEntryQuarantinedExactlyOnce pins the observability
// contract: a corrupt entry is quarantined and counted exactly once,
// reads keep working, and a recompute-Put repairs the address.
func TestCorruptEntryQuarantinedExactlyOnce(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, testOptions(t))
	want := samplePayload()
	s.Put("k1", want)

	// Flip one payload byte on disk.
	path := findEntry(t, dir)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-2] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := openTest(t, dir, testOptions(t))
	var got payload
	if s2.Get("k1", &got) {
		t.Fatal("corrupt entry served as a hit")
	}
	if st := s2.Stats(); st.CorruptQuarantined != 1 {
		t.Fatalf("after first Get: corrupt-quarantined = %d, want 1", st.CorruptQuarantined)
	}
	if s2.Get("k1", &got) {
		t.Fatal("second Get hit")
	}
	if st := s2.Stats(); st.CorruptQuarantined != 1 {
		t.Fatalf("after second Get: corrupt-quarantined = %d, want exactly 1", st.CorruptQuarantined)
	}

	// The corpse is in quarantine, not lost.
	q, err := os.ReadDir(filepath.Join(dir, "quarantine"))
	if err != nil {
		t.Fatal(err)
	}
	if len(q) != 1 {
		t.Fatalf("quarantine holds %d files, want 1", len(q))
	}

	// Recompute-and-Put repairs the address.
	s2.Put("k1", want)
	got = payload{}
	if !s2.Get("k1", &got) || !reflect.DeepEqual(got, want) {
		t.Fatalf("repaired entry not served: hit=%v got=%+v", got.Name != "", got)
	}
	if st := s2.Stats(); st.Degraded {
		t.Fatal("corruption must not degrade the store")
	}
}

// TestVersionMismatchIsMissNotCorrupt: an entry from a different format
// version reads as a plain miss (no quarantine) and is overwritten by
// the next Put.
func TestVersionMismatchIsMissNotCorrupt(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, testOptions(t))
	s.Put("k1", samplePayload())

	path := findEntry(t, dir)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	mutated := strings.Replace(string(data), `"version":1`, `"version":99`, 1)
	if mutated == string(data) {
		t.Fatal("test could not find version field to mutate")
	}
	if err := os.WriteFile(path, []byte(mutated), 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := openTest(t, dir, testOptions(t))
	var got payload
	if s2.Get("k1", &got) {
		t.Fatal("future-version entry served as a hit")
	}
	if st := s2.Stats(); st.CorruptQuarantined != 0 {
		t.Fatalf("version mismatch quarantined: %v", st)
	}
	if valid, corrupt, err := s2.Verify(); valid != 1 || corrupt != 0 || err != nil {
		t.Fatalf("Verify of a future-version entry = %d valid, %d corrupt, %v; want 1 valid", valid, corrupt, err)
	}
	s2.Put("k1", samplePayload())
	if !s2.Get("k1", &got) {
		t.Fatal("overwrite after version mismatch did not take")
	}
}

// TestWriteFaultDegradesGracefully: ENOSPC on the data write must not
// fail Put, must mark the key bad (no retry), and must leave no
// partial entry behind.
func TestWriteFaultDegradesGracefully(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFaultFS(OSFS{})
	opts := testOptions(t)
	opts.FS = ffs
	s := openTest(t, dir, opts)

	// Write op 1 is the lockfile, 2 the whole entry: land the ENOSPC
	// on the entry write.
	ffs.FailOp(OpWrite, 2, syscall.ENOSPC)
	s.Put("k1", samplePayload())
	st := s.Stats()
	if st.Writes != 0 || st.WriteSkips != 1 || st.Faults != 1 {
		t.Fatalf("stats after ENOSPC = %v", st)
	}
	var got payload
	if s.Get("k1", &got) {
		t.Fatal("partial entry visible after failed Put")
	}
	ents, err := os.ReadDir(filepath.Join(dir, "entries"))
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		t.Fatalf("entries dir holds %d files after failed Put, want 0", len(ents))
	}

	// The key is bad for this process: the disk is not retried.
	s.Put("k1", samplePayload())
	if st := s.Stats(); st.WriteSkips != 2 || st.Faults != 1 {
		t.Fatalf("bad key retried the disk: %v", st)
	}
}

// TestConsecutiveFaultsDisableStore walks the whole degradation
// ladder: maxFaults consecutive faults flip the store to degraded, and
// from then on Get/Put are memory-only no-ops that still never fail.
func TestConsecutiveFaultsDisableStore(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFaultFS(OSFS{})
	opts := testOptions(t)
	opts.FS = ffs
	s := openTest(t, dir, opts)

	for i := 1; i <= maxFaults; i++ {
		if st := s.Stats(); st.Degraded {
			t.Fatalf("store degraded after %d consecutive faults: %v", i-1, st)
		}
		ffs.FailOp(OpWrite, i, syscall.EIO)
		s.Put(strings.Repeat("k", i), samplePayload())
	}
	st := s.Stats()
	if !st.Degraded {
		t.Fatalf("store not degraded after %d consecutive faults: %v", maxFaults, st)
	}
	// Degraded store: everything still answers, nothing touches disk.
	before := ffs.WriteOps()
	s.Put("fresh", samplePayload())
	var got payload
	if s.Get("fresh", &got) {
		t.Fatal("degraded store claimed a hit")
	}
	if ffs.WriteOps() != before {
		t.Fatal("degraded store still issued write syscalls")
	}
}

// TestSuccessResetsFaultLadder: intermittent faults with successes in
// between never disable the store. The run holds 2·(maxFaults−1)
// faults, past the limit unless the success in the middle resets it.
func TestSuccessResetsFaultLadder(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFaultFS(OSFS{})
	opts := testOptions(t)
	opts.FS = ffs
	s := openTest(t, dir, opts)

	faults := func(n int) {
		for i := 0; i < n; i++ {
			// Each Put fails its first write, the lockfile; distinct
			// keys, because a failed key never touches the disk again.
			ffs.FailOp(OpWrite, ffs.OpCount(OpWrite)+1, syscall.EIO)
			s.Put("bad"+strconv.Itoa(ffs.OpCount(OpWrite)), samplePayload())
		}
	}
	faults(maxFaults - 1)
	s.Put("ok", samplePayload()) // success resets the ladder
	faults(maxFaults - 1)
	st := s.Stats()
	if st.Faults != 2*(maxFaults-1) || st.Writes != 1 {
		t.Fatalf("fault schedule did not run as planned: %v", st)
	}
	if st.Degraded {
		t.Fatalf("store degraded despite interleaved successes: %v", st)
	}
}

// TestOpenFailureIsReported: an unusable root errors out of Open so
// binaries can log once and run storeless.
func TestOpenFailureIsReported(t *testing.T) {
	dir := t.TempDir()
	file := filepath.Join(dir, "not-a-dir")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(file, testOptions(t)); err == nil {
		t.Fatal("Open over a regular file succeeded")
	}
}

// TestSweepTmpReapsDeadProcessFiles: leftover temp files from dead
// pids are removed at Open; live ones are kept.
func TestSweepTmpReapsDeadProcessFiles(t *testing.T) {
	dir := t.TempDir()
	openTest(t, dir, testOptions(t)) // create layout
	tmp := filepath.Join(dir, "tmp")
	dead := filepath.Join(tmp, "abc.999999.1.tmp") // pid 999999: beyond default pid_max
	live := filepath.Join(tmp, "abc."+strconv.Itoa(os.Getpid())+".2.tmp")
	for _, p := range []string{dead, live} {
		if err := os.WriteFile(p, []byte("partial"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	openTest(t, dir, testOptions(t))
	if _, err := os.Stat(dead); !os.IsNotExist(err) {
		t.Fatal("dead process's tmp file survived the sweep")
	}
	if _, err := os.Stat(live); err != nil {
		t.Fatal("live process's tmp file was reaped")
	}
}

// TestQuarantineCapReapsOldest: quarantine/ is a bounded forensic
// holding area, not a landfill — beyond maxQuarantine the oldest
// .corrupt files (mtime, name tie-break) are reaped on Open and after
// each quarantine, counted in Stats.Reaped.
func TestQuarantineCapReapsOldest(t *testing.T) {
	seedQuarantine := func(t *testing.T, dir string, n int) {
		t.Helper()
		qdir := filepath.Join(dir, "quarantine")
		if err := os.MkdirAll(qdir, 0o755); err != nil {
			t.Fatal(err)
		}
		base := time.Now().Add(-time.Hour)
		for i := 0; i < n; i++ {
			name := filepath.Join(qdir, "entry"+strconv.Itoa(i)+".corrupt")
			if err := os.WriteFile(name, []byte("junk"), 0o644); err != nil {
				t.Fatal(err)
			}
			mod := base.Add(time.Duration(i) * time.Minute)
			if err := os.Chtimes(name, mod, mod); err != nil {
				t.Fatal(err)
			}
		}
	}

	t.Run("open-reaps-beyond-cap", func(t *testing.T) {
		dir := t.TempDir()
		seedQuarantine(t, dir, maxQuarantine+3)
		s := openTest(t, dir, testOptions(t))
		if st := s.Stats(); st.Reaped != 3 {
			t.Fatalf("reaped %d, want 3: %v", st.Reaped, st)
		}
		left, err := os.ReadDir(filepath.Join(dir, "quarantine"))
		if err != nil || len(left) != maxQuarantine {
			t.Fatalf("quarantine holds %d files, want %d (%v)", len(left), maxQuarantine, err)
		}
		// The three oldest are the ones reaped.
		for _, e := range left {
			for i := 0; i < 3; i++ {
				if e.Name() == "entry"+strconv.Itoa(i)+".corrupt" {
					t.Fatalf("oldest-first reaping violated: %s survived", e.Name())
				}
			}
		}
	})

	t.Run("quarantine-path-reaps", func(t *testing.T) {
		dir := t.TempDir()
		seedQuarantine(t, dir, maxQuarantine-1)
		s := openTest(t, dir, testOptions(t))
		s.Put("k1", samplePayload())
		s.Put("k2", samplePayload())
		// Corrupt both entries on disk, then read them back: each Get
		// quarantines its entry, and the second quarantine trips the cap.
		ents, err := os.ReadDir(filepath.Join(dir, "entries"))
		if err != nil || len(ents) != 2 {
			t.Fatalf("want 2 entries, got %d (%v)", len(ents), err)
		}
		for _, e := range ents {
			p := filepath.Join(dir, "entries", e.Name())
			data, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			data[len(data)-2] ^= 1
			if err := os.WriteFile(p, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		var got payload
		if s.Get("k1", &got) || s.Get("k2", &got) {
			t.Fatal("corrupt entries served")
		}
		st := s.Stats()
		if st.CorruptQuarantined != 2 {
			t.Fatalf("quarantined %d, want 2: %v", st.CorruptQuarantined, st)
		}
		if st.Reaped != 1 {
			t.Fatalf("reaped %d, want 1: %v", st.Reaped, st)
		}
		left, _ := os.ReadDir(filepath.Join(dir, "quarantine"))
		if len(left) != maxQuarantine {
			t.Fatalf("quarantine holds %d files, want %d", len(left), maxQuarantine)
		}
	})
}

// TestEntryBytesPinned pins the file Put writes for a fixed key and
// payload, name and content: a cache directory written by one build
// must read the same under the next, in both directions.
func TestEntryBytesPinned(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, testOptions(t))
	s.Put("k1", samplePayload())
	path := findEntry(t, dir)
	if got, want := filepath.Base(path), hashName("k1")+".entry"; got != want {
		t.Fatalf("entry file %s, want %s", got, want)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(data)
	const want = "596a7123c163b6b3d93e70b8459c37abc91b678a66e1aa64e9a6763c43051cd9"
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Fatalf("entry bytes changed: sha256 %s, want %s\n%s", got, want, data)
	}
}

// TestUnsealChecksDamageFirst: Unseal reports damage before it reports
// a frame of another version or key, so a damaged frame of any version
// is quarantined by Get and counted corrupt by Verify, while an intact
// one of another version or key is only a miss.
func TestUnsealChecksDamageFirst(t *testing.T) {
	payload := []byte(`{"x":42}`)
	frame, err := Seal("m", 2, "k", payload)
	if err != nil {
		t.Fatal(err)
	}
	flipped := bytes.Clone(frame)
	flipped[len(flipped)-2] ^= 1
	damage := errors.New("damage")
	for _, c := range []struct {
		name    string
		magic   string
		version int
		key     string
		data    []byte
		want    error // nil, ErrVersion, ErrKey, or damage for any other error
	}{
		{"intact", "m", 2, "k", frame, nil},
		{"any-key", "m", 2, "", frame, nil},
		{"other-version", "m", 3, "k", frame, ErrVersion},
		{"other-key", "m", 2, "j", frame, ErrKey},
		{"other-magic", "n", 2, "k", frame, damage},
		{"no-header", "m", 2, "k", payload, damage},
		{"torn-other-version", "m", 3, "j", frame[:len(frame)-1], damage},
		{"flipped-other-key", "m", 2, "j", flipped, damage},
	} {
		got, err := Unseal(c.magic, c.version, c.key, c.data)
		kind := err
		if err != nil && !errors.Is(err, ErrVersion) && !errors.Is(err, ErrKey) {
			kind = damage
		}
		if kind != c.want {
			t.Errorf("%s: Unseal error %v, want %v", c.name, err, c.want)
		}
		if err == nil && !bytes.Equal(got, payload) {
			t.Errorf("%s: payload %q, want %q", c.name, got, payload)
		}
	}
}
