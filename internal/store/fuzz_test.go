package store

import (
	"reflect"
	"testing"
)

// FuzzFaultSchedule drives Open/Put/Get/Put under an arbitrary
// byte-decoded fault schedule — targeted per-op failures, a crash
// point with torn writes, and read-byte corruption — and asserts the
// store's two absolutes: a Get that claims a hit returns exactly the
// stored value, and after reopening on a healthy filesystem every
// entry on disk is absent or fully valid. CI runs it as a short -fuzz
// smoke; the corpus also executes as a normal test.
func FuzzFaultSchedule(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 0})
	f.Add([]byte{3, 2, 1, 10, 1, 2})         // fail a write; crash mid-sequence
	f.Add([]byte{2, 1, 2, 2, 2, 2, 6, 1, 0}) // flip read bytes; fail a rename
	f.Add([]byte{1, 1, 1, 4, 1, 0, 8, 3, 0}) // crash on openfile; fail sync
	f.Add([]byte{9, 1, 0, 9, 2, 0, 8, 1, 0}) // syncdir + readdir faults
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		ffs := NewFaultFS(OSFS{})
		for i := 0; i+2 < len(data); i += 3 {
			op := Op(data[i] % uint8(opCount))
			n := int(data[i+1]%16) + 1
			switch data[i+2] % 3 {
			case 0:
				ffs.FailOp(op, n, nil)
			case 1:
				ffs.CrashAtWriteOp(n, int(data[i+2]/3))
			case 2:
				ffs.FlipReadByte(int(data[i+1]))
			}
		}
		opts := Options{FS: ffs, Logf: func(string, ...any) {}}
		want := samplePayloadFuzz()
		s, err := Open(dir, opts)
		if err == nil {
			s.Put("k1", want)
			var got fuzzPayload
			if s.Get("k1", &got) && !reflect.DeepEqual(got, want) {
				t.Fatalf("faulty-store hit returned wrong value: %+v", got)
			}
			s.Put("k2", want) // second key exercises post-fault behaviour
		}

		// A healthy process inherits the directory: invariant holds.
		clean, err := Open(dir, Options{Logf: func(string, ...any) {}})
		if err != nil {
			t.Fatalf("clean reopen failed: %v", err)
		}
		_, corrupt, err := clean.Verify()
		if err != nil {
			t.Fatalf("Verify: %v", err)
		}
		if corrupt != 0 {
			t.Fatalf("%d corrupt entries survived a clean reopen (absent-or-valid violated)", corrupt)
		}
		var got fuzzPayload
		if clean.Get("k1", &got) && !reflect.DeepEqual(got, want) {
			t.Fatalf("clean hit returned wrong value: %+v", got)
		}
	})
}

type fuzzPayload struct {
	Name string
	Vals []float64
	N    uint64
}

func samplePayloadFuzz() fuzzPayload {
	return fuzzPayload{Name: "fuzz", Vals: []float64{1.0 / 7.0, 3.14159e-9}, N: 1 << 63}
}
