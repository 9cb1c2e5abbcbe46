package store

import (
	"fmt"
	"testing"
)

// benchResults approximates a two-core sim.Results payload size.
type benchResults struct {
	Scheme     string
	Benchmarks []string
	IPC        []float64
	MPKI       []float64
	Cycles     int64
	Counters   []uint64
}

func benchValue() benchResults {
	v := benchResults{
		Scheme:     "CoopPart",
		Benchmarks: []string{"mcf", "namd"},
		IPC:        []float64{0.8231237, 1.2349871},
		MPKI:       []float64{12.31, 0.42},
		Cycles:     98765432,
	}
	for i := 0; i < 64; i++ {
		v.Counters = append(v.Counters, uint64(i)*977)
	}
	return v
}

func benchStore(b *testing.B) *Store {
	b.Helper()
	s, err := Open(b.TempDir(), Options{Logf: func(string, ...any) {}})
	if err != nil {
		b.Fatal(err)
	}
	return s
}

// BenchmarkStoreGetHit is the hit-path overhead a warm cache pays per
// memoised run — the cost that must stay negligible against the
// simulation it replaces (BENCH_5).
func BenchmarkStoreGetHit(b *testing.B) {
	s := benchStore(b)
	s.Put("key", benchValue())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var out benchResults
		if !s.Get("key", &out) {
			b.Fatal("miss")
		}
	}
}

// BenchmarkStoreGetMiss is the cold-lookup overhead added to every
// first-time simulation.
func BenchmarkStoreGetMiss(b *testing.B) {
	s := benchStore(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var out benchResults
		if s.Get("absent", &out) {
			b.Fatal("hit")
		}
	}
}

// BenchmarkStorePut is the publish cost (write + fsync + rename + dir
// fsync) paid once per simulated run.
func BenchmarkStorePut(b *testing.B) {
	s := benchStore(b)
	v := benchValue()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Put(fmt.Sprintf("key-%d", i), v)
	}
	if st := s.Stats(); st.Writes != uint64(b.N) {
		b.Fatalf("writes = %d, want %d (%v)", st.Writes, b.N, st)
	}
}
