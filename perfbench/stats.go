package main

import (
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// percentile returns the nearest-rank p-th percentile of xs (0 < p <=
// 100): the smallest value with at least p% of the values at or below
// it, so it is always one of the measured values. It is 0 for no
// values.
func percentile(xs []float64, p int) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := (p*len(s) + 99) / 100
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// usage reads the process's CPU seconds (user plus system, all threads)
// and its peak resident set in MB.
func usage() (cpuS, peakRSSMB float64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime), float64(ru.Maxrss) * 1024 / 1e6
}

// goSamples are the runtime counters goRuntime reads, kept so that
// reading them allocates nothing.
var goSamples = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}

// goRuntime reads the bytes the Go heap has allocated and the GC cycles
// it has completed since the process started. It is not safe for
// concurrent use.
func goRuntime() (allocBytes, gcCycles float64) {
	metrics.Read(goSamples)
	return float64(goSamples[0].Value.Uint64()), float64(goSamples[1].Value.Uint64())
}

// refSink keeps the reference kernel's result alive.
var refSink uint64

// splitMix runs n SplitMix64 steps and returns the sum of their
// outputs. It touches no memory beyond registers.
func splitMix(n int) uint64 {
	var x, sum uint64
	for i := 0; i < n; i++ {
		x += 0x9e3779b97f4a7c15
		z := (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		sum += z ^ (z >> 31)
	}
	return sum
}

// refKernelMS times a fixed CPU-bound kernel, 2^22 SplitMix64 steps,
// and returns the fastest of five runs in milliseconds. Its time tracks
// the host CPU's speed, not the simulator's.
func refKernelMS() float64 {
	best := 0.0
	for rep := 0; rep < 5; rep++ {
		t0 := time.Now()
		refSink += splitMix(1 << 22)
		if ms := float64(time.Since(t0)) / 1e6; rep == 0 || ms < best {
			best = ms
		}
	}
	return best
}
