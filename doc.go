// Package repro reproduces "Cooperative Partitioning: Energy-Efficient
// Cache Partitioning for High-Performance CMPs" (Sundararajan,
// Porpodas, Jones, Topham, Franke — HPCA 2012) as a Go library.
//
// The paper's contribution — way-aligned LLC partitioning with RAP/WAP
// permission registers, a thresholded look-ahead allocator, cooperative
// takeover for way migration, and gated-Vdd power-off of unallocated
// ways — lives in internal/core. The substrates it is evaluated on
// (set-associative caches, utility monitors, a DRAM model, out-of-order
// core timing, synthetic SPEC-like workloads, the comparison schemes
// Unmanaged / Fair Share / Dynamic CPE / UCP, and an energy model) are
// implemented from scratch in the sibling internal packages; see
// DESIGN.md for the inventory and concurrency architecture. The
// measured reproduction of every table and figure is regenerated by
// cmd/report; EXPERIMENTS.md at the repo root commits its TestScale
// output, including the many-core scaling sweep (DESIGN.md §9). The
// simulator is exact and bit-identical at every layer (DESIGN.md §11
// records why its approximate tiers were retired). Results persist
// across processes via internal/store, a crash-safe content-addressed
// on-disk cache every binary shares through -cache-dir (DESIGN.md §12),
// and distribute across machines via internal/service and cmd/expd, an
// HTTP runner front-end every binary can consult through -server —
// with retry, backoff and transparent local fallback (DESIGN.md §13).
// The four experiment binaries share one bootstrap, internal/cliutil:
// it validates their common flags and wires the store, checkpoint and
// service layers into a ready experiments.Runner, whose group runs,
// solo runs and profiles all resolve through one lookup chain (memo,
// disk, remote, simulate; DESIGN.md §6).
// Long runs survive crashes via internal/ckpt (DESIGN.md §14):
// -checkpoint-dir persists warm-up prefixes (each computed exactly
// once per identity and shared across schemes' solo/profile runs and
// across processes) and, with -checkpoint-every, mid-run simulator
// snapshots, so a SIGKILLed sweep rerun over the same directory
// resumes from its last valid checkpoint with byte-identical output.
//
// The root package holds the benchmark harness (bench_test.go): one
// testing.B per table and figure of the paper's evaluation, plus the
// ablations of DESIGN.md §7 and microbenchmarks of the simulator's hot
// paths.
package repro
