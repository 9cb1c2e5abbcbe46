#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs it
# with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload pair --seed 1 --seconds 20 --trace 0
#
# Run it from the root of the repository. The Go build cache, the
# binary and everything a run writes stay under .bench_build/ there.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
