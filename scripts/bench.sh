#!/usr/bin/env bash
# Record one benchmark trajectory point, BENCH_<n>.json, from perfbench.
#
# Runs every workload that BENCHMARK.json gates through
# `bash perfbench/run.sh` for BENCHMARK.json's run_seconds: untraced at
# seeds 1, 2 and 3, then traced once at seed 1. It writes one JSON
# object to BENCH_<n>.json at the repo root, picking the first unused n:
#
#   .workloads.<w>.end_to_end.<metric>  median, min, max and spread_pct
#                                       ((max-min)/median, in %) of the
#                                       untraced runs, with unit and
#                                       direction from BENCHMARK.json
#   .workloads.<w>.layers               the traced run's metrics: the
#                                       per-layer table (counts, spans,
#                                       self time, ns per instruction)
#   .workloads.<w>.runs                 every run: seed, outcome counts,
#                                       host.ref_ms at both ends, metrics
#
# DESIGN.md §8 explains how to read a point. To compare two points:
#
#   jq '.workloads | map_values(.end_to_end | map_values(.median))' BENCH_7.json BENCH_8.json
#
# Needs jq. Everything the runs write stays under .bench_build/.
set -euo pipefail
cd "$(dirname "$0")/.."

n=0
while [ -e "BENCH_${n}.json" ]; do
	n=$((n + 1))
done
out="BENCH_${n}.json"

secs="$(jq .run_seconds BENCHMARK.json)"
raw=".bench_build/trajectory"
rm -rf "$raw"
mkdir -p "$raw"

# ref LOG END prints host.ref_ms_<END> from a run's summary line, the
# line before its JSON, or nothing when the line lacks it.
ref() {
	tail -n 2 "$1" | head -n 1 | grep -o "host.ref_ms_$2=[0-9.]*" | cut -d= -f2 || true
}

# run WORKLOAD SEED TRACE appends one run record to $raw/runs.jsonl.
run() {
	local log="$raw/$1-$2-$3.log"
	echo "bench: $1 seed $2 trace $3 (${secs}s)" >&2
	bash perfbench/run.sh --workload "$1" --seed "$2" --seconds "$secs" --trace "$3" >"$log"
	tail -n 1 "$log" | jq -c --arg w "$1" --argjson seed "$2" --argjson traced "$3" \
		--arg refstart "$(ref "$log" start)" --arg refend "$(ref "$log" end)" \
		'{workload: $w, seed: $seed, traced: ($traced == 1),
		  host_ref_ms_start: ($refstart | tonumber? // null),
		  host_ref_ms_end: ($refend | tonumber? // null),
		  correct, attempted, failed, metrics}' >>"$raw/runs.jsonl"
}

for w in $(jq -r '.workloads[].name' BENCHMARK.json); do
	for s in 1 2 3; do
		run "$w" "$s" 0
	done
	run "$w" 1 1
done

jq -s --slurpfile spec BENCHMARK.json --argjson secs "$secs" \
	--arg commit "$(git rev-parse HEAD)$(git diff --quiet HEAD -- . ':!BENCH_*.json' || echo -dirty)" \
	--arg date "$(date -u +%Y-%m-%dT%H:%M:%SZ)" \
	--arg cpu "$(grep -m1 'model name' /proc/cpuinfo | cut -d: -f2 | sed 's/^ //')" \
	--argjson nproc "$(nproc)" --arg go "$(go env GOVERSION)" '
	def median: sort | if length % 2 == 1 then .[length / 2 | floor]
		else (.[length / 2 - 1] + .[length / 2]) / 2 end;
	$spec[0].end_to_end as $e2e
	| {commit: $commit, date: $date, host: {cpu: $cpu, nproc: $nproc, go: $go},
	   seconds: $secs, command: $spec[0].command,
	   workloads: (group_by(.workload) | map(
		map(select(.traced | not)) as $runs
		| {key: .[0].workload, value: {
			end_to_end: ($e2e | map(.name as $m | ($runs | map(.metrics[$m].value)) as $v
				| {key: $m, value: {unit, better,
					median: ($v | median), min: ($v | min), max: ($v | max),
					spread_pct: (if ($v | median) > 0
						then (($v | max) - ($v | min)) / ($v | median) * 100 else null end)}})
				| from_entries),
			layers: (map(select(.traced)) | first | {seed, metrics}),
			runs: .}})
		| from_entries)}' "$raw/runs.jsonl" >"$out"

echo "wrote $out"
