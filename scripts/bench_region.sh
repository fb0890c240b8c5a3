#!/bin/sh
# Runs the mega-module solver benchmarks and records the region solve
# plane's scorecard in BENCH_region.json: per-benchmark ns/op and
# rounds-to-fixpoint for the monolithic dense reference, the partitioned
# exact-mode solve and the partitioned σ-slack Jacobi solve, plus the
# derived region-vs-dense speedups and the host's CPU budget for
# context.
#
# Provenance: the report always records the host cpu count and
# GOMAXPROCS, and always records rounds-to-fixpoint (a per-core-valid
# algorithmic fact: slack mode trades a bounded error budget for far
# fewer synchronization rounds). The parallel speedup fields are
# refused outright on hosts with fewer than 4 cpus — exact-mode region
# solving is DAG-wave parallelism, and time-slicing the waves on one
# or two cores measures scheduler overhead, not the win. CI re-runs
# this on a multi-core runner, where the fields are emitted.
#
# Usage: scripts/bench_region.sh [output.json]
set -eu

out="${1:-BENCH_region.json}"
raw="$(mktemp)"
trap 'rm -f "$raw"' EXIT

cpus="$(nproc 2>/dev/null || echo 1)"
gomaxprocs="${GOMAXPROCS:-$cpus}"

go test . -run '^$' \
	-bench 'BenchmarkMegaSolver' \
	-benchmem -count 1 -timeout 20m | tee "$raw"

awk -v cpus="$cpus" -v gomaxprocs="$gomaxprocs" '
/^Benchmark/ {
	name = $1
	sub(/-[0-9]+$/, "", name)
	iters[name] = $2
	ns[name] = $3
	for (i = 4; i < NF; i++)
		if ($(i + 1) == "rounds") rounds[name] = $i
	n++
}
END {
	printf "{\n  \"cpus\": %d,\n  \"gomaxprocs\": %d,\n  \"benchmarks\": [\n", cpus, gomaxprocs
	i = 0
	for (name in ns) order[++i] = name
	# Emit in a stable order (POSIX awk has no asort).
	m = i
	for (a = 1; a <= m; a++)
		for (b = a + 1; b <= m; b++)
			if (order[b] < order[a]) { t = order[a]; order[a] = order[b]; order[b] = t }
	for (a = 1; a <= m; a++) {
		name = order[a]
		printf "    {\"name\": \"%s\", \"iterations\": %s, \"ns_per_op\": %s, \"rounds\": %s}%s\n", \
			name, iters[name], ns[name], rounds[name], (a < m ? "," : "")
	}
	printf "  ],\n"
	sd = ns["BenchmarkMegaSolverDense"]
	rx = ns["BenchmarkMegaSolverRegion"]
	rs = ns["BenchmarkMegaSolverRegionSlack"]
	# Rounds are an algorithmic fact, valid on any host: exact mode
	# matches dense sweep for sweep; slack mode converges in far fewer
	# exchange rounds.
	printf "  \"rounds_monolithic_dense\": %s,\n", rounds["BenchmarkMegaSolverDense"]
	printf "  \"rounds_region_exact\": %s,\n", rounds["BenchmarkMegaSolverRegion"]
	printf "  \"rounds_region_slack\": %s,\n", rounds["BenchmarkMegaSolverRegionSlack"]
	if (cpus >= 4) {
		printf "  \"workers\": %d,\n", gomaxprocs
		printf "  \"speedup_region_vs_monolithic_dense\": %.2f,\n", (rx > 0 ? sd / rx : 0)
		printf "  \"speedup_region_slack_vs_monolithic_dense\": %.2f\n", (rs > 0 ? sd / rs : 0)
	} else {
		printf "  \"region_speedups_omitted\": \"host has %d cpu(s): DAG-wave parallelism is unmeasurable; re-run on a >=4-core machine\"\n", cpus
	}
	printf "}\n"
}' "$raw" > "$out"

echo "wrote $out (cpus=$cpus gomaxprocs=$gomaxprocs)"
