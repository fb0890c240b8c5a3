#!/bin/sh
# Runs the batch-engine and solver benchmarks and records the results
# in BENCH_batch.json: per-benchmark ns/op plus derived speedups
# (8-worker vs serial batch, warm cache vs cold) and the host's CPU
# budget for context.
#
# Provenance: the report always records the host cpu count and
# GOMAXPROCS. On a single-cpu host the worker-scaling "speedup" fields
# are refused outright — an 8-worker pool time-slicing one core
# measures scheduler overhead, not parallel speedup, and a committed
# number like that reads as a (bogus) regression or win. CI re-runs
# this on a multi-core runner, where the fields are emitted.
#
# Usage: scripts/bench_batch.sh [output.json]
set -eu

out="${1:-BENCH_batch.json}"
raw="$(mktemp)"
trap 'rm -f "$raw"' EXIT

cpus="$(nproc 2>/dev/null || echo 1)"
gomaxprocs="${GOMAXPROCS:-$cpus}"

go test . -run '^$' \
	-bench 'BenchmarkCompileBatch|BenchmarkBatchOverlap|BenchmarkSolverDense' \
	-benchmem -count 1 -timeout 20m | tee "$raw"

awk -v cpus="$cpus" -v gomaxprocs="$gomaxprocs" '
/^Benchmark/ {
	name = $1
	sub(/-[0-9]+$/, "", name)
	iters[name] = $2
	ns[name] = $3
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
		printf "    {\"name\": \"%s\", \"iterations\": %s, \"ns_per_op\": %s}%s\n", \
			name, iters[name], ns[name], (a < m ? "," : "")
	}
	printf "  ],\n"
	b1 = ns["BenchmarkCompileBatch/workers=1"]
	b8 = ns["BenchmarkCompileBatch/workers=8"]
	o1 = ns["BenchmarkBatchOverlap/workers=1"]
	o8 = ns["BenchmarkBatchOverlap/workers=8"]
	cold = ns["BenchmarkCompileBatch/workers=8"]
	warm = ns["BenchmarkCompileBatchCached"]
	if (cpus >= 2) {
		printf "  \"speedup_compile_8_workers_vs_serial\": %.2f,\n", (b8 > 0 ? b1 / b8 : 0)
		printf "  \"speedup_overlap_8_workers_vs_serial\": %.2f,\n", (o8 > 0 ? o1 / o8 : 0)
	} else {
		printf "  \"worker_speedups_omitted\": \"single-cpu host: worker scaling is unmeasurable; re-run on a multi-core machine\",\n"
	}
	# Cache warmth is a per-core effect — valid on any host.
	printf "  \"speedup_warm_cache_vs_cold\": %.2f\n", (warm > 0 ? cold / warm : 0)
	printf "}\n"
}' "$raw" > "$out"

echo "wrote $out (cpus=$cpus gomaxprocs=$gomaxprocs)"
