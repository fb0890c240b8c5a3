#!/usr/bin/env bash
# Builds thermflowgate, thermflowd and the perfbench program from this
# checkout into .bench_build, then runs perfbench with the given
# arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload kernels-open --seed 1 --seconds 15 --trace 0
#
# Everything it writes (Go build cache, binaries, pool state, span
# files) stays under .bench_build. It exits non-zero, printing no
# result, when the current directory is not a thermflow checkout.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/thermflowgate || ! -d cmd/thermflowd || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the root of a thermflow checkout" >&2
	exit 2
fi

build="$PWD/.bench_build"
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp"
export GOPATH="$build/gopath" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
# The go command keeps telemetry counters under the user config dir.
export XDG_CONFIG_HOME="$build/config"

go build -o "$build/bin/" ./cmd/thermflowgate ./cmd/thermflowd
(cd perfbench && go build -o "$build/bin/perfbench" .)
exec "$build/bin/perfbench" -bin "$build/bin" -work "$build/perfbench" "$@"
