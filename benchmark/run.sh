#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it with the
# given arguments. BENCHMARK.json names this script as the benchmark command.
#
# The binary is built first and then exec'd, so no wrapper process outlives
# it; the Go build cache lives under benchmark/out/ so nothing is written
# outside the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f go.mod ] || [ ! -d ssidb ]; then
	echo "benchmark/run.sh: the ssidb engine sources are not in $(pwd); the benchmark measures them and cannot run without them" >&2
	exit 3
fi
mkdir -p benchmark/out
export GOCACHE="$PWD/benchmark/out/gocache" GOFLAGS=-mod=mod GOTOOLCHAIN=local
go build -o benchmark/out/benchmark ./benchmark
exec benchmark/out/benchmark "$@"
