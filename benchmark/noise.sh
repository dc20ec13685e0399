#!/usr/bin/env bash
# The noise study behind NOISE.md and the bounds in BENCHMARK.json: the full
# untraced benchmark, RUNS times for each of two sets, alternating the sets
# so that drift of the box lands on both, every run with a seed of its own.
# Both sets measure the same commit; they should agree.
#
#   bash benchmark/noise.sh [RUNS]      # default 10; about 2 minutes per run of a set
set -euo pipefail
cd "$(dirname "$0")/.."
runs="${1:-10}"
commit="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
mkdir -p benchmark/out
rm -f benchmark/baseline/set-a.json benchmark/baseline/set-b.json
for i in $(seq 1 "$runs"); do
	bash benchmark/run.sh -seed "$i" -commit "$commit" -record benchmark/baseline/set-a.json >benchmark/out/noise-a-"$i".log
	bash benchmark/run.sh -seed "$((runs + i))" -commit "$commit" -record benchmark/baseline/set-b.json >benchmark/out/noise-b-"$i".log
done
bash benchmark/run.sh -compare benchmark/baseline/set-a.json benchmark/baseline/set-b.json
