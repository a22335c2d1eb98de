#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ (Go build cache
# included, so nothing is written outside the checkout) and runs it with the
# given arguments. Run from the repository root:
#
#	bash scripts/perfbench/run.sh --workload redundancy-raw --seed 1 --seconds 30 --trace 0
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOTOOLCHAIN=local GOFLAGS= GOWORK=off
(cd "$root/scripts/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
