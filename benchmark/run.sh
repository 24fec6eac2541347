#!/bin/bash
# benchmark/run.sh — what BENCHMARK.json runs. It builds the benchmark
# from source inside the checkout and runs it with the arguments given:
#
#   bash benchmark/run.sh --workload fleet-single --seed 7 --seconds 10 --trace 0
#
# `go run ./benchmark` does the same for a person at a prompt; this
# wrapper exists so that a measured run reads and writes nothing outside
# its checkout: the Go build cache, the toolchain's scratch space and
# the binary all live under .bench_build/, and the benchmark is exec'd
# directly, so no wrapper process sits between the caller and it.
set -eu
cd "$(dirname "$0")/.."

build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache"
export GOTMPDIR="$build/tmp"

# Incremental: with a warm cache and unchanged sources this is a
# fraction of a second.
go build -o "$build/benchmark" ./benchmark
exec "$build/benchmark" "$@"
