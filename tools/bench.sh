#!/bin/sh
# tools/bench.sh — run the repository's key benchmarks and write their
# parsed results to a JSON file (default BENCH_PR12.json in the repo
# root). Extra arguments are passed through to cmd/bench, so CI can run
# a fast smoke with:
#
#   tools/bench.sh -benchtime 1x -out bench-smoke.json
#
# and a real measurement with the defaults:
#
#   tools/bench.sh
set -eu
cd "$(dirname "$0")/.."

out=BENCH_PR12.json
for arg in "$@"; do
    case $arg in -out|-out=*) out="" ;; esac
done

if [ -n "$out" ]; then
    exec go run ./cmd/bench -out "$out" "$@"
fi
exec go run ./cmd/bench "$@"
