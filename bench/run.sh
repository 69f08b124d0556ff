#!/usr/bin/env bash
# The command BENCHMARK.json names: builds the harness from source inside the
# checkout (go build cache included, so nothing is written outside it) and
# runs it with the arguments given. The harness builds cfddiscover and
# cfdserve itself, before any clock starts.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
mkdir -p .bench_build
export GOCACHE="$PWD/.bench_build/gocache" GOTOOLCHAIN=local
go build -o .bench_build/bench ./bench
exec .bench_build/bench "$@"
