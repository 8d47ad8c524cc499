#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it. Called
# from the repository root as BENCHMARK.json's command; extra arguments go to
# the benchmark (see main.go). Everything it writes lands in benchmark/out/.
set -euo pipefail
cd "$(dirname "$0")/.."
out="$PWD/benchmark/out"
mkdir -p "$out"
# The toolchain is told to stay offline and to keep its caches in the checkout.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOENV=off
go build -C benchmark -o "$out/benchmark" .
exec "$out/benchmark" "$@"
