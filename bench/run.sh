#!/bin/sh
# Entry point of BENCHMARK.json's command: build the benchmark from
# source and run it with the arguments given. Everything the Go
# toolchain writes (build cache, temporary files, the binary) stays in
# .bench_build/ inside the checkout. Outside a checkout of the module
# the build fails and so does this script.
set -eu
root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
go build -o "$build/bench" ./bench
exec "$build/bench" "$@"
