#!/usr/bin/env sh
# Shared bench-delta driver: the Makefile's bench-delta target and the
# CI bench-smoke job both run this script, so the benchmark set, the
# iteration budgets, and the benchdelta gating flags can never drift
# between local and CI invocations.
#
# The sparse ingest, high-fanout, store-build, chain, and scaling
# benchmarks need different iteration budgets (the fanout and scaling
# ones run a fixed-size stream per iteration), so they run as separate
# `go test -bench` invocations piped into ONE benchdelta process, which
# compares every line against the latest committed BENCH_PR*.json and
# exits non-zero on a regression beyond its tolerance.
#
# Extra arguments pass straight through to cmd/benchdelta, e.g.:
#   scripts/benchdelta.sh -tolerance -1     # disable the regression gate
set -eu
cd "$(dirname "$0")/.."
GO="${GO:-go}"

(
  "$GO" test -bench '^BenchmarkOperatorIngest$' -benchtime=20000x -run '^$' . ;
  "$GO" test -bench '^BenchmarkOperatorIngestFanout$' -benchtime=2x -run '^$' . ;
  "$GO" test -bench '^BenchmarkStoreBuild$' -benchtime=3x -run '^$' . ;
  "$GO" test -bench '^BenchmarkPipelineChain$' -benchtime=3x -run '^$' . ;
  "$GO" test -bench '^BenchmarkScalingIngest$' -benchtime=2x -run '^$' . ;
  "$GO" test -bench '^BenchmarkScalingFanout$' -benchtime=2x -run '^$' . ;
  "$GO" test -bench '^BenchmarkCheckpoint$' -benchtime=3x -run '^$' . ;
  "$GO" test -bench '^BenchmarkCheckpointIncremental$' -benchtime=15x -run '^$' . ;
  "$GO" test -bench '^BenchmarkTransportLink$' -benchtime=5000x -run '^$' ./internal/transport/
) | "$GO" run ./cmd/benchdelta "$@"
