#!/usr/bin/env sh
# Runs the replication micro-benchmarks (the direct-vs-legacy RefreshCatchup
# matrix, the end-to-end pipeline, session round trips, and the TCP
# propagation rows) and emits machine-readable results.
#
# Usage: bench/run_replication_bench.sh [path/to/micro_replication_bench] [output.json]
# Environment: BENCH_MIN_TIME (seconds per benchmark, default 0.2 — pass a
# bare double; this benchmark library rejects the "0.2s" suffix form).
# BENCH_REPS (repetitions per benchmark, default 3 — the regression differ
# compares the best repetition per row, which filters out transient
# shared-hardware interference that a single longer run just averages in).
set -eu

BIN=${1:-build-release/bench/micro_replication_bench}
OUT=${2:-BENCH_replication.json}

if [ ! -x "$BIN" ]; then
  echo "error: benchmark binary '$BIN' not found; build it first:" >&2
  echo "  cmake --preset release && cmake --build --preset release --target micro_replication_bench" >&2
  exit 1
fi

exec "$BIN" \
  --benchmark_out="$OUT" \
  --benchmark_out_format=json \
  --benchmark_min_time="${BENCH_MIN_TIME:-0.2}" \
  --benchmark_repetitions="${BENCH_REPS:-3}" \
  --benchmark_enable_random_interleaving=true
