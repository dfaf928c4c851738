#!/usr/bin/env sh
# Full CI sweep: tier-1 tests, ThreadSanitizer and Address+UB Sanitizer
# presets, the end-to-end benchmark's self-tests and smoke runs, and a
# benchmark regression check against the committed baselines.
#
# Usage: scripts/ci.sh [stage...]
#   stages: tier1 proc crash e2e tsan asan bench-check
#   (default: all seven, in order)
#
# Environment:
#   JOBS            parallel build/test width (default: nproc)
#   BENCH_MIN_TIME  seconds per benchmark for bench-check (default 0.2; the
#                   committed baselines were recorded at the default)
#   BENCH_REPS      repetitions per benchmark (default 3); the differ gates
#                   on the best repetition per row, which filters out the
#                   transient slowdowns of shared CI hardware
#   BENCH_THRESHOLD allowed fractional regression for bench-check
#                   (default 0.25, matching the bench-check CMake target —
#                   even best-of-N rows drift ~15% run-to-run on shared CI
#                   hardware; tighten locally on a quiet machine)
set -eu

cd "$(dirname "$0")/.."
JOBS=${JOBS:-$(nproc 2>/dev/null || echo 4)}
STAGES=${*:-"tier1 proc crash e2e tsan asan bench-check"}

run_preset() {
  preset=$1
  shift
  cmake --preset "$preset"
  cmake --build --preset "$preset" -j "$JOBS"
  ctest --preset "$preset" -j "$JOBS" "$@"
}

for stage in $STAGES; do
  echo "==== ci: $stage ===="
  case "$stage" in
    tier1)
      # Warnings fail the tier-1 build (CMAKE_COMPILE_WARNING_AS_ERROR,
      # CMake >= 3.24): a fresh RelWithDebInfo tree builds warning-free.
      cmake --preset default -DCMAKE_COMPILE_WARNING_AS_ERROR=ON
      cmake --build --preset default -j "$JOBS"
      ctest --preset default -j "$JOBS"
      ;;
    proc)
      # Multi-process deployment smoke: build the site-server binary, then
      # run the fork/exec cluster suite (1 primary + secondaries over
      # loopback TCP, including kill -9 of a secondary followed by a fresh
      # process resyncing from the primary's log, or from a snapshot once
      # the log has been truncated). The timeout guard keeps a
      # wedged child process from hanging CI: ctest's per-test TIMEOUT
      # reaps the test, and the test itself SIGKILLs servers that ignore
      # SIGTERM.
      cmake --preset default
      cmake --build --preset default -j "$JOBS" \
        --target lazysi_server system_proc_test
      ctest --test-dir build -R system_proc_test --output-on-failure \
        --timeout 120
      # Fan-out soak: 16 secondary processes against one primary with the
      # reactor wire. The primary must serve the whole fleet from its fixed
      # thread pool — the soak fails if its kernel thread
      # count exceeds the O(1) budget (reactor + workers + runtime threads),
      # i.e. if anything regresses to a thread per connection.
      SOAK_SECONDS=3 MAX_PRIMARY_THREADS=10 \
        scripts/run_cluster.sh 16 build/src/server/lazysi_server
      ;;
    crash)
      # Durability and crash-recovery sweep: the WAL unit suite (torn-tail
      # file surgery, truncation, fsync-mode contract), the data-dir
      # recovery suite (fork+SIGKILL at injected crash points inside the
      # log writer, differential restore-vs-replay), and the multi-process
      # primary kill -9 restart case.
      cmake --preset default
      cmake --build --preset default -j "$JOBS" \
        --target lazysi_server wal_test engine_test system_proc_test
      ctest --test-dir build -R "wal_test|engine_test" \
        --output-on-failure --timeout 120
      GTEST_FILTER="ProcClusterTest.PrimaryKillNineRecoversAckedCommits" \
        ctest --test-dir build -R system_proc_test --output-on-failure \
        --timeout 120
      ;;
    e2e)
      # End-to-end deployment on real processes. bench/e2e/run.sh builds
      # the Release tree in build-e2e/ (lazysi_server + the load driver)
      # and then hands its arguments to the driver; given none, the driver
      # prints its usage and exits 2, so this only builds (a failed build
      # exits 1 with the build log's tail). ctest then runs the driver's
      # self-tests and 3 s smoke runs of shop, browse, ingest and traced
      # shop, each passing only on '"correct": true' — every site's content
      # hash equal, no stream reconnect — which gates the pipelined client
      # write path against real site servers.
      rc=0
      log=$(bench/e2e/run.sh 2>&1) || rc=$?
      if [ "$rc" -ne 2 ]; then
        echo "$log" >&2
        echo "ci.sh: building build-e2e/ failed" >&2
        exit 1
      fi
      ctest --test-dir build-e2e --output-on-failure
      ;;
    tsan)
      run_preset tsan
      ;;
    asan)
      run_preset asan
      ;;
    bench-check)
      # Release build (its own build-release/ tree, never mixed with the
      # RelWithDebInfo tier-1 tree), fresh bench JSONs, gated diff against
      # the committed baselines (throughput, p95_lag_ts, and the per-sink
      # partition volume counters — see bench/compare_bench_json.py).
      cmake --preset release
      cmake --build --preset release -j "$JOBS" \
        --target micro_replication_bench micro_engine_bench
      BENCH_MIN_TIME="${BENCH_MIN_TIME:-0.2}" \
        bench/run_replication_bench.sh \
        build-release/bench/micro_replication_bench \
        /tmp/ci_bench_replication.json
      python3 bench/compare_bench_json.py BENCH_replication.json \
        /tmp/ci_bench_replication.json \
        --threshold "${BENCH_THRESHOLD:-0.25}"
      BENCH_MIN_TIME="${BENCH_MIN_TIME:-0.2}" \
        bench/run_engine_bench.sh \
        build-release/bench/micro_engine_bench \
        /tmp/ci_bench_engine.json
      python3 bench/compare_bench_json.py BENCH_engine.json \
        /tmp/ci_bench_engine.json \
        --threshold "${BENCH_THRESHOLD:-0.25}"
      ;;
    *)
      echo "ci.sh: unknown stage '$stage'" >&2
      exit 2
      ;;
  esac
done
echo "==== ci: all stages passed ===="
