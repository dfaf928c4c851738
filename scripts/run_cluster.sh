#!/usr/bin/env bash
# Launches a loopback lazy-master cluster: one primary + N secondary
# lazysi_server processes, each site its own process (Figure 1's deployment
# shape). Ports are ephemeral and printed once every site is up; the cluster
# runs until Ctrl-C / SIGTERM, then shuts down every site in order.
#
#   scripts/run_cluster.sh [num_secondaries] [server_binary]
#
# Defaults: 2 secondaries, build/src/server/lazysi_server.
#
# Durability: set DATA_DIR to give the primary a durable group-commit WAL +
# periodic checkpoints; a rerun with the same DATA_DIR recovers every acked
# commit. FSYNC_MODE (always|group|never) and CHECKPOINT_INTERVAL_MS tune it.
#
#   DATA_DIR=/var/tmp/lazysi scripts/run_cluster.sh 2
#
# Wire knobs: MAX_BATCH_RECORDS, BATCH_FLUSH_MS and WORKERS are forwarded
# to the primary.
#
# Soak mode: set SOAK_SECONDS to run the cluster for that long and then shut
# down cleanly instead of waiting for Ctrl-C. The soak samples the primary's
# kernel thread count (/proc/<pid>/status Threads:) after the full fan-out is
# connected; if MAX_PRIMARY_THREADS is set the script fails when the primary
# exceeds it — the reactor must serve N secondaries with O(1) I/O threads,
# not a thread per connection.
#
#   SOAK_SECONDS=3 MAX_PRIMARY_THREADS=8 scripts/run_cluster.sh 16
set -euo pipefail

cd "$(dirname "$0")/.."

NUM_SECONDARIES="${1:-2}"
SERVER_BIN="${2:-build/src/server/lazysi_server}"
DATA_DIR="${DATA_DIR:-}"
FSYNC_MODE="${FSYNC_MODE:-group}"
CHECKPOINT_INTERVAL_MS="${CHECKPOINT_INTERVAL_MS:-1000}"
SOAK_SECONDS="${SOAK_SECONDS:-}"
MAX_PRIMARY_THREADS="${MAX_PRIMARY_THREADS:-}"

if [[ ! -x "$SERVER_BIN" ]]; then
  echo "error: $SERVER_BIN not built (cmake --build build --target lazysi_server)" >&2
  exit 1
fi

WORKDIR="$(mktemp -d /tmp/lazysi_cluster.XXXXXX)"
PIDS=()

cleanup() {
  trap - TERM INT EXIT
  echo
  echo "shutting down cluster..."
  for pid in "${PIDS[@]}"; do
    kill -TERM "$pid" 2>/dev/null || true
  done
  for pid in "${PIDS[@]}"; do
    wait "$pid" 2>/dev/null || true
  done
  rm -rf "$WORKDIR"
  echo "cluster down."
}
trap cleanup TERM INT EXIT

wait_ports() {
  # wait_ports <port-file>: polls until the server writes its ports.
  local file="$1"
  for _ in $(seq 200); do
    [[ -s "$file" ]] && return 0
    sleep 0.05
  done
  echo "error: server did not come up ($file)" >&2
  return 1
}

PRIMARY_ARGS=(--role=primary --port-file="$WORKDIR/primary.ports")
if [[ -n "$DATA_DIR" ]]; then
  PRIMARY_ARGS+=(--data-dir="$DATA_DIR" --fsync-mode="$FSYNC_MODE"
                 --checkpoint-interval-ms="$CHECKPOINT_INTERVAL_MS")
fi
[[ -n "${MAX_BATCH_RECORDS:-}" ]] && PRIMARY_ARGS+=(--max-batch-records="$MAX_BATCH_RECORDS")
[[ -n "${BATCH_FLUSH_MS:-}" ]] && PRIMARY_ARGS+=(--batch-flush-ms="$BATCH_FLUSH_MS")
[[ -n "${WORKERS:-}" ]] && PRIMARY_ARGS+=(--workers="$WORKERS")
"$SERVER_BIN" "${PRIMARY_ARGS[@]}" &
PIDS+=($!)
PRIMARY_PID="${PIDS[0]}"
wait_ports "$WORKDIR/primary.ports"
read -r PRIMARY_CLIENT PRIMARY_REPL < "$WORKDIR/primary.ports"
if [[ -n "$DATA_DIR" ]]; then
  echo "primary:      client 127.0.0.1:$PRIMARY_CLIENT, replication :$PRIMARY_REPL, data dir $DATA_DIR ($FSYNC_MODE)"
else
  echo "primary:      client 127.0.0.1:$PRIMARY_CLIENT, replication :$PRIMARY_REPL"
fi

for i in $(seq "$NUM_SECONDARIES"); do
  "$SERVER_BIN" --role=secondary --primary-port="$PRIMARY_REPL" \
    --site-id="$i" --port-file="$WORKDIR/secondary$i.ports" &
  PIDS+=($!)
done
for i in $(seq "$NUM_SECONDARIES"); do
  wait_ports "$WORKDIR/secondary$i.ports"
  read -r SEC_CLIENT _ < "$WORKDIR/secondary$i.ports"
  echo "secondary $i:  client 127.0.0.1:$SEC_CLIENT"
done

echo
echo "cluster up ($((NUM_SECONDARIES + 1)) processes). Updates go to the"
echo "primary's client port, reads to any secondary's. Ctrl-C to stop."

if [[ -n "$SOAK_SECONDS" ]]; then
  primary_threads() { awk '/^Threads:/{print $2}' "/proc/$PRIMARY_PID/status"; }
  THREADS_UP="$(primary_threads)"
  echo "soak: primary threads with $NUM_SECONDARIES secondaries connected: $THREADS_UP"
  sleep "$SOAK_SECONDS"
  if ! kill -0 "$PRIMARY_PID" 2>/dev/null; then
    echo "soak: FAIL — primary died during the soak" >&2
    exit 1
  fi
  for i in $(seq "$NUM_SECONDARIES"); do
    if ! kill -0 "${PIDS[$i]}" 2>/dev/null; then
      echo "soak: FAIL — secondary $i died during the soak" >&2
      exit 1
    fi
  done
  THREADS_END="$(primary_threads)"
  echo "soak: primary threads after ${SOAK_SECONDS}s: $THREADS_END"
  if [[ -n "$MAX_PRIMARY_THREADS" && "$THREADS_END" -gt "$MAX_PRIMARY_THREADS" ]]; then
    echo "soak: FAIL — primary runs $THREADS_END threads for $NUM_SECONDARIES secondaries (max $MAX_PRIMARY_THREADS); I/O threads must not scale with fan-out" >&2
    exit 1
  fi
  echo "soak: OK — primary thread count flat at $THREADS_END across $NUM_SECONDARIES-secondary fan-out"
  exit 0
fi

wait
