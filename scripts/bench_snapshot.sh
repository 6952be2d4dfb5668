#!/usr/bin/env bash
# Performance snapshots:
#
# * BENCH_PR2.json — the encode-once fan-out PR's numbers (LAN
#   closed-group invocation latency + fan-out encode throughput), from
#   the bench_snapshot binary.
# * BENCH_PR4.json — the flow-control PR's numbers (closed-loop knee,
#   open-loop saturation sheds and peak queue depth, threaded-runtime
#   latency percentiles, multi-group throughput with send-path
#   batching), from the loadgen binary.
#
# BENCH_PR6.json is kept as history and no longer regenerated: it was
# the same loadgen report taken with the since-deleted sharding layer.
# * BENCH_PR8.json — the scale-model PR's numbers: the geo-distributed
#   capacity sweep (max sustainable modeled clients per configuration
#   cell at the p99 bound), from the scale binary.
# * BENCH_PR9.json — the directory + durable-recovery PR's numbers:
#   cold-restart rejoin latency (recovery replay to rejoin view, with
#   the replay/delta breakdown) and directory resolve throughput, from
#   the recovery_bench binary.
#
# Offline-friendly; NEWTOP_BENCH_SEED overrides the simulation seed.
set -euo pipefail

cd "$(dirname "$0")/.."

OUT="BENCH_PR2.json"

echo "==> cargo run --release -p newtop-bench --bin bench_snapshot"
cargo run --release --offline -p newtop-bench --bin bench_snapshot > "$OUT"

echo "==> wrote $OUT"
cat "$OUT"

OUT4="BENCH_PR4.json"

echo "==> cargo run --release -p newtop-bench --bin loadgen -- --json"
cargo run --release --offline -p newtop-bench --bin loadgen -- --json > "$OUT4"

echo "==> wrote $OUT4"
cat "$OUT4"

OUT8="BENCH_PR8.json"

echo "==> cargo run --release -p newtop-bench --bin scale -- --json"
cargo run --release --offline -p newtop-bench --bin scale -- --json > "$OUT8"

echo "==> wrote $OUT8"
cat "$OUT8"

OUT9="BENCH_PR9.json"

echo "==> cargo run --release -p newtop-bench --bin recovery_bench"
cargo run --release --offline -p newtop-bench --bin recovery_bench > "$OUT9"

echo "==> wrote $OUT9"
cat "$OUT9"
