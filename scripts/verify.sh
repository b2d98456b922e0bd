#!/usr/bin/env bash
# Tier-1 verification, runnable fully offline (the workspace has zero
# required dependencies). Pass --offline to forbid network access in
# cargo itself (CI does); without it cargo may still touch the index if
# the lockfile is stale.
#
# Usage: scripts/verify.sh [--offline]
set -euo pipefail
cd "$(dirname "$0")/.."

CARGO_FLAGS=()
if [[ "${1:-}" == "--offline" ]]; then
    CARGO_FLAGS+=(--offline)
fi

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== kvlint (determinism / virtual-time / offline-green invariants) =="
# Per-rule summary + machine-readable kvlint-summary JSON line; exits
# non-zero on any unsuppressed violation with file:line diagnostics.
cargo run "${CARGO_FLAGS[@]}" -q -p kvssd-lint

echo "== kvlint ratchet + SARIF (panic-surface baseline must be tight) =="
# --strict fails on baseline slack too (budget above actual), so the
# committed kvlint-baseline.toml can only shrink; the SARIF 2.1.0 log
# is what CI uploads for code-scanning annotation.
mkdir -p target
cargo run "${CARGO_FLAGS[@]}" -q -p kvssd-lint -- --strict --sarif target/kvlint.sarif

echo "== cargo build --release =="
cargo build "${CARGO_FLAGS[@]}" --release --workspace

echo "== cargo test =="
cargo test "${CARGO_FLAGS[@]}" -q --workspace

echo "== cargo clippy -D warnings =="
cargo clippy "${CARGO_FLAGS[@]}" --workspace --all-targets -- -D warnings

echo "== replication determinism + property suite =="
# The quorum/repair paths must stay byte-deterministic per seed and
# keep the replica-placement properties; both suites are fast.
cargo test "${CARGO_FLAGS[@]}" -q --test determinism replication
cargo test "${CARGO_FLAGS[@]}" -q -p kvssd-cluster --test replication

echo "== fabric determinism + property suite =="
# The transport must keep its contracts: seeded fault streams replay
# byte-identically at any thread count, an ideal fabric is the
# in-process transport exactly, and acked quorum writes survive
# drops/partitions.
cargo test "${CARGO_FLAGS[@]}" -q -p kvssd-fabric
cargo test "${CARGO_FLAGS[@]}" -q -p kvssd-cluster --test fabric

echo "== fault regression suite (deadlines / idempotency / partitions) =="
# The lost-leg fixes must hold: QuorumUnavailable names the acked
# lanes, duplicate deliveries dedupe at replicas, hedge spares skip
# partitioned links, repair survives partitions, and under heavy
# drops + partitions every op resolves Ok or typed — across seeds and
# 1/2/4 worker threads (the liveness property).
cargo test "${CARGO_FLAGS[@]}" -q -p kvssd-cluster --test fabric -- \
    quorum_unavailable_payload_names_the_acked_lanes \
    duplicate_deliveries_are_idempotent_at_the_replica \
    hedged_read_spare_skips_partitioned_links \
    repair_completes_and_accounts_failures_across_a_partition \
    every_op_resolves_under_drops_partitions_and_deadlines

echo "== replication smoke (tiny scale) =="
KVSSD_BENCH_SCALE=tiny \
    cargo run "${CARGO_FLAGS[@]}" --release -q -p kvssd-bench --example repro_all -- replication > /dev/null

echo "== fabric smoke (tiny scale) =="
# The hedged-vs-not slow-replica table must render (the tail-cut shape
# itself is asserted in tests/cluster_shapes.rs at the same scale).
KVSSD_BENCH_SCALE=tiny \
    cargo run "${CARGO_FLAGS[@]}" --release -q -p kvssd-bench --example repro_all -- fabric > /dev/null

echo "== fabric_faults smoke (tiny scale) =="
# The drop_ppm x timeout x retries availability sweep must render (its
# rescued/availability shapes are asserted in tests/cluster_shapes.rs
# at the same scale).
KVSSD_BENCH_SCALE=tiny \
    cargo run "${CARGO_FLAGS[@]}" --release -q -p kvssd-bench --example repro_all -- fabric_faults > /dev/null

echo "== repro_all smoke (tiny scale, timed) =="
time KVSSD_BENCH_SCALE=tiny \
    cargo run "${CARGO_FLAGS[@]}" --release -q -p kvssd-bench --example repro_all > /dev/null

echo "== golden digests (figure tables pinned at threads 1 and 4) =="
# Host-side optimizations must not move a byte of any figure: the tiny
# scaleout/replication/fabric tables, fig2 (KV-SSD, LSM and hash-store)
# and fig4 (block-direct) are pinned to fixed digests.
cargo test "${CARGO_FLAGS[@]}" -q --test golden_digests

echo "== lsm-store differential (model oracle) =="
# The RocksDB baseline against a BTreeMap oracle: 3 seeds x 20 000
# seeded put/delete/get/scan ops on ~600 keys (a third of them longer
# than KeyBuf's inline buffer), through flush and compaction; asserts
# len, user_bytes, every get and every scan. Host-speed work on the
# store (inline keys, consuming merge, per-level candidates) must
# keep it green.
cargo test "${CARGO_FLAGS[@]}" -q -p kvssd-lsm-store --test differential

echo "== repo benchmark self-test (sim results repeat bit for bit) =="
# All five BENCHMARK.json workloads at 1/100 size, twice each: fails
# unless every sim-domain result repeats exactly and no op failed.
# Always --offline: the nested workspace has path dependencies only.
cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- --smoke

echo "== core alloc budget + lookup history =="
# The KV-FTL's host hot paths stay off the heap (counting allocator:
# <= 5 allocations per 1 000 Zipfian updates with background and
# foreground GC running, 0 per retrieve) and the index-first /
# Bloom-second host probe order leaves every virtual charge and
# counter where the pinned, Bloom-first history put them.
cargo test "${CARGO_FLAGS[@]}" -q -p kvssd-core --test alloc_budget
cargo test "${CARGO_FLAGS[@]}" -q -p kvssd-core --lib lookup_history_tests

echo "== cluster_ops microbench (per-op driver vs batched driver) =="
# Both production drivers must reach identical behavior checksums
# in-process; the "cluster_ops" line in BENCH_HARNESS.json is patched in
# place.
KVSSD_BENCH_SCALE="${KVSSD_BENCH_SCALE:-quick}" \
    cargo run "${CARGO_FLAGS[@]}" --release -q -p kvssd-bench --example cluster_ops

echo "verify: OK"
