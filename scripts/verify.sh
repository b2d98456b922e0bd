#!/usr/bin/env bash
# Full verification, runnable fully offline (the workspace has zero
# required dependencies). Each check runs once, and the script is
# read-only: it fails if it leaves the working tree different from how
# it found it. Pass --offline to forbid network access in cargo itself
# (CI does); without it cargo may still touch the index if the lockfile
# is stale.
#
# Tier-1 (`cargo build --release && cargo test -q` at the repo root) runs
# the root package's integration tests only (the model oracle over every
# store among them); the crates' unit, property and alloc-budget suites
# run here, under `--workspace`. Every property suite is seeded and
# always on: there is no feature to enable.
#
# Usage: scripts/verify.sh [--offline]
set -euo pipefail
cd "$(dirname "$0")/.."

CARGO_FLAGS=()
if [[ "${1:-}" == "--offline" ]]; then
    CARGO_FLAGS+=(--offline)
fi

# Tracked-file changes plus untracked files; empty outside a git checkout.
tree_state() {
    { git status --porcelain && git diff; } 2>/dev/null || true
}
tree_before=$(tree_state)

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== kvlint (determinism invariants; timed) =="
# Per-rule summary; exits non-zero on any unsuppressed violation with
# file:line diagnostics. Baseline slack (budget above actual) fails the
# tier-1 test kvlint_gate::panic_surface_baseline_is_tight below, so
# the committed kvlint-baseline.toml can only shrink. Built first, so
# the timed step is the analyzer's own run.
mkdir -p target
cargo build "${CARGO_FLAGS[@]}" -q -p kvssd-lint
time cargo run "${CARGO_FLAGS[@]}" -q -p kvssd-lint

echo "== cargo build --release =="
cargo build "${CARGO_FLAGS[@]}" --release --workspace

echo "== cargo test --workspace =="
# Every suite, once: root integration tests (figure shapes, all 13
# golden digests at threads 1 and 4, determinism, the kvlint gate, the
# map oracle over every store on clean and faulty flash) and each
# crate's unit/property tests — cluster replication and fabric fault
# regressions, the fabric transport's contracts, the core alloc budget
# and lookup history. A test binary that compiles to nothing is a
# failure: a suite gated off whole looks exactly like that.
cargo test "${CARGO_FLAGS[@]}" -q --workspace 2>&1 | tee target/verify-test.log
if grep -q '^running 0 tests' target/verify-test.log; then
    echo "a test binary ran 0 tests; find it with:" >&2
    echo "  cargo test --workspace 2>&1 | grep -B2 '^running 0 tests'" >&2
    exit 1
fi

echo "== cargo clippy -D warnings =="
cargo clippy "${CARGO_FLAGS[@]}" --workspace --all-targets -- -D warnings

echo "== repro_all smoke (every figure, tiny scale, timed) =="
time KVSSD_BENCH_SCALE=tiny \
    cargo run "${CARGO_FLAGS[@]}" --release -q -p kvssd-bench --example repro_all > /dev/null

echo "== repo benchmark self-test (sim results repeat bit for bit, digests pinned) =="
# All five BENCHMARK.json workloads at 1/100 size, twice each: fails
# unless every sim-domain result repeats exactly and no op failed.
# Always --offline: the nested workspace has path dependencies only.
smoke=$(cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- --smoke)
echo "$smoke"
# Repeating itself is not enough: a change meant to be host-only must
# also leave virtual time where it was. Each workload's sim_digest is
# pinned; a change that moves virtual time on purpose re-pins it here.
for pin in kv_update_gc=46ce61c507ab0aaf kv_read_overflow=74905d2bb27fc06e \
    cluster_quorum_fabric=a6bfdc25c36fe994 lsm_block_mixed=334f259f36b2e931 \
    hash_block_mixed=8a3b49b08258aae6; do
    if ! grep -Eq "^smoke ${pin%%=*} +ok sim_digest=${pin#*=} " <<<"$smoke"; then
        echo "smoke digest of ${pin%%=*} is not the pinned ${pin#*=}" >&2
        exit 1
    fi
done

echo "== working tree unchanged =="
if [[ "$(tree_state)" != "$tree_before" ]]; then
    echo "verify.sh changed the working tree:" >&2
    git status --short >&2
    exit 1
fi

echo "verify: OK"
