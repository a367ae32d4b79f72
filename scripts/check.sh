#!/usr/bin/env bash
# Pre-commit gate: formatting, lints, and the tier-1 build+test suite.
# Fully offline — everything below works without network access.
#
# Usage: scripts/check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy --workspace -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> tier-1: cargo build --release"
cargo build --release

echo "==> tier-1: cargo test -q (default-members = the whole workspace)"
cargo test -q

echo "==> chaos smoke: seeded lossy-link schedules (DLM_CHAOS_CASES=${DLM_CHAOS_CASES:-4})"
DLM_CHAOS_CASES="${DLM_CHAOS_CASES:-4}" cargo test -q -p dlm-cluster --test chaos

echo "==> model-check gate: check gate (serial/parallel differential + symmetry acceptance)"
cargo run --release -q -p dlm-check --bin check -- gate

echo "==> model-check parallel smoke: two_locks under --symmetry on --workers 2"
cargo run --release -q -p dlm-check --bin check -- \
  scenario two_locks --reduction off --symmetry on --workers 2 --stats

echo "==> request-span smoke: capture + reconstruct a 4-node cluster trace"
cargo run --release -q -p dlm-harness --bin spans -- 4

echo "==> shard-churn smoke: sharded service under pipelined churn (BENCH_SMOKE=1)"
BENCH_SMOKE=1 cargo run --release -q -p bench --bin shard_churn

echo "==> socket-cluster smoke: 3 dlm-node processes over TCP loopback (bounded deadline)"
cargo build --release -q -p dlm-harness --bin dlm-node
cargo run --release -q -p dlm-harness --bin dlm-harness -- --smoke

echo "==> crash-recovery smoke: SIGKILL the token holder of 3 dlm-node processes, audit the recovery (seed ${DLM_CRASH_SEED:-7})"
cargo run --release -q -p dlm-harness --bin dlm-harness -- --crash-smoke "${DLM_CRASH_SEED:-7}"

echo "==> benchmark smoke: perfbench builds and a 2 s local-churn run reports correct"
cargo build --release --offline -q --manifest-path perfbench/Cargo.toml
bench_out=$(cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
  --workload local-churn --seed 1 --seconds 2 --trace 0)
if ! grep -q '"correct":true' <<<"$bench_out"; then
  echo "$bench_out"
  echo "perfbench local-churn did not report \"correct\":true" >&2
  exit 1
fi

echo "All checks passed."
