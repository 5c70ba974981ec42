#!/usr/bin/env bash
# Tier-1 gate + scheduler benchmark: everything a PR must keep green.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== build (release) =="
cargo build --release --workspace

echo "== rustfmt (check) =="
cargo fmt --all -- --check

echo "== clippy (deny warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== tier-1 tests =="
cargo test -q

echo "== workspace tests (every crate's unit and doc tests) =="
cargo test -q --workspace

echo "== simd feature leg (build + engine tests) =="
cargo clippy -p rana-accel --features simd --all-targets -- -D warnings
cargo test -q -p rana-accel --features simd
cargo test -q --features simd --test exec_kernel_equivalence

echo "== rustdoc (deny warnings) =="
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

echo "== docs-tree link check =="
for doc in docs/*.md; do
    if ! grep -q "$(basename "$doc")" README.md; then
        echo "error: $doc is not referenced from README.md" >&2
        exit 1
    fi
done

echo "== scheduler engine benchmark =="
./target/release/exp_bench_sched

echo "== serving smoke test =="
./target/release/exp_serve --smoke

echo "== schedule-store precompile + warm-start smoke test =="
./target/release/rana-compile precompile --networks alexnet,googlenet \
    --banks 22,44 --out target/schedule_store.jsonl
./target/release/exp_serve --smoke --store target/schedule_store.jsonl

echo "== functional-engine smoke test =="
./target/release/exp_bench_exec --smoke

echo "== fleet smoke test =="
./target/release/exp_fleet --smoke

echo "== policy smoke test =="
./target/release/exp_policies --smoke

echo "== thermal-adaptive experiment (regenerates BENCH_thermal.json for the gate) =="
./target/release/exp_thermal

echo "== telemetry and metrics experiments (regenerate BENCH_{trace,metrics}.json for the gate) =="
./target/release/exp_trace
./target/release/exp_metrics

echo "== bench-regression gate =="
./scripts/bench_gate.sh

echo "== benchmark smoke run (separate package, outside the workspace) =="
cargo run --release --offline --manifest-path examples/benchmark/Cargo.toml -- --smoke

echo "All checks passed."
