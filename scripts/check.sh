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

echo "== engine-equivalence and buffer property tests under seeds 1-8 =="
# The default seed alone has missed bugs that most other seeds catch.
for seed in 1 2 3 4 5 6 7 8; do
    echo "-- RANA_PROPTEST_SEED=$seed"
    RANA_PROPTEST_SEED=$seed cargo test -q --test exec_kernel_equivalence
    RANA_PROPTEST_SEED=$seed cargo test -q -p rana-edram --lib bank::
done

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

echo "== schedule-store precompile + warm-start smoke test =="
./target/release/rana-compile precompile --networks alexnet,googlenet \
    --banks 22,44 --out target/schedule_store.jsonl
./target/release/exp_serve --smoke --store target/schedule_store.jsonl

echo "== functional-engine smoke test =="
./target/release/exp_bench_exec --smoke

echo "== serving, fleet and policy experiments (regenerate BENCH_{serve,fleet,policies}.json for the gate) =="
./target/release/exp_serve
./target/release/exp_fleet
./target/release/exp_policies

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
