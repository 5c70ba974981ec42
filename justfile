# `just check` = the PR gate: fmt + clippy + tier-1 tests, the
# scheduler benchmark, smoke runs, the gated experiments and the bench gate.

# Build, lint, run tier-1 tests, then the benchmarks, experiments and gate.
check:
    ./scripts/check.sh

# Formatting gate (same flags as `just check`).
fmt:
    cargo fmt --all -- --check

# Build everything in release mode.
build:
    cargo build --release --workspace

# Tier-1 test suite only.
test:
    cargo test -q

# Lint gate (same flags as `just check`).
clippy:
    cargo clippy --workspace --all-targets -- -D warnings

# Rustdoc gate (same flags as `just check`): broken links and missing docs fail.
doc:
    RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

# Scheduler-engine benchmark only (writes results/BENCH_sched.json).
bench-sched:
    cargo build --release -p rana-bench
    ./target/release/exp_bench_sched

# Every paper experiment in order.
experiments:
    cargo build --release -p rana-bench
    ./target/release/exp_all

# Serving-simulation smoke run (~0.1 s, writes nothing).
serve-smoke:
    cargo build --release -p rana-bench
    ./target/release/exp_serve --smoke

# Precompile the smoke-scenario schedule store (see docs/SCHEDULE_CACHE.md).
precompile:
    cargo build --release -p rana-core
    ./target/release/rana-compile precompile --networks alexnet,googlenet \
        --banks 22,44 --out target/schedule_store.jsonl

# Store-backed serving smoke run: warm-start from the precompiled store.
serve-smoke-warm: precompile
    cargo build --release -p rana-bench
    ./target/release/exp_serve --smoke --store target/schedule_store.jsonl

# Metrics smoke run (metered sweep + serve pass, writes nothing).
metrics-smoke:
    cargo build --release -p rana-bench
    ./target/release/exp_metrics --smoke

# Functional-engine smoke run (scalar-vs-blocked identity, writes nothing).
exec-smoke:
    cargo build --release -p rana-bench
    ./target/release/exp_bench_exec --smoke

# Functional-engine throughput benchmark (writes results/BENCH_exec*.json).
bench-exec:
    cargo build --release -p rana-bench
    ./target/release/exp_bench_exec

# Fleet-simulation smoke run (16 dies, two router policies, writes nothing).
fleet-smoke:
    cargo build --release -p rana-bench
    ./target/release/exp_fleet --smoke

# Fleet cluster-size x router-policy sweep (writes results/BENCH_fleet*.json).
bench-fleet:
    cargo build --release -p rana-bench
    ./target/release/exp_fleet

# Refresh-strategy-lab smoke run (AlexNet identities, writes nothing).
policy-smoke:
    cargo build --release -p rana-bench
    ./target/release/exp_policies --smoke

# Refresh-strategy lab: 4 strategies x 5-net zoo (writes results/BENCH_policies.json).
bench-policies:
    cargo build --release -p rana-bench
    ./target/release/exp_policies

# Benchmark smoke run: every workload at toy size with every check (~2 s).
# The benchmark is its own package, so workspace builds never compile it.
bench-smoke:
    cargo run --release --offline --manifest-path examples/benchmark/Cargo.toml -- --smoke

# Bench-regression gate: results/BENCH_*.json vs committed baselines/.
bench-gate:
    ./scripts/bench_gate.sh

# Re-snapshot baselines/ from results/ after an intended output change.
bench-bless:
    ./scripts/bench_gate.sh --bless
