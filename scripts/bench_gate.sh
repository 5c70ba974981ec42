#!/usr/bin/env bash
# Bench-regression gate: diff the deterministic fields of every
# results/BENCH_*.json against the committed baselines/ snapshots.
# Timing-quarantined artifacts (BENCH_sched.json, BENCH_trace_timing.json,
# BENCH_exec_timing.json, BENCH_fleet_timing.json) keep strict structure,
# and BENCH_sched.json its work counters, but get a relative noise band on
# the other numerics (default 100x; tune with RANA_BENCH_TIMING_FACTOR).
#
# Usage: scripts/bench_gate.sh [--bless]
#   --bless   re-snapshot baselines/ from the current results/ after an
#             intended output change (then commit baselines/).
set -euo pipefail
cd "$(dirname "$0")/.."

if [ ! -x target/release/exp_bench_diff ]; then
    cargo build --release -p rana-bench
fi
exec ./target/release/exp_bench_diff "$@"
