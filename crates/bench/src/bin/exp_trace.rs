//! Telemetry experiment — the `rana-trace` layer end to end.
//!
//! Runs two traced workloads with JSONL sinks attached:
//!
//! 1. an AlexNet design sweep (all six Table IV designs through one
//!    `Evaluator`), reconciling the trace's Eq. 14 energy ledger against
//!    the evaluator totals to ≤ 1e-9 relative error;
//! 2. a short two-tenant serving run (AlexNet + GoogLeNet Poisson mix),
//!    capturing dispatch/thermal/refresh decisions;
//!
//! plus one counters-only run, an AlexNet retention sweep (eD+ID, eD+OD
//! and RANA(E-5) at the six Figure 16 intervals through one
//! `Evaluator::evaluate_refresh_many` batch), whose candidate counters
//! gate the batch engine's shared Stage-2 scans.
//!
//! Emits byte-deterministic `results/trace_alexnet.jsonl`,
//! `results/trace_serve.jsonl`, `results/trace_summary.csv` and
//! `results/BENCH_trace.json` (worker threads are pinned to 1 so
//! cache-lookup event order is schedule order), plus
//! `results/BENCH_trace_timing.json` with the wall-clock span statistics
//! of the worker pool and memo cache — the one intentionally
//! non-deterministic artifact, for spotting sweep-time regressions.

use rana_accel::{ControllerKind, RefreshModel};
use rana_bench::{banner, result_path, seed_from_env, write_csv, write_result};
use rana_core::designs::Design;
use rana_core::evaluate::Evaluator;
use rana_core::trace::{json_f64, EnergyLedger, Session, TelemetryReport, TraceConfig};
use rana_serve::{ServeConfig, Server, TenantSpec, TrafficModel};

/// Default serve arrival-stream seed (override with `RANA_SEED`).
const DEFAULT_SEED: u64 = 17;

/// Reconciliation bound between the trace ledger and evaluator totals.
const TOLERANCE: f64 = 1e-9;

/// The traced AlexNet sweep: every Table IV design through one shared
/// evaluator, events streamed to `results/trace_alexnet.jsonl`.
fn run_alexnet_sweep() -> (TelemetryReport, EnergyLedger) {
    let eval = Evaluator::paper_platform();
    let net = rana_zoo::alexnet();
    let session = Session::start(TraceConfig::Jsonl { path: result_path("trace_alexnet.jsonl") });
    let mut expected = EnergyLedger::default();
    for design in Design::ALL {
        let result = eval.evaluate(&net, design);
        expected.accumulate(&result.total.ledger());
        println!(
            "  {:<12} {:>10.3} mJ  (refresh {:>7.3} mJ, {} layers)",
            design.label(),
            result.total.total_j() * 1e3,
            result.total.refresh_j * 1e3,
            result.schedule.layers.len(),
        );
    }
    (session.finish(), expected)
}

/// The counters-only retention sweep: AlexNet under eD+ID, eD+OD and
/// RANA(E-5) at the six Figure 16 intervals, as one batch.
fn run_fig16_sweep() -> TelemetryReport {
    let eval = Evaluator::paper_platform();
    let net = rana_zoo::alexnet();
    let points: Vec<_> = [45.0, 90.0, 180.0, 360.0, 720.0, 1440.0]
        .into_iter()
        .flat_map(|interval_us| {
            [Design::EdId, Design::EdOd, Design::RanaE5].map(|design| {
                (&net, design, RefreshModel { interval_us, kind: ControllerKind::Conventional })
            })
        })
        .collect();
    let session = Session::start(TraceConfig::CountersOnly);
    let results = eval.evaluate_refresh_many(&points);
    println!("  fig16 sweep: {} points, {} cache entries", results.len(), eval.cache().len());
    session.finish()
}

/// The traced serving run: a 300 ms two-tenant Poisson mix, events
/// streamed to `results/trace_serve.jsonl`.
fn run_serve(seed: u64) -> TelemetryReport {
    let eval = Evaluator::paper_platform();
    let specs = vec![
        TenantSpec::new(rana_zoo::alexnet(), 0.6),
        TenantSpec::new(rana_zoo::googlenet(), 0.4),
    ];
    let mut cfg = ServeConfig::paper(TrafficModel::Poisson { rate_rps: 400.0 }, seed);
    cfg.horizon_us = 300_000.0;
    let session = Session::start(TraceConfig::Jsonl { path: result_path("trace_serve.jsonl") });
    let report = Server::new(&eval, specs, cfg).run();
    println!(
        "  serve: {} served / {} offered, {} batches traced",
        report.served, report.offered, report.batches
    );
    session.finish()
}

fn main() {
    banner("BENCH trace", "Telemetry layer: traced AlexNet sweep + serve run, ledger reconciled");
    let strict = std::env::args().any(|a| a == "--strict");
    // Event *order* from parallel workers is only deterministic with one
    // worker, so the traced artifacts pin the pool width.
    std::env::set_var("RANA_THREADS", "1");
    let seed = seed_from_env(DEFAULT_SEED);
    println!("seed: {seed}  worker threads: 1 (pinned for trace determinism)\n");

    println!("AlexNet sweep ({} designs):", Design::ALL.len());
    let (sweep, expected) = run_alexnet_sweep();
    let err = sweep.ledger.relative_error(&expected);
    println!(
        "\n  ledger: {:.6} mJ over {} layer events | evaluator: {:.6} mJ | rel err {err:.3e}",
        sweep.ledger.total_j() * 1e3,
        sweep.ledger_layers,
        expected.total_j() * 1e3,
    );
    assert!(err <= TOLERANCE, "trace ledger diverged from evaluator totals: {err:.3e}");
    if let Some(rate) = sweep.hit_rate("cache.schedule") {
        println!("  schedule-cache hit rate over the sweep: {:.1}%", rate * 100.0);
    }

    println!("\nServe run:");
    let serve = run_serve(seed);
    println!(
        "  {} events ({} dispatches, {} thermal samples)",
        serve.events_emitted,
        serve.event_counts.get("tenant_dispatch").copied().unwrap_or(0),
        serve.event_counts.get("thermal_sample").copied().unwrap_or(0),
    );

    println!("\nCounters-only runs:");
    let fig16 = run_fig16_sweep();

    // Deterministic artifacts: counters CSV + the aggregate report (span
    // counts only — no wall clock).
    let mut rows: Vec<String> = Vec::new();
    for (name, report) in [("alexnet_sweep", &sweep), ("serve", &serve), ("fig16_sweep", &fig16)] {
        rows.extend(report.counters_csv_rows().into_iter().map(|r| format!("{name},{r}")));
    }
    write_csv("trace_summary.csv", "run,counter,value", &rows);

    let bench = format!(
        "{{\n\"seed\": {seed},\n\"ledger_rel_err\": {},\n\"alexnet_sweep\": {},\n\"serve\": {},\n\"fig16_sweep\": {}\n}}\n",
        json_f64(err),
        sweep.to_json(true),
        serve.to_json(true),
        fig16.to_json(true),
    );
    let timing = format!(
        "{{\n\"alexnet_sweep\": {},\n\"serve\": {},\n\"fig16_sweep\": {}\n}}\n",
        sweep.to_json(false),
        serve.to_json(false),
        fig16.to_json(false),
    );
    write_result("BENCH_trace.json", &bench);
    write_result("BENCH_trace_timing.json", &timing);
    println!("wrote results/trace_alexnet.jsonl, results/trace_serve.jsonl");

    // A nonzero drop count means a truncated event stream: the JSONL
    // files cannot be trusted as complete. Warn always, fail in --strict.
    let dropped = sweep.events_dropped + serve.events_dropped;
    if dropped > 0 {
        eprintln!(
            "warning: {dropped} events dropped by sinks \
             (sweep {}, serve {}) — trace files are truncated",
            sweep.events_dropped, serve.events_dropped
        );
        if strict {
            std::process::exit(1);
        }
    }
    println!("\nTelemetry ledger reconciles with the evaluator to within {TOLERANCE:.0e}.");
}
