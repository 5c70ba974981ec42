//! Metrics experiment — the `rana_trace::metrics` layer end to end.
//!
//! Runs two workloads inside one `TraceConfig::Metrics` session, which
//! folds every trace event into its registry as it is emitted:
//!
//! 1. an AlexNet design sweep (all six Table IV designs through one
//!    `Evaluator`), populating the `sched.*` and `cache.*` families;
//! 2. a two-tenant serving run (AlexNet + GoogLeNet Poisson mix),
//!    populating `serve.*`, `refresh.*`, `thermal.*`, `exec.*` and the
//!    per-tenant SLO trackers wired into the server's dispatch loop.
//!
//! The final registry snapshot is emitted three ways:
//!
//! * `results/BENCH_metrics.json` — canonical JSON, byte-deterministic;
//! * `results/metrics_slo.csv`   — one SLO compliance row per tenant;
//! * `results/metrics.prom`      — Prometheus text exposition.
//!
//! Worker threads are pinned to 1 (so cache-lookup event order is
//! schedule order), all latencies are simulated time, and histogram
//! statistics derive purely from bucket counts — every artifact is
//! byte-reproducible for the bench-regression gate. `--smoke` runs a
//! shortened pass and writes nothing.

use rana_bench::{banner, seed_from_env, write_csv};
use rana_core::designs::Design;
use rana_core::evaluate::Evaluator;
use rana_core::metrics::{MetricKey, Registry, SloReport};
use rana_core::trace::{Session, TraceConfig};
use rana_serve::{ServeConfig, Server, TenantSpec, TrafficModel};
use std::path::PathBuf;

/// Default serve arrival-stream seed (override with `RANA_SEED`).
const DEFAULT_SEED: u64 = 17;

fn results_path(name: &str) -> PathBuf {
    let dir = PathBuf::from("results");
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("could not create results/: {e}");
    }
    dir.join(name)
}

/// The metered AlexNet sweep: every Table IV design through one shared
/// evaluator, trace events folded into the metrics registry.
fn run_sweep() {
    let eval = Evaluator::paper_platform();
    let net = rana_zoo::alexnet();
    for design in Design::ALL {
        let result = eval.evaluate(&net, design);
        println!(
            "  {:<12} {:>10.3} mJ  ({} layers)",
            design.label(),
            result.total.total_j() * 1e3,
            result.schedule.layers.len(),
        );
    }
}

/// The serving run's set-up: a two-tenant Poisson mix at 0.75x the
/// mix's back-to-back capacity over `horizon_us` of simulated traffic
/// (loaded but not drowning, so both tenants complete requests *and*
/// miss some deadlines). Sizing the load runs searches of its own, so
/// call this before the metered session starts.
fn serve_setup(seed: u64, horizon_us: f64) -> (Evaluator, Vec<TenantSpec>, ServeConfig) {
    let eval = Evaluator::paper_platform();
    let specs = vec![
        TenantSpec::new(rana_zoo::alexnet(), 0.6),
        TenantSpec::new(rana_zoo::googlenet(), 0.4),
    ];
    let wsum: f64 = specs.iter().map(|s| s.weight).sum();
    let mean_us: f64 = specs
        .iter()
        .map(|s| s.weight * eval.evaluate(&s.network, Design::RanaStarE5).time_us)
        .sum::<f64>()
        / wsum;
    let rate_rps = 0.75 * 1e6 / mean_us;
    let mut cfg = ServeConfig::paper(TrafficModel::Poisson { rate_rps }, seed);
    cfg.horizon_us = horizon_us;
    (eval, specs, cfg)
}

/// The metered serving run, SLO trackers fed by the dispatch loop.
fn run_serve(eval: &Evaluator, specs: Vec<TenantSpec>, cfg: ServeConfig) {
    let report = Server::new(eval, specs, cfg).run();
    println!(
        "  serve: {} served / {} offered, {} batches, deadline miss rate {:.4}",
        report.served,
        report.offered,
        report.batches,
        report.deadline_miss_rate(),
    );
}

/// Sanity-checks the snapshot before it becomes a committed baseline.
fn validate(reg: &Registry) {
    assert!(!reg.is_empty(), "metrics session captured nothing");
    let tenants = reg.slo_tenants();
    assert_eq!(tenants, ["AlexNet", "GoogLeNet"], "unexpected SLO tenant set");
    for t in &tenants {
        let slo = reg.slo(t).expect("tracker for listed tenant");
        assert!(slo.requests() > 0, "tenant {t} tracked no requests");
        let lat = slo.latency();
        assert!(lat.quantile(0.99) >= lat.quantile(0.5), "{t}: p99 below p50");
    }
    let sweeps = reg.counter(MetricKey::new("sched.layers").label("network", "AlexNet"));
    assert!(sweeps > 0, "sweep emitted no schedule_chosen events");
    assert!(
        reg.hist_f64(MetricKey::new("serve.latency_us").label("tenant", "AlexNet")).is_some(),
        "dispatch loop recorded no latency histogram"
    );
}

fn main() {
    banner("BENCH metrics", "Metrics layer: metered AlexNet sweep + serve run, SLO per tenant");
    let smoke = std::env::args().any(|a| a == "--smoke");
    // The registry sees cache-lookup events, whose order is only
    // deterministic with one worker: pin the pool width.
    std::env::set_var("RANA_THREADS", "1");
    let seed = seed_from_env(DEFAULT_SEED);
    println!("seed: {seed}  worker threads: 1 (pinned for metric determinism)\n");

    let (eval, specs, cfg) = serve_setup(seed, if smoke { 300_000.0 } else { 2_000_000.0 });
    let session = Session::start(TraceConfig::Metrics);
    println!("AlexNet sweep ({} designs):", Design::ALL.len());
    run_sweep();
    println!("\nServe run:");
    run_serve(&eval, specs, cfg);
    let reg = session.finish().metrics.expect("a metered session keeps a registry");
    validate(&reg);

    println!("\nPer-tenant SLO:");
    let reports: Vec<SloReport> =
        reg.slo_tenants().iter().map(|t| reg.slo(t).expect("tracker").report(t)).collect();
    for r in &reports {
        println!(
            "  {:<10} {:>4} requests, {:>2} misses, p99 {:>10.1} us, compliant: {}",
            r.tenant,
            r.requests,
            r.misses,
            r.p99_us,
            r.compliant(),
        );
    }

    if smoke {
        println!("\nsmoke OK ({} bytes of registry JSON)", reg.to_json().len());
        return;
    }

    let json =
        format!("{{\"experiment\":\"metrics\",\"seed\":{seed},\"registry\":{}}}\n", reg.to_json());
    match std::fs::write(results_path("BENCH_metrics.json"), &json) {
        Ok(()) => println!("\nwrote results/BENCH_metrics.json"),
        Err(e) => eprintln!("could not write results/BENCH_metrics.json: {e}"),
    }
    let rows: Vec<String> = reports.iter().map(SloReport::csv_row).collect();
    write_csv("metrics_slo.csv", SloReport::csv_header(), &rows);
    match std::fs::write(results_path("metrics.prom"), reg.to_prometheus()) {
        Ok(()) => println!("wrote results/metrics.prom"),
        Err(e) => eprintln!("could not write results/metrics.prom: {e}"),
    }
}
