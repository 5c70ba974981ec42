//! Metrics determinism: for a fixed configuration and seed, the
//! registry a `TraceConfig::Metrics` session collects — and therefore
//! `results/BENCH_metrics.json` and the Prometheus exposition — is
//! byte-identical across runs; changing the seed changes the bytes.
//! Mirrors `serve_determinism.rs` one layer up the telemetry stack.

use rana_repro::core::evaluate::Evaluator;
use rana_repro::core::metrics::{MetricKey, Registry};
use rana_repro::core::trace::{Session, TraceConfig};
use rana_repro::serve::{ServeConfig, ServeReport, Server, TenantSpec, TrafficModel};
use rana_repro::zoo;

fn mix() -> Vec<TenantSpec> {
    vec![TenantSpec::new(zoo::alexnet(), 0.6), TenantSpec::new(zoo::googlenet(), 0.4)]
}

fn config(seed: u64) -> ServeConfig {
    let mut cfg = ServeConfig::paper(TrafficModel::Poisson { rate_rps: 30.0 }, seed);
    cfg.horizon_us = 1_500_000.0;
    cfg.bank_quantum = 8;
    cfg
}

/// One fully metered serve run: a metrics session folding every event
/// into its registry, one worker thread (schedule cache lookup order is
/// only deterministic serially).
fn metered_run(seed: u64) -> (Registry, ServeReport) {
    std::env::set_var("RANA_THREADS", "1");
    let session = Session::start(TraceConfig::Metrics);
    let eval = Evaluator::paper_platform();
    let report = Server::new(&eval, mix(), config(seed)).run();
    (session.finish().metrics.expect("metered session"), report)
}

#[test]
fn snapshots_are_byte_identical_for_a_fixed_seed() {
    let (a, ra) = metered_run(11);
    let (b, rb) = metered_run(11);
    assert_eq!(ra, rb, "underlying serve runs diverged");
    assert_eq!(a, b, "registries diverged structurally");
    assert_eq!(a.to_json(), b.to_json());
    assert_eq!(a.to_prometheus(), b.to_prometheus());
    assert!(!a.is_empty() && ra.served > 0);
}

#[test]
fn different_seeds_change_the_bytes() {
    let (a, _) = metered_run(11);
    let (b, _) = metered_run(12);
    assert_ne!(a.to_json(), b.to_json(), "seed must drive the metered arrival stream");
}

#[test]
fn bridge_counters_reconcile_with_the_serve_report() {
    let (reg, report) = metered_run(11);
    // One tenant_dispatch event per executed batch.
    let dispatches: u64 = mix()
        .iter()
        .map(|s| reg.counter(MetricKey::new("serve.dispatches").label("tenant", s.network.name())))
        .sum();
    assert_eq!(dispatches, report.batches);
    // The dispatch loop's own SLO trackers see every completed request.
    let tracked: u64 = reg
        .slo_tenants()
        .iter()
        .map(|t| {
            let slo = reg.slo(t).expect("tracker");
            slo.latency().count()
        })
        .sum();
    assert_eq!(tracked, report.served);
    // Exposition formats agree on the tenant set.
    let (json, prom) = (reg.to_json(), reg.to_prometheus());
    for t in reg.slo_tenants() {
        assert!(json.contains(t), "JSON lost tenant {t}");
        assert!(prom.contains(&format!("tenant=\"{t}\"")), "Prometheus lost tenant {t}");
    }
}
