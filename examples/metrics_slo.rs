//! Metrics walkthrough: meter a two-tenant serving run, then read
//! per-tenant SLO compliance and latency histograms back out of the
//! registry — and print the same snapshot as Prometheus text exposition.
//!
//! Metrics are off by default (a single relaxed atomic load per
//! recording site); a session started with [`TraceConfig::Metrics`]
//! turns them on for the duration. It folds every event the server
//! already emits — dispatches, refresh decisions, thermal samples — into
//! its registry without a second instrumentation pass, while the
//! dispatch loop feeds the SLO trackers directly.
//!
//! Run with: `cargo run --release --example metrics_slo`

use rana_repro::core::evaluate::Evaluator;
use rana_repro::core::metrics::MetricKey;
use rana_repro::core::trace::{Session, TraceConfig};
use rana_repro::serve::{ServeConfig, Server, TenantSpec, TrafficModel};
use rana_repro::zoo;

fn main() {
    // 1. Turn metrics on: every trace event lands in the registry.
    let session = Session::start(TraceConfig::Metrics);

    // 2. Run the workload: two tenants over 1.5 s of Poisson traffic.
    let eval = Evaluator::paper_platform();
    let specs = vec![TenantSpec::new(zoo::alexnet(), 0.6), TenantSpec::new(zoo::googlenet(), 0.4)];
    let mut cfg = ServeConfig::paper(TrafficModel::Poisson { rate_rps: 30.0 }, 17);
    cfg.horizon_us = 1_500_000.0;
    let report = Server::new(&eval, specs, cfg).run();
    let reg = session.finish().metrics.expect("a metered session keeps a registry");

    println!("Metered serve run: {} served / {} offered\n", report.served, report.offered);

    // 3. Per-tenant SLO compliance, straight from the trackers the
    //    dispatch loop fed (latency targets derive from each tenant's
    //    deadline; the miss budget is burned by drops and late serves).
    for tenant in reg.slo_tenants() {
        let slo = reg.slo(tenant).expect("tracker for listed tenant");
        let r = slo.report(tenant);
        println!(
            "{:<10} {:>3} requests | p50 {:>9.1} us (target {:>9.1}) | p99 {:>9.1} us | \
             miss rate {:.3} (budget {:.3}) | compliant: {}",
            r.tenant,
            r.requests,
            r.p50_us,
            r.spec.target_p50_us,
            r.p99_us,
            r.miss_rate,
            r.spec.deadline_miss_budget,
            r.compliant(),
        );
    }

    // 4. The session also aggregated every trace event into histograms
    //    and counters — e.g. the batch-size distribution per tenant.
    let key = MetricKey::new("serve.batch_size").label("tenant", "AlexNet");
    if let Some(h) = reg.hist_i64(key) {
        println!(
            "\nAlexNet batch sizes: {} batches, median {}, max {}",
            h.count(),
            h.quantile(0.5).unwrap_or(0),
            h.max().unwrap_or(0),
        );
    }
    let refreshes = reg.counter(MetricKey::new("refresh.words"));
    println!("words refreshed across the run: {refreshes}");

    // 5. One registry, two byte-deterministic expositions.
    let prom = reg.to_prometheus();
    let slo_lines: Vec<&str> =
        prom.lines().filter(|l| l.starts_with("rana_slo_compliant")).collect();
    println!("\nPrometheus exposition ({} bytes), SLO gauges:", prom.len());
    for l in slo_lines {
        println!("  {l}");
    }
    assert!(!reg.to_json().is_empty());
}
