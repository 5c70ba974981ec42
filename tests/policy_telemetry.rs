//! Trace ↔ metrics ↔ decision reconciliation for the refresh-strategy
//! lab.
//!
//! [`decide_traced`] emits one `PolicyDecision` event per layer decision;
//! a `TraceConfig::Metrics` session folds the stream into `policy.*`
//! metrics. Every number must agree three ways: the decisions the caller
//! got back, the telemetry session's per-kind event counts, and the
//! metrics registry — the trace layer is only an observer, so any
//! disagreement means double-counting or a dropped emission site.

use rana_repro::core::designs::Design;
use rana_repro::core::evaluate::Evaluator;
use rana_repro::core::metrics::MetricKey;
use rana_repro::core::policy::{decide_traced, LayerCtx, RefreshStrategy, Strategy};
use rana_repro::core::trace::{Session, TraceConfig};
use rana_repro::fleet::{FleetConfig, FleetSim, RouterPolicy};
use rana_repro::serve::{TenantSpec, TrafficModel};
use rana_repro::zoo;
use std::collections::HashMap;

#[test]
fn policy_decisions_reconcile_with_events_and_metrics() {
    let eval = Evaluator::paper_platform();
    let template = eval.scheduler_for(Design::RanaStarE5);
    let interval_us = template.refresh.interval_us;
    let ne = eval.evaluate(&zoo::alexnet(), Design::RanaStarE5);
    let strategies = [Strategy::AccessTriggered, Strategy::ErrorBudget { budget: 1e-4 }];

    let session = Session::start(TraceConfig::Metrics);
    let mut decisions = 0u64;
    let mut words: HashMap<&'static str, u64> = HashMap::new();
    let mut skipped: HashMap<&'static str, u64> = HashMap::new();
    let mut reasons: HashMap<(&'static str, &'static str), u64> = HashMap::new();
    for strategy in strategies {
        for layer in &ne.schedule.layers {
            let ctx = LayerCtx {
                sim: &layer.sim,
                cfg: &template.cfg,
                interval_us,
                retention: eval.retention(),
            };
            let d = decide_traced(&strategy, &ctx, "test");
            decisions += 1;
            *words.entry(strategy.name()).or_default() += d.refresh_words;
            *skipped.entry(strategy.name()).or_default() += d.skipped_words;
            *reasons.entry((strategy.name(), d.reason)).or_default() += 1;
        }
    }
    let telemetry = session.finish();
    let reg = telemetry.metrics.as_ref().expect("metered session");

    // Telemetry counted one event per decision.
    let kind_count = telemetry.event_counts.get("policy_decision").copied().unwrap_or(0);
    assert_eq!(kind_count, decisions, "one PolicyDecision event per decide_traced call");

    // The session folded the same stream into policy.* counters.
    for strategy in strategies {
        let key = |name: &str| MetricKey::new(name).label("strategy", strategy.name());
        assert_eq!(reg.counter(key("policy.refresh_words")), words[strategy.name()]);
        assert_eq!(reg.counter(key("policy.skipped_words")), skipped[strategy.name()]);
    }
    for (&(strategy, reason), &count) in &reasons {
        let key =
            MetricKey::new("policy.decisions").label("strategy", strategy).label("reason", reason);
        assert_eq!(reg.counter(key), count, "decisions[{strategy}/{reason}]");
    }
}

/// A fleet running a pinned non-default strategy mix emits policy events
/// through the profile cache — and tracing must not perturb the
/// simulation.
#[test]
fn fleet_strategy_mix_traces_without_perturbing_the_run() {
    let eval = Evaluator::paper_platform();
    let config = || {
        let mut cfg = FleetConfig::paper(
            vec![TenantSpec::new(zoo::alexnet(), 1.0)],
            TrafficModel::Poisson { rate_rps: 240.0 },
            4,
            RouterPolicy::RoundRobin,
            29,
        );
        cfg.horizon_us = 200_000.0;
        cfg.strategies = vec![Strategy::ErrorBudget { budget: 1e-4 }, Strategy::RanaFlagged];
        cfg
    };

    let silent = FleetSim::new(&eval, config()).run();

    let session = Session::start(TraceConfig::Metrics);
    let traced = FleetSim::new(&eval, config()).run();
    let telemetry = session.finish();
    let reg = telemetry.metrics.as_ref().expect("metered session");

    assert_eq!(silent, traced, "tracing must not perturb the simulation");
    let kind_count = telemetry.event_counts.get("policy_decision").copied().unwrap_or(0);
    assert!(kind_count > 0, "the error-budget dies must trace their decisions");
    assert_eq!(
        reg.counter(
            MetricKey::new("policy.decisions")
                .label("strategy", "error-budget")
                .label("reason", "budget-stretch")
        ) + reg.counter(
            MetricKey::new("policy.decisions")
                .label("strategy", "error-budget")
                .label("reason", "refresh-free")
        ),
        kind_count,
        "every traced decision came from the pinned error-budget dies"
    );
}
