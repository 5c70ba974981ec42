//! Trace ↔ metrics ↔ report reconciliation for the fleet simulator.
//!
//! A fleet run under an active tracing session emits `DieFailed`,
//! `DieDrained` and `RequestRerouted` events; [`TraceBridge`] folds them
//! into `fleet.*` metrics. Every number must agree three ways: the
//! [`FleetReport`] counters, the telemetry session's per-kind event
//! counts, and the metrics registry — the trace layer is only an
//! observer, so any disagreement means double-counting or a dropped
//! emission site.
//!
//! Trace and metrics sessions are process-global, so every test here —
//! including the untraced run, which must not leak events into another
//! test's session — holds [`SESSION_LOCK`] for its whole body.

use rana_repro::core::evaluate::Evaluator;
use rana_repro::core::metrics::{MetricKey, MetricsSession, TraceBridge};
use rana_repro::core::trace::Session;
use rana_repro::fleet::{FailureEvent, FailureKind, FleetConfig, FleetSim, RouterPolicy};
use rana_repro::serve::{TenantSpec, TrafficModel};
use rana_repro::zoo;
use std::sync::{Mutex, MutexGuard};

/// Serializes every test here that touches the global sessions.
static SESSION_LOCK: Mutex<()> = Mutex::new(());

/// Takes [`SESSION_LOCK`], surviving a panicked holder.
fn session_lock() -> MutexGuard<'static, ()> {
    SESSION_LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// An overloaded 4-die cluster with one drain and one crash mid-run, so
/// queues are non-empty when the disruptions land and rerouting actually
/// happens.
fn disruption_config() -> FleetConfig {
    let tenants = vec![TenantSpec::new(zoo::alexnet(), 1.0)];
    let mut cfg = FleetConfig::paper(
        tenants,
        TrafficModel::Poisson { rate_rps: 320.0 },
        4,
        RouterPolicy::PowerOfTwoChoices,
        23,
    );
    cfg.horizon_us = 400_000.0;
    cfg.failures = vec![
        FailureEvent { at_us: 120_000.0, die: 1, kind: FailureKind::Drain },
        FailureEvent { at_us: 200_000.0, die: 2, kind: FailureKind::Crash },
        FailureEvent { at_us: 300_000.0, die: 1, kind: FailureKind::Rejoin },
        FailureEvent { at_us: 320_000.0, die: 2, kind: FailureKind::Rejoin },
    ];
    cfg
}

#[test]
fn fleet_events_reconcile_with_metrics_and_report() {
    let _lock = session_lock();
    let eval = Evaluator::paper_platform();

    let metrics = MetricsSession::start();
    let trace = Session::start(TraceBridge::new().into_config());
    let report = FleetSim::new(&eval, disruption_config()).run();
    let telemetry = trace.finish();
    let reg = metrics.finish();

    // The scenario must actually exercise every new event kind.
    assert_eq!(report.die_drains, 1);
    assert_eq!(report.die_failures, 1);
    assert!(report.rerouted_drain > 0, "drained die must hand its queue back");
    assert!(report.rerouted_crash > 0, "crashed die must hand its queue back");
    assert!(report.lost_in_flight > 0, "crash must interrupt a batch");

    // Telemetry counted one event per report increment.
    let kind_count = |kind: &str| telemetry.event_counts.get(kind).copied().unwrap_or(0);
    assert_eq!(kind_count("die_failed"), report.die_failures);
    assert_eq!(kind_count("die_drained"), report.die_drains);
    assert_eq!(kind_count("request_rerouted"), report.rerouted_crash + report.rerouted_drain);

    // The bridge folded the same stream into fleet.* metrics.
    assert_eq!(reg.counter("fleet.die_failures"), report.die_failures);
    assert_eq!(reg.counter("fleet.die_drains"), report.die_drains);
    assert_eq!(reg.counter("fleet.failed_in_flight"), report.lost_in_flight);
    let reroutes = |reason: &str| {
        reg.counter(
            MetricKey::new("fleet.reroutes").label("tenant", "AlexNet").label("reason", reason),
        )
    };
    assert_eq!(reroutes("crash"), report.rerouted_crash);
    assert_eq!(reroutes("drain"), report.rerouted_drain);

    // And the report's per-tenant view agrees with the fleet totals
    // (single tenant, so the slice is the whole fleet).
    assert_eq!(report.tenants[0].rerouted, report.rerouted_crash + report.rerouted_drain);
}

/// Without a session the emission sites are dark: the same run emits
/// nothing and costs no event construction.
#[test]
fn untraced_fleet_run_is_silent_and_identical() {
    let _lock = session_lock();
    let eval = Evaluator::paper_platform();
    let silent = FleetSim::new(&eval, disruption_config()).run();

    let metrics = MetricsSession::start();
    let trace = Session::start(TraceBridge::new().into_config());
    let traced = FleetSim::new(&eval, disruption_config()).run();
    trace.finish();
    let reg = metrics.finish();

    assert_eq!(silent, traced, "tracing must not perturb the simulation");
    assert_eq!(reg.counter("fleet.die_failures"), traced.die_failures);
}
