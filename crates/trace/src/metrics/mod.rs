//! Streaming metrics: log-linear histograms, a typed registry, windowed
//! rates, per-tenant SLO trackers and deterministic exposition.
//!
//! Where the event stream records *what happened*, this module records
//! *how it is distributed*: log-linear HDR-style histograms
//! ([`HistI64`]/[`HistF64`]) with bounded relative error and associative
//! merge, windowed rate estimators over simulated time
//! ([`WindowedRate`]), and per-tenant SLO trackers ([`SloTracker`]) for
//! deadline-miss rate, attained percentiles and budget burn rate.
//!
//! ## Wiring
//!
//! A session started with [`TraceConfig::Metrics`](crate::TraceConfig::Metrics)
//! owns a [`Registry`] and folds every event it records into it through
//! [`apply_event`], so subsystems that already emit trace events need no
//! further code. Only
//! the serving loop records directly, through [`record`]: per-request
//! latency, queue wait and SLO outcomes carry data no event has.
//! [`Session::finish`](crate::Session::finish) hands the registry back as
//! [`TelemetryReport::metrics`](crate::TelemetryReport::metrics).
//!
//! ## Zero cost when off
//!
//! [`record`] runs its closure only when the calling thread's session
//! meters, so key and label construction is free otherwise; the guard is
//! the same relaxed load as every other emission site's.
//!
//! ## Determinism
//!
//! Histogram quantiles are exact functions of bucket state; merge is
//! associative and commutative; rates run on the simulated clock; and the
//! two snapshot forms ([`Registry::to_json`], [`Registry::to_prometheus`])
//! iterate sorted maps with shortest-round-trip float formatting. A fixed
//! workload produces byte-identical snapshots, which is what lets the
//! bench-regression gate diff them against committed baselines.
//!
//! ```
//! use rana_trace::metrics::MetricKey;
//! use rana_trace::{Event, Session, TraceConfig};
//!
//! let session = Session::start(TraceConfig::Metrics);
//! rana_trace::emit(|| Event::CacheLookup { cache: "schedule".into(), fingerprint: 7, hit: true });
//! rana_trace::metrics::record(|reg| reg.observe_f64("serve.latency_us", 230.0));
//! let reg = session.finish().metrics.expect("a metered session keeps a registry");
//! let hits = MetricKey::new("cache.lookups").label("cache", "schedule").label("outcome", "hit");
//! assert_eq!(reg.counter(hits), 1);
//! assert_eq!(reg.hist_f64("serve.latency_us").unwrap().count(), 1);
//! ```

mod expose;
mod hist;
mod rate;
mod registry;
mod slo;

pub use expose::EXPOSED_QUANTILES;
pub use hist::{HistF64, HistI64, DEFAULT_PRECISION_BITS, MAX_PRECISION_BITS};
pub use rate::WindowedRate;
pub use registry::{MetricKey, Registry};
pub use slo::{SloObservation, SloReport, SloSpec, SloTracker};

use crate::Event;

/// Runs `f` against the calling thread's session registry when that
/// session was started with
/// [`TraceConfig::Metrics`](crate::TraceConfig::Metrics); otherwise does
/// nothing, and `f` never runs. `f` runs under the session's lock, so it
/// must not call back into `rana_trace`.
#[inline]
pub fn record(f: impl FnOnce(&mut Registry)) {
    crate::with_state(|state| state.metrics.as_mut().map(f));
}

/// Folds one trace event into a metrics registry.
///
/// This is the single source of truth for the event→metric mapping: a
/// [`TraceConfig::Metrics`](crate::TraceConfig::Metrics) session applies it to every event it records,
/// and tests apply it to a local registry.
pub fn apply_event(reg: &mut Registry, event: &Event) {
    match event {
        Event::ScheduleChosen { network, pattern, energy, .. } => {
            reg.counter_add(MetricKey::new("sched.layers").label("network", network.as_str()), 1);
            reg.counter_add(MetricKey::new("sched.pattern").label("pattern", pattern.as_str()), 1);
            reg.observe_f64(
                MetricKey::new("sched.layer_energy_j").label("network", network.as_str()),
                energy.total_j(),
            );
            reg.observe_f64(
                MetricKey::new("sched.layer_refresh_j").label("network", network.as_str()),
                energy.refresh_j,
            );
        }
        Event::RefreshDecision { banks, divider, rung_us, refresh_words, reason, .. } => {
            reg.counter_add(
                MetricKey::new("refresh.decisions").label("reason", reason.as_str()),
                1,
            );
            reg.counter_add("refresh.words", *refresh_words);
            reg.observe_f64("refresh.rung_us", *rung_us);
            reg.observe_i64("refresh.banks", *banks as i64);
            reg.gauge_set("refresh.last_divider", *divider as f64);
        }
        Event::ThermalSample { temp_c, scaled_retention_us, .. } => {
            reg.observe_f64("thermal.temp_c", *temp_c);
            reg.observe_f64("thermal.scaled_retention_us", *scaled_retention_us);
            reg.gauge_set("thermal.last_temp_c", *temp_c);
        }
        Event::CacheLookup { cache, hit, .. } => {
            reg.counter_add(
                MetricKey::new("cache.lookups")
                    .label("cache", cache.as_str())
                    .label("outcome", if *hit { "hit" } else { "miss" }),
                1,
            );
        }
        Event::TenantDispatch { tenant, batch, deadline_slack_us } => {
            reg.counter_add(MetricKey::new("serve.dispatches").label("tenant", tenant.as_str()), 1);
            reg.observe_i64(
                MetricKey::new("serve.batch_size").label("tenant", tenant.as_str()),
                *batch as i64,
            );
            reg.observe_f64(
                MetricKey::new("serve.deadline_slack_us").label("tenant", tenant.as_str()),
                *deadline_slack_us,
            );
        }
        Event::ExecCompleted { cycles, reads, refresh_words, faults, .. } => {
            reg.observe_i64("exec.layer_cycles", *cycles as i64);
            reg.counter_add("exec.reads", *reads);
            reg.counter_add("exec.refresh_words", *refresh_words);
            reg.counter_add("exec.faults", *faults);
        }
        Event::DieFailed { queued, in_flight, .. } => {
            reg.counter_add("fleet.die_failures", 1);
            reg.counter_add("fleet.failed_queued", *queued as u64);
            reg.counter_add("fleet.failed_in_flight", *in_flight as u64);
        }
        Event::DieDrained { queued, .. } => {
            reg.counter_add("fleet.die_drains", 1);
            reg.counter_add("fleet.drained_queued", *queued as u64);
        }
        Event::RequestRerouted { tenant, reason, .. } => {
            reg.counter_add(
                MetricKey::new("fleet.reroutes")
                    .label("tenant", tenant.as_str())
                    .label("reason", reason.as_str()),
                1,
            );
        }
        Event::PolicyDecision {
            strategy,
            interval_multiple,
            refresh_words,
            skipped_words,
            failure_rate,
            reason,
            ..
        } => {
            reg.counter_add(
                MetricKey::new("policy.decisions")
                    .label("strategy", strategy.as_str())
                    .label("reason", reason.as_str()),
                1,
            );
            reg.counter_add(
                MetricKey::new("policy.refresh_words").label("strategy", strategy.as_str()),
                *refresh_words,
            );
            reg.counter_add(
                MetricKey::new("policy.skipped_words").label("strategy", strategy.as_str()),
                *skipped_words,
            );
            reg.observe_i64("policy.interval_multiple", i64::from(*interval_multiple));
            reg.observe_f64("policy.failure_rate", *failure_rate);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EnergyLedger, Session, TraceConfig};

    #[test]
    fn apply_maps_every_event_kind() {
        let mut reg = Registry::new();
        apply_event(
            &mut reg,
            &Event::ScheduleChosen {
                network: "alexnet".into(),
                layer: "conv1".into(),
                pattern: "OD".into(),
                tiling: [16, 16, 1, 16],
                energy: EnergyLedger {
                    computing_j: 1.0,
                    buffer_j: 0.5,
                    refresh_j: 0.25,
                    offchip_j: 0.25,
                },
            },
        );
        apply_event(
            &mut reg,
            &Event::RefreshDecision {
                scope: "layer".into(),
                banks: 2,
                divider: 9000,
                rung_us: 734.0,
                refresh_words: 64,
                reason: "flagged".into(),
            },
        );
        apply_event(
            &mut reg,
            &Event::ThermalSample { at: "l0".into(), temp_c: 45.5, scaled_retention_us: 700.0 },
        );
        apply_event(
            &mut reg,
            &Event::CacheLookup { cache: "schedule".into(), fingerprint: 1, hit: false },
        );
        apply_event(
            &mut reg,
            &Event::TenantDispatch { tenant: "vgg".into(), batch: 4, deadline_slack_us: 120.0 },
        );
        apply_event(
            &mut reg,
            &Event::ExecCompleted {
                layer: "conv1".into(),
                cycles: 4096,
                reads: 100,
                refresh_words: 8,
                faults: 1,
            },
        );

        assert_eq!(reg.counter(MetricKey::new("sched.layers").label("network", "alexnet")), 1);
        let e = reg
            .hist_f64(MetricKey::new("sched.layer_energy_j").label("network", "alexnet"))
            .unwrap();
        assert_eq!(e.count(), 1);
        assert!((e.max().unwrap() - 2.0).abs() / 2.0 < 0.01);
        assert_eq!(reg.counter(MetricKey::new("refresh.decisions").label("reason", "flagged")), 1);
        assert_eq!(reg.counter("refresh.words"), 64);
        assert_eq!(reg.gauge("refresh.last_divider"), Some(9000.0));
        assert_eq!(reg.gauge("thermal.last_temp_c"), Some(45.5));
        assert_eq!(
            reg.counter(
                MetricKey::new("cache.lookups").label("cache", "schedule").label("outcome", "miss")
            ),
            1
        );
        assert_eq!(reg.counter(MetricKey::new("serve.dispatches").label("tenant", "vgg")), 1);
        assert_eq!(reg.hist_i64("exec.layer_cycles").unwrap().count(), 1);
        assert_eq!(reg.counter("exec.faults"), 1);
    }

    #[test]
    fn apply_maps_fleet_event_kinds() {
        let mut reg = Registry::new();
        apply_event(&mut reg, &Event::DieFailed { die: 3, queued: 7, in_flight: 2 });
        apply_event(&mut reg, &Event::DieDrained { die: 4, queued: 5 });
        apply_event(
            &mut reg,
            &Event::RequestRerouted {
                tenant: "alexnet".into(),
                from_die: 3,
                to_die: 9,
                reason: "crash".into(),
            },
        );
        assert_eq!(reg.counter("fleet.die_failures"), 1);
        assert_eq!(reg.counter("fleet.failed_queued"), 7);
        assert_eq!(reg.counter("fleet.failed_in_flight"), 2);
        assert_eq!(reg.counter("fleet.die_drains"), 1);
        assert_eq!(reg.counter("fleet.drained_queued"), 5);
        assert_eq!(
            reg.counter(
                MetricKey::new("fleet.reroutes")
                    .label("tenant", "alexnet")
                    .label("reason", "crash")
            ),
            1
        );
    }

    #[test]
    fn apply_maps_policy_decisions() {
        let mut reg = Registry::new();
        apply_event(
            &mut reg,
            &Event::PolicyDecision {
                scope: "alexnet/conv1".into(),
                strategy: "error-budget".into(),
                banks: 3,
                interval_multiple: 53,
                refresh_words: 1024,
                skipped_words: 4096,
                failure_rate: 1e-4,
                reason: "budget-stretch".into(),
            },
        );
        let by_strategy = |name: &str| MetricKey::new(name).label("strategy", "error-budget");
        assert_eq!(
            reg.counter(by_strategy("policy.decisions").label("reason", "budget-stretch")),
            1
        );
        assert_eq!(reg.counter(by_strategy("policy.refresh_words")), 1024);
        assert_eq!(reg.counter(by_strategy("policy.skipped_words")), 4096);
        assert_eq!(reg.hist_i64("policy.interval_multiple").unwrap().count(), 1);
        assert_eq!(reg.hist_f64("policy.failure_rate").unwrap().count(), 1);
    }

    #[test]
    fn record_without_a_metered_session_is_a_noop() {
        record(|_| panic!("registry accessed without a session"));
        let session = Session::start(TraceConfig::CountersOnly);
        record(|_| panic!("registry accessed by an unmetered session"));
        assert_eq!(session.finish().metrics, None);
    }

    #[test]
    fn metered_session_collects_and_finishes() {
        let session = Session::start(TraceConfig::Metrics);
        record(|reg| {
            reg.counter_add("hits", 2);
            reg.observe_f64("lat_us", 10.0);
            reg.observe_i64("cycles", 7);
            reg.gauge_set("temp_c", 45.0);
        });
        let snap = session.snapshot().metrics.expect("metered snapshot");
        assert_eq!(snap.counter("hits"), 2);
        let reg = session.finish().metrics.expect("metered session");
        assert!(!crate::enabled());
        assert_eq!(reg.counter("hits"), 2);
        assert_eq!(reg.hist_f64("lat_us").unwrap().count(), 1);
        assert_eq!(reg.hist_i64("cycles").unwrap().count(), 1);
        assert_eq!(reg.gauge("temp_c"), Some(45.0));
    }

    #[test]
    fn sequential_sessions_keep_separate_registries() {
        let a = Session::start(TraceConfig::Metrics);
        record(|reg| reg.counter_add("a", 1));
        let reg_a = a.finish().metrics.unwrap();
        let b = Session::start(TraceConfig::Metrics);
        record(|reg| reg.counter_add("b", 1));
        let reg_b = b.finish().metrics.unwrap();
        assert_eq!((reg_a.counter("a"), reg_a.counter("b")), (1, 0));
        assert_eq!((reg_b.counter("a"), reg_b.counter("b")), (0, 1));
    }
}
