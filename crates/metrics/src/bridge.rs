//! [`TraceBridge`]: a `rana_trace::Sink` that folds every telemetry event
//! into the active metrics session.
//!
//! This is how the metrics layer observes the scheduler, the refresh
//! controller, the thermal loop, the schedule caches, the functional
//! engine and the serving dispatch loop *without touching their sources*:
//! those subsystems already emit typed [`Event`]s, and the bridge maps
//! each event onto counters, gauges and histograms. Install it as the
//! trace sink (optionally tee-ing into another sink such as a JSONL
//! writer) and every traced run doubles as a metrics run.

use crate::registry::{MetricKey, Registry};
use rana_trace::{Event, Sink, TraceConfig};

/// Folds one trace event into a metrics registry.
///
/// This is the single source of truth for the event→metric mapping; the
/// [`TraceBridge`] sink applies it to the global session, and tests apply
/// it to a local registry.
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

/// A trace sink that mirrors every event into the active
/// [`MetricsSession`](crate::MetricsSession), optionally forwarding it to
/// an inner sink as well.
///
/// When no metrics session is active the bridge only forwards (or drops)
/// events — it never buffers.
///
/// ```
/// use rana_metrics::{MetricsSession, TraceBridge};
/// use rana_trace::{Event, Session};
///
/// let metrics = MetricsSession::start();
/// let trace = Session::start(TraceBridge::new().into_config());
/// rana_trace::emit(|| Event::CacheLookup { cache: "schedule".into(), fingerprint: 7, hit: true });
/// trace.finish();
/// let reg = metrics.finish();
/// assert_eq!(reg.counter(rana_metrics::MetricKey::new("cache.lookups")
///     .label("cache", "schedule").label("outcome", "hit")), 1);
/// ```
#[derive(Default)]
pub struct TraceBridge {
    inner: Option<Box<dyn Sink>>,
}

impl TraceBridge {
    /// A bridge that only feeds the metrics session.
    pub fn new() -> Self {
        Self { inner: None }
    }

    /// A bridge that also forwards every event to `inner` (e.g. a
    /// `JsonlSink`), so one run can produce a trace file *and* metrics.
    pub fn tee(inner: Box<dyn Sink>) -> Self {
        Self { inner: Some(inner) }
    }

    /// Wraps the bridge as a [`TraceConfig`] for `Session::start`.
    pub fn into_config(self) -> TraceConfig {
        TraceConfig::Custom(Box::new(self))
    }
}

impl Sink for TraceBridge {
    fn record(&mut self, seq: u64, event: &Event) {
        crate::with(|reg| apply_event(reg, event));
        if let Some(inner) = &mut self.inner {
            inner.record(seq, event);
        }
    }

    fn flush(&mut self) {
        if let Some(inner) = &mut self.inner {
            inner.flush();
        }
    }

    fn dropped(&self) -> u64 {
        self.inner.as_ref().map_or(0, |s| s.dropped())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rana_trace::EnergyLedger;

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
    fn bridge_without_session_is_inert() {
        let _lock = crate::test_lock();
        assert!(!crate::enabled());
        let mut bridge = TraceBridge::new();
        bridge.record(0, &Event::CacheLookup { cache: "c".into(), fingerprint: 0, hit: true });
        bridge.flush();
    }
}
