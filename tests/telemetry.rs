//! Integration tests for the `rana-trace` telemetry layer: ring-buffer
//! overflow, per-thread session isolation, sink ordering under the
//! parallel worker pool, and the Eq. 14 energy-ledger reconciliation
//! against `Evaluator` totals on all five networks.
//!
//! Sessions are per thread, so these tests run in parallel without
//! seeing each other's events. Tests that need a fixed pool width pass
//! it explicitly rather than through `RANA_THREADS`.

use rana_core::designs::Design;
use rana_core::evaluate::Evaluator;
use rana_core::par::par_map_with;
use rana_core::scheduler::NetworkSchedule;
use rana_core::trace::{
    EnergyLedger, Event, RingSink, Session, SharedRing, Sink, TelemetryReport, TraceConfig,
};
use rana_zoo::Network;

/// With no session active, emission sites must not even construct events.
#[test]
fn disabled_tracer_constructs_nothing() {
    assert!(!rana_core::trace::enabled());
    rana_core::trace::emit(|| panic!("event built while tracing is disabled"));
}

/// Sessions are per thread. While one is live here, a thread without a
/// session sees tracing disabled and none of its emission sites reach
/// this report; pool workers fanned out from here record into it.
#[test]
fn sessions_are_per_thread_and_inherited_by_the_pool() {
    let session = Session::start(TraceConfig::CountersOnly);
    let outsider_enabled = std::thread::spawn(|| {
        let enabled = rana_core::trace::enabled();
        rana_core::trace::emit(|| Event::CacheLookup {
            cache: "outsider".into(),
            fingerprint: 0,
            hit: true,
        });
        rana_core::trace::count("outsider", 1);
        rana_core::trace::ledger(&EnergyLedger { computing_j: 1e9, ..Default::default() });
        enabled
    })
    .join()
    .unwrap();
    assert!(!outsider_enabled, "a thread without a session saw another thread's session");

    let items: Vec<u32> = (0..16).collect();
    par_map_with(&items, 4, |&i| {
        rana_core::trace::count("pooled", 1);
        rana_core::trace::ledger(&EnergyLedger { computing_j: f64::from(i), ..Default::default() });
    });
    let report = session.finish();
    assert_eq!(report.events_emitted, 0, "an outsider event reached the session");
    assert_eq!(report.counter("outsider"), 0);
    assert_eq!(report.counter("pooled"), 16, "pool workers must inherit the session");
    assert_eq!(report.ledger_layers, 16);
    assert_eq!(report.ledger.computing_j, 120.0);
}

#[test]
fn ring_buffer_overflow_keeps_newest_and_counts_drops() {
    let mut ring = RingSink::new(4);
    for seq in 0..11u64 {
        ring.record(seq, &Event::CacheLookup { cache: "t".into(), fingerprint: seq, hit: false });
    }
    assert_eq!(ring.dropped(), 7);
    let kept: Vec<u64> = ring.events().iter().map(|(s, _)| *s).collect();
    assert_eq!(kept, vec![7, 8, 9, 10], "oldest events are evicted first");
}

/// A session draining into an over-capacity ring still aggregates every
/// event in its report; only the retained window shrinks.
#[test]
fn session_report_counts_past_ring_overflow() {
    let shared = SharedRing::new(2);
    let session = Session::start(TraceConfig::Custom(Box::new(shared.sink())));
    for i in 0..10u64 {
        rana_core::trace::emit(|| Event::CacheLookup {
            cache: "t".into(),
            fingerprint: i,
            hit: false,
        });
    }
    let report = session.finish();
    assert_eq!(report.events_emitted, 10);
    assert_eq!(shared.snapshot().len(), 2);
    assert_eq!(shared.dropped(), 8);
}

/// The Figure 15 AlexNet row as `Evaluator::evaluate_many` runs it, with
/// the pool width pinned to `threads`: the design points fan over the
/// pool and every network search runs on one thread.
fn sweep(threads: usize) -> Vec<NetworkSchedule> {
    let eval = Evaluator::paper_platform();
    let net = rana_zoo::alexnet();
    let points: Vec<(&Network, Design)> = Design::ALL.iter().map(|&d| (&net, d)).collect();
    par_map_with(&points, threads, |&(net, design)| {
        eval.scheduler_for(design).schedule_network_with(net, Some(eval.cache()), 1)
    })
}

/// Runs [`sweep`] on one thread, capturing the full event stream.
fn traced_sweep_events() -> Vec<(u64, Event)> {
    let shared = SharedRing::new(1 << 16);
    let session = Session::start(TraceConfig::Custom(Box::new(shared.sink())));
    assert_eq!(sweep(1).len(), Design::ALL.len());
    session.finish();
    shared.snapshot()
}

/// Sink ordering under the worker pool: with one worker the event
/// stream of an `evaluate_many` sweep is deterministic — two identical
/// sweeps produce identical sequences, event for event.
#[test]
fn evaluate_many_event_order_is_deterministic_single_threaded() {
    let first = traced_sweep_events();
    let second = traced_sweep_events();
    assert!(!first.is_empty(), "a traced sweep must emit events");
    assert_eq!(first.len(), second.len());
    for (a, b) in first.iter().zip(&second) {
        assert_eq!(a, b, "event streams diverged");
    }
    // Sequence numbers are dense and ordered regardless of thread count.
    for (i, (seq, _)) in first.iter().enumerate() {
        assert_eq!(*seq, i as u64);
    }
}

/// Schedule-search counters are order-free, so they must agree between a
/// single-threaded and a multi-threaded run of the same sweep. The energy
/// ledger is a float sum; the worker pool replays it in input order, so
/// it must agree bit for bit too.
#[test]
fn counters_are_thread_count_invariant() {
    let run = |threads: usize| -> TelemetryReport {
        let session = Session::start(TraceConfig::CountersOnly);
        sweep(threads);
        session.finish()
    };
    let serial = run(1);
    let parallel = run(4);
    assert_eq!(serial.counters, parallel.counters);
    assert_eq!(serial.ledger_layers, parallel.ledger_layers);
    assert_eq!(serial.ledger, parallel.ledger);
    assert_eq!(serial.event_counts, parallel.event_counts);
}

/// Worker completion order must not reach the ledger. Early items sleep
/// longest, so the pool finishes them last, and their values do not
/// associate in float arithmetic; the pooled sum still equals the inline
/// one bit for bit.
#[test]
fn pooled_ledger_sum_matches_inline_order() {
    let values = [1e16, 1.0, -1e16, 1.0];
    let items: Vec<usize> = (0..values.len()).collect();
    let run = |threads: usize| -> EnergyLedger {
        let session = Session::start(TraceConfig::CountersOnly);
        rana_core::par::par_map_with(&items, threads, |&i| {
            std::thread::sleep(std::time::Duration::from_millis(20 * (values.len() - i) as u64));
            rana_core::trace::ledger(&EnergyLedger {
                computing_j: values[i],
                ..Default::default()
            });
        });
        session.finish().ledger
    };
    let inline = run(1);
    assert_eq!(inline.computing_j, 1.0);
    assert_eq!(run(values.len()), inline);
}

/// The cross-check at the heart of the telemetry layer: the sum of the
/// per-layer `ScheduleChosen` ledgers must reconcile with the evaluator's
/// Eq. 14 totals to ≤ 1e-9 relative error, on every network in the zoo.
#[test]
fn energy_ledger_reconciles_with_evaluator_on_all_networks() {
    let nets = [
        rana_zoo::alexnet(),
        rana_zoo::vgg16(),
        rana_zoo::googlenet(),
        rana_zoo::resnet50(),
        rana_zoo::mobilenet_v1(),
    ];
    let eval = Evaluator::paper_platform();
    for net in &nets {
        let session = Session::start(TraceConfig::CountersOnly);
        let result = eval.evaluate(net, Design::RanaStarE5);
        let report = session.finish();
        let expected: EnergyLedger = result.total.ledger();
        let err = report.ledger.relative_error(&expected);
        assert!(
            err <= 1e-9,
            "{}: trace ledger {:?} vs evaluator {:?} (rel err {err:.3e})",
            net.name(),
            report.ledger,
            expected,
        );
        assert_eq!(
            report.ledger_layers as usize,
            result.schedule.layers.len(),
            "{}: one ScheduleChosen per layer",
            net.name(),
        );
    }
}

/// The adaptive thermal runtime emits one thermal sample and one refresh
/// decision per layer boundary.
#[test]
fn adaptive_runtime_emits_thermal_and_refresh_events() {
    use rana_core::adaptive::{AdaptiveConfig, AdaptiveRuntime, FallbackPolicy};
    use rana_edram::thermal::ThermalModel;
    let session = Session::start(TraceConfig::Ring { capacity: 4096 });
    let eval = Evaluator::paper_platform();
    let net = rana_zoo::alexnet();
    let design = Design::RanaStarE5;
    let config = AdaptiveConfig::for_design(design, FallbackPolicy::Conservative, 0xA1EC);
    let mut rt = AdaptiveRuntime::new(&eval, &net, design, ThermalModel::embedded_65nm(), config);
    rt.run_pass();
    let report = session.finish();
    let thermal = report.event_counts.get("thermal_sample").copied().unwrap_or(0);
    let refresh = report.event_counts.get("refresh_decision").copied().unwrap_or(0);
    assert!(thermal > 0, "thermal loop must emit samples");
    assert_eq!(thermal, refresh, "one refresh decision per sensed boundary");
    assert_eq!(report.counter("adaptive.layers"), thermal);
}
