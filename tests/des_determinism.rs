//! Determinism contract of the DES core — and of the serving simulator
//! that now runs on it.
//!
//! The first half property-tests [`EventQueue`]'s total event order: at
//! equal timestamps, lower classes fire first and within a class events
//! fire in schedule order, for *any* interleaving of schedule calls, and
//! cancellation never perturbs the order of surviving events, and
//! `cancel` / `len` / `peek_time` agree with a model under any
//! interleaving of schedules, pops, peeks and cancels. The second half pins the DES ports of
//! `rana-serve` and `rana-fleet` to the committed bench baselines: a
//! fixed-seed run must reproduce the exact bytes of its scenario inside
//! `baselines/BENCH_serve.json` / `baselines/BENCH_fleet.json`, so any
//! accidental change to event ordering, RNG stream splitting or float
//! accumulation fails tier-1 — not just the bench gate.

use proptest::collection::vec;
use proptest::prelude::*;
use rana_repro::core::designs::Design;
use rana_repro::core::evaluate::Evaluator;
use rana_repro::des::{EventId, EventQueue};
use rana_repro::fleet::{FailureEvent, FailureKind, FleetConfig, FleetSim, RouterPolicy};
use rana_repro::serve::{
    PartitionPolicy, QueuePolicy, ServeConfig, Server, TenantSpec, TrafficModel,
};
use rana_repro::zoo;

/// Times drawn from a tiny pool so same-timestamp collisions are the
/// common case, not the exception.
const TIMES: [f64; 3] = [0.0, 1.5, 4.0];

/// Stable-sorts schedule order by `(time, class)` — the order the queue
/// contracts to deliver (ties broken by schedule sequence).
fn expected_order(events: &[(usize, u8)]) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..events.len()).collect();
    idx.sort_by(|&a, &b| {
        TIMES[events[a].0]
            .total_cmp(&TIMES[events[b].0])
            .then(events[a].1.cmp(&events[b].1))
            .then(a.cmp(&b))
    });
    idx
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Same-timestamp events are delivered class-then-schedule-order, no
    /// matter how the schedule calls interleave times and classes.
    #[test]
    fn same_timestamp_events_fire_in_schedule_order(
        events in vec((0usize..TIMES.len(), 0u8..3), 0..48),
    ) {
        let mut q: EventQueue<usize> = EventQueue::new();
        for (i, &(t, class)) in events.iter().enumerate() {
            q.schedule(TIMES[t], class, i);
        }
        let mut fired = Vec::new();
        let mut last = f64::NEG_INFINITY;
        while let Some((at, payload)) = q.pop() {
            prop_assert!(at >= last, "clock went backwards: {at} < {last}");
            last = at;
            fired.push(payload);
        }
        prop_assert_eq!(fired, expected_order(&events));
    }

    /// Cancelling any subset of events removes exactly those events and
    /// leaves the survivors' relative order untouched.
    #[test]
    fn cancellation_preserves_survivor_order(
        events in vec((0usize..TIMES.len(), 0u8..3), 1..48),
        cancel_mask in vec(any::<bool>(), 48..49),
    ) {
        let mut q: EventQueue<usize> = EventQueue::new();
        let ids: Vec<_> =
            events.iter().enumerate().map(|(i, &(t, c))| q.schedule(TIMES[t], c, i)).collect();
        let mut cancelled = Vec::new();
        for (i, id) in ids.iter().enumerate() {
            if cancel_mask[i] {
                prop_assert!(q.cancel(*id), "first cancel of a pending event must succeed");
                prop_assert!(!q.cancel(*id), "second cancel of the same event must fail");
                cancelled.push(i);
            }
        }
        let mut fired = Vec::new();
        while let Some((_, payload)) = q.pop() {
            fired.push(payload);
        }
        let survivors: Vec<usize> =
            expected_order(&events).into_iter().filter(|i| !cancelled.contains(i)).collect();
        prop_assert_eq!(fired, survivors);
    }

    /// `cancel` succeeds exactly while an event is scheduled and neither
    /// delivered nor cancelled, `len` counts those events after every
    /// step, `peek_time` reads the next survivor's time, and pops deliver
    /// the survivors in `(time, class, seq)` order — for any interleaving
    /// of schedules, pops, peeks and cancels, including the cancel of the
    /// event just popped while its entry is still the heap's top.
    #[test]
    fn cancel_and_len_match_a_model_under_interleaving(
        ops in vec((0u8..5, 0usize..TIMES.len(), 0u8..3, 0usize..64), 1..96),
    ) {
        /// One scheduled event as the model sees it.
        struct Model {
            id: EventId,
            time: f64,
            class: u8,
            live: bool,
        }
        /// The live event with the smallest (time, class, seq).
        fn next(model: &[Model]) -> Option<usize> {
            (0..model.len()).filter(|&i| model[i].live).min_by(|&a, &b| {
                let (ma, mb) = (&model[a], &model[b]);
                ma.time.total_cmp(&mb.time).then(ma.class.cmp(&mb.class)).then(a.cmp(&b))
            })
        }
        let mut q: EventQueue<usize> = EventQueue::new();
        let mut model: Vec<Model> = Vec::new();
        for &(op, t, class, pick) in &ops {
            match op {
                0 => {
                    let time = q.now() + TIMES[t];
                    let id = q.schedule(time, class, model.len());
                    model.push(Model { id, time, class, live: true });
                }
                1 | 4 => {
                    let next = next(&model);
                    let popped = q.pop();
                    prop_assert_eq!(popped, next.map(|i| (model[i].time, i)));
                    if let Some(i) = next {
                        model[i].live = false;
                        if op == 4 {
                            prop_assert!(!q.cancel(model[i].id), "cancel of event {} just popped", i);
                        }
                    }
                }
                3 => prop_assert_eq!(q.peek_time(), next(&model).map(|i| model[i].time)),
                _ => {
                    if !model.is_empty() {
                        let i = pick % model.len();
                        let cancelled = q.cancel(model[i].id);
                        prop_assert_eq!(cancelled, model[i].live, "cancel of event {}", i);
                        model[i].live = false;
                    }
                }
            }
            let live = model.iter().filter(|m| m.live).count();
            prop_assert_eq!(q.len(), live);
            prop_assert_eq!(q.is_empty(), live == 0);
        }
    }
}

/// The first `exp_serve` sweep scenario (FIFO × static partitioning at
/// 0.35× capacity), reconstructed exactly as the experiment builds it.
fn baseline_scenario(eval: &Evaluator) -> (Vec<TenantSpec>, ServeConfig) {
    let mix = vec![
        TenantSpec::new(zoo::alexnet(), 0.5),
        TenantSpec::new(zoo::googlenet(), 0.3),
        TenantSpec::new(zoo::resnet50(), 0.2),
    ];
    let wsum: f64 = mix.iter().map(|s| s.weight).sum();
    let mean_us: f64 = mix
        .iter()
        .map(|s| s.weight * eval.evaluate(&s.network, Design::RanaStarE5).time_us)
        .sum::<f64>()
        / wsum;
    let cap = 1e6 / mean_us;
    let mut cfg = ServeConfig::paper(TrafficModel::Poisson { rate_rps: 0.35 * cap }, 17);
    cfg.horizon_us = 20_000_000.0;
    cfg.queue_policy = QueuePolicy::Fifo;
    cfg.partition_policy = PartitionPolicy::Static;
    (mix, cfg)
}

/// The DES-ported server must still produce the committed baseline bytes:
/// the report JSON of the reconstructed scenario appears verbatim inside
/// `baselines/BENCH_serve.json`.
#[test]
fn serve_on_des_reproduces_the_committed_baseline() {
    let baseline =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/baselines/BENCH_serve.json"))
            .expect("committed baseline must be readable");
    let eval = Evaluator::paper_platform();
    let (mix, cfg) = baseline_scenario(&eval);
    let report = Server::new(&eval, mix, cfg).run();
    assert!(report.served > 0, "the baseline scenario serves requests");
    let json = report.to_json();
    assert!(
        baseline.contains(&json),
        "fixed-seed serve report no longer matches baselines/BENCH_serve.json; \
         the DES port changed observable behavior.\nreport: {json}"
    );
}

/// `exp_fleet`'s five-network zoo mix.
fn fleet_mix() -> Vec<TenantSpec> {
    vec![
        TenantSpec::new(zoo::alexnet(), 0.35),
        TenantSpec::new(zoo::googlenet(), 0.25),
        TenantSpec::new(zoo::resnet50(), 0.15),
        TenantSpec::new(zoo::vgg16(), 0.1),
        TenantSpec::new(zoo::mobilenet_v1(), 0.15),
    ]
}

/// `exp_fleet`'s scenario at `dies` dies and the 0.7× per-die load
/// (30 s horizon, seed 17), built exactly as the experiment builds it.
fn fleet_scenario(eval: &Evaluator, dies: usize, router: RouterPolicy) -> FleetConfig {
    let mix = fleet_mix();
    let wsum: f64 = mix.iter().map(|s| s.weight).sum();
    let mean_us: f64 = mix
        .iter()
        .map(|s| s.weight * eval.evaluate(&s.network, Design::RanaStarE5).time_us)
        .sum::<f64>()
        / wsum;
    let rate_rps = 0.7 * (1e6 / mean_us) * dies as f64;
    let mut cfg = FleetConfig::paper(mix, TrafficModel::Poisson { rate_rps }, dies, router, 17);
    cfg.horizon_us = 30_000_000.0;
    cfg
}

/// The fleet simulator must reproduce the committed baseline bytes: the
/// report JSON of `exp_fleet`'s four 64-die router scenarios and of its
/// 256-die drain + crash scenario appears verbatim inside
/// `baselines/BENCH_fleet.json`.
#[test]
fn fleet_on_des_reproduces_the_committed_baseline() {
    let baseline =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/baselines/BENCH_fleet.json"))
            .expect("committed baseline must be readable");
    let eval = Evaluator::paper_platform();
    let mut scenarios: Vec<(String, FleetConfig)> = RouterPolicy::all()
        .into_iter()
        .map(|router| (format!("fleet-64-{}", router.label()), fleet_scenario(&eval, 64, router)))
        .collect();
    let mut disruption = fleet_scenario(&eval, 256, RouterPolicy::PowerOfTwoChoices);
    let h = disruption.horizon_us;
    disruption.failures = vec![
        FailureEvent { at_us: 0.25 * h, die: 3, kind: FailureKind::Drain },
        FailureEvent { at_us: 0.60 * h, die: 3, kind: FailureKind::Rejoin },
        FailureEvent { at_us: 0.50 * h, die: 7, kind: FailureKind::Crash },
        FailureEvent { at_us: 0.80 * h, die: 7, kind: FailureKind::Rejoin },
    ];
    scenarios.push(("fleet-256-disruption".to_string(), disruption));
    for (name, cfg) in scenarios {
        let report = FleetSim::new(&eval, cfg).run();
        assert!(report.served > 0, "{name}: the baseline scenario serves requests");
        let json = format!("{{\"name\":\"{name}\",\"report\":{}}}", report.to_json());
        assert!(
            baseline.contains(&json),
            "fixed-seed fleet report {name} no longer matches baselines/BENCH_fleet.json; \
             the fleet simulator changed observable behavior.\nreport: {json}"
        );
    }
}
