//! Determinism of the parallel + memoized scheduling engine: every fast
//! path (pruned scan, shape-deduplicated network engine, warm cache) must
//! return schedules *identical* to the serial exhaustive reference —
//! pattern, tiling, energy, traffic, everything.

use rana_repro::accel::{AcceleratorConfig, RefreshModel, SchedLayer};
use rana_repro::core::designs::Design;
use rana_repro::core::evaluate::Evaluator;
use rana_repro::core::par::ScheduleCache;
use rana_repro::core::scheduler::{NetworkSchedule, Scheduler};
use rana_repro::zoo;

fn rana_scheduler() -> Scheduler {
    Scheduler::rana(AcceleratorConfig::paper_edram(), RefreshModel::conventional_45us())
}

fn assert_schedules_identical(a: &NetworkSchedule, b: &NetworkSchedule, what: &str) {
    assert_eq!(a.layers.len(), b.layers.len(), "{what}: layer count");
    for (x, y) in a.layers.iter().zip(&b.layers) {
        assert_eq!(x.sim.layer, y.sim.layer, "{what}: layer name");
        assert_eq!(x.sim.pattern, y.sim.pattern, "{what}: pattern of {}", x.sim.layer);
        assert_eq!(x.sim.tiling, y.sim.tiling, "{what}: tiling of {}", x.sim.layer);
        assert_eq!(x.sim.cycles, y.sim.cycles, "{what}: cycles of {}", x.sim.layer);
        assert_eq!(x.sim.traffic, y.sim.traffic, "{what}: traffic of {}", x.sim.layer);
        assert_eq!(x.refresh_words, y.refresh_words, "{what}: refresh of {}", x.sim.layer);
        // Energies are computed (not accumulated) per layer, so they must
        // be bit-identical, not merely close.
        assert!(
            x.energy == y.energy,
            "{what}: energy of {} differs: {:?} vs {:?}",
            x.sim.layer,
            x.energy,
            y.energy
        );
    }
    assert_eq!(a, b, "{what}: full schedule equality");
}

/// Pruned serial scan == exhaustive scan on every CONV layer of all four
/// benchmarks.
#[test]
fn layer_search_paths_agree_on_all_networks() {
    let sched = rana_scheduler();
    for net in zoo::benchmarks() {
        for conv in net.conv_layers() {
            let layer = SchedLayer::from_conv(conv);
            let reference = sched.schedule_layer_exhaustive(&layer);
            let pruned = sched.schedule_layer(&layer);
            assert_eq!(pruned, reference, "pruned vs exhaustive on {}", layer.name);
        }
    }
}

/// The network engine (dedup + worker pool + cache) returns schedules
/// identical to the serial exhaustive path on all four zoo networks.
#[test]
fn network_engine_matches_serial_on_all_networks() {
    let sched = rana_scheduler();
    let cache = ScheduleCache::new();
    for net in zoo::benchmarks() {
        let serial = sched.schedule_network_exhaustive(&net);
        let plain = sched.schedule_network(&net);
        assert_schedules_identical(&plain, &serial, &format!("{} pruned", net.name()));
        let engine = sched.schedule_network_with(&net, Some(&cache), 4);
        assert_schedules_identical(&engine, &serial, &format!("{} engine", net.name()));
    }
    assert!(cache.hits() > 0, "repeated shapes across the zoo must hit the cache");
}

/// A warm second run over a populated cache returns exactly the cold
/// run's schedule (names patched per layer, everything else shared).
#[test]
fn memoized_warm_run_matches_cold_run() {
    let sched = rana_scheduler();
    let cache = ScheduleCache::new();
    let net = zoo::resnet50();
    let cold = sched.schedule_network_with(&net, Some(&cache), 2);
    let misses_after_cold = cache.misses();
    let warm = sched.schedule_network_with(&net, Some(&cache), 2);
    assert_schedules_identical(&warm, &cold, "warm vs cold");
    assert_eq!(cache.misses(), misses_after_cold, "warm run must not miss");
    assert!(cache.hits() > 0);
}

/// Cache keys must separate scheduling contexts: the same network under
/// different refresh models may not share entries, and the schedules stay
/// correct when one cache serves several design points.
#[test]
fn shared_cache_across_design_points_stays_correct() {
    let eval = Evaluator::paper_platform();
    let net = zoo::vgg16();
    for design in [Design::EdOd, Design::Rana0, Design::RanaE5, Design::RanaStarE5] {
        let scheduler = eval.scheduler_for(design);
        let reference = scheduler.schedule_network_exhaustive(&net);
        let through_cache = eval.evaluate(&net, design);
        assert_schedules_identical(
            &through_cache.schedule,
            &reference,
            &format!("{} via shared cache", design.label()),
        );
    }
}

/// `evaluate_many` equals point-by-point `evaluate` (same order, same
/// numbers) — the bench binaries rely on this when they fan out.
#[test]
fn evaluate_many_matches_pointwise() {
    let eval = Evaluator::paper_platform();
    let alex = zoo::alexnet();
    let vgg = zoo::vgg16();
    let points = [
        (&alex, Design::SId),
        (&alex, Design::RanaStarE5),
        (&vgg, Design::EdOd),
        (&vgg, Design::Rana0),
    ];
    let fanned = eval.evaluate_many(&points);
    // A fresh evaluator (fresh cache) must agree with the shared-cache run.
    let fresh = Evaluator::paper_platform();
    for ((net, design), got) in points.iter().zip(&fanned) {
        let expect = fresh.evaluate(net, *design);
        assert_eq!(got.network, expect.network);
        assert_eq!(got.design, expect.design);
        assert_schedules_identical(&got.schedule, &expect.schedule, &expect.design);
    }
}

/// The batch engine's bookkeeping on an `evaluate_refresh_many` mix: two
/// networks sharing layer shapes (AlexNet's CONV layers open
/// AlexNet+FC), six intervals and both controllers. The batch equals
/// point-by-point `evaluate_with_refresh` in its schedules, its cache
/// hits, misses and entries, and its `scheduler.searches`, while it scans
/// each (search key, layer shape) once.
#[test]
fn refresh_batch_matches_pointwise_and_scans_each_shape_once() {
    use rana_repro::accel::{ControllerKind, Tiling};
    use rana_repro::core::trace::{Session, TraceConfig};
    use std::collections::HashSet;

    let (alex, alex_fc) = (zoo::alexnet(), zoo::alexnet_with_fc());
    let mut points = Vec::new();
    for net in [&alex, &alex_fc] {
        for interval_us in [45.0, 90.0, 180.0, 360.0, 720.0, 1440.0] {
            for kind in [ControllerKind::Conventional, ControllerKind::RefreshOptimized] {
                for design in [Design::EdOd, Design::RanaE5] {
                    points.push((net, design, RefreshModel { interval_us, kind }));
                }
            }
        }
    }

    let batched = Evaluator::paper_platform();
    let session = Session::start(TraceConfig::CountersOnly);
    let many = batched.evaluate_refresh_many(&points);
    let batch = session.finish();

    let pointwise = Evaluator::paper_platform();
    let session = Session::start(TraceConfig::CountersOnly);
    let one_by_one: Vec<_> =
        points.iter().map(|&(net, d, r)| pointwise.evaluate_with_refresh(net, d, r)).collect();
    let serial = session.finish();

    for (got, expect) in many.iter().zip(&one_by_one) {
        assert_eq!(got.design, expect.design);
        assert_schedules_identical(&got.schedule, &expect.schedule, &expect.design);
    }
    let counts = |e: &Evaluator| (e.cache().hits(), e.cache().misses(), e.cache().len());
    assert_eq!(counts(&batched), counts(&pointwise), "cache hits, misses and entries");
    assert!(batched.cache().hits() > 0, "AlexNet+FC's CONV layers must hit AlexNet's searches");
    assert_eq!(batch.counter("scheduler.searches"), serial.counter("scheduler.searches"));

    // One scan per (search key, layer shape): every candidate of it is
    // either analyzed or pruned, once.
    let mut units = HashSet::new();
    let mut space = 0u64;
    for &(net, design, refresh) in &points {
        let mut s = batched.scheduler_for(design);
        s.refresh = refresh;
        for conv in net.conv_layers() {
            let layer = SchedLayer::from_conv(conv);
            if units.insert((s.search_key(), layer.n, layer.h, layer.l, layer.m, layer.k, layer.s))
            {
                let tilings = match s.fixed_tiling {
                    Some(_) => 1,
                    None => Tiling::candidates(&layer, &s.cfg).len(),
                };
                space += (tilings * s.patterns.len()) as u64;
            }
        }
    }
    let scanned = |r: &rana_repro::core::trace::TelemetryReport| {
        r.counter("scheduler.candidates_evaluated") + r.counter("scheduler.candidates_pruned")
    };
    assert_eq!(scanned(&batch), space, "the batch scans each (search key, shape) once");
    assert!(scanned(&serial) > space, "point by point rescans shapes for every interval");
}

/// Persisted stores are addressed by `Scheduler::layer_key`: pin two keys
/// so a refactor of the fingerprint walk cannot silently orphan them.
#[test]
fn layer_keys_are_pinned() {
    let eval = Evaluator::paper_platform();
    let conv1 = SchedLayer::from_conv(zoo::alexnet().conv("conv1").unwrap());
    let res4a = SchedLayer::from_conv(zoo::resnet50().conv("res4a_branch1").unwrap());
    assert_eq!(
        eval.scheduler_for(Design::RanaStarE5).layer_key(&conv1),
        15_092_657_228_089_540_336
    );
    assert_eq!(eval.scheduler_for(Design::SId).layer_key(&res4a), 5_429_009_543_013_634_295);
}
