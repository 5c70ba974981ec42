//! Scheduler-engine benchmark — wall-clock of the Stage-2 search on the
//! serial exhaustive path (the pre-engine behavior) vs the pruned,
//! parallel, and memoized paths, plus the full Figure 15 + Figure 16
//! design-matrix sweep through the parallel evaluation engine. Emits
//! `results/BENCH_sched.json` and verifies every fast path returns
//! schedules identical to the serial reference. The sub-millisecond
//! warm-cache timing (`memo_warm_ms`) is the median of
//! [`WARM_REPS`] runs.

use rana_accel::{AcceleratorConfig, ControllerKind, RefreshModel};
use rana_bench::{banner, threads_from_env, write_result};
use rana_core::designs::Design;
use rana_core::evaluate::Evaluator;
use rana_core::par::ScheduleCache;
use rana_core::scheduler::Scheduler;
use rana_zoo::Network;
use std::time::Instant;

/// Repetitions of the warm-cache timing; the report takes their median.
const WARM_REPS: usize = 7;

fn ms(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1e3
}

/// Times the four network-scheduling paths on one network; returns the
/// JSON object for the report.
fn bench_network(net: &Network) -> String {
    let sched =
        Scheduler::rana(AcceleratorConfig::paper_edram(), RefreshModel::conventional_45us());

    let t = Instant::now();
    let reference = sched.schedule_network_exhaustive(net);
    let serial_ms = ms(t);

    let t = Instant::now();
    let pruned = sched.schedule_network(net);
    let pruned_ms = ms(t);

    let t = Instant::now();
    let parallel = sched.schedule_network_with(net, None, 0);
    let parallel_ms = ms(t);

    let cache = ScheduleCache::new();
    let t = Instant::now();
    let cold = sched.schedule_network_with(net, Some(&cache), 0);
    let memo_cold_ms = ms(t);

    // A warm-cache schedule takes tens of microseconds, so one sample is
    // at the mercy of the OS scheduler: report the median of a few.
    let mut warm_ms = [0.0; WARM_REPS];
    let mut warm_identical = true;
    for sample in &mut warm_ms {
        let t = Instant::now();
        let warm = sched.schedule_network_with(net, Some(&cache), 0);
        *sample = ms(t);
        warm_identical &= warm == reference;
    }
    warm_ms.sort_by(f64::total_cmp);
    let memo_warm_ms = warm_ms[WARM_REPS / 2];

    let identical =
        pruned == reference && parallel == reference && cold == reference && warm_identical;
    assert!(identical, "{}: a fast path diverged from the serial reference", net.name());

    println!(
        "{:<10} serial {serial_ms:>9.1} ms | pruned {pruned_ms:>9.1} ms | parallel {parallel_ms:>9.1} ms | memo cold {memo_cold_ms:>9.1} ms, warm {memo_warm_ms:>9.3} ms",
        net.name()
    );
    format!(
        concat!(
            "{{\"network\":\"{}\",\"layers\":{},",
            "\"serial_exhaustive_ms\":{:.3},\"pruned_ms\":{:.3},\"parallel_ms\":{:.3},",
            "\"memo_cold_ms\":{:.3},\"memo_warm_ms\":{:.3},",
            "\"speedup_pruned\":{:.2},\"speedup_memo_cold\":{:.2},\"speedup_memo_warm\":{:.2},",
            "\"identical\":{}}}"
        ),
        net.name(),
        reference.layers.len(),
        serial_ms,
        pruned_ms,
        parallel_ms,
        memo_cold_ms,
        memo_warm_ms,
        serial_ms / pruned_ms,
        serial_ms / memo_cold_ms,
        serial_ms / memo_warm_ms,
        identical
    )
}

fn main() {
    banner("BENCH sched", "Scheduling-engine wall clock: serial vs pruned vs parallel vs memoized");
    let threads = threads_from_env();
    println!("worker threads: {threads}\n");

    let per_network: Vec<String> =
        [rana_zoo::vgg16(), rana_zoo::resnet50()].iter().map(bench_network).collect();

    // The design-matrix sweep: every Figure 15 point (4 networks x 6
    // designs) plus every Figure 16 point (ResNet x 3 designs x 6
    // retention times), first point by point on the serial exhaustive
    // scheduler (the pre-engine behavior), then through the engine.
    let nets = rana_zoo::benchmarks();
    let resnet = rana_zoo::resnet50();
    let fig16_designs = [Design::EdId, Design::EdOd, Design::Rana0];
    let fig16_rts = [45.0, 90.0, 180.0, 360.0, 720.0, 1440.0];

    let fig15_points: Vec<(&Network, Design)> =
        nets.iter().flat_map(|net| Design::ALL.iter().map(move |&d| (net, d))).collect();
    let resnet_ref = &resnet;
    let fig16_points: Vec<(&Network, Design, RefreshModel)> = fig16_rts
        .iter()
        .flat_map(|&rt| {
            fig16_designs.iter().map(move |&d| {
                (
                    resnet_ref,
                    d,
                    RefreshModel { interval_us: rt, kind: ControllerKind::Conventional },
                )
            })
        })
        .collect();
    let sweep_points = fig15_points.len() + fig16_points.len();
    println!(
        "\nsweep: {} fig15 + {} fig16 = {sweep_points} design points",
        fig15_points.len(),
        fig16_points.len()
    );

    // Best of two timed iterations per path, with fresh state each time
    // (a fresh cache for the engine, so no iteration benefits from a
    // previous one), to keep scheduler noise out of the recorded ratio.
    let mut sweep_serial_ms = f64::INFINITY;
    let mut sweep_engine_ms = f64::INFINITY;
    let mut serial_schedules = Vec::new();
    let mut engine_results = Vec::new();
    let mut engine = Evaluator::paper_platform();
    for _ in 0..2 {
        // Serial reference sweep. `Evaluator` always runs the engine, so
        // build each point's scheduler directly and run the exhaustive
        // search (the pre-engine behavior).
        let eval = Evaluator::paper_platform();
        let t = Instant::now();
        let mut schedules = Vec::with_capacity(sweep_points);
        for &(net, design) in &fig15_points {
            schedules.push(eval.scheduler_for(design).schedule_network_exhaustive(net));
        }
        for &(net, design, refresh) in &fig16_points {
            let mut s = eval.scheduler_for(design);
            s.refresh = refresh;
            schedules.push(s.schedule_network_exhaustive(net));
        }
        sweep_serial_ms = sweep_serial_ms.min(ms(t));
        serial_schedules = schedules;

        // Engine sweep: one fresh evaluator (fresh cache) fanning both
        // point lists with pruning + dedup + memoization.
        let fresh = Evaluator::paper_platform();
        let t = Instant::now();
        let mut results = fresh.evaluate_many(&fig15_points);
        results.extend(fresh.evaluate_refresh_many(&fig16_points));
        sweep_engine_ms = sweep_engine_ms.min(ms(t));
        engine_results = results;
        engine = fresh;
    }

    let identical = serial_schedules
        .iter()
        .zip(&engine_results)
        .all(|(serial, result)| &result.schedule == serial);
    assert!(identical, "engine sweep diverged from the serial reference");

    let speedup = sweep_serial_ms / sweep_engine_ms;
    let (hits, misses, entries) =
        (engine.cache().hits(), engine.cache().misses(), engine.cache().len());
    println!("serial exhaustive sweep: {sweep_serial_ms:>9.1} ms");
    println!("engine sweep:            {sweep_engine_ms:>9.1} ms   ({speedup:.2}x, identical: {identical})");
    println!("schedule cache: {hits} hits / {misses} misses, {entries} entries");
    assert!(speedup >= 2.0, "engine sweep speedup {speedup:.2}x is below the 2x floor");

    let json = format!(
        concat!(
            "{{\n",
            "  \"threads\": {},\n",
            "  \"networks\": [\n    {}\n  ],\n",
            "  \"sweep\": {{\"points\": {}, \"serial_exhaustive_ms\": {:.3}, ",
            "\"engine_ms\": {:.3}, \"speedup\": {:.2}, \"identical\": {}, ",
            "\"cache_hits\": {}, \"cache_misses\": {}, \"cache_entries\": {}}}\n",
            "}}\n"
        ),
        threads,
        per_network.join(",\n    "),
        sweep_points,
        sweep_serial_ms,
        sweep_engine_ms,
        speedup,
        identical,
        hits,
        misses,
        entries
    );
    write_result("BENCH_sched.json", &json);
}
