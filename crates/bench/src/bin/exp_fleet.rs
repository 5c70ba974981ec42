//! Fleet experiment — discrete-event cluster simulation over `rana-des`.
//!
//! Sweeps cluster size × router policy (random, round-robin,
//! power-of-two-choices, schedule-cache-affinity) over the five-network
//! zoo tenant mix at a fixed per-die offered load, then runs one
//! disruption scenario (drain + rejoin, crash + rejoin) to measure the
//! price of losing dies. Offered load scales with the cluster — the
//! largest sweep point corresponds to tens of millions of requests per
//! simulated hour.
//!
//! Asserts power-of-two-choices beats random routing on fleet p99
//! latency at every cluster size of at least 256 dies, then prices cold
//! starts: a 64-die cold-vs-warm comparison (fresh evaluators, nonzero
//! `compile_penalty_us`, warm side precompiled into a
//! [`ScheduleStore`]) lands under
//! `"cold_warm"` in the JSON — the warm run must absorb every Stage-2
//! search. Emits
//! `results/fleet_policies.csv`, a byte-deterministic
//! `results/BENCH_fleet.json`, and `results/BENCH_fleet_timing.json`
//! with per-scenario wall-clock (the one intentionally non-deterministic
//! artifact, timing-quarantined in the bench gate). `--smoke` runs a
//! 16-die subset in well under a second and writes nothing.
//!
//! Knobs: `RANA_SEED` reseeds every stream (arrivals and router);
//! `RANA_THREADS` is accepted for interface parity but the DES loop is
//! single-threaded by construction.

use rana_bench::{banner, seed_from_env, threads_from_env, write_csv};
use rana_core::designs::Design;
use rana_core::evaluate::Evaluator;
use rana_core::store::{precompile, PrecompileSpec, ScheduleStore};
use rana_fleet::{FailureEvent, FailureKind, FleetConfig, FleetReport, FleetSim, RouterPolicy};
use rana_serve::{TenantSpec, TrafficModel};
use rana_trace::json_f64;
use std::time::Instant;

/// Default master seed (override with `RANA_SEED`).
const DEFAULT_SEED: u64 = 17;

/// Cluster sizes of the full sweep.
const SIZES: [usize; 3] = [64, 256, 1024];

/// Offered load per die, as a fraction of the mix capacity.
const LOAD: f64 = 0.7;

/// Arrival horizon of every full-sweep scenario, µs (30 s of simulated
/// traffic; at 1024 dies that is several hundred thousand requests).
const HORIZON_US: f64 = 30_000_000.0;

/// The five-network zoo mix (weights sum to 1, so the configured rate is
/// the total offered rate).
fn zoo_mix() -> Vec<TenantSpec> {
    vec![
        TenantSpec::new(rana_zoo::alexnet(), 0.35),
        TenantSpec::new(rana_zoo::googlenet(), 0.25),
        TenantSpec::new(rana_zoo::resnet50(), 0.15),
        TenantSpec::new(rana_zoo::vgg16(), 0.1),
        TenantSpec::new(rana_zoo::mobilenet_v1(), 0.15),
    ]
}

/// Back-to-back capacity of one die on the mix, requests/s.
fn capacity_rps(eval: &Evaluator, specs: &[TenantSpec]) -> f64 {
    let wsum: f64 = specs.iter().map(|s| s.weight).sum();
    let mean_us: f64 = specs
        .iter()
        .map(|s| s.weight * eval.evaluate(&s.network, Design::RanaStarE5).time_us)
        .sum::<f64>()
        / wsum;
    1e6 / mean_us
}

struct ScenarioResult {
    name: String,
    report: FleetReport,
    wall_ms: f64,
}

impl ScenarioResult {
    fn to_json(&self) -> String {
        format!("{{\"name\":\"{}\",\"report\":{}}}", self.name, self.report.to_json())
    }
}

fn run_scenario(eval: &Evaluator, name: &str, cfg: FleetConfig) -> ScenarioResult {
    let start = Instant::now();
    let report = FleetSim::new(eval, cfg).run();
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    println!(
        "{:<24} {:>4} dies | offered {:>7} ({:>5.1}M/h) | p50 {:>8.1} us | p99 {:>9.1} us | miss {:5.3} | imbalance {:5.3} | {:>7.3} mJ/inf | refresh {:4.1}% | {:>7.0} ms wall",
        name,
        report.num_dies,
        report.offered,
        report.offered_per_hour() / 1e6,
        report.latency.p50_us,
        report.latency.p99_us,
        report.deadline_miss_rate(),
        report.load_imbalance(),
        report.energy_per_inference_j() * 1e3,
        report.refresh_share() * 100.0,
        wall_ms,
    );
    ScenarioResult { name: name.to_string(), report, wall_ms }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    banner(
        "EXP fleet",
        "Fleet simulation: cluster size x router policy, plus drain/crash disruption",
    );
    let seed = seed_from_env(DEFAULT_SEED);
    println!("worker threads: {}, seed: {seed}\n", threads_from_env());
    let eval = Evaluator::paper_platform();
    let cap = capacity_rps(&eval, &zoo_mix());
    println!("per-die mix capacity: {cap:.1} rps (five-network zoo mix), offered load {LOAD:.2}\n");

    if smoke {
        run_smoke(&eval, cap, seed);
        return;
    }

    let mut results: Vec<ScenarioResult> = Vec::new();
    for &dies in &SIZES {
        for policy in RouterPolicy::all() {
            let mut cfg = FleetConfig::paper(
                zoo_mix(),
                TrafficModel::Poisson { rate_rps: LOAD * cap * dies as f64 },
                dies,
                policy,
                seed,
            );
            cfg.horizon_us = HORIZON_US;
            results.push(run_scenario(&eval, &format!("fleet-{dies}-{}", policy.label()), cfg));
        }
        println!();
    }

    // -- acceptance: po2c beats random on p99 at fleet scale -----------
    for &dies in SIZES.iter().filter(|&&d| d >= 256) {
        let p99 = |policy: RouterPolicy| {
            results
                .iter()
                .find(|r| r.report.num_dies == dies && r.report.router == policy)
                .expect("scenario present")
                .report
                .latency
                .p99_us
        };
        let (random, po2c) = (p99(RouterPolicy::Random), p99(RouterPolicy::PowerOfTwoChoices));
        println!(
            "{dies} dies: p99 random {random:.1} us vs po2c {po2c:.1} us ({:+.1}%)",
            (po2c - random) / random * 100.0
        );
        assert!(
            po2c < random,
            "power-of-two-choices must beat random routing on p99 at {dies} dies \
             (random {random:.1} us, po2c {po2c:.1} us)"
        );
    }

    // -- disruption scenario: drain one die, crash another -------------
    println!("\ndisruption scenario (256 dies, po2c): drain die 3, crash die 7, both rejoin");
    let mut cfg = FleetConfig::paper(
        zoo_mix(),
        TrafficModel::Poisson { rate_rps: LOAD * cap * 256.0 },
        256,
        RouterPolicy::PowerOfTwoChoices,
        seed,
    );
    cfg.horizon_us = HORIZON_US;
    cfg.failures = vec![
        FailureEvent { at_us: 0.25 * HORIZON_US, die: 3, kind: FailureKind::Drain },
        FailureEvent { at_us: 0.60 * HORIZON_US, die: 3, kind: FailureKind::Rejoin },
        FailureEvent { at_us: 0.50 * HORIZON_US, die: 7, kind: FailureKind::Crash },
        FailureEvent { at_us: 0.80 * HORIZON_US, die: 7, kind: FailureKind::Rejoin },
    ];
    let failure = run_scenario(&eval, "fleet-256-disruption", cfg);
    let fr = &failure.report;
    assert_eq!(fr.die_drains, 1, "the drain must apply");
    assert_eq!(fr.die_failures, 1, "the crash must apply");
    assert!(fr.rerouted_drain + fr.rerouted_crash > 0, "displaced requests must move");
    assert!(fr.disrupted_offered > 0, "arrivals landed inside disruption windows");
    println!(
        "  rerouted {} (drain {}, crash {}), lost in flight {}, wasted {:.3} mJ, \
         miss rate {:.4} in-window vs {:.4} overall",
        fr.rerouted_drain + fr.rerouted_crash,
        fr.rerouted_drain,
        fr.rerouted_crash,
        fr.lost_in_flight,
        fr.wasted_j * 1e3,
        fr.disruption_miss_rate(),
        fr.deadline_miss_rate(),
    );

    // -- cold vs warm start: the persistent store prices out -----------
    let cold_warm_json = run_cold_warm(cap, seed);

    // -- outputs -------------------------------------------------------
    let mut all: Vec<&ScenarioResult> = results.iter().collect();
    all.push(&failure);
    let rows: Vec<String> = all
        .iter()
        .map(|r| {
            let rep = &r.report;
            format!(
                "{},{},{},{},{},{},{},{},{},{:.1},{:.1},{:.6},{:.4},{:.6},{:.4},{},{},{:.4}",
                r.name,
                rep.num_dies,
                rep.router.label(),
                rep.offered,
                rep.served,
                rep.admission_drops,
                rep.deadline_drops,
                rep.unroutable_drops,
                rep.batches,
                rep.latency.p50_us,
                rep.latency.p99_us,
                rep.deadline_miss_rate(),
                rep.load_imbalance(),
                rep.energy_per_inference_j() * 1e3,
                rep.refresh_share(),
                rep.rerouted_crash + rep.rerouted_drain,
                rep.cold_schedules,
                rep.disruption_miss_rate()
            )
        })
        .collect();
    write_csv(
        "fleet_policies.csv",
        "scenario,dies,router,offered,served,admission_drops,deadline_drops,unroutable_drops,batches,p50_us,p99_us,deadline_miss_rate,load_imbalance,energy_per_inf_mj,refresh_share,rerouted,cold_schedules,disruption_miss_rate",
        &rows,
    );

    let json = format!(
        "{{\"experiment\":\"fleet\",\"seed\":{seed},\"per_die_capacity_rps\":{},\"load\":{},\"scenarios\":[{}],\"disruption\":{},\"cold_warm\":{}}}\n",
        json_f64(cap),
        json_f64(LOAD),
        results.iter().map(ScenarioResult::to_json).collect::<Vec<_>>().join(","),
        failure.to_json(),
        cold_warm_json
    );
    let timing_entries: Vec<String> =
        all.iter().map(|r| format!("\"{}\": {}", r.name, json_f64(r.wall_ms))).collect();
    let timing = format!("{{\n{}\n}}\n", timing_entries.join(",\n"));
    let dir = std::path::Path::new("results");
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("could not create results/: {e}");
    }
    for (name, body) in [("BENCH_fleet.json", &json), ("BENCH_fleet_timing.json", &timing)] {
        match std::fs::write(dir.join(name), body) {
            Ok(()) => println!("wrote results/{name}"),
            Err(e) => eprintln!("could not write results/{name}: {e}"),
        }
    }
    println!(
        "\nschedule cache after the sweep: {} hits / {} misses, {} entries",
        eval.cache().hits(),
        eval.cache().misses(),
        eval.cache().len()
    );
}

/// Modeled stall per fresh Stage-2 search in the cold-vs-warm
/// comparison, µs (the sweep above keeps the committed-baseline 0).
const COLD_WARM_PENALTY_US: f64 = 2_000.0;

/// Prices the fleet cold start the persistent schedule store eliminates:
/// a 64-die power-of-two-choices scenario runs twice on fresh evaluators
/// with a nonzero compile penalty — once cold, once warm-started from an
/// in-process precompiled [`ScheduleStore`] covering the zoo mix at the
/// full buffer (fleet scaling is die-level, so no partitions to cover).
/// Returns the deterministic `"cold_warm"` JSON object for
/// `BENCH_fleet.json`.
fn run_cold_warm(cap: f64, seed: u64) -> String {
    let cfg = || {
        let mut c = FleetConfig::paper(
            zoo_mix(),
            TrafficModel::Poisson { rate_rps: LOAD * cap * 64.0 },
            64,
            RouterPolicy::PowerOfTwoChoices,
            seed,
        );
        c.horizon_us = 5_000_000.0;
        c.compile_penalty_us = COLD_WARM_PENALTY_US;
        c
    };
    println!("\ncold vs warm start (64 dies, po2c, {COLD_WARM_PENALTY_US:.0} us/search):");

    let cold_eval = Evaluator::paper_platform();
    let cold = FleetSim::new(&cold_eval, cfg()).run();

    // Five octaves of derating cover the thermal range an undisrupted
    // 0.7-load fleet visits (the dies run well below 85 °C).
    let warm_eval = Evaluator::paper_platform();
    let mut store = ScheduleStore::new();
    let spec = PrecompileSpec { ladder_octaves: 5, ..Default::default() };
    let nets: Vec<rana_zoo::Network> = zoo_mix().into_iter().map(|s| s.network).collect();
    let stats = precompile(&warm_eval, &nets, &spec, &mut store);
    let preloaded = store.warm_start(warm_eval.cache());
    let warm = FleetSim::new(&warm_eval, cfg()).run();
    let (warm_hits, warm_fresh) = (warm_eval.cache().warm_hits(), warm_eval.cache().misses());
    let hit_rate = warm_hits as f64 / (warm_hits + warm_fresh) as f64;

    for (label, r) in [("cold", &cold), ("warm", &warm)] {
        println!(
            "  {label}: p99 {:>9.1} us | served {:>6} | compile stall {:>9.1} us",
            r.latency.p99_us, r.served, r.compile_stall_us
        );
    }
    println!(
        "  store: {} entries ({} searches), {preloaded} preloaded, {warm_hits} warm hits, \
         {warm_fresh} fresh ({:.1}% absorbed)",
        store.len(),
        stats.searches,
        hit_rate * 100.0
    );
    assert!(cold.compile_stall_us > 0.0, "the cold run must pay compile stalls");
    assert_eq!(warm.compile_stall_us, 0.0, "the precompiled store must absorb every search");
    assert!(warm_hits > 0, "the warm run must hit preloaded schedules");
    // Across 64 dies the per-die stalls amortize, so the fleet p99 shift
    // sits within histogram-bucket resolution (the warm run also serves
    // the marginal requests the cold one drops); the eliminated stall is
    // the first-order signal. Bound the p99 to a sanity band only.
    assert!(
        warm.latency.p99_us <= 1.05 * cold.latency.p99_us,
        "warm-start p99 ({} us) regressed past the cold-start band ({} us)",
        warm.latency.p99_us,
        cold.latency.p99_us
    );

    let leg = |label: &str, r: &FleetReport| {
        format!(
            "\"{label}\":{{\"p99_us\":{},\"served\":{},\"compile_stall_us\":{}}}",
            json_f64(r.latency.p99_us),
            r.served,
            json_f64(r.compile_stall_us)
        )
    };
    format!(
        "{{\"compile_penalty_us\":{},\"store_entries\":{},\"preloaded\":{},\"warm_hits\":{},\"warm_fresh_searches\":{},\"persistent_hit_rate\":{},{},{}}}",
        json_f64(COLD_WARM_PENALTY_US),
        store.len(),
        preloaded,
        warm_hits,
        warm_fresh,
        json_f64(hit_rate),
        leg("cold", &cold),
        leg("warm", &warm)
    )
}

/// `--smoke`: a 16-die subset (random vs power-of-two-choices plus one
/// drain) that exercises routing, batching, the thermal loop and the
/// failure machinery in well under a second, writing no files.
fn run_smoke(eval: &Evaluator, cap: f64, seed: u64) {
    let mut jsons = Vec::new();
    for policy in [RouterPolicy::Random, RouterPolicy::PowerOfTwoChoices] {
        let mut cfg = FleetConfig::paper(
            zoo_mix(),
            TrafficModel::Poisson { rate_rps: LOAD * cap * 16.0 },
            16,
            policy,
            seed,
        );
        cfg.horizon_us = 2_000_000.0;
        cfg.failures = vec![
            FailureEvent { at_us: 500_000.0, die: 2, kind: FailureKind::Drain },
            FailureEvent { at_us: 1_200_000.0, die: 2, kind: FailureKind::Rejoin },
        ];
        let r = run_scenario(eval, &format!("smoke-16-{}", policy.label()), cfg);
        assert!(r.report.served > 0, "smoke run served nothing");
        assert_eq!(
            r.report.offered,
            r.report.served
                + r.report.admission_drops
                + r.report.deadline_drops
                + r.report.unroutable_drops
        );
        assert_eq!(r.report.die_drains, 1);
        jsons.push(r.report.to_json());
    }
    assert_ne!(jsons[0], jsons[1], "policies must differ in the report");
    println!("\nsmoke OK ({} + {} bytes of report JSON)", jsons[0].len(), jsons[1].len());
}
