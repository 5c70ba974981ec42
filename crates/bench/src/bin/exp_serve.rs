//! Serving experiment — multi-tenant inference on one RANA accelerator.
//!
//! Sweeps offered load over a mixed AlexNet + GoogLeNet + ResNet-50
//! Poisson stream, crossing queue policy (FIFO vs earliest-deadline-first)
//! with eDRAM bank partitioning (static equal split vs dynamic greedy
//! marginal-energy), plus one bursty five-tenant scenario that adds
//! VGG-16 and MobileNet-V1. One shared `Evaluator` backs every run, so
//! each (layer, partition size, temperature rung) schedule search happens
//! at most once across the whole sweep.
//!
//! Asserts dynamic partitioning beats static on energy/inference at two
//! or more Poisson load points, then prices cold starts: a cold-vs-warm
//! comparison runs the same two-tenant scenario on a fresh evaluator with
//! a nonzero `compile_penalty_us`, once with an empty schedule cache and
//! once warm-started from an in-process precompiled
//! [`ScheduleStore`] — the warm run must
//! absorb every Stage-2 search (zero compile stall) and its p99 must not
//! exceed the cold one. Emits `results/serve_policies.csv`,
//! `results/serve_tenants.csv` and a byte-deterministic
//! `results/BENCH_serve.json` (with the comparison under `"cold_warm"`).
//! `--smoke` runs a two-tenant subset in a few seconds and writes
//! nothing; `--store <path>` warm-starts the shared evaluator from a
//! store written by `rana-compile precompile` and reports the persistent
//! hit count (the `scripts/check.sh` store-backed smoke leg).

use rana_bench::{banner, capacity_rps, seed_from_env, threads_from_env, write_csv, write_result};
use rana_core::evaluate::Evaluator;
use rana_core::store::{precompile, PrecompileSpec, ScheduleStore};
use rana_serve::{
    PartitionPolicy, QueuePolicy, ServeConfig, ServeReport, Server, TenantSpec, TrafficModel,
};
use rana_trace::json::{array, Obj};

/// Default arrival-stream seed (override with `RANA_SEED`).
const DEFAULT_SEED: u64 = 17;

/// Arrival horizon of every full-sweep scenario, µs (20 s of simulated
/// traffic; hundreds of requests at the mixed-stream capacity).
const HORIZON_US: f64 = 20_000_000.0;

/// Offered-load points, as fractions of the mixed-stream capacity.
const LOADS: [f64; 4] = [0.35, 0.6, 0.85, 1.1];

fn poisson_mix() -> Vec<TenantSpec> {
    vec![
        TenantSpec::new(rana_zoo::alexnet(), 0.5),
        TenantSpec::new(rana_zoo::googlenet(), 0.3),
        TenantSpec::new(rana_zoo::resnet50(), 0.2),
    ]
}

fn bursty_mix() -> Vec<TenantSpec> {
    vec![
        TenantSpec::new(rana_zoo::alexnet(), 0.35),
        TenantSpec::new(rana_zoo::googlenet(), 0.25),
        TenantSpec::new(rana_zoo::resnet50(), 0.15),
        TenantSpec::new(rana_zoo::vgg16(), 0.1),
        TenantSpec::new(rana_zoo::mobilenet_v1(), 0.15),
    ]
}

struct ScenarioResult {
    name: String,
    load: f64,
    report: ServeReport,
}

impl ScenarioResult {
    fn to_json(&self) -> String {
        Obj::new()
            .str("name", &self.name)
            .f64("load", self.load)
            .raw("report", self.report.to_json())
            .finish()
    }
}

fn run_scenario(
    eval: &Evaluator,
    name: &str,
    specs: Vec<TenantSpec>,
    load: f64,
    cfg: ServeConfig,
) -> ScenarioResult {
    let report = Server::new(eval, specs, cfg).run();
    println!(
        "{:<22} {:>4}+{:<7} load {:4.2} | served {:>4}/{:<4} drops {:>3}A/{:<3}D | p99 {:>9.1} us | {:>7.3} mJ/inf | refresh {:4.1}% | peak {:5.2} C | interval >= {:5.1} us",
        name,
        report.queue_policy.label(),
        report.partition_policy.label(),
        load,
        report.served,
        report.offered,
        report.admission_drops,
        report.deadline_drops,
        report.latency.p99_us,
        report.energy_per_inference_j() * 1e3,
        report.refresh_share() * 100.0,
        report.peak_temp_c,
        report.min_interval_us,
    );
    ScenarioResult { name: name.to_string(), load, report }
}

/// Value of `--store <path>`, if present.
fn store_arg() -> Option<String> {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == "--store" {
            return Some(args.next().expect("--store needs a path"));
        }
    }
    None
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    banner("EXP serve", "Multi-tenant serving: FIFO/EDF x static/dynamic eDRAM bank partitioning");
    let seed = seed_from_env(DEFAULT_SEED);
    println!("worker threads: {}, seed: {seed}\n", threads_from_env());
    let eval = Evaluator::paper_platform();

    // A persistent store (written by `rana-compile precompile`) warm-starts
    // the shared evaluator's schedule cache before any scenario runs.
    let warmed_from_store = store_arg().map(|path| {
        let store = ScheduleStore::load(std::path::Path::new(&path))
            .unwrap_or_else(|e| panic!("could not load schedule store {path}: {e}"));
        let preloaded = store.warm_start(eval.cache());
        println!("warm-started {preloaded} schedules from {path}\n");
        preloaded
    });

    if smoke {
        run_smoke(&eval, seed);
        if let Some(preloaded) = warmed_from_store {
            let (warm_hits, fresh) = (eval.cache().warm_hits(), eval.cache().misses());
            println!(
                "persistent store: {preloaded} preloaded, {warm_hits} warm hits, \
                 {fresh} fresh searches"
            );
            assert!(warm_hits > 0, "a store-backed smoke run must hit preloaded schedules");
        }
        return;
    }

    let cap = capacity_rps(&eval, &poisson_mix());
    println!("mixed-stream capacity: {cap:.1} rps (AlexNet 0.5 / GoogLeNet 0.3 / ResNet 0.2)\n");

    let mut results: Vec<ScenarioResult> = Vec::new();
    for &load in &LOADS {
        for queue in [QueuePolicy::Fifo, QueuePolicy::Edf] {
            for part in [PartitionPolicy::Static, PartitionPolicy::Dynamic] {
                let mut cfg =
                    ServeConfig::paper(TrafficModel::Poisson { rate_rps: load * cap }, seed);
                cfg.horizon_us = HORIZON_US;
                cfg.queue_policy = queue;
                cfg.partition_policy = part;
                results.push(run_scenario(
                    &eval,
                    &format!("poisson-{load:.2}"),
                    poisson_mix(),
                    load,
                    cfg,
                ));
            }
        }
    }

    // The bursty five-tenant scenario: same long-run load, clumped
    // arrivals (3x bursts a quarter of the time).
    let bcap = capacity_rps(&eval, &bursty_mix());
    println!("\nbursty-mix capacity: {bcap:.1} rps (adds VGG-16 and MobileNet-V1)\n");
    for queue in [QueuePolicy::Fifo, QueuePolicy::Edf] {
        for part in [PartitionPolicy::Static, PartitionPolicy::Dynamic] {
            let mut cfg = ServeConfig::paper(
                TrafficModel::Bursty {
                    rate_rps: 0.85 * bcap,
                    burst_factor: 3.0,
                    burst_fraction: 0.25,
                    mean_burst_us: 500_000.0,
                },
                seed,
            );
            cfg.horizon_us = HORIZON_US;
            cfg.queue_policy = queue;
            cfg.partition_policy = part;
            results.push(run_scenario(&eval, "bursty-0.85", bursty_mix(), 0.85, cfg));
        }
    }

    // -- acceptance: dynamic beats static on energy/inference ----------
    let mut dynamic_wins = 0;
    println!("\nFIFO energy/inference, dynamic vs static partitioning:");
    for &load in &LOADS {
        let pick = |part: PartitionPolicy| {
            results
                .iter()
                .find(|r| {
                    r.name.starts_with("poisson")
                        && r.load == load
                        && r.report.queue_policy == QueuePolicy::Fifo
                        && r.report.partition_policy == part
                })
                .expect("scenario present")
        };
        let s = pick(PartitionPolicy::Static).report.energy_per_inference_j();
        let d = pick(PartitionPolicy::Dynamic).report.energy_per_inference_j();
        let win = d < s;
        dynamic_wins += usize::from(win);
        println!(
            "  load {load:4.2}: static {:.4} mJ, dynamic {:.4} mJ ({}{:.1}%)",
            s * 1e3,
            d * 1e3,
            if win { "-" } else { "+" },
            (d - s).abs() / s * 100.0
        );
    }
    assert!(
        dynamic_wins >= 2,
        "dynamic partitioning beat static at only {dynamic_wins} of {} load points",
        LOADS.len()
    );
    println!("dynamic partitioning wins at {dynamic_wins}/{} Poisson load points", LOADS.len());

    // EDF never serves fewer requests than FIFO under overload (it sheds
    // the already-doomed ones first).
    let served = |load: f64, q: QueuePolicy| {
        results
            .iter()
            .find(|r| {
                r.name.starts_with("poisson")
                    && r.load == load
                    && r.report.queue_policy == q
                    && r.report.partition_policy == PartitionPolicy::Static
            })
            .expect("scenario present")
            .report
            .served
    };
    println!(
        "overload (1.10x): FIFO served {}, EDF served {}",
        served(1.1, QueuePolicy::Fifo),
        served(1.1, QueuePolicy::Edf)
    );

    // -- cold vs warm start: the persistent store prices out -----------
    let cold_warm_json = run_cold_warm(&eval, seed);

    // -- outputs -------------------------------------------------------
    let policy_rows: Vec<String> = results
        .iter()
        .map(|r| {
            let rep = &r.report;
            format!(
                "{},{:.2},{},{},{},{},{},{},{},{:.3},{:.1},{:.1},{:.1},{:.6},{:.4},{:.3},{:.1}",
                r.name,
                r.load,
                rep.traffic.label(),
                rep.queue_policy.label(),
                rep.partition_policy.label(),
                rep.offered,
                rep.served,
                rep.admission_drops,
                rep.deadline_drops,
                rep.throughput_rps(),
                rep.latency.p50_us,
                rep.latency.p95_us,
                rep.latency.p99_us,
                rep.energy_per_inference_j() * 1e3,
                rep.refresh_share(),
                rep.peak_temp_c,
                rep.min_interval_us
            )
        })
        .collect();
    write_csv(
        "serve_policies.csv",
        "scenario,load,traffic,queue,partition,offered,served,admission_drops,deadline_drops,throughput_rps,p50_us,p95_us,p99_us,energy_per_inf_mj,refresh_share,peak_temp_c,min_interval_us",
        &policy_rows,
    );
    let tenant_rows: Vec<String> = results
        .iter()
        .flat_map(|r| {
            let rep = &r.report;
            rep.tenants.iter().map(move |t| {
                format!(
                    "{},{},{},{},{},{},{},{},{},{},{},{:.6},{:.1},{:.1},{:.6}",
                    r.name,
                    rep.queue_policy.label(),
                    rep.partition_policy.label(),
                    t.name,
                    t.banks,
                    t.offered,
                    t.served,
                    t.admission_drops,
                    t.deadline_drops,
                    t.late_served,
                    t.retunes,
                    t.deadline_miss_rate(),
                    t.latency.p99_us,
                    t.queue_wait.p99_us,
                    t.energy.total_j() * 1e3
                )
            })
        })
        .collect();
    write_csv(
        "serve_tenants.csv",
        "scenario,queue,partition,tenant,banks,offered,served,admission_drops,deadline_drops,late_served,retunes,deadline_miss_rate,p99_us,queue_wait_p99_us,energy_mj",
        &tenant_rows,
    );

    let json = Obj::new()
        .str("experiment", "serve")
        .raw("seed", seed)
        .f64("capacity_rps", cap)
        .raw("scenarios", array(results.iter().map(ScenarioResult::to_json)))
        .raw("cold_warm", cold_warm_json)
        .finish();
    write_result("BENCH_serve.json", &(json + "\n"));
    println!(
        "\nschedule cache after the sweep: {} hits / {} misses, {} entries",
        eval.cache().hits(),
        eval.cache().misses(),
        eval.cache().len()
    );
}

/// Modeled stall per fresh Stage-2 search in the cold-vs-warm
/// comparison, µs (the main sweep keeps the committed-baseline 0).
const COLD_WARM_PENALTY_US: f64 = 2_000.0;

/// Prices the cold start the persistent schedule store eliminates: the
/// same two-tenant scenario runs twice on fresh evaluators with a
/// nonzero compile penalty — once cold, once warm-started from an
/// in-process precompiled [`ScheduleStore`] — and the warm run must
/// absorb every Stage-2 search. Returns the deterministic `"cold_warm"`
/// JSON object for `BENCH_serve.json`.
fn run_cold_warm(shared: &Evaluator, seed: u64) -> String {
    let specs = || {
        vec![TenantSpec::new(rana_zoo::alexnet(), 0.6), TenantSpec::new(rana_zoo::googlenet(), 0.4)]
    };
    // Traffic rate from the shared (already warm) evaluator: both runs
    // then see byte-identical arrival streams.
    let cap = capacity_rps(shared, &specs());
    let cfg = || {
        let mut c = ServeConfig::paper(TrafficModel::Poisson { rate_rps: 0.8 * cap }, seed);
        c.horizon_us = 2_000_000.0;
        c.compile_penalty_us = COLD_WARM_PENALTY_US;
        c
    };
    println!("\ncold vs warm start (two tenants, 0.80 load, {COLD_WARM_PENALTY_US:.0} us/search):");

    let cold_eval = Evaluator::paper_platform();
    let cold = Server::new(&cold_eval, specs(), cfg()).run();

    // Warm: precompile the scenario's grid — both tenants' partitions
    // (equal_split(44, 2) = 22) plus the full buffer the isolated-latency
    // probes use, five octaves of derating (the 85 °C throttle cap is
    // 40 °C above ambient ≈ 4 octaves, plus the retention margin).
    let warm_eval = Evaluator::paper_platform();
    let mut store = ScheduleStore::new();
    let spec =
        PrecompileSpec { bank_counts: vec![22, 44], ladder_octaves: 5, ..Default::default() };
    let stats =
        precompile(&warm_eval, &[rana_zoo::alexnet(), rana_zoo::googlenet()], &spec, &mut store);
    let preloaded = store.warm_start(warm_eval.cache());
    let warm = Server::new(&warm_eval, specs(), cfg()).run();
    let (warm_hits, warm_fresh) = (warm_eval.cache().warm_hits(), warm_eval.cache().misses());
    let hit_rate = warm_hits as f64 / (warm_hits + warm_fresh) as f64;

    for (label, r) in [("cold", &cold), ("warm", &warm)] {
        println!(
            "  {label}: p99 {:>9.1} us | queue-wait p99 {:>9.1} us | served {:>4} | \
             compile stall {:>8.1} us",
            r.latency.p99_us, r.queue_wait.p99_us, r.served, r.compile_stall_us
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
    assert!(
        warm.latency.p99_us <= cold.latency.p99_us,
        "warm-start p99 ({} us) must not exceed cold-start p99 ({} us)",
        warm.latency.p99_us,
        cold.latency.p99_us
    );

    let leg = |r: &ServeReport| {
        Obj::new()
            .f64("p99_us", r.latency.p99_us)
            .f64("queue_wait_p99_us", r.queue_wait.p99_us)
            .raw("served", r.served)
            .f64("compile_stall_us", r.compile_stall_us)
            .finish()
    };
    Obj::new()
        .f64("compile_penalty_us", COLD_WARM_PENALTY_US)
        .raw("store_entries", store.len())
        .raw("preloaded", preloaded)
        .raw("warm_hits", warm_hits)
        .raw("warm_fresh_searches", warm_fresh)
        .f64("persistent_hit_rate", hit_rate)
        .raw("cold", leg(&cold))
        .raw("warm", leg(&warm))
        .finish()
}

/// `--smoke`: a two-tenant, single-load subset that exercises traffic
/// generation, both partition policies, batching and the thermal loop in
/// a few seconds, writing no files.
fn run_smoke(eval: &Evaluator, seed: u64) {
    let specs = || {
        vec![TenantSpec::new(rana_zoo::alexnet(), 0.6), TenantSpec::new(rana_zoo::googlenet(), 0.4)]
    };
    let cap = capacity_rps(eval, &specs());
    let mut jsons = Vec::new();
    for part in [PartitionPolicy::Static, PartitionPolicy::Dynamic] {
        let mut cfg = ServeConfig::paper(TrafficModel::Poisson { rate_rps: 0.8 * cap }, seed);
        cfg.horizon_us = 2_000_000.0;
        cfg.bank_quantum = 8;
        cfg.partition_policy = part;
        let r = run_scenario(eval, "smoke-0.80", specs(), 0.8, cfg);
        assert!(r.report.served > 0, "smoke run served nothing");
        assert_eq!(
            r.report.offered,
            r.report.served + r.report.admission_drops + r.report.deadline_drops
        );
        jsons.push(r.to_json());
    }
    assert_ne!(jsons[0], jsons[1], "policies must differ in the report");
    println!("\nsmoke OK ({} + {} bytes of report JSON)", jsons[0].len(), jsons[1].len());
}
