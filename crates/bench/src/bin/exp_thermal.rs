//! Thermal-adaptive refresh experiment — drives every zoo benchmark
//! through a heating transient + cooldown scenario under three refresh
//! policies and validates each with Monte-Carlo retention probes:
//!
//! * **adaptive** — the closed-loop `rana_core::adaptive` runtime
//!   (temperature → tolerable retention → ladder rung → divider retune /
//!   online reschedule);
//! * **static-45 µs** — the naive conservative policy (weakest cell, any
//!   temperature);
//! * **static-oracle** — the same policy machinery told the run's peak
//!   temperature in advance (one fixed rung, the efficiency bracket).
//!
//! Asserts, for every network: the adaptive realized bit-failure rate
//! stays at or below the Stage-1 target, adaptive refresh energy is
//! strictly below static-45 µs, and within 25% of the oracle. Emits
//! `results/fig_thermal_trajectory.csv`, `results/fig_thermal_passes.csv`
//! and a byte-deterministic `results/BENCH_thermal.json`.

use rana_accel::RefreshModel;
use rana_bench::{banner, seed_from_env, write_csv, write_result};
use rana_core::adaptive::{
    run_probes, run_static_policy, AdaptiveConfig, AdaptiveRuntime, FallbackPolicy, Scenario,
    ValidationSummary,
};
use rana_core::designs::Design;
use rana_core::energy::EnergyModel;
use rana_core::evaluate::Evaluator;
use rana_edram::thermal::ThermalModel;
use rana_trace::json::{array, Obj};
use rana_zoo::Network;

/// Default probe seed for the whole experiment (everything else is
/// seed-free); override with `RANA_SEED`.
const DEFAULT_SEED: u64 = 17;

/// Target busy time of the heating transient, µs (several thermal time
/// constants, so every network approaches its steady-state temperature).
const HEAT_US: f64 = 160_000.0;

/// Cooldown idle between the transient and the final pass, µs.
const COOL_US: f64 = 150_000.0;

struct NetResult {
    json: String,
    pass_rows: Vec<String>,
    traj_rows: Vec<String>,
}

fn fmt_rate(v: f64) -> String {
    format!("{v:e}")
}

fn validation_json(v: &ValidationSummary) -> String {
    Obj::new()
        .raw("probes", v.probes)
        .raw("bits_read", v.bits_read)
        .raw("faulted_bits", v.faulted_bits)
        .raw("rate", fmt_rate(v.realized_rate()))
        .raw("worst_rate", fmt_rate(v.worst_rate))
        .finish()
}

fn run_network(eval: &Evaluator, net: &Network, seed: u64) -> NetResult {
    let design = Design::RanaStarE5;
    let thermal = ThermalModel::embedded_65nm();
    let config = AdaptiveConfig { fallback: FallbackPolicy::Reschedule, seed };
    let target = design.failure_rate();
    let kind = design.refresh_model(eval.retention()).kind;
    let model = EnergyModel::paper_65nm();

    // Scale the transient so every network gets several thermal time
    // constants of back-to-back inference.
    let base_time_us = eval.evaluate(net, design).time_us;
    let heating_passes = ((HEAT_US / base_time_us).ceil() as usize).clamp(2, 16);
    let scenario = Scenario::heating_transient(heating_passes, COOL_US);

    // -- adaptive ------------------------------------------------------
    let mut rt = AdaptiveRuntime::new(eval, net, design, thermal, config);
    rt.run_scenario(&scenario);
    let report = rt.report().clone();
    let adaptive_val = run_probes(&report.probe_specs(), rt.retention(), seed);
    let adaptive_refresh_j = report.total_energy().refresh_j;

    // -- brackets ------------------------------------------------------
    let conservative = eval
        .evaluate_with_refresh(
            net,
            design,
            RefreshModel { interval_us: eval.retention().typical_retention_us(), kind },
        )
        .schedule;
    let static45 = run_static_policy(
        "static-45us",
        &conservative,
        eval.edram_config(),
        &model,
        RefreshModel { interval_us: eval.retention().typical_retention_us(), kind },
        &thermal,
        &scenario,
    );
    let static45_val = run_probes(&static45.probe_specs(&thermal), eval.retention(), seed);
    let oracle = rt.oracle_static_run(&scenario);
    let oracle_val = run_probes(&oracle.probe_specs(&thermal), eval.retention(), seed);

    // The open-loop nominal policy (what the stack did before this
    // subsystem): base schedule, 734 µs-class interval, no feedback.
    // Recorded to show what the adaptive loop protects against.
    let base = eval.evaluate(net, design).schedule;
    let nominal = run_static_policy(
        "static-nominal",
        &base,
        eval.edram_config(),
        &model,
        RefreshModel { interval_us: report.nominal_interval_us, kind },
        &thermal,
        &scenario,
    );
    let nominal_val = run_probes(&nominal.probe_specs(&thermal), eval.retention(), seed);

    // -- acceptance ----------------------------------------------------
    let rate = adaptive_val.realized_rate();
    assert!(
        rate <= target,
        "{}: adaptive realized rate {rate:e} exceeds the Stage-1 target {target:e}",
        net.name()
    );
    assert!(
        adaptive_refresh_j < static45.energy.refresh_j,
        "{}: adaptive refresh {adaptive_refresh_j} J not below static-45 {}",
        net.name(),
        static45.energy.refresh_j
    );
    assert!(
        adaptive_refresh_j <= 1.25 * oracle.energy.refresh_j,
        "{}: adaptive refresh {adaptive_refresh_j} J not within 25% of oracle {}",
        net.name(),
        oracle.energy.refresh_j
    );

    println!(
        "{:<10} {:>2} passes | peak {:>6.2} C | interval {:>5.0} -> {:>5.0} us | refresh uJ: adaptive {:>9.2}, static45 {:>10.2}, oracle {:>9.2} | rate {:.2e} (target {target:.0e})",
        net.name(),
        scenario.total_passes(),
        report.peak_temp_c(),
        report.nominal_interval_us,
        report.min_interval_us(),
        adaptive_refresh_j * 1e6,
        static45.energy.refresh_j * 1e6,
        oracle.energy.refresh_j * 1e6,
        rate,
    );

    // -- CSV rows ------------------------------------------------------
    let pass_rows = report
        .passes
        .iter()
        .map(|p| {
            format!(
                "{},{},{:.4},{:.4},{:.3},{:.3},{},{},{},{},{:.6}",
                net.name(),
                p.pass,
                p.start_temp_c,
                p.end_temp_c,
                p.time_us,
                p.min_interval_us(),
                p.retunes,
                p.fallbacks,
                p.reschedules,
                p.refresh_words,
                p.energy.refresh_j * 1e6
            )
        })
        .collect();
    let traj_rows = report
        .trajectory
        .iter()
        .map(|pt| format!("{},{:.3},{:.4},{:.6}", net.name(), pt.t_us, pt.temp_c, pt.power_w))
        .collect();

    let refresh_j = Obj::new()
        .raw("adaptive", fmt_rate(adaptive_refresh_j))
        .raw("static45", fmt_rate(static45.energy.refresh_j))
        .raw("oracle", fmt_rate(oracle.energy.refresh_j))
        .raw("nominal", fmt_rate(nominal.energy.refresh_j))
        .finish();
    let validation = Obj::new()
        .raw("adaptive", validation_json(&adaptive_val))
        .raw("static45", validation_json(&static45_val))
        .raw("oracle", validation_json(&oracle_val))
        .raw("nominal", validation_json(&nominal_val))
        .finish();
    let json = Obj::new()
        .str("network", net.name())
        .str("design", design.label())
        .raw("heating_passes", heating_passes)
        .raw("target_rate", fmt_rate(target))
        .raw("peak_temp_c", format!("{:.4}", report.peak_temp_c()))
        .raw("nominal_interval_us", format!("{:.3}", report.nominal_interval_us))
        .raw("min_interval_us", format!("{:.3}", report.min_interval_us()))
        .raw("oracle_interval_us", format!("{:.3}", oracle.interval_us))
        .raw("retunes", report.total_retunes())
        .raw("fallbacks", report.total_fallbacks())
        .raw("reschedules", report.total_reschedules())
        .raw("refresh_j", refresh_j)
        .raw("vs_static45", format!("{:.4}", adaptive_refresh_j / static45.energy.refresh_j))
        .raw("vs_oracle", format!("{:.4}", adaptive_refresh_j / oracle.energy.refresh_j))
        .raw("validation", validation)
        .raw("report", report.to_json())
        .finish();
    NetResult { json, pass_rows, traj_rows }
}

fn main() {
    banner(
        "EXP thermal",
        "Thermal-adaptive refresh: closed loop vs static-45us and the peak-temperature oracle",
    );
    let eval = Evaluator::paper_platform();
    let nets = rana_zoo::benchmarks();
    let seed = seed_from_env(DEFAULT_SEED);

    let mut jsons = Vec::new();
    let mut pass_rows = Vec::new();
    let mut traj_rows = Vec::new();
    for net in &nets {
        let r = run_network(&eval, net, seed);
        jsons.push(r.json);
        pass_rows.extend(r.pass_rows);
        traj_rows.extend(r.traj_rows);
    }

    write_csv(
        "fig_thermal_passes.csv",
        "network,pass,start_temp_c,end_temp_c,time_us,min_interval_us,retunes,fallbacks,reschedules,refresh_words,refresh_uj",
        &pass_rows,
    );
    write_csv("fig_thermal_trajectory.csv", "network,t_us,temp_c,power_w", &traj_rows);

    let json = Obj::new()
        .str("experiment", "thermal")
        .raw("seed", seed)
        .raw("networks", array(&jsons))
        .finish();
    write_result("BENCH_thermal.json", &(json + "\n"));
    println!("\nall networks: adaptive <= Stage-1 target, below static-45us, within 25% of oracle");
}
