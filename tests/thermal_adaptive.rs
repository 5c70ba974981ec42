//! Determinism and safety of the thermal-adaptive refresh runtime: for a
//! fixed seed the whole closed loop — sensing, ladder selection, divider
//! retunes, online reschedules, and the Monte-Carlo validation probes —
//! must be byte-for-byte reproducible, and the adapted policy must stay
//! inside its safety/efficiency brackets.

use rana_repro::core::adaptive::{
    run_probes, run_static_policy, AdaptiveConfig, AdaptiveRuntime, FallbackPolicy, Scenario,
};
use rana_repro::core::{designs::Design, evaluate::Evaluator, EnergyModel};
use rana_repro::edram::thermal::ThermalModel;

const SEED: u64 = 0xA1EC;

fn run_once(eval: &Evaluator, fallback: FallbackPolicy) -> (String, String) {
    let net = rana_repro::zoo::alexnet();
    let design = Design::RanaStarE5;
    let thermal = ThermalModel::embedded_65nm();
    let config = AdaptiveConfig { fallback, seed: SEED };
    let scenario = Scenario::heating_transient(3, 60_000.0);
    let mut rt = AdaptiveRuntime::new(eval, &net, design, thermal, config);
    rt.run_scenario(&scenario);
    let report = rt.report();
    let probes = run_probes(&report.probe_specs(), rt.retention(), SEED);
    (report.to_json(), format!("{probes:?}"))
}

/// Acceptance criterion: the adaptive runtime is deterministic for a fixed
/// seed — two independent runs produce byte-identical JSON reports and
/// identical probe outcomes.
#[test]
fn adaptive_runtime_is_deterministic_for_fixed_seed() {
    let eval = Evaluator::paper_platform();
    for fallback in [FallbackPolicy::Conservative, FallbackPolicy::Reschedule] {
        let (json_a, probes_a) = run_once(&eval, fallback);
        let (json_b, probes_b) = run_once(&eval, fallback);
        assert_eq!(json_a, json_b, "{fallback:?}: report JSON must be byte-identical");
        assert_eq!(probes_a, probes_b, "{fallback:?}: probe outcomes must be identical");
    }
}

/// A different probe seed changes the sampled cell retentions (the loop
/// itself stays deterministic, but validation draws differ).
#[test]
fn probe_seed_selects_the_monte_carlo_draw() {
    let eval = Evaluator::paper_platform();
    let net = rana_repro::zoo::alexnet();
    let design = Design::RanaStarE5;
    let thermal = ThermalModel::embedded_65nm();
    let config = AdaptiveConfig { fallback: FallbackPolicy::Reschedule, seed: 1 };
    let scenario = Scenario::heating_transient(2, 0.0);
    let mut rt = AdaptiveRuntime::new(&eval, &net, design, thermal, config);
    rt.run_scenario(&scenario);
    let specs = rt.report().probe_specs();
    let a = run_probes(&specs, rt.retention(), 1);
    let b = run_probes(&specs, rt.retention(), 2);
    assert_eq!(a.bits_read, b.bits_read, "workload is seed-independent");
    assert!(
        format!("{a:?}") != format!("{b:?}"),
        "different seeds should draw different cell retentions"
    );
}

/// Safety and efficiency brackets on a heating transient: realized
/// bit-failure rate at or under the Stage-1 target, refresh energy
/// strictly below static-45 µs and within 25% of the peak-temperature
/// oracle.
#[test]
fn adaptive_policy_stays_inside_its_brackets() {
    let eval = Evaluator::paper_platform();
    let net = rana_repro::zoo::alexnet();
    let design = Design::RanaStarE5;
    let thermal = ThermalModel::embedded_65nm();
    let config = AdaptiveConfig { fallback: FallbackPolicy::Reschedule, seed: SEED };
    let target = design.failure_rate();
    let kind = design.refresh_model(eval.retention()).kind;
    let scenario = Scenario::heating_transient(4, 60_000.0);

    let mut rt = AdaptiveRuntime::new(&eval, &net, design, thermal, config);
    rt.run_scenario(&scenario);
    let report = rt.report().clone();
    let probes = run_probes(&report.probe_specs(), rt.retention(), SEED);
    assert!(
        probes.realized_rate() <= target,
        "realized rate {:e} exceeds the Stage-1 target {target:e}",
        probes.realized_rate()
    );

    let model = EnergyModel::paper_65nm();
    let conservative = eval
        .evaluate_with_refresh(
            &net,
            design,
            rana_repro::accel::RefreshModel {
                interval_us: eval.retention().typical_retention_us(),
                kind,
            },
        )
        .schedule;
    let static45 = run_static_policy(
        "static-45us",
        &conservative,
        eval.edram_config(),
        &model,
        rana_repro::accel::RefreshModel {
            interval_us: eval.retention().typical_retention_us(),
            kind,
        },
        &thermal,
        &scenario,
    );
    let oracle = rt.oracle_static_run(&scenario);

    let adaptive_j = report.total_energy().refresh_j;
    assert!(
        adaptive_j < static45.energy.refresh_j,
        "adaptive refresh {adaptive_j} J not below static-45 {}",
        static45.energy.refresh_j
    );
    assert!(
        adaptive_j <= 1.25 * oracle.energy.refresh_j,
        "adaptive refresh {adaptive_j} J not within 25% of oracle {}",
        oracle.energy.refresh_j
    );
    // The heating transient actually exercised the loop.
    assert!(report.peak_temp_c() > thermal.ambient_c + 0.5, "die never warmed up");
    assert!(report.min_interval_us() < report.nominal_interval_us, "interval never tightened");
}
