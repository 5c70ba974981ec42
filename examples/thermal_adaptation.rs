//! The thermal-adaptive refresh runtime in action: run AlexNet back to
//! back on the RANA*(E-5) platform, watch the die heat up, and watch the
//! closed loop react — tightening the refresh-interval ladder, retuning
//! the clock divider, and (when a layer's data lifetime no longer fits)
//! rescheduling it online with the memoized Stage-2 scheduler. A
//! Monte-Carlo validation pass then replays every layer's retention
//! exposure through the functional engine to confirm the realized
//! bit-failure rate stays under the Stage-1 target.
//!
//! Run with: `cargo run --release --example thermal_adaptation`

use rana_repro::core::adaptive::{
    run_probes, run_static_policy, AdaptiveConfig, AdaptiveRuntime, FallbackPolicy, Scenario,
};
use rana_repro::core::{designs::Design, evaluate::Evaluator, EnergyModel};
use rana_repro::edram::thermal::ThermalModel;

fn main() {
    let eval = Evaluator::paper_platform();
    let net = rana_repro::zoo::alexnet();
    let design = Design::RanaStarE5;
    let thermal = ThermalModel::embedded_65nm();
    let config = AdaptiveConfig { fallback: FallbackPolicy::Reschedule, seed: 42 };
    let target = design.failure_rate();

    println!("== thermal-adaptive refresh: {} on {} ==", net.name(), design.label());
    println!(
        "ambient {} degC, R_ja {} degC/W, tau {} ms; Stage-1 target {target:e}",
        thermal.ambient_c,
        thermal.r_ja_c_per_w,
        thermal.tau_us / 1000.0
    );

    // Heating transient: 12 back-to-back inferences, a 150 ms cooldown,
    // then one more pass on the partially cooled die.
    let scenario = Scenario::heating_transient(12, 150_000.0);
    let mut rt = AdaptiveRuntime::new(&eval, &net, design, thermal, config);
    rt.run_scenario(&scenario);

    println!("\npass  T_in     T_out    min_ivl  retune  resched  refresh_uJ");
    for p in &rt.report().passes {
        println!(
            "{:>4}  {:>6.2}C  {:>6.2}C  {:>6.1}u  {:>6}  {:>7}  {:>10.3}",
            p.pass,
            p.start_temp_c,
            p.end_temp_c,
            p.min_interval_us(),
            p.retunes,
            p.reschedules,
            p.energy.refresh_j * 1e6
        );
    }

    let report = rt.report().clone();
    println!(
        "\npeak {:.2} degC; interval {:.0} -> {:.0} us; {} retunes, {} online reschedules",
        report.peak_temp_c(),
        report.nominal_interval_us,
        report.min_interval_us(),
        report.total_retunes(),
        report.total_reschedules()
    );

    // Brackets: the naive static 45 us policy and the peak-temperature
    // oracle, driven through the same scenario.
    let kind = design.refresh_model(eval.retention()).kind;
    let model = EnergyModel::paper_65nm();
    let conservative = eval
        .evaluate_with_refresh(
            &net,
            design,
            rana_repro::accel::RefreshModel { interval_us: 45.0, kind },
        )
        .schedule;
    let static45 = run_static_policy(
        "static-45us",
        &conservative,
        eval.edram_config(),
        &model,
        rana_repro::accel::RefreshModel { interval_us: 45.0, kind },
        &thermal,
        &scenario,
    );
    let oracle = rt.oracle_static_run(&scenario);

    let adaptive_j = report.total_energy().refresh_j;
    println!("\nrefresh energy over the scenario:");
    println!("  static-45us            {:>10.3} uJ", static45.energy.refresh_j * 1e6);
    println!("  adaptive               {:>10.3} uJ", adaptive_j * 1e6);
    println!(
        "  static-oracle ({:.0} us) {:>9.3} uJ",
        oracle.interval_us,
        oracle.energy.refresh_j * 1e6
    );
    assert!(
        adaptive_j <= 1.25 * oracle.energy.refresh_j,
        "adaptive must stay within 25% of the oracle"
    );

    // Monte-Carlo validation: replay every adapted layer's retention
    // exposure through the functional engine.
    let summary = run_probes(&report.probe_specs(), rt.retention(), report.config.seed);
    println!(
        "\nvalidation: {} probes, {} bits read, {} faulted -> realized rate {:.3e} (target {target:e})",
        summary.probes,
        summary.bits_read,
        summary.faulted_bits,
        summary.realized_rate()
    );
    assert!(summary.realized_rate() <= target, "adaptive policy exceeded the Stage-1 target");
    assert!(adaptive_j < static45.energy.refresh_j, "adaptive must beat static-45us on refresh");
    println!("ok: adaptive stays under the target and below static-45us refresh energy");
}
