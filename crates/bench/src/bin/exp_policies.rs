//! Policy experiment — the refresh-strategy lab head to head.
//!
//! Runs the four shipped [`Strategy`] implementations (conventional
//! all-bank refresh, RANA's flagged banks, RTC-style access-triggered
//! refresh, EDEN-style error-budget stretching) over the five-network
//! zoo on the RANA*(E-5) design and compares energy, refresh traffic,
//! refresh share and modelled retention-failure rate. A DDR3
//! address-mapping table prices the same schedules under the three
//! [`DdrMapping`] interleaves, and an EDEN pricing block injects the
//! budgeted bit-error process into real fixed-point words and probes the
//! accuracy cost with a small retention-aware training run.
//!
//! Asserts the two identity anchors of the subsystem — `RanaFlagged`
//! through the trait reproduces the legacy enum accounting word for
//! word, and the `row-bank-col` mapping reproduces the legacy DDR3
//! transfer time bit for bit — plus the headline ordering: both
//! access-triggered and error-budget refresh beat conventional refresh
//! on total energy for at least 3 of the 5 networks, and the
//! error-budget strategy's modelled failure rate stays within its
//! configured budget everywhere. Emits `results/policies.csv` and a
//! byte-deterministic `results/BENCH_policies.json`. `--smoke` checks
//! the identities on AlexNet only and writes nothing.
//!
//! Knobs: `RANA_SEED` reseeds the EDEN injection and training probe;
//! `RANA_THREADS` sizes the evaluator's worker pool.

use rana_accel::dram::{Ddr3Model, DdrMapping};
use rana_accel::{layer_refresh_words, ControllerKind, RefreshModel};
use rana_bench::{banner, seed_from_env, threads_from_env, write_csv};
use rana_core::designs::Design;
use rana_core::energy::EnergyBreakdown;
use rana_core::evaluate::Evaluator;
use rana_core::policy::{ErrorBudget, LayerCtx, RefreshStrategy, Strategy};
use rana_nn::data::SyntheticDataset;
use rana_nn::models::alexnet_s;
use rana_nn::retention::RetentionAwareTrainer;
use rana_trace::json_f64;
use rana_zoo::Network;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Default master seed (override with `RANA_SEED`).
const DEFAULT_SEED: u64 = 19;

/// EDEN bit-error budget: one decade looser than the design's Stage-1
/// 1e-5 target, the rate retention-aware training absorbs (Figure 11).
const BUDGET: f64 = 1e-4;

/// Conventional controllers recharge every bank at the weakest-cell
/// interval (Table IV "Normal").
const CONVENTIONAL_US: f64 = 45.0;

/// The five-network zoo.
fn zoo() -> Vec<Network> {
    vec![
        rana_zoo::alexnet(),
        rana_zoo::googlenet(),
        rana_zoo::resnet50(),
        rana_zoo::vgg16(),
        rana_zoo::mobilenet_v1(),
    ]
}

/// One `(network, strategy)` cell of the comparison.
struct PolicyRow {
    strategy: &'static str,
    /// Base pulse interval the strategy operates from, µs.
    interval_us: f64,
    /// Largest divider stretch any layer applied.
    multiple: u32,
    time_us: f64,
    energy: EnergyBreakdown,
    refresh_words: u64,
    skipped_words: u64,
    /// Worst per-layer modelled retention-failure rate.
    max_failure_rate: f64,
}

impl PolicyRow {
    fn refresh_share(&self) -> f64 {
        self.energy.refresh_j / self.energy.total_j()
    }

    fn to_json(&self) -> String {
        format!(
            "{{\"strategy\":\"{}\",\"interval_us\":{},\"multiple\":{},\"time_us\":{},\
             \"energy_j\":{},\"refresh_j\":{},\"refresh_share\":{},\"refresh_words\":{},\
             \"skipped_words\":{},\"max_failure_rate\":{}}}",
            self.strategy,
            json_f64(self.interval_us),
            self.multiple,
            json_f64(self.time_us),
            json_f64(self.energy.total_j()),
            json_f64(self.energy.refresh_j),
            json_f64(self.refresh_share()),
            self.refresh_words,
            self.skipped_words,
            json_f64(self.max_failure_rate),
        )
    }
}

/// Schedules `net` under the interval/kind the strategy operates at and
/// re-accounts every layer through the strategy trait.
fn run_strategy(eval: &Evaluator, net: &Network, strategy: Strategy) -> PolicyRow {
    let template = eval.scheduler_for(Design::RanaStarE5);
    let nominal_us = template.refresh.interval_us;
    // Each strategy both *schedules* and *accounts* at its natural
    // operating point: conventional at the weakest-cell interval with
    // all-bank pulses, the RANA family at the design's tolerable rung,
    // EDEN at its budget-stretched multiple of that rung.
    let (base_us, sched_us, kind) = match strategy {
        Strategy::Conventional => (CONVENTIONAL_US, CONVENTIONAL_US, ControllerKind::Conventional),
        Strategy::RanaFlagged | Strategy::AccessTriggered => {
            (nominal_us, nominal_us, ControllerKind::RefreshOptimized)
        }
        Strategy::ErrorBudget { budget } => {
            let stretch = ErrorBudget::new(budget).stretch_multiple(eval.retention(), nominal_us);
            (nominal_us, nominal_us * f64::from(stretch), ControllerKind::RefreshOptimized)
        }
    };
    let ne = eval.evaluate_with_refresh(
        net,
        Design::RanaStarE5,
        RefreshModel { interval_us: sched_us, kind },
    );

    let mut row = PolicyRow {
        strategy: strategy.name(),
        interval_us: base_us,
        multiple: 1,
        time_us: 0.0,
        energy: EnergyBreakdown::default(),
        refresh_words: 0,
        skipped_words: 0,
        max_failure_rate: 0.0,
    };
    for layer in &ne.schedule.layers {
        let ctx = LayerCtx {
            sim: &layer.sim,
            cfg: &template.cfg,
            interval_us: base_us,
            retention: eval.retention(),
        };
        let d = strategy.decide(&ctx);
        // Identity anchor: the trait path must reproduce the legacy enum
        // accounting word for word on the classic strategies.
        if matches!(strategy, Strategy::Conventional | Strategy::RanaFlagged) {
            let legacy = layer_refresh_words(
                &layer.sim,
                &template.cfg,
                &RefreshModel { interval_us: base_us, kind },
            );
            assert_eq!(
                d.refresh_words,
                legacy,
                "{} diverged from the legacy path on {}/{}",
                strategy.name(),
                ne.network,
                layer.sim.layer
            );
        }
        row.time_us += layer.sim.time_us;
        row.energy += template.model.layer_energy(&layer.sim, d.refresh_words, &template.cfg);
        row.refresh_words += d.refresh_words;
        row.skipped_words += d.skipped_words;
        row.multiple = row.multiple.max(d.interval_multiple);
        row.max_failure_rate = row.max_failure_rate.max(d.failure_rate);
    }
    row
}

/// Total DDR3 transfer time of a scheduled network under one address
/// mapping, µs.
fn ddr_time_us(eval: &Evaluator, net: &Network, mapping: DdrMapping) -> f64 {
    let ddr = Ddr3Model::ddr3_1600().with_mapping(mapping);
    let ne = eval.evaluate(net, Design::RanaStarE5);
    ne.schedule.layers.iter().map(|l| ddr.transfer_time_us_for(&l.sim.traffic)).sum()
}

/// Legacy (pre-mapping) transfer time of the same schedules, µs.
fn ddr_time_legacy_us(eval: &Evaluator, net: &Network) -> f64 {
    let ddr = Ddr3Model::ddr3_1600();
    let ne = eval.evaluate(net, Design::RanaStarE5);
    ne.schedule.layers.iter().map(|l| ddr.transfer_time_us(l.sim.traffic.dram_total())).sum()
}

/// EDEN pricing block: inject the budgeted bit-error process into real
/// fixed-point words and probe the accuracy cost with a small
/// retention-aware training run. Fully seeded — byte-deterministic.
fn eden_pricing(eval: &Evaluator, seed: u64) -> String {
    let eden = ErrorBudget::new(BUDGET);
    let nominal_us = eval.scheduler_for(Design::RanaStarE5).refresh.interval_us;
    let stretch = eden.stretch_multiple(eval.retention(), nominal_us);
    let model = eden.bit_error_model(eval.retention(), nominal_us);

    let mut words = vec![0x0f0fu16 as i16; 1 << 20];
    let mut rng = StdRng::seed_from_u64(seed);
    let injected = model.inject(&mut words, &mut rng);
    let expected = ErrorBudget::expected_flips(words.len() as u64, model.rate());

    let trainer = RetentionAwareTrainer {
        pretrain_epochs: 3,
        retrain_epochs: 2,
        eval_trials: 2,
        seed,
        ..RetentionAwareTrainer::default()
    };
    let data = SyntheticDataset::new(4, 120, seed);
    let curve = trainer.run("alexnet_s", alexnet_s, &data, &[model.rate()]);
    let relative = curve.with_retrain[0] / curve.baseline;

    println!(
        "EDEN pricing @budget {BUDGET:.0e}: stretch {stretch}x (eff {:.0} us), modelled rate \
         {:.3e}, injected {injected} flips over 1Mi words (expected {expected:.0}), retrained \
         accuracy {:.3} of clean",
        nominal_us * f64::from(stretch),
        model.rate(),
        relative,
    );
    assert!(model.rate() <= BUDGET, "modelled rate must respect the budget");
    assert!(
        (injected as f64 - expected).abs() < 6.0 * expected.sqrt().max(1.0),
        "injection drifted from the expected flip count: {injected} vs {expected:.0}"
    );

    format!(
        "{{\"budget\":{},\"stretch\":{stretch},\"rate\":{},\"injected_flips\":{injected},\
         \"expected_flips\":{},\"baseline_accuracy\":{},\"retrained_accuracy\":{},\
         \"relative_accuracy\":{}}}",
        json_f64(BUDGET),
        json_f64(model.rate()),
        json_f64(expected),
        json_f64(curve.baseline),
        json_f64(curve.with_retrain[0]),
        json_f64(relative),
    )
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    banner("EXP policies", "Refresh-strategy lab: conventional vs RANA vs RTC vs EDEN");
    let seed = seed_from_env(DEFAULT_SEED);
    println!("worker threads: {}, seed: {seed}\n", threads_from_env());
    let eval = Evaluator::paper_platform();
    let lineup = Strategy::lineup(BUDGET);

    if smoke {
        let net = rana_zoo::alexnet();
        let rows: Vec<PolicyRow> = lineup.iter().map(|&s| run_strategy(&eval, &net, s)).collect();
        for r in &rows {
            println!(
                "{:<18} {:>12} refresh words | {:6.2}% refresh share",
                r.strategy,
                r.refresh_words,
                r.refresh_share() * 100.0
            );
        }
        let legacy = ddr_time_legacy_us(&eval, &net);
        let rbc = ddr_time_us(&eval, &net, DdrMapping::RowBankCol);
        assert_eq!(legacy.to_bits(), rbc.to_bits(), "row-bank-col must be bit-identical");
        assert!(rows[3].max_failure_rate <= BUDGET, "EDEN must respect its budget");
        println!("\nsmoke OK: identities hold on AlexNet (no files written)");
        return;
    }

    let mut csv_rows: Vec<String> = Vec::new();
    let mut net_jsons: Vec<String> = Vec::new();
    let mut conv_vs = [(0usize, "access-triggered"), (0usize, "error-budget")];
    for net in &zoo() {
        let rows: Vec<PolicyRow> = lineup.iter().map(|&s| run_strategy(&eval, net, s)).collect();
        let name = eval.evaluate(net, Design::RanaStarE5).network;
        println!("{name}:");
        for r in &rows {
            println!(
                "  {:<18} base {:>6.0} us x{:<3} | {:>9.3} mJ ({:5.2}% refresh) | \
                 {:>12} words refreshed, {:>12} skipped | rate {:.2e}",
                r.strategy,
                r.interval_us,
                r.multiple,
                r.energy.total_j() * 1e3,
                r.refresh_share() * 100.0,
                r.refresh_words,
                r.skipped_words,
                r.max_failure_rate,
            );
            csv_rows.push(format!(
                "{},{},{},{},{:.3},{:.9},{:.9},{:.6},{},{},{:.3e}",
                name,
                r.strategy,
                r.interval_us,
                r.multiple,
                r.time_us,
                r.energy.total_j(),
                r.energy.refresh_j,
                r.refresh_share(),
                r.refresh_words,
                r.skipped_words,
                r.max_failure_rate,
            ));
        }

        // DDR3 address-mapping table over the same design's schedules.
        let legacy = ddr_time_legacy_us(&eval, net);
        let times: Vec<(DdrMapping, f64)> =
            DdrMapping::all().into_iter().map(|m| (m, ddr_time_us(&eval, net, m))).collect();
        assert_eq!(
            legacy.to_bits(),
            times[0].1.to_bits(),
            "row-bank-col must reproduce the legacy DDR3 transfer time on {name}"
        );
        let ddr_json = times
            .iter()
            .map(|(m, t)| format!("\"{}\":{}", m.label(), json_f64(*t)))
            .collect::<Vec<_>>()
            .join(",");
        println!(
            "  ddr transfer     {}\n",
            times
                .iter()
                .map(|(m, t)| format!("{} {:.1} us", m.label(), t))
                .collect::<Vec<_>>()
                .join(" | ")
        );

        let conv_j = rows[0].energy.total_j();
        for (wins, label) in &mut conv_vs {
            let row = rows.iter().find(|r| r.strategy == *label).expect("strategy present");
            if row.energy.total_j() < conv_j {
                *wins += 1;
            }
        }
        assert!(
            rows[3].max_failure_rate <= BUDGET,
            "EDEN exceeded its budget on {name}: {:.3e} > {BUDGET:.0e}",
            rows[3].max_failure_rate
        );

        net_jsons.push(format!(
            "{{\"network\":\"{name}\",\"strategies\":[{}],\"ddr_transfer_us\":{{{ddr_json}}}}}",
            rows.iter().map(PolicyRow::to_json).collect::<Vec<_>>().join(","),
        ));
    }

    // -- acceptance: the energy ordering and the budget ----------------
    for (wins, label) in &conv_vs {
        println!("{label} beats conventional on energy for {wins}/5 networks");
        assert!(
            *wins >= 3,
            "{label} must beat conventional refresh on at least 3 of 5 networks, got {wins}"
        );
    }

    let eden_json = eden_pricing(&eval, seed);

    write_csv(
        "policies.csv",
        "network,strategy,interval_us,multiple,time_us,energy_j,refresh_j,refresh_share,\
         refresh_words,skipped_words,max_failure_rate",
        &csv_rows,
    );
    let json = format!(
        "{{\"experiment\":\"policies\",\"seed\":{seed},\"budget\":{},\"networks\":[{}],\
         \"eden_pricing\":{}}}\n",
        json_f64(BUDGET),
        net_jsons.join(","),
        eden_json
    );
    let dir = std::path::Path::new("results");
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("could not create results/: {e}");
    }
    match std::fs::write(dir.join("BENCH_policies.json"), &json) {
        Ok(()) => println!("wrote results/BENCH_policies.json"),
        Err(e) => eprintln!("could not write results/BENCH_policies.json: {e}"),
    }
    println!(
        "\nschedule cache after the sweep: {} hits / {} misses, {} entries",
        eval.cache().hits(),
        eval.cache().misses(),
        eval.cache().len()
    );
}
