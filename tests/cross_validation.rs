//! Property-based cross-validation: the closed-form analysis and the
//! tile-trace simulator must agree on cycles and traffic for arbitrary
//! layers and tilings, on both buffer sizes and both PE organizations;
//! and one Stage-2 scan shared by a search group must equal every
//! member's own exhaustive scan.

use proptest::prelude::*;
use rana_repro::accel::{analyze, trace::trace, AcceleratorConfig, Pattern, SchedLayer, Tiling};
use rana_repro::accel::{ControllerKind, RefreshModel};
use rana_repro::core::scheduler::Scheduler;
use rana_repro::core::trace::{Session, TraceConfig};

fn arb_layer() -> impl Strategy<Value = SchedLayer> {
    (1usize..=48, 4usize..=30, 1usize..=48, prop_oneof![Just(1usize), Just(3), Just(5)], 1usize..=2)
        .prop_map(|(n, hw, m, k, s)| SchedLayer {
            name: "prop".into(),
            n,
            h: hw,
            l: hw,
            m,
            k,
            s,
            r: (hw + 2 * (k / 2) - k) / s + 1,
            c: (hw + 2 * (k / 2) - k) / s + 1,
            pad: k / 2,
            groups: 1,
        })
}

fn arb_tiling() -> impl Strategy<Value = Tiling> {
    (1usize..=24, 1usize..=24, 1usize..=8, 1usize..=16)
        .prop_map(|(tm, tn, tr, tc)| Tiling::new(tm, tn, tr, tc))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn analysis_matches_trace(layer in arb_layer(), tiling in arb_tiling(), edram in any::<bool>(), dadiannao_org in any::<bool>()) {
        let mut cfg = if edram { AcceleratorConfig::paper_edram() } else { AcceleratorConfig::paper_sram() };
        if dadiannao_org {
            cfg.organization = rana_repro::accel::config::PeOrganization::ChannelColumns;
        }
        for pattern in Pattern::ALL {
            let a = analyze(&layer, pattern, tiling, &cfg);
            let t = trace(&layer, pattern, tiling, &cfg);
            prop_assert_eq!(a.cycles, t.cycles, "cycles {} {}", pattern, tiling);
            prop_assert_eq!(a.traffic, t.traffic, "traffic {} {}", pattern, tiling);
            prop_assert!((a.lifetimes.layer_us - t.measured.layer_us).abs() < 1e-6);
        }
    }

    /// MAC count is invariant across patterns and tilings, and utilization
    /// never exceeds 1.
    #[test]
    fn macs_invariant_and_utilization_bounded(layer in arb_layer(), tiling in arb_tiling()) {
        let cfg = AcceleratorConfig::paper_edram();
        let reference = analyze(&layer, Pattern::Od, Tiling::new(16, 16, 1, 16), &cfg).macs;
        for pattern in Pattern::ALL {
            let sim = analyze(&layer, pattern, tiling, &cfg);
            prop_assert_eq!(sim.macs, reference);
            prop_assert!(sim.utilization <= 1.0 + 1e-9, "eta {}", sim.utilization);
            prop_assert!(sim.utilization > 0.0);
        }
    }

    /// Every datum moves through DRAM at least once: traffic lower bounds.
    /// (For strided layers WD legitimately skips input pixels the kernel
    /// never touches, so the input bound drops to the touched set.)
    #[test]
    fn dram_traffic_lower_bounds(layer in arb_layer(), tiling in arb_tiling()) {
        let cfg = AcceleratorConfig::paper_edram();
        let min_inputs = if layer.s == 1 {
            layer.input_words()
        } else {
            (layer.n * layer.r * layer.c) as u64 // touched at least once per output
        };
        for pattern in Pattern::ALL {
            let sim = analyze(&layer, pattern, tiling, &cfg);
            prop_assert!(sim.traffic.dram_input_loads >= min_inputs);
            prop_assert!(sim.traffic.dram_weight_loads >= layer.weight_words());
            prop_assert!(sim.traffic.dram_output_stores >= layer.output_words());
        }
    }

    /// The paper's §IV-C3 exclusion argument holds universally: ID's input
    /// lifetime is never shorter than OD's under the same tiling.
    #[test]
    fn id_lifetime_dominates_od(layer in arb_layer(), tiling in arb_tiling()) {
        let cfg = AcceleratorConfig::paper_edram();
        let id = analyze(&layer, Pattern::Id, tiling, &cfg);
        let od = analyze(&layer, Pattern::Od, tiling, &cfg);
        prop_assert!(id.lifetimes.input_us >= od.lifetimes.input_us - 1e-9);
    }

    /// Buffer storage formulas: OD is dominated by outputs, WD by weights
    /// (whenever those sets are the largest of the three, which is what
    /// "dominant" means).
    #[test]
    fn storage_formulas(layer in arb_layer(), tiling in arb_tiling()) {
        let cfg = AcceleratorConfig::paper_edram();
        let od = analyze(&layer, Pattern::Od, tiling, &cfg);
        prop_assert_eq!(od.storage.output_words, layer.output_words());
        let wd = analyze(&layer, Pattern::Wd, tiling, &cfg);
        prop_assert_eq!(wd.storage.weight_words, layer.weight_words());
        let id = analyze(&layer, Pattern::Id, tiling, &cfg);
        prop_assert_eq!(id.storage.input_words, layer.input_words());
    }
}

/// One search-group member: refresh interval (5–3000 µs, log-uniform so
/// that the small layers' few-µs runtimes often span a pulse), whether its
/// controller is refresh-optimized, and its refresh-cost weight.
fn arb_member() -> impl Strategy<Value = (f64, bool, u32)> {
    (0.0f64..1.0, any::<bool>(), 1u32..=8)
        .prop_map(|(u, optimized, weight)| (5.0 * 600f64.powf(u), optimized, weight))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// A search group (one accelerator, pattern space and tiling policy;
    /// members differing in interval, controller and refresh weight) is
    /// scanned once, and every member gets exactly its own exhaustive
    /// scan's schedule, with explored or fixed tiling, on a scaled eDRAM
    /// buffer, the refresh-free SRAM one (every member's energy is then
    /// the shared one) or DaDianNao (channel-column cycle model).
    #[test]
    fn group_scan_equals_each_exhaustive_scan(
        layer in arb_layer(),
        machine in 0usize..3,
        scale in 0.25f64..8.0,
        members in proptest::collection::vec(arb_member(), 1..9),
        patterns in 0usize..3,
        fixed_tiling in any::<bool>(),
    ) {
        let cfg = match machine {
            0 => AcceleratorConfig::paper_edram_scaled(scale),
            1 => AcceleratorConfig::paper_sram(),
            _ => AcceleratorConfig::dadiannao(),
        };
        let natural = Tiling::new(cfg.pe_rows, cfg.pe_rows, 1, cfg.pe_cols);
        let mut template = Scheduler::rana(cfg, RefreshModel::conventional_45us());
        template.patterns = [Pattern::RANA_SPACE.to_vec(), Pattern::ALL.to_vec(), vec![Pattern::Id]]
            [patterns]
            .clone();
        template.fixed_tiling = fixed_tiling.then_some(natural);
        let group: Vec<Scheduler> = members
            .iter()
            .map(|&(interval_us, optimized, weight)| {
                let mut s = template.clone();
                let kind = if optimized {
                    ControllerKind::RefreshOptimized
                } else {
                    ControllerKind::Conventional
                };
                s.refresh = RefreshModel { interval_us, kind };
                s.model.costs.edram_refresh_pj *= f64::from(weight);
                s
            })
            .collect();
        let refs: Vec<&Scheduler> = group.iter().collect();

        let session = Session::start(TraceConfig::CountersOnly);
        let scanned = Scheduler::schedule_layer_group(&refs, &layer);
        let report = session.finish();

        for (s, got) in group.iter().zip(&scanned) {
            prop_assert_eq!(got, &s.schedule_layer_exhaustive(&layer));
        }
        let tilings =
            if fixed_tiling { 1 } else { Tiling::candidates(&layer, &template.cfg).len() };
        let visited = report.counter("scheduler.candidates_evaluated")
            + report.counter("scheduler.candidates_pruned");
        prop_assert_eq!(visited, (tilings * template.patterns.len()) as u64);
        prop_assert_eq!(report.counter("scheduler.searches"), group.len() as u64);
    }
}
