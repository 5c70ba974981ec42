//! Property-based tests of the refresh-strategy lab: the trait path is
//! bit-identical to the legacy enum path's refresh-word accounting, and
//! the RTC controller never refreshes fewer words than the just-in-time
//! oracle demands.

use proptest::prelude::*;
use rana_repro::accel::refresh::layer_refresh_words;
use rana_repro::accel::{
    analyze, AcceleratorConfig, ControllerKind, Pattern, RefreshModel, SchedLayer, Tiling,
};
use rana_repro::edram::RetentionDistribution;
use rana_repro::policy::Strategy as Policy;
use rana_repro::policy::{AccessKind, AccessOp, AccessTrace, LayerCtx, RefreshStrategy};

fn arb_layer() -> impl Strategy<Value = SchedLayer> {
    (1usize..=64, 6usize..=28, 1usize..=64, prop_oneof![Just(1usize), Just(3)], 1usize..=2)
        .prop_map(|(n, hw, m, k, s)| SchedLayer {
            name: "p".into(),
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

fn arb_trace() -> impl Strategy<Value = AccessTrace> {
    (proptest::collection::vec((1u32..=1000, 0usize..6, any::<bool>()), 0..40), 500.0f64..2000.0)
        .prop_map(|(raw, extra)| {
            let horizon = 1000.0 + extra;
            let ops = raw
                .into_iter()
                .map(|(t, word, write)| AccessOp {
                    t_us: f64::from(t),
                    word,
                    kind: if write { AccessKind::Write } else { AccessKind::Read },
                })
                .collect();
            AccessTrace::new(horizon, ops)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `Conventional` and `RanaFlagged` through the trait reproduce the
    /// legacy enum refresh-word accounting for any layer and interval.
    #[test]
    fn classic_strategies_are_bit_identical_to_the_legacy_path(
        layer in arb_layer(),
        interval in 20.0f64..4000.0,
        pattern_idx in 0usize..3,
    ) {
        let cfg = AcceleratorConfig::paper_edram();
        let dist = RetentionDistribution::kong2008();
        let sim = analyze(&layer, Pattern::ALL[pattern_idx], Tiling::new(16, 16, 1, 16), &cfg);
        let ctx = LayerCtx { sim: &sim, cfg: &cfg, interval_us: interval, retention: &dist };
        for (strategy, kind) in [
            (Policy::Conventional, ControllerKind::Conventional),
            (Policy::RanaFlagged, ControllerKind::RefreshOptimized),
        ] {
            let model = RefreshModel { interval_us: interval, kind };
            let d = strategy.decide(&ctx);
            prop_assert_eq!(d.refresh_words, layer_refresh_words(&sim, &cfg, &model));
        }
    }

    /// Word-granular RTC never refreshes more than the bank-granular
    /// flags, which never refresh more than the conventional controller.
    #[test]
    fn strategy_ordering_holds_on_any_layer(
        layer in arb_layer(),
        interval in 20.0f64..4000.0,
        pattern_idx in 0usize..3,
    ) {
        let cfg = AcceleratorConfig::paper_edram();
        let dist = RetentionDistribution::kong2008();
        let sim = analyze(&layer, Pattern::ALL[pattern_idx], Tiling::new(16, 16, 1, 16), &cfg);
        let ctx = LayerCtx { sim: &sim, cfg: &cfg, interval_us: interval, retention: &dist };
        let conv = Policy::Conventional.decide(&ctx).refresh_words;
        let rana = Policy::RanaFlagged.decide(&ctx).refresh_words;
        let rtc = Policy::AccessTriggered.decide(&ctx).refresh_words;
        prop_assert!(rana <= conv, "rana {rana} > conv {conv}");
        prop_assert!(rtc <= rana, "rtc {rtc} > rana {rana}");
    }

    /// The RTC controller pulsing at any interval within the retention
    /// time covers the just-in-time oracle: every read finds its word
    /// recharged at least as recently as the oracle requires.
    #[test]
    fn rtc_never_undercuts_the_oracle(
        trace in arb_trace(),
        interval in 10.0f64..500.0,
        slack in 1.0f64..10.0,
    ) {
        let retention = interval * slack;
        let rtc = trace.rtc_refresh_count(interval);
        let oracle = trace.oracle_refresh_count(retention);
        prop_assert!(
            rtc >= oracle,
            "rtc {rtc} < oracle {oracle} at interval {interval}, retention {retention}"
        );
    }
}
