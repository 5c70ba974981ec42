//! # rana-policy — the refresh-strategy lab
//!
//! RANA's flag/divider scheme (paper §IV-D) is one point in a space of
//! eDRAM refresh strategies. This crate puts that space behind one trait,
//! [`RefreshStrategy`]: a per-layer decision driven by the retention
//! model, the operating interval (the thermal rung), the schedule's data
//! lifetimes and — for approximate strategies — an error budget. Four
//! strategies ship:
//!
//! * [`Strategy::Conventional`] — all-banks refresh at every pulse, the
//!   "Normal" controller of Table IV.
//! * [`Strategy::RanaFlagged`] — RANA's per-bank refresh flags plus the
//!   programmable clock divider. Its decisions are *bit-identical* to the
//!   legacy [`layer_refresh_words`] / config-gen path (the equivalence is
//!   proptested), so routing the serving and thermal loops through the
//!   trait changes no committed baseline byte.
//! * [`Strategy::AccessTriggered`] — RTC-style refresh: a row is
//!   refreshed only if the schedule's access trace reads it again before
//!   its next overwrite, derived per layer from the lifetime analysis
//!   (word-granular, so it undercuts the bank-granular flags). The
//!   word-level machinery and its just-in-time oracle live in [`rtc`].
//! * [`Strategy::ErrorBudget`] — EDEN-style approximate refresh: stretch
//!   the divider as far as a target bit-error budget allows and price the
//!   accuracy loss through `rana-fixq` error injection ([`eden`]).
//!
//! # Comparing strategies on one layer
//!
//! ```
//! use rana_accel::analysis::analyze;
//! use rana_accel::config::AcceleratorConfig;
//! use rana_accel::pattern::{Pattern, Tiling};
//! use rana_accel::SchedLayer;
//! use rana_edram::RetentionDistribution;
//! use rana_policy::{LayerCtx, RefreshStrategy, Strategy};
//!
//! let cfg = AcceleratorConfig::paper_edram();
//! let layer = SchedLayer::from_conv(rana_zoo::vgg16().conv("conv4_2").unwrap());
//! let sim = analyze(&layer, Pattern::Od, Tiling::new(16, 16, 1, 16), &cfg);
//! let dist = RetentionDistribution::kong2008();
//! let ctx = LayerCtx { sim: &sim, cfg: &cfg, interval_us: 45.0, retention: &dist };
//!
//! let conventional = Strategy::Conventional.decide(&ctx);
//! let flagged = Strategy::RanaFlagged.decide(&ctx);
//! let rtc = Strategy::AccessTriggered.decide(&ctx);
//! // Flags skip non-needy banks; word-granular RTC undercuts the flags.
//! assert!(flagged.refresh_words <= conventional.refresh_words);
//! assert!(rtc.refresh_words <= flagged.refresh_words);
//! assert_eq!(rtc.skipped_words, conventional.refresh_words - rtc.refresh_words);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod eden;
pub mod rtc;

pub use eden::ErrorBudget;
pub use rtc::{AccessKind, AccessOp, AccessTrace, AccessTriggered};

use rana_accel::analysis::LayerSim;
use rana_accel::config::AcceleratorConfig;
use rana_accel::{layer_refresh_words, ControllerKind, RefreshModel};
use rana_edram::stats::MemoryStats;
use rana_edram::{DataType, RetentionDistribution, UnifiedBuffer};

/// Everything a strategy may consult when deciding one layer's refresh:
/// the layer's lifetime/storage analysis, the accelerator it runs on, the
/// operating pulse interval (the thermal ladder rung) and the cell
/// retention statistics.
#[derive(Debug, Clone, Copy)]
pub struct LayerCtx<'a> {
    /// The layer's analytic simulation (storage, lifetimes, traffic, time).
    pub sim: &'a LayerSim,
    /// The accelerator configuration (buffer geometry, technology).
    pub cfg: &'a AcceleratorConfig,
    /// Base refresh-pulse period, µs — the divider's current rung.
    pub interval_us: f64,
    /// Cell retention distribution at the operating temperature.
    pub retention: &'a RetentionDistribution,
}

impl LayerCtx<'_> {
    /// The layer's largest retention-critical interval, µs (0 when it
    /// holds no data).
    pub fn max_critical_us(&self) -> f64 {
        self.sim.lifetimes.critical_intervals().into_iter().fold(0.0, f64::max)
    }

    /// Words a conventional all-banks controller refreshes over this
    /// layer at the base interval — the yardstick `skipped_words` is
    /// measured against.
    pub fn conventional_words(&self) -> u64 {
        let model =
            RefreshModel { interval_us: self.interval_us, kind: ControllerKind::Conventional };
        layer_refresh_words(self.sim, self.cfg, &model)
    }
}

/// One strategy's verdict for one layer.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerDecision {
    /// Words the strategy refreshes over the layer's execution.
    pub refresh_words: u64,
    /// Per-bank refresh flags from [`refresh_flags_for`] (which banks
    /// hold retention-needy data at the *effective* interval). Reports
    /// count these even for the conventional strategy, whose controller
    /// ignores them and refreshes everything.
    pub refresh_flags: Vec<bool>,
    /// Effective pulse period as a multiple of the base interval (1 for
    /// exact-interval strategies; >1 when an error budget stretches the
    /// divider).
    pub interval_multiple: u32,
    /// Retention-failure rate the layer's resident data is exposed to.
    pub failure_rate: f64,
    /// Words a conventional controller would refresh that this strategy
    /// skips.
    pub skipped_words: u64,
    /// Why: `refresh-free`, `conventional`, `flagged`, `access-live`,
    /// `budget-stretch`.
    pub reason: &'static str,
}

impl LayerDecision {
    /// Banks the config-gen flags select (0 = refresh-free layer).
    pub fn flagged_banks(&self) -> usize {
        self.refresh_flags.iter().filter(|&&f| f).count()
    }

    /// Folds the decision's refresh traffic into memory counters.
    pub fn record(&self, stats: &mut MemoryStats) {
        stats.refresh_words += self.refresh_words;
    }
}

/// A refresh strategy: maps one layer's context to a refresh decision.
pub trait RefreshStrategy {
    /// Stable lowercase label (`conventional`, `rana-flagged`,
    /// `access-triggered`, `error-budget`).
    fn name(&self) -> &'static str;

    /// Decides one layer's refresh.
    fn decide(&self, ctx: &LayerCtx<'_>) -> LayerDecision;
}

/// The shipped strategies as one dispatchable value — the form the
/// serving, thermal and fleet loops thread through their configs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Strategy {
    /// All banks at every pulse (Table IV "Normal").
    Conventional,
    /// RANA per-bank flags + divider (Table IV "Refresh-optimized").
    RanaFlagged,
    /// RTC: refresh only words read again before their next overwrite.
    AccessTriggered,
    /// EDEN: stretch the interval up to a bit-error budget.
    ErrorBudget {
        /// Highest tolerable retention-failure rate.
        budget: f64,
    },
}

impl Strategy {
    /// The default strategy of a legacy memory-controller kind — the
    /// byte-compatible path existing configs resolve to.
    pub fn for_kind(kind: ControllerKind) -> Self {
        match kind {
            ControllerKind::Conventional => Strategy::Conventional,
            ControllerKind::RefreshOptimized => Strategy::RanaFlagged,
        }
    }

    /// The four shipped strategies at `budget` for the EDEN entry, in
    /// report order.
    pub fn lineup(budget: f64) -> [Strategy; 4] {
        [
            Strategy::Conventional,
            Strategy::RanaFlagged,
            Strategy::AccessTriggered,
            Strategy::ErrorBudget { budget },
        ]
    }

    /// A compact memo-key component: distinct strategies (including
    /// distinct budgets) get distinct keys.
    pub fn memo_key(&self) -> (u8, u64) {
        match self {
            Strategy::Conventional => (0, 0),
            Strategy::RanaFlagged => (1, 0),
            Strategy::AccessTriggered => (2, 0),
            Strategy::ErrorBudget { budget } => (3, budget.to_bits()),
        }
    }
}

impl RefreshStrategy for Strategy {
    fn name(&self) -> &'static str {
        match self {
            Strategy::Conventional => "conventional",
            Strategy::RanaFlagged => "rana-flagged",
            Strategy::AccessTriggered => "access-triggered",
            Strategy::ErrorBudget { .. } => "error-budget",
        }
    }

    fn decide(&self, ctx: &LayerCtx<'_>) -> LayerDecision {
        match self {
            Strategy::Conventional => classic(ctx, ControllerKind::Conventional),
            Strategy::RanaFlagged => classic(ctx, ControllerKind::RefreshOptimized),
            Strategy::AccessTriggered => AccessTriggered.decide(ctx),
            Strategy::ErrorBudget { budget } => ErrorBudget::new(*budget).decide(ctx),
        }
    }
}

/// The per-bank refresh-flag projection at `interval_us`: banks
/// allocated to retention-needy data types are flagged, and everything is
/// flagged when the resident set overflows the buffer and anything is
/// needy. `rana_core::config_gen::LayerConfig::for_sim` takes its flags
/// from here.
pub fn refresh_flags_for(sim: &LayerSim, cfg: &AcceleratorConfig, interval_us: f64) -> Vec<bool> {
    // `needy_types` does not consult the controller kind.
    let model = RefreshModel { interval_us, kind: ControllerKind::RefreshOptimized };
    let needy = model.needy_types(sim);
    let buffer = UnifiedBuffer::new(cfg.buffer.num_banks, cfg.buffer.bank_words);
    match buffer.allocate(
        sim.storage.input_words,
        sim.storage.output_words,
        sim.storage.weight_words,
    ) {
        Ok(alloc) => alloc.refresh_flags(|ty| match ty {
            DataType::Input => needy[0],
            DataType::Output => needy[1],
            DataType::Weight => needy[2],
        }),
        Err(_) => vec![needy.iter().any(|&n| n); cfg.buffer.num_banks],
    }
}

/// The legacy-controller decision (`Conventional` / `RanaFlagged`):
/// delegates word accounting to [`layer_refresh_words`] and the flags to
/// [`refresh_flags_for`], so it is bit-identical to the enum path it
/// replaces.
fn classic(ctx: &LayerCtx<'_>, kind: ControllerKind) -> LayerDecision {
    let model = RefreshModel { interval_us: ctx.interval_us, kind };
    let refresh_words = layer_refresh_words(ctx.sim, ctx.cfg, &model);
    let refresh_flags = refresh_flags_for(ctx.sim, ctx.cfg, ctx.interval_us);
    let reason = if refresh_words == 0 {
        "refresh-free"
    } else {
        match kind {
            ControllerKind::Conventional => "conventional",
            ControllerKind::RefreshOptimized => "flagged",
        }
    };
    LayerDecision {
        skipped_words: ctx.conventional_words().saturating_sub(refresh_words),
        refresh_words,
        refresh_flags,
        interval_multiple: 1,
        failure_rate: exposure_rate(ctx, ctx.interval_us),
        reason,
    }
}

/// The retention-failure rate data is exposed to when refreshed every
/// `effective_us` (its exposure is capped by its own residency: a layer
/// whose longest critical interval is shorter than the pulse period never
/// waits a full period between recharges).
pub(crate) fn exposure_rate(ctx: &LayerCtx<'_>, effective_us: f64) -> f64 {
    let exposure = effective_us.min(ctx.max_critical_us());
    if exposure <= 0.0 {
        0.0
    } else {
        ctx.retention.failure_rate(exposure)
    }
}

/// Runs a strategy and emits a [`rana_trace::Event::PolicyDecision`]
/// describing the outcome (when tracing is enabled; with tracing disabled
/// this is exactly `strategy.decide`). `scope` names what the decision
/// covers, e.g. `"alexnet/conv3"`.
pub fn decide_traced<S: RefreshStrategy + ?Sized>(
    strategy: &S,
    ctx: &LayerCtx<'_>,
    scope: &str,
) -> LayerDecision {
    let decision = strategy.decide(ctx);
    if rana_trace::enabled() {
        rana_trace::emit(|| rana_trace::Event::PolicyDecision {
            scope: scope.to_string(),
            strategy: strategy.name().to_string(),
            banks: decision.flagged_banks(),
            interval_multiple: decision.interval_multiple,
            refresh_words: decision.refresh_words,
            skipped_words: decision.skipped_words,
            failure_rate: decision.failure_rate,
            reason: decision.reason.to_string(),
        });
    }
    decision
}

#[cfg(test)]
mod tests {
    use super::*;
    use rana_accel::analysis::analyze;
    use rana_accel::pattern::{Pattern, Tiling};
    use rana_accel::SchedLayer;

    fn ctx_parts(name: &str, pattern: Pattern) -> (LayerSim, AcceleratorConfig) {
        let cfg = AcceleratorConfig::paper_edram();
        let l = SchedLayer::from_conv(rana_zoo::vgg16().conv(name).unwrap());
        let sim = analyze(&l, pattern, Tiling::new(16, 16, 1, 16), &cfg);
        (sim, cfg)
    }

    #[test]
    fn classic_strategies_match_legacy_accounting() {
        let dist = RetentionDistribution::kong2008();
        for (name, pattern) in [("conv4_2", Pattern::Od), ("conv1_2", Pattern::Od)] {
            let (sim, cfg) = ctx_parts(name, pattern);
            for interval in [45.0, 734.0, 2400.0] {
                let ctx =
                    LayerCtx { sim: &sim, cfg: &cfg, interval_us: interval, retention: &dist };
                for kind in [ControllerKind::Conventional, ControllerKind::RefreshOptimized] {
                    let d = Strategy::for_kind(kind).decide(&ctx);
                    let model = RefreshModel { interval_us: interval, kind };
                    assert_eq!(d.refresh_words, layer_refresh_words(&sim, &cfg, &model));
                    assert_eq!(d.refresh_flags, refresh_flags_for(&sim, &cfg, interval));
                    assert_eq!(d.interval_multiple, 1);
                    assert_eq!(
                        d.skipped_words,
                        ctx.conventional_words() - d.refresh_words,
                        "skipped words are measured against conventional"
                    );
                }
            }
        }
    }

    #[test]
    fn strategy_ordering_on_a_flagged_layer() {
        // conv4_2 OD at 734 µs: weights die young, inputs/outputs persist.
        let (sim, cfg) = ctx_parts("conv4_2", Pattern::Od);
        let dist = RetentionDistribution::kong2008();
        let ctx = LayerCtx { sim: &sim, cfg: &cfg, interval_us: 734.0, retention: &dist };
        let [conv, rana, rtc, eden] = Strategy::lineup(1e-4).map(|s| s.decide(&ctx));
        assert!(conv.refresh_words > 0);
        assert!(rana.refresh_words < conv.refresh_words, "flags must skip weight banks");
        assert!(rtc.refresh_words <= rana.refresh_words, "words undercut bank rounding");
        assert!(rtc.refresh_words > 0, "persistent data is still read");
        assert!(eden.refresh_words < rana.refresh_words, "a 1e-4 budget stretches 734 us");
        assert!(eden.interval_multiple > 1);
        assert!(eden.failure_rate <= 1e-4 * (1.0 + 1e-12));
    }

    #[test]
    fn refresh_free_layer_is_refresh_free_under_every_strategy() {
        let (sim, cfg) = ctx_parts("conv4_2", Pattern::Od);
        let dist = RetentionDistribution::kong2008();
        // 10 ms interval: every lifetime in this layer is far below it.
        let ctx = LayerCtx { sim: &sim, cfg: &cfg, interval_us: 10_000.0, retention: &dist };
        for s in Strategy::lineup(1e-3) {
            let d = s.decide(&ctx);
            assert_eq!(d.refresh_words, 0, "{}", s.name());
            assert_eq!(d.skipped_words, 0);
        }
    }

    #[test]
    fn memo_keys_are_distinct() {
        let keys = [
            Strategy::Conventional.memo_key(),
            Strategy::RanaFlagged.memo_key(),
            Strategy::AccessTriggered.memo_key(),
            Strategy::ErrorBudget { budget: 1e-4 }.memo_key(),
            Strategy::ErrorBudget { budget: 1e-3 }.memo_key(),
        ];
        for (i, a) in keys.iter().enumerate() {
            for b in &keys[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn traced_decision_matches_untraced() {
        let (sim, cfg) = ctx_parts("conv4_2", Pattern::Od);
        let dist = RetentionDistribution::kong2008();
        let ctx = LayerCtx { sim: &sim, cfg: &cfg, interval_us: 734.0, retention: &dist };
        let plain = Strategy::RanaFlagged.decide(&ctx);
        let traced = decide_traced(&Strategy::RanaFlagged, &ctx, "test/conv4_2");
        assert_eq!(plain, traced, "tracing must not perturb the decision");
    }
}
