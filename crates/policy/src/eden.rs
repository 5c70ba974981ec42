//! Error-budget refresh (EDEN): trade retention failures for refresh
//! energy under an explicit bit-error budget.
//!
//! EDEN's observation is that a CNN tolerates a small rate of stored-bit
//! errors — especially a retention-aware-trained one (the `rana-nn`
//! curves) — so the refresh interval need not be bounded by the paper's
//! conservative failure target. [`ErrorBudget`] stretches the divider to
//! the largest integer multiple of the base interval whose cumulative
//! retention-failure rate stays within the budget, keeps RANA's per-bank
//! flags at that stretched interval, and exposes the implied bit-error
//! process as a `rana-fixq` [`BitErrorModel`] so experiments can price
//! the accuracy loss by actually injecting the faults.

use crate::{exposure_rate, refresh_flags_for, LayerCtx, LayerDecision, RefreshStrategy};
use rana_accel::{layer_refresh_words, ControllerKind, RefreshModel};
use rana_edram::RetentionDistribution;
use rana_fixq::BitErrorModel;

/// The EDEN-style strategy: refresh as rarely as the budget allows.
///
/// # Example
///
/// ```
/// use rana_edram::RetentionDistribution;
/// use rana_policy::ErrorBudget;
///
/// let dist = RetentionDistribution::kong2008();
/// // A 1e-4 budget tolerates 2400 µs between recharges (Figure 4), so a
/// // 45 µs base pulse stretches 53x.
/// let eden = ErrorBudget::new(1e-4);
/// assert_eq!(eden.stretch_multiple(&dist, 45.0), 53);
/// // The implied bit-error model prices the accuracy cost.
/// let bits = eden.bit_error_model(&dist, 45.0);
/// assert!(bits.rate() <= 1e-4);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ErrorBudget {
    budget: f64,
}

impl ErrorBudget {
    /// A strategy tolerating at most `budget` cumulative retention-failure
    /// rate on resident data.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < budget < 1`.
    pub fn new(budget: f64) -> Self {
        assert!(budget > 0.0 && budget < 1.0, "budget must be in (0, 1), got {budget}");
        Self { budget }
    }

    /// The configured budget.
    pub fn budget(&self) -> f64 {
        self.budget
    }

    /// Largest integer divider stretch keeping the failure rate of a full
    /// `base_interval_us × multiple` exposure within the budget (at least
    /// 1 — the strategy never refreshes more often than the base rung).
    pub fn stretch_multiple(&self, dist: &RetentionDistribution, base_interval_us: f64) -> u32 {
        let tolerable = dist.tolerable_retention_us(self.budget);
        ((tolerable / base_interval_us).floor() as u32).max(1)
    }

    /// The bit-error process the stretched interval implies: each stored
    /// bit fails with the cumulative failure rate of the effective
    /// exposure. Feed it to `rana-fixq` injection to price accuracy loss
    /// on real activations and weights.
    pub fn bit_error_model(
        &self,
        dist: &RetentionDistribution,
        base_interval_us: f64,
    ) -> BitErrorModel {
        let eff = base_interval_us * f64::from(self.stretch_multiple(dist, base_interval_us));
        BitErrorModel::new(dist.failure_rate(eff).min(self.budget))
    }

    /// Expected bit flips when `words` 16-bit words are exposed at
    /// `rate`: a failed cell reads back a uniform random bit, so half the
    /// failures flip.
    pub fn expected_flips(words: u64, rate: f64) -> f64 {
        words as f64 * 16.0 * rate * 0.5
    }
}

impl RefreshStrategy for ErrorBudget {
    fn name(&self) -> &'static str {
        "error-budget"
    }

    fn decide(&self, ctx: &LayerCtx<'_>) -> LayerDecision {
        let multiple = self.stretch_multiple(ctx.retention, ctx.interval_us);
        let eff = ctx.interval_us * f64::from(multiple);
        // RANA's flags still apply, just at the stretched interval.
        let model = RefreshModel { interval_us: eff, kind: ControllerKind::RefreshOptimized };
        let refresh_words = layer_refresh_words(ctx.sim, ctx.cfg, &model);
        let refresh_flags = refresh_flags_for(ctx.sim, ctx.cfg, eff);
        let reason = if refresh_words == 0 { "refresh-free" } else { "budget-stretch" };
        LayerDecision {
            skipped_words: ctx.conventional_words().saturating_sub(refresh_words),
            refresh_words,
            refresh_flags,
            interval_multiple: multiple,
            failure_rate: exposure_rate(ctx, eff),
            reason,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn stretch_follows_the_retention_curve() {
        let dist = RetentionDistribution::kong2008();
        let tight = ErrorBudget::new(1e-5).stretch_multiple(&dist, 45.0);
        let loose = ErrorBudget::new(1e-2).stretch_multiple(&dist, 45.0);
        assert!((16..=17).contains(&tight), "734 us / 45 us = 16x, got {tight}");
        assert!(loose > 100, "1e-2 tolerates 7000 us, got {loose}x");
        // A base interval already beyond the tolerable time never
        // stretches below 1x.
        assert_eq!(ErrorBudget::new(1e-5).stretch_multiple(&dist, 10_000.0), 1);
    }

    #[test]
    fn budget_bounds_the_modelled_error_rate() {
        let dist = RetentionDistribution::kong2008();
        for budget in [1e-5, 1e-4, 1e-3] {
            let m = ErrorBudget::new(budget).bit_error_model(&dist, 45.0);
            assert!(m.rate() <= budget, "rate {} exceeds budget {budget}", m.rate());
            assert!(m.rate() > budget / 3.0, "integer stretch should land near the budget");
        }
    }

    #[test]
    fn injection_agrees_with_expected_flips() {
        let dist = RetentionDistribution::kong2008();
        let eden = ErrorBudget::new(1e-2);
        let model = eden.bit_error_model(&dist, 45.0);
        let mut words = vec![0i16; 200_000];
        let mut rng = StdRng::seed_from_u64(7);
        let flipped = model.inject(&mut words, &mut rng) as f64;
        let expected = ErrorBudget::expected_flips(words.len() as u64, model.rate());
        assert!(
            (flipped - expected).abs() / expected < 0.2,
            "injected {flipped} vs expected {expected}"
        );
    }

    #[test]
    #[should_panic(expected = "budget")]
    fn rejects_degenerate_budgets() {
        ErrorBudget::new(0.0);
    }
}
