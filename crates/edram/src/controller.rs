//! Refresh controllers: the conventional all-banks controller and RANA's
//! refresh-optimized controller (paper §IV-D, Figure 14).
//!
//! The controller derives a refresh pulse from the accelerator's reference
//! clock through a *programmable clock divider*; the pulse period equals the
//! (tolerable) retention time. At every pulse, the conventional controller
//! refreshes every bank; the optimized controller consults per-bank
//! *refresh flags* loaded from the layer's configuration and skips disabled
//! banks — banks holding no data, or data whose lifetime is below the
//! tolerable retention time.

use crate::bank::EdramArray;

/// Programmable divider turning the accelerator reference clock into the
/// refresh pulse.
///
/// # Example
///
/// ```
/// use rana_edram::ClockDivider;
/// // 200 MHz reference, 734 µs tolerable retention time.
/// let div = ClockDivider::for_interval(200e6, 734.0);
/// assert_eq!(div.ratio(), 146_800);
/// assert!((div.pulse_period_us(200e6) - 734.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClockDivider {
    ratio: u64,
}

impl ClockDivider {
    /// Divider ratio producing (at least) `interval_us` between pulses on a
    /// `ref_clock_hz` clock. Rounds down (a slightly early refresh is always
    /// safe) but never below 1.
    ///
    /// ```
    /// use rana_edram::ClockDivider;
    ///
    /// // 734 µs tolerable retention on a 500 MHz reference clock.
    /// let div = ClockDivider::for_interval(500e6, 734.0);
    /// assert_eq!(div.ratio(), 367_000);
    /// // Rounding down means the realized period never exceeds the target.
    /// assert!(div.pulse_period_us(500e6) <= 734.0);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics unless both arguments are positive.
    pub fn for_interval(ref_clock_hz: f64, interval_us: f64) -> Self {
        assert!(ref_clock_hz > 0.0 && interval_us > 0.0, "clock and interval must be positive");
        let ratio = (ref_clock_hz * interval_us * 1e-6).floor().max(1.0) as u64;
        Self { ratio }
    }

    /// The divider ratio in reference-clock cycles.
    pub fn ratio(&self) -> u64 {
        self.ratio
    }

    /// Resulting pulse period in µs on a `ref_clock_hz` clock.
    pub fn pulse_period_us(&self, ref_clock_hz: f64) -> f64 {
        self.ratio as f64 / ref_clock_hz * 1e6
    }
}

/// Which banks a refresh pulse touches — the *pulse distribution*, not
/// the refresh *strategy*. Strategies (RANA flags, access-triggered RTC,
/// EDEN error budgets) live in `rana-policy` and compile down to a
/// pattern plus a divider setting for this controller.
#[derive(Debug, Clone, PartialEq)]
pub enum RefreshPattern {
    /// Conventional eDRAM: every bank refreshed at every pulse, whether it
    /// stores data or not.
    ConventionalAll,
    /// RANA's optimized controller: only banks whose flag is set.
    Flagged(Vec<bool>),
}

impl RefreshPattern {
    /// Whether `bank` is refreshed at each pulse (banks beyond the flags
    /// are not).
    pub fn refreshes(&self, bank: usize) -> bool {
        match self {
            RefreshPattern::ConventionalAll => true,
            RefreshPattern::Flagged(flags) => flags.get(bank).copied().unwrap_or(false),
        }
    }

    /// Banks refreshed per pulse, given `num_banks` total.
    pub fn banks_per_pulse(&self, num_banks: usize) -> usize {
        match self {
            RefreshPattern::ConventionalAll => num_banks,
            RefreshPattern::Flagged(flags) => flags.iter().take(num_banks).filter(|&&f| f).count(),
        }
    }
}

/// A refresh controller: pulse interval plus per-pulse bank pattern.
#[derive(Debug, Clone, PartialEq)]
pub struct RefreshConfig {
    /// Pulse period in µs (= the tolerable retention time).
    pub interval_us: f64,
    /// Bank selection pattern.
    pub pattern: RefreshPattern,
}

impl RefreshConfig {
    /// Conventional controller at the given interval.
    pub fn conventional(interval_us: f64) -> Self {
        Self { interval_us, pattern: RefreshPattern::ConventionalAll }
    }

    /// Optimized controller with explicit flags.
    pub fn flagged(interval_us: f64, flags: Vec<bool>) -> Self {
        Self { interval_us, pattern: RefreshPattern::Flagged(flags) }
    }

    /// Pulse times in `(from_us, to_us]` on the global pulse grid
    /// (pulses at integer multiples of the interval).
    pub fn pulses_between(&self, from_us: f64, to_us: f64) -> impl Iterator<Item = f64> + '_ {
        let interval = self.interval_us;
        let first = (from_us / interval).floor() as i64 + 1;
        let last = (to_us / interval).floor() as i64;
        (first..=last).map(move |k| k as f64 * interval)
    }

    /// Number of pulses in `(from_us, to_us]`.
    pub fn pulse_count(&self, from_us: f64, to_us: f64) -> u64 {
        let first = (from_us / self.interval_us).floor() as i64 + 1;
        let last = (to_us / self.interval_us).floor() as i64;
        (last - first + 1).max(0) as u64
    }

    /// Analytic refresh-word count over a window: pulses × flagged banks ×
    /// bank words.
    pub fn refresh_words_between(
        &self,
        from_us: f64,
        to_us: f64,
        num_banks: usize,
        bank_words: usize,
    ) -> u64 {
        self.pulse_count(from_us, to_us)
            * self.pattern.banks_per_pulse(num_banks) as u64
            * bank_words as u64
    }
}

/// Drives an [`EdramArray`] through time, issuing refreshes at each pulse.
///
/// # Example
///
/// ```
/// use rana_edram::{controller::RefreshIssuer, EdramArray, RefreshConfig, RetentionDistribution};
///
/// let mut mem = EdramArray::new(2, 64, RetentionDistribution::kong2008(), 1);
/// mem.write(0, 42, 0.0);
/// let mut issuer = RefreshIssuer::new(RefreshConfig::conventional(45.0));
/// issuer.advance(&mut mem, 1000.0); // data survives 1 ms under refresh
/// assert_eq!(mem.read(0, 1000.0), 42);
/// ```
/// Pulse timing is *phase-based*: the issuer remembers the time of the
/// last pulse and fires the next one `interval` later, rather than on a
/// global grid of interval multiples. The two are identical while the
/// interval never changes (pulses at `k·interval`), but phase tracking is
/// what makes [`retune`](RefreshIssuer::retune) sound: a divider change
/// mid-pass re-derives the next due time from the last actual recharge, so
/// no pulse is skipped or double-issued across the change.
#[derive(Debug, Clone)]
pub struct RefreshIssuer {
    config: RefreshConfig,
    now_us: f64,
    issued_words: u64,
    /// Time of the most recent pulse (0 before any — data written at t=0 is
    /// first due one interval later, matching the global-grid behavior).
    last_pulse_us: f64,
    /// Pulses issued so far.
    pulse_seq: u64,
}

impl RefreshIssuer {
    /// Creates an issuer at time zero.
    pub fn new(config: RefreshConfig) -> Self {
        Self { config, now_us: 0.0, issued_words: 0, last_pulse_us: 0.0, pulse_seq: 0 }
    }

    /// Current time in µs.
    pub fn now_us(&self) -> f64 {
        self.now_us
    }

    /// Total refreshed words so far.
    pub fn issued_words(&self) -> u64 {
        self.issued_words
    }

    /// Total pulses issued so far.
    pub fn pulses_issued(&self) -> u64 {
        self.pulse_seq
    }

    /// Current pulse period in µs.
    pub fn interval_us(&self) -> f64 {
        self.config.interval_us
    }

    /// Replaces the per-bank flags (loaded between layers from the layerwise
    /// configuration).
    pub fn load_flags(&mut self, flags: Vec<bool>) {
        self.config.pattern = RefreshPattern::Flagged(flags);
    }

    /// Replaces the bank pattern wholesale (strategies programming the
    /// conventional pattern instead of flags).
    pub fn load_pattern(&mut self, pattern: RefreshPattern) {
        self.config.pattern = pattern;
    }

    /// Changes the pulse period mid-run (the adaptive runtime reprogramming
    /// the clock divider). The next pulse falls due `interval_us` after the
    /// *last issued pulse* — never later than the data's new retention
    /// budget allows, and never re-covering time a pulse already covered —
    /// so shortening the period cannot skip a due refresh and lengthening
    /// it cannot double-issue one.
    ///
    /// # Panics
    ///
    /// Panics unless `interval_us` is positive.
    pub fn retune(&mut self, interval_us: f64) {
        assert!(interval_us > 0.0, "pulse period must be positive, got {interval_us}");
        self.config.interval_us = interval_us;
    }

    /// Advances time to `to_us`, refreshing eligible banks at every pulse.
    /// Pulses fire one interval after the previous pulse; a pulse already
    /// overdue at the current time (possible right after shortening the
    /// period with [`retune`](Self::retune)) is issued once at the current
    /// time and the phase re-anchors there — the recharge happens *now*,
    /// so the next one is due an interval from now, not a burst of grid
    /// catch-ups.
    ///
    /// # Panics
    ///
    /// Panics if time would run backwards.
    pub fn advance(&mut self, mem: &mut EdramArray, to_us: f64) {
        assert!(to_us >= self.now_us, "time must be monotone");
        while self.last_pulse_us + self.config.interval_us <= to_us {
            let due = self.last_pulse_us + self.config.interval_us;
            let pulse_t = due.max(self.now_us);
            self.pulse_seq += 1;
            for bank in 0..mem.num_banks() {
                if self.config.pattern.refreshes(bank) {
                    self.issued_words += mem.refresh_bank(bank, pulse_t) as u64;
                }
            }
            self.last_pulse_us = pulse_t;
            self.now_us = self.now_us.max(pulse_t);
        }
        self.now_us = to_us;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::retention::RetentionDistribution;

    #[test]
    fn divider_ratio() {
        let d = ClockDivider::for_interval(200e6, 45.0);
        assert_eq!(d.ratio(), 9000);
        assert!((d.pulse_period_us(200e6) - 45.0).abs() < 1e-9);
    }

    #[test]
    fn pulse_counting() {
        let c = RefreshConfig::conventional(45.0);
        assert_eq!(c.pulse_count(0.0, 45.0), 1);
        assert_eq!(c.pulse_count(0.0, 44.9), 0);
        assert_eq!(c.pulse_count(0.0, 450.0), 10);
        assert_eq!(c.pulse_count(45.0, 90.0), 1);
        assert_eq!(c.pulse_count(10.0, 10.0), 0);
    }

    #[test]
    fn pulses_land_on_grid() {
        let c = RefreshConfig::conventional(100.0);
        let pulses: Vec<f64> = c.pulses_between(50.0, 350.0).collect();
        assert_eq!(pulses, vec![100.0, 200.0, 300.0]);
    }

    #[test]
    fn flagged_pattern_counts() {
        let p = RefreshPattern::Flagged(vec![true, false, true, false]);
        assert_eq!(p.banks_per_pulse(4), 2);
        assert!(p.refreshes(0));
        assert!(!p.refreshes(1));
        assert!(!p.refreshes(7), "missing flags default to disabled");
        assert_eq!(RefreshPattern::ConventionalAll.banks_per_pulse(4), 4);
    }

    #[test]
    fn refresh_words_analytic() {
        let c = RefreshConfig::flagged(45.0, vec![true, true, false]);
        // 10 pulses x 2 banks x 100 words.
        assert_eq!(c.refresh_words_between(0.0, 450.0, 3, 100), 2000);
    }

    #[test]
    fn issuer_keeps_data_alive() {
        let mut mem = EdramArray::new(2, 32, RetentionDistribution::kong2008(), 9);
        mem.write(0, 123, 0.0);
        mem.write(40, -77, 0.0);
        let mut issuer = RefreshIssuer::new(RefreshConfig::conventional(45.0));
        for step in 1..=200 {
            issuer.advance(&mut mem, step as f64 * 25.0);
        }
        assert_eq!(mem.read(0, issuer.now_us()), 123);
        assert_eq!(mem.read(40, issuer.now_us()), -77);
        assert!(issuer.issued_words() > 0);
    }

    #[test]
    fn unflagged_bank_decays() {
        // Bank 1 disabled: its data decays over a long horizon while bank
        // 0's survives.
        let mut mem = EdramArray::new(2, 512, RetentionDistribution::kong2008(), 5);
        for i in 0..512 {
            mem.write(i, 0x2E2E, 0.0); // bank 0
            mem.write(512 + i, 0x2E2E, 0.0); // bank 1
        }
        let mut issuer = RefreshIssuer::new(RefreshConfig::flagged(45.0, vec![true, false]));
        let horizon = 2e5; // 200 ms: unrefreshed cells are far past the tail
        issuer.advance(&mut mem, horizon);
        let intact_b0 = (0..512).filter(|&i| mem.read(i, horizon) == 0x2E2E).count();
        let intact_b1 = (0..512).filter(|&i| mem.read(512 + i, horizon) == 0x2E2E).count();
        assert_eq!(intact_b0, 512, "refreshed bank must be intact");
        assert!(intact_b1 < 10, "unrefreshed bank should be garbage, {intact_b1} intact");
    }

    #[test]
    fn divider_interval_shorter_than_one_ref_period_clamps_to_one() {
        // 1 MHz reference = 1 µs per cycle; a 0.4 µs request cannot be
        // realized and clamps to ratio 1 (refreshing early, never late).
        let d = ClockDivider::for_interval(1e6, 0.4);
        assert_eq!(d.ratio(), 1);
        assert!((d.pulse_period_us(1e6) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn divider_non_integer_ratio_rounds_down() {
        // 1 MHz × 2.7 µs = 2.7 cycles -> ratio 2: the realized period
        // (2 µs) is never longer than requested.
        let d = ClockDivider::for_interval(1e6, 2.7);
        assert_eq!(d.ratio(), 2);
        assert!(d.pulse_period_us(1e6) <= 2.7);
        // Fractional reference clocks floor the same way.
        let d = ClockDivider::for_interval(333_333.0, 45.0);
        assert_eq!(d.ratio(), 14);
        assert!(d.pulse_period_us(333_333.0) <= 45.0);
    }

    /// Pulses issued so far, measured through a 1-bank fully-written
    /// memory: every pulse refreshes exactly `bank_words` words.
    fn pulse_probe() -> (EdramArray, usize) {
        let words = 32;
        let mut mem = EdramArray::new(1, words, RetentionDistribution::kong2008(), 3);
        for i in 0..words {
            mem.write(i, 1, 0.0);
        }
        (mem, words)
    }

    #[test]
    fn retune_longer_does_not_double_issue() {
        let (mut mem, words) = pulse_probe();
        let mut issuer = RefreshIssuer::new(RefreshConfig::conventional(50.0));
        issuer.advance(&mut mem, 120.0); // pulses at 50, 100
        assert_eq!(issuer.pulses_issued(), 2);
        issuer.retune(200.0);
        // Next pulse due 200 µs after the last one (t=100), i.e. at 300 —
        // not re-issued at 200 (the new grid) or at 250 (now + interval).
        issuer.advance(&mut mem, 299.0);
        assert_eq!(issuer.pulses_issued(), 2, "no pulse may fire before 300");
        issuer.advance(&mut mem, 300.0);
        assert_eq!(issuer.pulses_issued(), 3);
        assert_eq!(issuer.issued_words(), 3 * words as u64);
    }

    #[test]
    fn retune_shorter_does_not_skip_a_due_pulse() {
        let (mut mem, _) = pulse_probe();
        let mut issuer = RefreshIssuer::new(RefreshConfig::conventional(100.0));
        issuer.advance(&mut mem, 250.0); // pulses at 100, 200
        assert_eq!(issuer.pulses_issued(), 2);
        issuer.retune(50.0);
        // Data last recharged at t=200 must be covered again by t=250:
        // the pulse fires exactly once, at the retune-adjusted due time.
        issuer.advance(&mut mem, 260.0);
        assert_eq!(issuer.pulses_issued(), 3);
        issuer.advance(&mut mem, 310.0); // next at 300 (250 + 50)
        assert_eq!(issuer.pulses_issued(), 4);
    }

    #[test]
    fn retune_overdue_pulse_fires_once_and_reanchors() {
        let (mut mem, _) = pulse_probe();
        let mut issuer = RefreshIssuer::new(RefreshConfig::conventional(1000.0));
        issuer.advance(&mut mem, 500.0); // no pulses yet
        assert_eq!(issuer.pulses_issued(), 0);
        issuer.retune(100.0);
        // Nominal due time (0 + 100) is long past: exactly one catch-up
        // pulse at now, then the phase re-anchors — pulses at 500 (clamped),
        // 600, 700, 800. A grid-based issuer would burst 100..500 at once.
        issuer.advance(&mut mem, 550.0);
        assert_eq!(issuer.pulses_issued(), 1);
        issuer.advance(&mut mem, 800.0);
        assert_eq!(issuer.pulses_issued(), 4);
    }

    #[test]
    fn retune_mid_pass_keeps_data_alive() {
        // Sharp knee at 100 µs: a 45 µs issuer retuned to 90 µs mid-run
        // must leave no gap > 100 µs between recharges.
        let dist =
            RetentionDistribution::from_anchors(vec![(100.0, 1e-7), (150.0, 1e-2), (1000.0, 1.0)])
                .unwrap();
        let mut mem = EdramArray::new(1, 64, dist, 17);
        for i in 0..64 {
            mem.write(i, 0x5A5A, 0.0);
        }
        let mut issuer = RefreshIssuer::new(RefreshConfig::conventional(45.0));
        issuer.advance(&mut mem, 400.0);
        issuer.retune(90.0);
        issuer.advance(&mut mem, 2000.0);
        for i in 0..64 {
            assert_eq!(mem.read(i, 2000.0), 0x5A5A, "word {i} decayed across the retune");
        }
        // And the retune actually slowed the pulse rate: 8 pulses in the
        // first 400 µs, then one per 90 µs.
        let expected = 8 + ((2000.0 - 360.0) / 90.0) as u64;
        assert_eq!(issuer.pulses_issued(), expected);
    }

    #[test]
    fn unretuned_phase_matches_global_grid() {
        // Split advances at awkward points: pulse count must equal the
        // old global-grid behavior (floor(to/interval) pulses by `to`).
        let (mut mem, _) = pulse_probe();
        let mut issuer = RefreshIssuer::new(RefreshConfig::conventional(45.0));
        for to in [10.0, 44.9, 45.0, 46.0, 200.0, 203.3, 1000.0] {
            issuer.advance(&mut mem, to);
            assert_eq!(issuer.pulses_issued(), (to / 45.0).floor() as u64, "at {to}");
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn retune_rejects_nonpositive_interval() {
        RefreshIssuer::new(RefreshConfig::conventional(45.0)).retune(0.0);
    }

    #[test]
    #[should_panic(expected = "monotone")]
    fn time_cannot_reverse() {
        let mut mem = EdramArray::new(1, 8, RetentionDistribution::kong2008(), 1);
        let mut issuer = RefreshIssuer::new(RefreshConfig::conventional(45.0));
        issuer.advance(&mut mem, 100.0);
        issuer.advance(&mut mem, 50.0);
    }
}
