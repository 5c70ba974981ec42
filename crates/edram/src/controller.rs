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
/// EDEN error budgets) live in `rana-policy`.
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
}

/// Drives an [`EdramArray`] through time, issuing refreshes at each pulse.
///
/// Pulses sit on a global grid: pulse `k` (counting from 1) fires at
/// `k·interval`, so by time `t` the issuer has fired `⌊t / interval⌋`
/// pulses, the count the analytic refresh model prices. Each pulse time is
/// one product, never a running sum, so no rounding accumulates along the
/// grid.
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
/// assert_eq!(issuer.pulses_issued(), 22);
/// ```
#[derive(Debug, Clone)]
pub struct RefreshIssuer {
    config: RefreshConfig,
    now_us: f64,
    issued_words: u64,
    /// Pulses issued so far; the last one fired at `pulses · interval`.
    pulses: u64,
}

impl RefreshIssuer {
    /// Creates an issuer at time zero.
    ///
    /// # Panics
    ///
    /// Panics unless the interval is finite and positive: a zero interval
    /// would never finish issuing pulses, and a negative or NaN one would
    /// silently issue none.
    pub fn new(config: RefreshConfig) -> Self {
        assert!(
            config.interval_us.is_finite() && config.interval_us > 0.0,
            "refresh interval must be finite and positive, got {} us",
            config.interval_us
        );
        Self { config, now_us: 0.0, issued_words: 0, pulses: 0 }
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
        self.pulses
    }

    /// Replaces the per-bank flags (loaded between layers from the layerwise
    /// configuration).
    pub fn load_flags(&mut self, flags: Vec<bool>) {
        self.config.pattern = RefreshPattern::Flagged(flags);
    }

    /// Advances time to `to_us`, firing every grid pulse due by then and
    /// refreshing the pattern's banks at each.
    ///
    /// # Panics
    ///
    /// Panics if time would run backwards.
    pub fn advance(&mut self, mem: &mut EdramArray, to_us: f64) {
        assert!(to_us >= self.now_us, "time must be monotone");
        // Time starts at zero and the interval is positive, so the
        // truncating cast is the floor.
        let due = (to_us / self.config.interval_us) as u64;
        while self.pulses < due {
            self.pulses += 1;
            let pulse_t = self.pulses as f64 * self.config.interval_us;
            for bank in 0..mem.num_banks() {
                if self.config.pattern.refreshes(bank) {
                    self.issued_words += mem.refresh_bank(bank, pulse_t) as u64;
                }
            }
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
    fn flagged_pattern_counts() {
        let p = RefreshPattern::Flagged(vec![true, false, true, false]);
        assert!(p.refreshes(0));
        assert!(!p.refreshes(1));
        assert!(!p.refreshes(7), "missing flags default to disabled");
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

    /// A 1-bank fully-written memory: every pulse refreshes exactly its
    /// `bank_words` words.
    fn pulse_probe() -> (EdramArray, usize) {
        let words = 32;
        let mut mem = EdramArray::new(1, words, RetentionDistribution::kong2008(), 3);
        for i in 0..words {
            mem.write(i, 1, 0.0);
        }
        (mem, words)
    }

    #[test]
    fn unretuned_phase_matches_global_grid() {
        // Split advances at awkward points: by `to` the issuer has fired
        // floor(to/interval) pulses, each refreshing the whole bank.
        let (mut mem, words) = pulse_probe();
        let mut issuer = RefreshIssuer::new(RefreshConfig::conventional(45.0));
        for to in [10.0, 44.9, 45.0, 46.0, 200.0, 203.3, 1000.0] {
            issuer.advance(&mut mem, to);
            let pulses = (to / 45.0).floor() as u64;
            assert_eq!(issuer.pulses_issued(), pulses, "at {to}");
            assert_eq!(issuer.issued_words(), pulses * words as u64, "at {to}");
        }
    }

    #[test]
    #[should_panic(expected = "refresh interval must be finite and positive, got 0 us")]
    fn zero_interval_is_rejected() {
        RefreshIssuer::new(RefreshConfig::conventional(0.0));
    }

    #[test]
    #[should_panic(expected = "refresh interval must be finite and positive, got -1 us")]
    fn negative_interval_is_rejected() {
        RefreshIssuer::new(RefreshConfig::conventional(-1.0));
    }

    #[test]
    #[should_panic(expected = "refresh interval must be finite and positive, got NaN us")]
    fn nan_interval_is_rejected() {
        RefreshIssuer::new(RefreshConfig::conventional(f64::NAN));
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
