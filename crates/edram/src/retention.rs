//! eDRAM retention-time distribution (paper Figure 8, after Kong et al.,
//! ITC 2008).
//!
//! The distribution maps a retention time `t` to the cumulative fraction of
//! cells whose retention is at most `t` (the *retention failure rate* if
//! data is left unrefreshed for `t`). Two anchor points are given in the
//! paper: the weakest cell of a 32 KB bank at (45 µs, 3·10⁻⁶) and a 16×
//! relaxed interval at (734 µs, 10⁻⁵); the curve is extended towards
//! failure rate 1.0 around 10 ms following the figure's visual shape.
//! Between anchors the model interpolates linearly in log-log space.

use rand::RngExt;

/// Cumulative retention-time distribution of an eDRAM array.
///
/// # Example
///
/// ```
/// use rana_edram::RetentionDistribution;
/// let d = RetentionDistribution::kong2008();
/// assert!(d.failure_rate(45.0) <= 3.1e-6);
/// assert!(d.failure_rate(2000.0) > 1e-5);
/// let t = d.tolerable_retention_us(1e-5);
/// assert!((t - 734.0).abs() < 1.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RetentionDistribution {
    /// `(retention_us, cumulative_failure_rate)` anchors, strictly
    /// increasing in both coordinates.
    anchors: Vec<(f64, f64)>,
    /// One [`Segment`] per pair of adjacent anchors: the logarithms the
    /// interpolation needs, taken once.
    segments: Vec<Segment>,
}

/// The log-log line through two adjacent anchors `(t0, f0)`, `(t1, f1)`.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Segment {
    /// `log10 t0`.
    log_t0: f64,
    /// `log10 f0`.
    log_f0: f64,
    /// `(log10 f1 − log10 f0) / (log10 t1 − log10 t0)`.
    slope: f64,
}

impl RetentionDistribution {
    /// The distribution used throughout the paper (Figure 8, from \[6\]):
    /// weakest cell at 45 µs, failure rate 10⁻⁵ at 734 µs.
    ///
    /// The anchors beyond 10⁻⁵ are extrapolated from the figure's shape
    /// (the curve reaches ~100% failures around 10 ms); only the first two
    /// anchors are used by the paper's headline configurations.
    pub fn kong2008() -> Self {
        Self::from_anchors(vec![
            (45.0, 3e-6),
            (734.0, 1e-5),
            (2400.0, 1e-4),
            (4400.0, 1e-3),
            (7000.0, 1e-2),
            (10_000.0, 1e-1),
            (20_000.0, 1.0),
        ])
        .expect("built-in anchors are valid")
    }

    /// Builds a distribution from `(retention_us, cumulative_rate)` anchors.
    ///
    /// # Errors
    ///
    /// Returns an error unless the anchors are strictly increasing in both
    /// time and rate, with rates in `(0, 1]`.
    pub fn from_anchors(anchors: Vec<(f64, f64)>) -> Result<Self, InvalidDistributionError> {
        if anchors.len() < 2 {
            return Err(InvalidDistributionError("need at least two anchors".into()));
        }
        for window in anchors.windows(2) {
            let (t0, f0) = window[0];
            let (t1, f1) = window[1];
            if !(t0 > 0.0 && t1 > t0) {
                return Err(InvalidDistributionError(format!(
                    "retention times must be positive and strictly increasing ({t0} -> {t1})"
                )));
            }
            if !(f0 > 0.0 && f1 > f0 && f1 <= 1.0) {
                return Err(InvalidDistributionError(format!(
                    "failure rates must be strictly increasing within (0, 1] ({f0} -> {f1})"
                )));
            }
        }
        Ok(Self::with_anchors(anchors))
    }

    /// The distribution through validated `anchors`, with its segment
    /// table.
    fn with_anchors(anchors: Vec<(f64, f64)>) -> Self {
        let segments = anchors
            .windows(2)
            .map(|pair| {
                let ((t0, f0), (t1, f1)) = (pair[0], pair[1]);
                Segment {
                    log_t0: t0.log10(),
                    log_f0: f0.log10(),
                    slope: (f1.log10() - f0.log10()) / (t1.log10() - t0.log10()),
                }
            })
            .collect();
        Self { anchors, segments }
    }

    /// The conventional refresh interval: retention time of the weakest
    /// cell (first anchor), 45 µs for [`kong2008`](Self::kong2008).
    pub fn typical_retention_us(&self) -> f64 {
        self.anchors[0].0
    }

    /// Cumulative fraction of cells with retention time at most `t_us`
    /// (the bit failure rate when data ages `t_us` without refresh).
    ///
    /// Below the first anchor the curve is extrapolated with the first
    /// segment's log-log slope; above the last anchor it saturates at the
    /// last anchor's rate (1.0 for the built-in distribution).
    pub fn failure_rate(&self, t_us: f64) -> f64 {
        if t_us <= 0.0 {
            return 0.0;
        }
        let a = &self.anchors;
        if t_us >= a[a.len() - 1].0 {
            return a[a.len() - 1].1;
        }
        // Find the surrounding segment (or extrapolate below the first).
        let seg = match a.iter().position(|&(t, _)| t > t_us) {
            Some(0) | None => 0,
            Some(i) => i - 1,
        };
        let s = self.segments[seg];
        let log_f = s.log_f0 + s.slope * (t_us.log10() - s.log_t0);
        10f64.powf(log_f).min(1.0)
    }

    /// The longest retention time whose failure rate does not exceed
    /// `rate` — the *tolerable retention time* for a network trained to
    /// tolerate `rate` (paper §IV-B).
    ///
    /// Composed with [`Self::at_temperature_delta`] this is the retention
    /// lookup at an operating temperature — the quantity the thermal loop
    /// re-derives at every sensed boundary (retention roughly halves per
    /// +10 °C):
    ///
    /// ```
    /// use rana_edram::RetentionDistribution;
    ///
    /// let dist = RetentionDistribution::kong2008();
    /// let nominal_us = dist.tolerable_retention_us(1e-5); // ≈ 734 µs
    /// let hot_us = dist.at_temperature_delta(20.0).tolerable_retention_us(1e-5);
    /// assert!((hot_us / nominal_us - 0.25).abs() < 0.01); // two octaves down
    /// ```
    ///
    /// # Panics
    ///
    /// Panics unless `rate` is within `(0, 1]`.
    pub fn tolerable_retention_us(&self, rate: f64) -> f64 {
        assert!(rate > 0.0 && rate <= 1.0, "rate must be in (0, 1], got {rate}");
        let a = &self.anchors;
        // Below the first anchor, extrapolate with the first segment's
        // slope (inverse of failure_rate's extrapolation).
        let seg = if rate <= a[0].1 {
            0
        } else if rate >= a[a.len() - 1].1 {
            return a[a.len() - 1].0;
        } else {
            a.iter().position(|&(_, f)| f > rate).unwrap_or(a.len() - 1) - 1
        };
        let s = self.segments[seg];
        let log_t = s.log_t0 + (rate.log10() - s.log_f0) / s.slope;
        10f64.powf(log_t)
    }

    /// Samples the retention time of one cell (inverse-CDF of a uniform
    /// quantile). Most samples land at the distribution's tail — the last
    /// anchor's retention time — because the overwhelming majority of cells
    /// are strong.
    pub fn sample_cell_retention_us<R: RngExt + ?Sized>(&self, rng: &mut R) -> f64 {
        self.retention_at_quantile(rng.random::<f64>())
    }

    /// Retention time of the cell at cumulative quantile `q ∈ [0, 1)`.
    /// Deterministic companion of
    /// [`sample_cell_retention_us`](Self::sample_cell_retention_us).
    pub fn retention_at_quantile(&self, q: f64) -> f64 {
        let q = q.clamp(0.0, 1.0);
        let a = &self.anchors;
        if q >= a[a.len() - 1].1 {
            return a[a.len() - 1].0;
        }
        if q <= 0.0 {
            return 0.0;
        }
        self.tolerable_retention_us(q.max(f64::MIN_POSITIVE))
    }

    /// The anchor points.
    pub fn anchors(&self) -> &[(f64, f64)] {
        &self.anchors
    }

    /// The distribution at a die temperature `delta_c` degrees above the
    /// characterization point: leakage roughly doubles per +10 °C, so
    /// every retention time scales by `2^(-delta_c / 10)` (cf. the DRAM
    /// retention literature the paper builds on).
    ///
    /// # Example
    ///
    /// ```
    /// use rana_edram::RetentionDistribution;
    /// let hot = RetentionDistribution::kong2008().at_temperature_delta(20.0);
    /// // The weakest cell drops from 45 us to ~11 us.
    /// assert!((hot.typical_retention_us() - 11.25).abs() < 0.01);
    /// ```
    pub fn at_temperature_delta(&self, delta_c: f64) -> Self {
        let scale = 2f64.powf(-delta_c / 10.0);
        Self::with_anchors(self.anchors.iter().map(|&(t, f)| (t * scale, f)).collect())
    }
}

impl Default for RetentionDistribution {
    fn default() -> Self {
        Self::kong2008()
    }
}

/// Error for malformed retention anchor tables.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvalidDistributionError(String);

impl std::fmt::Display for InvalidDistributionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid retention distribution: {}", self.0)
    }
}

impl std::error::Error for InvalidDistributionError {}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::{rngs::StdRng, SeedableRng};

    /// `failure_rate` as it read before the segment table: every logarithm
    /// taken from the anchors on each call.
    fn per_call_failure_rate(a: &[(f64, f64)], t_us: f64) -> f64 {
        if t_us <= 0.0 {
            return 0.0;
        }
        if t_us >= a[a.len() - 1].0 {
            return a[a.len() - 1].1;
        }
        let seg = match a.iter().position(|&(t, _)| t > t_us) {
            Some(0) | None => 0,
            Some(i) => i - 1,
        };
        let (t0, f0) = a[seg];
        let (t1, f1) = a[seg + 1];
        let slope = (f1.log10() - f0.log10()) / (t1.log10() - t0.log10());
        let log_f = f0.log10() + slope * (t_us.log10() - t0.log10());
        10f64.powf(log_f).min(1.0)
    }

    /// `tolerable_retention_us` as it read before the segment table.
    fn per_call_tolerable_retention_us(a: &[(f64, f64)], rate: f64) -> f64 {
        if rate <= a[0].1 {
            let (t0, f0) = a[0];
            let (t1, f1) = a[1];
            let slope = (f1.log10() - f0.log10()) / (t1.log10() - t0.log10());
            let log_t = t0.log10() + (rate.log10() - f0.log10()) / slope;
            return 10f64.powf(log_t);
        }
        if rate >= a[a.len() - 1].1 {
            return a[a.len() - 1].0;
        }
        let seg = a.iter().position(|&(_, f)| f > rate).unwrap_or(a.len() - 1) - 1;
        let (t0, f0) = a[seg];
        let (t1, f1) = a[seg + 1];
        let slope = (f1.log10() - f0.log10()) / (t1.log10() - t0.log10());
        let log_t = t0.log10() + (rate.log10() - f0.log10()) / slope;
        10f64.powf(log_t)
    }

    /// kong2008 and the same cells 30 °C hotter and colder.
    fn distributions() -> [RetentionDistribution; 3] {
        let d = RetentionDistribution::kong2008();
        [d.at_temperature_delta(30.0), d.at_temperature_delta(-30.0), d]
    }

    /// Both lookups agree with the per-call formulas by `to_bits` at `t_us`
    /// and at `rate`.
    fn lookups_match(d: &RetentionDistribution, t_us: f64, rate: f64) -> TestCaseResult {
        let a = d.anchors();
        let (got, want) = (d.failure_rate(t_us), per_call_failure_rate(a, t_us));
        prop_assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "failure_rate({}): {} vs {}",
            t_us,
            got,
            want
        );
        let (got, want) =
            (d.tolerable_retention_us(rate), per_call_tolerable_retention_us(a, rate));
        prop_assert_eq!(got.to_bits(), want.to_bits(), "tolerable({}): {} vs {}", rate, got, want);
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The segment table changes no bit of either lookup. Piece `k`
        /// picks a time and a rate below the first anchor (`k = 0`),
        /// between anchors `k − 1` and `k`, or above the last anchor, at a
        /// log-uniform position `frac` of the piece.
        #[test]
        fn table_lookups_equal_the_per_call_formulas(
            which in 0usize..3,
            piece in 0usize..8,
            frac in 0.0f64..1.0,
        ) {
            let d = &distributions()[which];
            let a = d.anchors();
            let piece = piece.min(a.len());
            let between = |lo: f64, hi: f64| 10f64.powf(lo.log10() + frac * (hi.log10() - lo.log10()));
            let (t_us, rate) = if piece == 0 {
                (between(a[0].0 * 1e-3, a[0].0), between(a[0].1 * 1e-6, a[0].1))
            } else if piece == a.len() {
                (between(a[piece - 1].0, a[piece - 1].0 * 1e3), a[piece - 1].1)
            } else {
                (between(a[piece - 1].0, a[piece].0), between(a[piece - 1].1, a[piece].1))
            };
            lookups_match(d, t_us, rate)?;
        }
    }

    /// At every anchor and one ulp to either side of it, in time and in
    /// rate, the segment table changes no bit of either lookup.
    #[test]
    fn table_lookups_equal_the_per_call_formulas_at_the_anchors() {
        for d in distributions() {
            for &(t, f) in d.anchors() {
                for (t_us, rate) in [(t.next_down(), f.next_down()), (t, f), (t.next_up(), f)] {
                    lookups_match(&d, t_us, rate).unwrap();
                }
                if f < 1.0 {
                    lookups_match(&d, t, f.next_up()).unwrap();
                }
            }
        }
    }

    #[test]
    fn paper_anchor_points() {
        let d = RetentionDistribution::kong2008();
        assert!((d.failure_rate(45.0) - 3e-6).abs() < 1e-7);
        assert!((d.failure_rate(734.0) - 1e-5).abs() < 1e-6);
        assert!((d.tolerable_retention_us(3e-6) - 45.0).abs() < 0.5);
        assert!((d.tolerable_retention_us(1e-5) - 734.0).abs() < 1.0);
    }

    #[test]
    fn failure_rate_is_monotone() {
        let d = RetentionDistribution::kong2008();
        let mut prev = 0.0;
        for i in 1..2000 {
            let t = i as f64 * 20.0;
            let f = d.failure_rate(t);
            assert!(f >= prev, "rate decreased at t={t}");
            prev = f;
        }
    }

    /// The curve does not dip where two log-log segments meet, even by an
    /// ulp: `EdramArray`'s refresh prices a whole bank at its oldest
    /// charge, which is exact only if no younger word fails at a higher
    /// rate.
    #[test]
    fn failure_rate_does_not_dip_at_an_anchor() {
        for d in distributions() {
            for &(t, _) in d.anchors() {
                let mut ts = vec![t];
                for _ in 0..64 {
                    ts.insert(0, ts[0].next_down());
                    ts.push(ts[ts.len() - 1].next_up());
                }
                let rates: Vec<f64> = ts.iter().map(|&t| d.failure_rate(t)).collect();
                for (pair, w) in rates.windows(2).zip(ts.windows(2)) {
                    assert!(pair[0] <= pair[1], "rate falls from {} to {}", w[0], w[1]);
                }
            }
        }
    }

    #[test]
    fn rate_and_retention_are_inverse() {
        let d = RetentionDistribution::kong2008();
        for rate in [3e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1] {
            let t = d.tolerable_retention_us(rate);
            let back = d.failure_rate(t);
            assert!((back.log10() - rate.log10()).abs() < 0.02, "rate {rate}: t {t}, back {back}");
        }
    }

    #[test]
    fn saturates_at_one() {
        let d = RetentionDistribution::kong2008();
        assert_eq!(d.failure_rate(1e9), 1.0);
        assert_eq!(d.failure_rate(0.0), 0.0);
    }

    #[test]
    fn most_cells_are_strong() {
        let d = RetentionDistribution::kong2008();
        let mut rng = StdRng::seed_from_u64(11);
        let weak = (0..100_000).filter(|_| d.sample_cell_retention_us(&mut rng) < 734.0).count();
        // P(retention < 734 µs) = 1e-5, so ~1 in 100k samples.
        assert!(weak <= 5, "sampled {weak} weak cells in 100k");
    }

    #[test]
    fn quantile_mapping_matches_cdf() {
        let d = RetentionDistribution::kong2008();
        let t = d.retention_at_quantile(1e-5);
        assert!((t - 734.0).abs() < 1.0);
        let tail = d.retention_at_quantile(0.9999);
        assert!((tail - 20_000.0).abs() < 20.0, "tail {tail}");
        assert_eq!(d.retention_at_quantile(1.0), 20_000.0);
    }

    #[test]
    fn rejects_malformed_anchors() {
        assert!(RetentionDistribution::from_anchors(vec![(45.0, 1e-6)]).is_err());
        assert!(RetentionDistribution::from_anchors(vec![(45.0, 1e-6), (40.0, 1e-5)]).is_err());
        assert!(RetentionDistribution::from_anchors(vec![(45.0, 1e-5), (90.0, 1e-6)]).is_err());
        assert!(RetentionDistribution::from_anchors(vec![(45.0, 1e-5), (90.0, 1.5)]).is_err());
    }

    #[test]
    fn sixteen_x_interval() {
        // §IV-B: "we can use a 16x refresh interval with a cell failure
        // rate of only 1e-5".
        let d = RetentionDistribution::kong2008();
        let ratio = d.tolerable_retention_us(1e-5) / d.typical_retention_us();
        assert!((ratio - 16.3).abs() < 0.2, "ratio {ratio}");
    }
}
