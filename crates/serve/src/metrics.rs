//! Latency statistics for serving runs.
//!
//! The serving loop records each tenant's latencies through one
//! `LatencyLog` and merges the tenants at report time. A `Vec<f64>` log
//! keeps every sample and yields exact order statistics
//! ([`LatencyStats`], the one-die [`Server`](crate::Server) report); a
//! [`HistF64`] log keeps log-linear buckets and yields
//! [`LatencySummary`] (the [`FleetSim`](crate::fleet::FleetSim) report,
//! where only histograms fit). Both merges are exact: the vector sums
//! after sorting, and the histogram rebuilds its sum from bucket counts.

use rana_trace::json::Obj;
use rana_trace::metrics::HistF64;

/// A per-tenant latency record the serving loop writes one sample at a
/// time.
pub(crate) trait LatencyLog: Default {
    /// The order statistics a report prints.
    type Summary;
    /// Records one sample, µs.
    fn record(&mut self, us: f64);
    /// Folds `other`'s samples into `self`.
    fn merge(&mut self, other: &Self);
    /// Order statistics of the samples so far.
    fn summary(&mut self) -> Self::Summary;
}

impl LatencyLog for Vec<f64> {
    type Summary = LatencyStats;
    fn record(&mut self, us: f64) {
        self.push(us);
    }
    fn merge(&mut self, other: &Self) {
        self.extend_from_slice(other);
    }
    fn summary(&mut self) -> LatencyStats {
        LatencyStats::of(self)
    }
}

impl LatencyLog for HistF64 {
    type Summary = LatencySummary;
    fn record(&mut self, us: f64) {
        HistF64::record(self, us);
    }
    fn merge(&mut self, other: &Self) {
        HistF64::merge(self, other);
    }
    fn summary(&mut self) -> LatencySummary {
        LatencySummary::of(self)
    }
}

/// Order statistics over a batch of request latencies.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LatencyStats {
    /// Requests the statistics cover.
    pub count: usize,
    /// Mean latency, µs.
    pub mean_us: f64,
    /// Median latency, µs.
    pub p50_us: f64,
    /// 95th-percentile latency, µs.
    pub p95_us: f64,
    /// 99th-percentile latency, µs.
    pub p99_us: f64,
    /// Worst latency, µs.
    pub max_us: f64,
}

impl LatencyStats {
    /// Computes the statistics, sorting `latencies` in place. Empty input
    /// yields all-zero statistics.
    pub fn of(latencies: &mut [f64]) -> Self {
        if latencies.is_empty() {
            return Self::default();
        }
        latencies.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
        let count = latencies.len();
        Self {
            count,
            mean_us: latencies.iter().sum::<f64>() / count as f64,
            p50_us: percentile(latencies, 50.0),
            p95_us: percentile(latencies, 95.0),
            p99_us: percentile(latencies, 99.0),
            max_us: latencies[count - 1],
        }
    }

    /// Deterministic JSON object.
    pub fn to_json(&self) -> String {
        Obj::new()
            .raw("count", self.count)
            .f64("mean_us", self.mean_us)
            .f64("p50_us", self.p50_us)
            .f64("p95_us", self.p95_us)
            .f64("p99_us", self.p99_us)
            .f64("max_us", self.max_us)
            .finish()
    }
}

/// `num / den`, or 0 when `den` is not positive: the rates and shares
/// the reports derive from their counters.
pub(crate) fn ratio(num: f64, den: f64) -> f64 {
    if den <= 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Nearest-rank percentile of an ascending-sorted slice.
///
/// # Panics
///
/// Panics on an empty slice or a percentile outside `(0, 100]`.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty slice");
    assert!(q > 0.0 && q <= 100.0, "percentile {q} outside (0, 100]");
    let rank = (q / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Latency order statistics extracted from a streaming histogram
/// ([`HistF64`] quantiles: log-linear buckets, ≤ ~0.1% relative error at
/// the default precision).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencySummary {
    /// Samples recorded.
    pub count: u64,
    /// Median, µs (0 when empty).
    pub p50_us: f64,
    /// 99th percentile, µs (0 when empty).
    pub p99_us: f64,
    /// Mean, µs (0 when empty).
    pub mean_us: f64,
    /// Maximum, µs (0 when empty).
    pub max_us: f64,
}

impl LatencySummary {
    /// Summarizes a histogram (zeros when it is empty).
    pub fn of(h: &HistF64) -> Self {
        Self {
            count: h.count(),
            p50_us: h.quantile(0.5).unwrap_or(0.0),
            p99_us: h.quantile(0.99).unwrap_or(0.0),
            mean_us: h.mean().unwrap_or(0.0),
            max_us: h.max().unwrap_or(0.0),
        }
    }

    /// Deterministic JSON object.
    pub fn to_json(&self) -> String {
        Obj::new()
            .raw("count", self.count)
            .f64("p50_us", self.p50_us)
            .f64("p99_us", self.p99_us)
            .f64("mean_us", self.mean_us)
            .f64("max_us", self.max_us)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 95.0), 95.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 50.0), 7.0);
    }

    #[test]
    fn stats_of_known_distribution() {
        let mut v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let s = LatencyStats::of(&mut v);
        assert_eq!(s.count, 1000);
        assert_eq!(s.p50_us, 500.0);
        assert_eq!(s.p99_us, 990.0);
        assert_eq!(s.max_us, 1000.0);
        assert!((s.mean_us - 500.5).abs() < 1e-9);
    }

    #[test]
    fn empty_input_is_all_zero() {
        assert_eq!(LatencyStats::of(&mut []), LatencyStats::default());
    }

    #[test]
    fn latency_summary_of_empty_hist_is_zeroed() {
        let s = LatencySummary::of(&HistF64::new());
        assert_eq!(s.count, 0);
        assert_eq!(s.p99_us, 0.0);
        assert!(s.to_json().starts_with("{\"count\":0,"));
    }

    #[test]
    fn latency_summary_tracks_the_histogram() {
        let mut h = HistF64::new();
        for v in [100.0, 200.0, 300.0, 10_000.0] {
            h.record(v);
        }
        let s = LatencySummary::of(&h);
        assert_eq!(s.count, 4);
        assert!(s.p99_us >= s.p50_us);
        assert!((s.max_us - 10_000.0).abs() / 10_000.0 < 0.01);
    }
}
