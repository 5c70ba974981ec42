//! Latency statistics for serving runs.

use rana_trace::json::Obj;

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
}
