//! The deterministic fleet-run report.
//!
//! Latency order statistics come straight from
//! [`rana_trace::metrics::HistF64`] quantiles (log-linear buckets, ≤ ~0.1%
//! relative error at the default precision) rather than from sorting raw
//! samples — at fleet scale the histograms are the only thing that fits,
//! and the bench artifacts inherit their determinism.

use crate::router::RouterPolicy;
use rana_core::energy::EnergyBreakdown;
use rana_serve::TrafficModel;
use rana_trace::json::{array, json_opt, Obj};
use rana_trace::metrics::HistF64;

/// Latency order statistics extracted from a streaming histogram.
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

/// Per-tenant slice of a [`FleetReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct FleetTenantReport {
    /// Network name.
    pub name: String,
    /// Configured rate multiplier.
    pub weight: f64,
    /// Solo (full-buffer, nominal-interval) inference latency, µs.
    pub isolated_us: f64,
    /// Requests offered by the tenant's arrival stream.
    pub offered: u64,
    /// Requests served to completion.
    pub served: u64,
    /// Arrivals dropped at a die's queue cap.
    pub admission_drops: u64,
    /// Requests dropped for missing their deadline.
    pub deadline_drops: u64,
    /// Requests dropped because no die in the shard accepted work.
    pub unroutable_drops: u64,
    /// Requests moved between dies by crashes or drains.
    pub rerouted: u64,
    /// Requests served to completion but past their deadline.
    pub late_served: u64,
    /// Latency order statistics.
    pub latency: LatencySummary,
}

impl FleetTenantReport {
    /// Deadline misses (drops, late completions, unroutable) per offered
    /// request (0 when nothing was offered).
    pub fn miss_rate(&self) -> f64 {
        if self.offered == 0 {
            0.0
        } else {
            (self.deadline_drops + self.late_served + self.unroutable_drops) as f64
                / self.offered as f64
        }
    }

    fn to_json(&self) -> String {
        Obj::new()
            .str("name", &self.name)
            .f64("weight", self.weight)
            .f64("isolated_us", self.isolated_us)
            .raw("offered", self.offered)
            .raw("served", self.served)
            .raw("admission_drops", self.admission_drops)
            .raw("deadline_drops", self.deadline_drops)
            .raw("unroutable_drops", self.unroutable_drops)
            .raw("rerouted", self.rerouted)
            .raw("late_served", self.late_served)
            .f64("miss_rate", self.miss_rate())
            .raw("latency", self.latency.to_json())
            .finish()
    }
}

/// The summary of one fleet run. [`FleetReport::to_json`] is
/// byte-deterministic for a fixed configuration and seed.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetReport {
    /// Design label.
    pub design: String,
    /// Router policy the run used.
    pub router: RouterPolicy,
    /// Cluster size.
    pub num_dies: usize,
    /// Tenant shard size (`None` = whole cluster).
    pub shard_size: Option<usize>,
    /// The arrival process.
    pub traffic: TrafficModel,
    /// Master seed.
    pub seed: u64,
    /// Arrival horizon, µs.
    pub horizon_us: f64,
    /// Requests offered.
    pub offered: u64,
    /// Requests served.
    pub served: u64,
    /// Arrivals dropped at die queue caps.
    pub admission_drops: u64,
    /// Requests dropped for missing their deadline.
    pub deadline_drops: u64,
    /// Requests dropped with no accepting die in the shard.
    pub unroutable_drops: u64,
    /// Requests served to completion but past their deadline.
    pub late_served: u64,
    /// Batches dispatched.
    pub batches: u64,
    /// Batches that paid the cold-schedule penalty.
    pub cold_schedules: u64,
    /// Modeled time stalled on fresh Stage-2 searches, µs
    /// (`compile_penalty_us` × fresh searches; always 0 at the default
    /// penalty of 0, and near 0 for warm-started runs).
    pub compile_stall_us: f64,
    /// Refresh-divider retunes across all dies.
    pub retunes: u64,
    /// Crash events applied.
    pub die_failures: u64,
    /// Drain events applied.
    pub die_drains: u64,
    /// Requests rerouted by crashes.
    pub rerouted_crash: u64,
    /// Requests rerouted by drains.
    pub rerouted_drain: u64,
    /// Requests that were in flight on a crashing die.
    pub lost_in_flight: u64,
    /// Energy spent on batches that a crash then threw away, joules.
    pub wasted_j: f64,
    /// Fleet-wide latency order statistics.
    pub latency: LatencySummary,
    /// Fleet-wide queue-wait (arrival → dispatch) statistics.
    pub queue_wait: LatencySummary,
    /// Total Eq. 14 energy of completed work.
    pub energy: EnergyBreakdown,
    /// Total refresh operations.
    pub refresh_words: u64,
    /// Peak junction temperature across all dies, °C.
    pub peak_temp_c: f64,
    /// Tightest operating interval any die used, µs.
    pub min_interval_us: f64,
    /// Divider-quantized nominal interval, µs.
    pub nominal_interval_us: f64,
    /// Time the last batch completed, µs.
    pub makespan_us: f64,
    /// Fewest requests any die served.
    pub die_served_min: u64,
    /// Most requests any die served.
    pub die_served_max: u64,
    /// Mean requests served per die.
    pub die_served_mean: f64,
    /// Arrivals that landed while a die was down or draining.
    pub disrupted_offered: u64,
    /// Deadline/unroutable misses inside disruption windows.
    pub disrupted_misses: u64,
    /// Distinct `(tenant, rung)` execution profiles the run touched.
    pub profile_entries: u64,
    /// Per-tenant slices.
    pub tenants: Vec<FleetTenantReport>,
}

impl FleetReport {
    /// Served requests per second of makespan.
    pub fn throughput_rps(&self) -> f64 {
        if self.makespan_us <= 0.0 {
            0.0
        } else {
            self.served as f64 / (self.makespan_us * 1e-6)
        }
    }

    /// Offered load scaled to requests per simulated hour.
    pub fn offered_per_hour(&self) -> f64 {
        if self.horizon_us <= 0.0 {
            0.0
        } else {
            self.offered as f64 * 3.6e9 / self.horizon_us
        }
    }

    /// Total energy per served inference, joules (0 when nothing
    /// served).
    pub fn energy_per_inference_j(&self) -> f64 {
        if self.served == 0 {
            0.0
        } else {
            self.energy.total_j() / self.served as f64
        }
    }

    /// Refresh share of the total energy.
    pub fn refresh_share(&self) -> f64 {
        let total = self.energy.total_j();
        if total <= 0.0 {
            0.0
        } else {
            self.energy.refresh_j / total
        }
    }

    /// Deadline misses (drops, late completions, unroutable) per offered
    /// request.
    pub fn deadline_miss_rate(&self) -> f64 {
        if self.offered == 0 {
            0.0
        } else {
            (self.deadline_drops + self.late_served + self.unroutable_drops) as f64
                / self.offered as f64
        }
    }

    /// Miss rate over arrivals inside disruption (drain/crash) windows —
    /// the price of losing dies, isolated from steady-state behavior.
    pub fn disruption_miss_rate(&self) -> f64 {
        if self.disrupted_offered == 0 {
            0.0
        } else {
            self.disrupted_misses as f64 / self.disrupted_offered as f64
        }
    }

    /// Most-loaded die's served count over the per-die mean — 1.0 is a
    /// perfectly balanced fleet (0 when nothing was served).
    pub fn load_imbalance(&self) -> f64 {
        if self.die_served_mean <= 0.0 {
            0.0
        } else {
            self.die_served_max as f64 / self.die_served_mean
        }
    }

    /// Serializes the run to a compact, deterministic JSON object.
    pub fn to_json(&self) -> String {
        Obj::new()
            .str("design", &self.design)
            .str("router", self.router.label())
            .raw("num_dies", self.num_dies)
            .raw("shard_size", json_opt(self.shard_size))
            .str("traffic", self.traffic.label())
            .f64("rate_rps", self.traffic.rate_rps())
            .raw("seed", self.seed)
            .f64("horizon_us", self.horizon_us)
            .raw("offered", self.offered)
            .raw("served", self.served)
            .raw("admission_drops", self.admission_drops)
            .raw("deadline_drops", self.deadline_drops)
            .raw("unroutable_drops", self.unroutable_drops)
            .raw("late_served", self.late_served)
            .f64("deadline_miss_rate", self.deadline_miss_rate())
            .raw("batches", self.batches)
            .raw("cold_schedules", self.cold_schedules)
            .f64("compile_stall_us", self.compile_stall_us)
            .raw("retunes", self.retunes)
            .raw("die_failures", self.die_failures)
            .raw("die_drains", self.die_drains)
            .raw("rerouted_crash", self.rerouted_crash)
            .raw("rerouted_drain", self.rerouted_drain)
            .raw("lost_in_flight", self.lost_in_flight)
            .f64("wasted_j", self.wasted_j)
            .f64("offered_per_hour", self.offered_per_hour())
            .f64("throughput_rps", self.throughput_rps())
            .raw("latency", self.latency.to_json())
            .raw("queue_wait", self.queue_wait.to_json())
            .raw("energy", self.energy.ledger().to_json())
            .f64("energy_per_inference_j", self.energy_per_inference_j())
            .f64("refresh_share", self.refresh_share())
            .raw("refresh_words", self.refresh_words)
            .f64("peak_temp_c", self.peak_temp_c)
            .f64("min_interval_us", self.min_interval_us)
            .f64("nominal_interval_us", self.nominal_interval_us)
            .f64("makespan_us", self.makespan_us)
            .raw("die_served_min", self.die_served_min)
            .raw("die_served_max", self.die_served_max)
            .f64("die_served_mean", self.die_served_mean)
            .f64("load_imbalance", self.load_imbalance())
            .raw("disrupted_offered", self.disrupted_offered)
            .raw("disrupted_misses", self.disrupted_misses)
            .f64("disruption_miss_rate", self.disruption_miss_rate())
            .raw("profile_entries", self.profile_entries)
            .raw("tenants", array(self.tenants.iter().map(FleetTenantReport::to_json)))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
