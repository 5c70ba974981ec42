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
use rana_trace::metrics::HistF64;
use rana_trace::{json_f64, json_string};

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
        format!(
            "{{\"count\":{},\"p50_us\":{},\"p99_us\":{},\"mean_us\":{},\"max_us\":{}}}",
            self.count,
            json_f64(self.p50_us),
            json_f64(self.p99_us),
            json_f64(self.mean_us),
            json_f64(self.max_us)
        )
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
        format!(
            concat!(
                "{{\"name\":{},\"weight\":{},\"isolated_us\":{},\"offered\":{},",
                "\"served\":{},\"admission_drops\":{},\"deadline_drops\":{},",
                "\"unroutable_drops\":{},\"rerouted\":{},\"late_served\":{},",
                "\"miss_rate\":{},\"latency\":{}}}"
            ),
            json_string(&self.name),
            json_f64(self.weight),
            json_f64(self.isolated_us),
            self.offered,
            self.served,
            self.admission_drops,
            self.deadline_drops,
            self.unroutable_drops,
            self.rerouted,
            self.late_served,
            json_f64(self.miss_rate()),
            self.latency.to_json()
        )
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
        let e = self.energy;
        let tenants: Vec<String> = self.tenants.iter().map(FleetTenantReport::to_json).collect();
        format!(
            concat!(
                "{{\"design\":{},\"router\":\"{}\",\"num_dies\":{},\"shard_size\":{},",
                "\"traffic\":\"{}\",\"rate_rps\":{},\"seed\":{},\"horizon_us\":{},",
                "\"offered\":{},\"served\":{},\"admission_drops\":{},\"deadline_drops\":{},",
                "\"unroutable_drops\":{},\"late_served\":{},\"deadline_miss_rate\":{},",
                "\"batches\":{},\"cold_schedules\":{},\"compile_stall_us\":{},\"retunes\":{},",
                "\"die_failures\":{},\"die_drains\":{},\"rerouted_crash\":{},",
                "\"rerouted_drain\":{},\"lost_in_flight\":{},\"wasted_j\":{},",
                "\"offered_per_hour\":{},\"throughput_rps\":{},",
                "\"latency\":{},\"queue_wait\":{},",
                "\"energy\":{{\"computing_j\":{},\"buffer_j\":{},\"refresh_j\":{},\"offchip_j\":{}}},",
                "\"energy_per_inference_j\":{},\"refresh_share\":{},\"refresh_words\":{},",
                "\"peak_temp_c\":{},\"min_interval_us\":{},\"nominal_interval_us\":{},",
                "\"makespan_us\":{},\"die_served_min\":{},\"die_served_max\":{},",
                "\"die_served_mean\":{},\"load_imbalance\":{},",
                "\"disrupted_offered\":{},\"disrupted_misses\":{},\"disruption_miss_rate\":{},",
                "\"profile_entries\":{},\"tenants\":[{}]}}"
            ),
            json_string(&self.design),
            self.router.label(),
            self.num_dies,
            self.shard_size.map_or("null".to_string(), |s| s.to_string()),
            self.traffic.label(),
            json_f64(self.traffic.rate_rps()),
            self.seed,
            json_f64(self.horizon_us),
            self.offered,
            self.served,
            self.admission_drops,
            self.deadline_drops,
            self.unroutable_drops,
            self.late_served,
            json_f64(self.deadline_miss_rate()),
            self.batches,
            self.cold_schedules,
            json_f64(self.compile_stall_us),
            self.retunes,
            self.die_failures,
            self.die_drains,
            self.rerouted_crash,
            self.rerouted_drain,
            self.lost_in_flight,
            json_f64(self.wasted_j),
            json_f64(self.offered_per_hour()),
            json_f64(self.throughput_rps()),
            self.latency.to_json(),
            self.queue_wait.to_json(),
            json_f64(e.computing_j),
            json_f64(e.buffer_j),
            json_f64(e.refresh_j),
            json_f64(e.offchip_j),
            json_f64(self.energy_per_inference_j()),
            json_f64(self.refresh_share()),
            self.refresh_words,
            json_f64(self.peak_temp_c),
            json_f64(self.min_interval_us),
            json_f64(self.nominal_interval_us),
            json_f64(self.makespan_us),
            self.die_served_min,
            self.die_served_max,
            json_f64(self.die_served_mean),
            json_f64(self.load_imbalance()),
            self.disrupted_offered,
            self.disrupted_misses,
            json_f64(self.disruption_miss_rate()),
            self.profile_entries,
            tenants.join(",")
        )
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
