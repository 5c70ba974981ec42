//! The single-die serving simulator.
//!
//! One simulated RANA accelerator serves a mix of tenant networks; each
//! tenant queues in its own slot and owns a partition of the banked eDRAM
//! unified buffer. [`Server`] is the one-die shape of the serving loop
//! that [`FleetSim`](crate::fleet::FleetSim) also runs: one die with one
//! slot per tenant, one shared arrival generator, no warm-set penalty and
//! no failure plan. The loop itself (the per-batch operating-point steps,
//! the event order and the compile-stall model) is documented in
//! `engine.rs`, and how its schedule lookups reuse the evaluator's cache
//! in the crate docs.

use crate::engine::{Engine, Shape};
use crate::fleet::{FleetConfig, RouterPolicy};
use crate::metrics::{ratio, LatencyLog, LatencyStats};
use crate::partition::PartitionPolicy;
use crate::traffic::{ArrivalStreams, TrafficModel};
use rana_core::designs::Design;
use rana_core::energy::EnergyBreakdown;
use rana_core::evaluate::Evaluator;
use rana_core::policy::Strategy;
use rana_trace::json::{array, Obj};
use rana_zoo::Network;

/// One tenant of the serving mix.
#[derive(Debug, Clone)]
pub struct TenantSpec {
    /// The tenant's network.
    pub network: Network,
    /// Share of the offered load (normalized over the mix).
    pub weight: f64,
    /// Deadline slack: a request arriving at `t` must finish by
    /// `t + slack · isolated_latency` or it is dropped at dispatch.
    pub deadline_slack: f64,
    /// Most requests servable back to back with weights held resident
    /// (weight DRAM loads are paid once per batch, not per request).
    pub max_batch: usize,
    /// Refresh strategy for this tenant's layers; `None` follows the
    /// design's controller kind (the byte-compatible legacy path).
    pub strategy: Option<Strategy>,
}

impl TenantSpec {
    /// A tenant with the default serving knobs (8× deadline slack,
    /// batches of up to 4).
    pub fn new(network: Network, weight: f64) -> Self {
        Self { network, weight, deadline_slack: 8.0, max_batch: 4, strategy: None }
    }

    /// Pins the tenant to an explicit refresh strategy.
    pub fn with_strategy(mut self, strategy: Strategy) -> Self {
        self.strategy = Some(strategy);
        self
    }
}

/// Dispatch order among tenant queues.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueuePolicy {
    /// Oldest waiting request first.
    Fifo,
    /// Earliest deadline first.
    Edf,
}

impl QueuePolicy {
    /// Stable lowercase label (used in JSON and CSV output).
    pub fn label(&self) -> &'static str {
        match self {
            QueuePolicy::Fifo => "fifo",
            QueuePolicy::Edf => "edf",
        }
    }
}

/// Configuration of one serving run. The model's fixed knobs are
/// constants: the queue cap ([`QUEUE_CAP`](crate::QUEUE_CAP)), partition
/// floor ([`MIN_BANKS`](crate::MIN_BANKS)), rebalance epoch
/// ([`REBALANCE_US`](crate::REBALANCE_US)) and the thermal policy of
/// [`rana_core::operating`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Design point (must buffer in eDRAM).
    pub design: Design,
    /// Dispatch order among tenant queues.
    pub queue_policy: QueuePolicy,
    /// How the buffer's banks are split across tenants.
    pub partition_policy: PartitionPolicy,
    /// The arrival process.
    pub traffic: TrafficModel,
    /// Arrivals are generated over `[0, horizon_us)`; the run then drains
    /// the queues.
    pub horizon_us: f64,
    /// Seed of the arrival stream (the serving loop itself is seed-free).
    pub seed: u64,
    /// Dynamic shares grow in slices of this many banks (bounds the set
    /// of distinct partition sizes the schedule cache must absorb).
    pub bank_quantum: usize,
    /// Modeled stall per fresh Stage-2 layer search, µs, charged once
    /// when the profile that needed it is first dispatched. `0` (the
    /// default, and the committed-baseline behavior) prices compilation as
    /// free; a positive value makes cold starts visible in tail latency.
    /// Searches absorbed by a warm-started schedule cache (see
    /// `rana_core::store`) are never charged.
    pub compile_penalty_us: f64,
}

impl ServeConfig {
    /// Paper-platform defaults: RANA*(E-5), FIFO, static partitioning,
    /// 1 s horizon, a 4-bank quantum and free compilation.
    pub fn paper(traffic: TrafficModel, seed: u64) -> Self {
        Self {
            design: Design::RanaStarE5,
            queue_policy: QueuePolicy::Fifo,
            partition_policy: PartitionPolicy::Static,
            traffic,
            horizon_us: 1e6,
            seed,
            bank_quantum: 4,
            compile_penalty_us: 0.0,
        }
    }
}

/// The serving simulator. Build with [`Server::new`], drive to completion
/// with [`Server::run`].
#[derive(Debug)]
pub struct Server<'a>(Engine<'a, Vec<f64>>);

impl<'a> Server<'a> {
    /// Builds a server over `eval`'s platform (and its shared schedule
    /// cache).
    ///
    /// # Panics
    ///
    /// Panics if the design does not buffer in eDRAM, the mix is empty or
    /// carries non-positive weights, or the partition floor does not fit
    /// the buffer.
    pub fn new(eval: &'a Evaluator, specs: Vec<TenantSpec>, config: ServeConfig) -> Self {
        let fleet = FleetConfig {
            design: config.design,
            horizon_us: config.horizon_us,
            compile_penalty_us: config.compile_penalty_us,
            ..FleetConfig::paper(specs, config.traffic, 1, RouterPolicy::RoundRobin, config.seed)
        };
        let shape = Shape {
            slot_per_tenant: true,
            queue_policy: config.queue_policy,
            partition_policy: config.partition_policy,
            bank_quantum: config.bank_quantum,
            arrivals: ArrivalStreams::Shared,
            warm_penalty_us: 0.0,
            scope: "serve",
            profile_scope: "tenant",
        };
        Self(Engine::new(eval, fleet, shape))
    }

    /// Runs the whole scenario (draw arrivals, serve until the stream and
    /// the queues are empty) and returns the report.
    pub fn run(self) -> ServeReport {
        let mut e = self.0.run();
        let die = &e.dies[0];
        let tenants: Vec<TenantReport> = e
            .tenants
            .iter_mut()
            .zip(&e.config.tenants)
            .zip(&die.slots)
            .zip(&e.isolated_us)
            .map(|(((ts, spec), slot), &isolated_us)| TenantReport {
                name: spec.network.name().to_string(),
                weight: spec.weight,
                banks: slot.banks,
                isolated_us,
                offered: ts.offered,
                served: ts.served,
                batches: ts.batches,
                admission_drops: ts.admission_drops,
                deadline_drops: ts.deadline_drops,
                retunes: slot.retunes,
                rescheduled_layer_execs: ts.rescheduled_layer_execs,
                flagged_banks_peak: ts.flagged_banks_peak,
                divider_ratio: slot.divider_ratio,
                latency: ts.latency.summary(),
                queue_wait: ts.queue_wait.summary(),
                late_served: ts.late_served,
                energy: ts.energy,
            })
            .collect();
        let (mut all, mut all_waits) = (Vec::new(), Vec::new());
        for ts in &e.tenants {
            all.merge(&ts.latency);
            all_waits.merge(&ts.queue_wait);
        }
        let sum = |f: fn(&TenantReport) -> u64| tenants.iter().map(f).sum::<u64>();
        ServeReport {
            design: e.config.design.label().to_string(),
            queue_policy: e.shape.queue_policy,
            partition_policy: e.shape.partition_policy,
            traffic: e.config.traffic,
            seed: e.config.seed,
            horizon_us: e.config.horizon_us,
            offered: sum(|t| t.offered),
            served: sum(|t| t.served),
            admission_drops: sum(|t| t.admission_drops),
            deadline_drops: sum(|t| t.deadline_drops),
            batches: sum(|t| t.batches),
            retunes: sum(|t| t.retunes),
            rescheduled_layer_execs: sum(|t| t.rescheduled_layer_execs),
            rebalances: die.rebalances,
            late_served: sum(|t| t.late_served),
            makespan_us: e.makespan_us,
            idle_us: die.idle_us,
            throttle_us: die.throttle_us,
            compile_stall_us: e.compile_stall_us,
            latency: all.summary(),
            queue_wait: all_waits.summary(),
            energy: e.energy,
            refresh_words: e.refresh_words,
            peak_temp_c: die.peak_temp_c,
            min_interval_us: e.min_interval_us,
            nominal_interval_us: e.stage1.policy().nominal().1,
            tenants,
        }
    }
}

/// Per-tenant slice of a [`ServeReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct TenantReport {
    /// Network name.
    pub name: String,
    /// Configured mix weight.
    pub weight: f64,
    /// Bank share at the end of the run.
    pub banks: usize,
    /// Solo (full-buffer, nominal-interval) inference latency, µs.
    pub isolated_us: f64,
    /// Requests offered by the arrival stream.
    pub offered: u64,
    /// Requests served to completion.
    pub served: u64,
    /// Batches dispatched.
    pub batches: u64,
    /// Arrivals dropped at the queue cap.
    pub admission_drops: u64,
    /// Requests dropped for missing their deadline.
    pub deadline_drops: u64,
    /// Refresh-divider retunes.
    pub retunes: u64,
    /// Layer executions that ran an online-rescheduled configuration.
    pub rescheduled_layer_execs: u64,
    /// Most banks the refresh-optimized controller flagged in any layer.
    pub flagged_banks_peak: usize,
    /// Final programmed clock-divider ratio.
    pub divider_ratio: u64,
    /// Latency order statistics.
    pub latency: LatencyStats,
    /// Queue-wait (arrival → dispatch) order statistics.
    pub queue_wait: LatencyStats,
    /// Requests served to completion but past their deadline (deadlines
    /// gate dispatch, not completion).
    pub late_served: u64,
    /// Eq. 14 energy attributed to this tenant.
    pub energy: EnergyBreakdown,
}

impl TenantReport {
    /// Deadline misses (drops plus late completions) per offered request
    /// (0 when nothing was offered).
    pub fn deadline_miss_rate(&self) -> f64 {
        ratio((self.deadline_drops + self.late_served) as f64, self.offered as f64)
    }

    fn to_json(&self) -> String {
        Obj::new()
            .str("name", &self.name)
            .f64("weight", self.weight)
            .raw("banks", self.banks)
            .f64("isolated_us", self.isolated_us)
            .raw("offered", self.offered)
            .raw("served", self.served)
            .raw("batches", self.batches)
            .raw("admission_drops", self.admission_drops)
            .raw("deadline_drops", self.deadline_drops)
            .raw("retunes", self.retunes)
            .raw("rescheduled_layer_execs", self.rescheduled_layer_execs)
            .raw("flagged_banks_peak", self.flagged_banks_peak)
            .raw("divider_ratio", self.divider_ratio)
            .raw("latency", self.latency.to_json())
            .raw("queue_wait", self.queue_wait.to_json())
            .raw("late_served", self.late_served)
            .f64("deadline_miss_rate", self.deadline_miss_rate())
            .f64("energy_j", self.energy.total_j())
            .f64("refresh_j", self.energy.refresh_j)
            .finish()
    }
}

/// The summary of one serving run. [`ServeReport::to_json`] is
/// byte-deterministic for a fixed configuration and seed.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeReport {
    /// Design label.
    pub design: String,
    /// Dispatch policy the run used.
    pub queue_policy: QueuePolicy,
    /// Partition policy the run used.
    pub partition_policy: PartitionPolicy,
    /// The arrival process.
    pub traffic: TrafficModel,
    /// Arrival-stream seed.
    pub seed: u64,
    /// Arrival horizon, µs.
    pub horizon_us: f64,
    /// Requests offered.
    pub offered: u64,
    /// Requests served.
    pub served: u64,
    /// Arrivals dropped at the queue cap.
    pub admission_drops: u64,
    /// Requests dropped for missing their deadline.
    pub deadline_drops: u64,
    /// Batches dispatched.
    pub batches: u64,
    /// Refresh-divider retunes across tenants.
    pub retunes: u64,
    /// Layer executions on online-rescheduled configurations.
    pub rescheduled_layer_execs: u64,
    /// Dynamic-partition rebalances (0 under static partitioning).
    pub rebalances: u64,
    /// Requests served to completion but past their deadline.
    pub late_served: u64,
    /// Time the last batch completed, µs.
    pub makespan_us: f64,
    /// Idle time (queues empty), µs.
    pub idle_us: f64,
    /// Idle time inserted by the thermal throttle, µs.
    pub throttle_us: f64,
    /// Modeled time spent stalled on fresh Stage-2 searches, µs
    /// (`compile_penalty_us` × fresh searches; always 0 at the default
    /// penalty of 0, and near 0 for warm-started runs).
    pub compile_stall_us: f64,
    /// Latency order statistics over all served requests.
    pub latency: LatencyStats,
    /// Queue-wait (arrival → dispatch) statistics over all served
    /// requests.
    pub queue_wait: LatencyStats,
    /// Total Eq. 14 energy.
    pub energy: EnergyBreakdown,
    /// Total refresh operations.
    pub refresh_words: u64,
    /// Peak junction temperature, °C.
    pub peak_temp_c: f64,
    /// Tightest operating interval of the run, µs.
    pub min_interval_us: f64,
    /// Divider-quantized nominal interval, µs.
    pub nominal_interval_us: f64,
    /// Per-tenant slices.
    pub tenants: Vec<TenantReport>,
}

impl ServeReport {
    /// Served requests per second of makespan.
    pub fn throughput_rps(&self) -> f64 {
        ratio(self.served as f64, self.makespan_us * 1e-6)
    }

    /// Total energy per served inference, joules (0 when nothing served).
    pub fn energy_per_inference_j(&self) -> f64 {
        ratio(self.energy.total_j(), self.served as f64)
    }

    /// Refresh share of the total energy.
    pub fn refresh_share(&self) -> f64 {
        ratio(self.energy.refresh_j, self.energy.total_j())
    }

    /// Deadline misses (drops plus late completions) per offered request.
    pub fn deadline_miss_rate(&self) -> f64 {
        ratio((self.deadline_drops + self.late_served) as f64, self.offered as f64)
    }

    /// Serializes the run to a compact, deterministic JSON object.
    pub fn to_json(&self) -> String {
        Obj::new()
            .str("design", &self.design)
            .str("queue", self.queue_policy.label())
            .str("partition", self.partition_policy.label())
            .str("traffic", self.traffic.label())
            .f64("rate_rps", self.traffic.rate_rps())
            .raw("seed", self.seed)
            .f64("horizon_us", self.horizon_us)
            .raw("offered", self.offered)
            .raw("served", self.served)
            .raw("admission_drops", self.admission_drops)
            .raw("deadline_drops", self.deadline_drops)
            .raw("batches", self.batches)
            .raw("retunes", self.retunes)
            .raw("rescheduled_layer_execs", self.rescheduled_layer_execs)
            .raw("rebalances", self.rebalances)
            .raw("late_served", self.late_served)
            .f64("deadline_miss_rate", self.deadline_miss_rate())
            .f64("makespan_us", self.makespan_us)
            .f64("idle_us", self.idle_us)
            .f64("throttle_us", self.throttle_us)
            .f64("compile_stall_us", self.compile_stall_us)
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
            .raw("tenants", array(self.tenants.iter().map(TenantReport::to_json)))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rana_edram::thermal::ThermalModel;
    use rana_trace::metrics::MetricKey;

    fn alexnet_mix() -> Vec<TenantSpec> {
        vec![TenantSpec::new(rana_zoo::alexnet(), 1.0)]
    }

    fn quick_config(seed: u64) -> ServeConfig {
        let mut c = ServeConfig::paper(TrafficModel::Poisson { rate_rps: 120.0 }, seed);
        c.horizon_us = 120_000.0;
        c
    }

    #[test]
    fn single_tenant_run_serves_and_accounts() {
        let eval = Evaluator::paper_platform();
        let r = Server::new(&eval, alexnet_mix(), quick_config(5)).run();
        assert!(r.served > 0, "nothing served");
        assert_eq!(r.offered, r.served + r.admission_drops + r.deadline_drops);
        assert!(r.energy.total_j() > 0.0);
        assert!(r.latency.p50_us > 0.0);
        assert!(r.latency.p99_us >= r.latency.p50_us);
        assert!(r.makespan_us >= r.horizon_us - r.tenants[0].isolated_us * 8.0);
        assert_eq!(r.tenants[0].banks, 44, "solo tenant owns the whole buffer");
        assert!(r.peak_temp_c > ThermalModel::embedded_65nm().ambient_c);
    }

    #[test]
    fn report_is_byte_deterministic() {
        let eval = Evaluator::paper_platform();
        let a = Server::new(&eval, alexnet_mix(), quick_config(9)).run().to_json();
        let b = Server::new(&eval, alexnet_mix(), quick_config(9)).run().to_json();
        assert_eq!(a, b);
        let c = Server::new(&eval, alexnet_mix(), quick_config(10)).run().to_json();
        assert_ne!(a, c, "different seeds must produce different runs");
    }

    #[test]
    fn dynamic_partition_respects_floor_and_capacity() {
        let eval = Evaluator::paper_platform();
        let specs = vec![
            TenantSpec::new(rana_zoo::alexnet(), 0.7),
            TenantSpec::new(rana_zoo::alexnet(), 0.3),
        ];
        let mut cfg = quick_config(3);
        cfg.partition_policy = PartitionPolicy::Dynamic;
        cfg.queue_policy = QueuePolicy::Edf;
        let r = Server::new(&eval, specs, cfg).run();
        assert!(r.rebalances >= 1);
        let total: usize = r.tenants.iter().map(|t| t.banks).sum();
        assert!(total <= 44);
        assert!(r.tenants.iter().all(|t| t.banks >= 4));
        assert!(r.served > 0);
    }

    #[test]
    fn overload_drops_instead_of_unbounded_queueing() {
        let eval = Evaluator::paper_platform();
        let mut cfg = quick_config(7);
        // Far beyond one accelerator's AlexNet capacity: must shed load.
        cfg.traffic = TrafficModel::Poisson { rate_rps: 5_000.0 };
        let r = Server::new(&eval, alexnet_mix(), cfg).run();
        assert!(r.admission_drops + r.deadline_drops > 0, "overload must shed load");
        // Deadlines gate dispatch, not completion: a request can finish up
        // to one max_batch execution past its 8x-slack deadline.
        assert!(r.latency.max_us <= (8.0 + 4.0) * r.tenants[0].isolated_us + 1e-6);
        assert!(r.deadline_miss_rate() > 0.0);
        assert!(r.deadline_miss_rate() <= 1.0);
    }

    #[test]
    fn queue_wait_is_tracked_and_bounded_by_latency() {
        let eval = Evaluator::paper_platform();
        let r = Server::new(&eval, alexnet_mix(), quick_config(5)).run();
        let t = &r.tenants[0];
        assert_eq!(t.queue_wait.count, t.latency.count);
        assert!(t.queue_wait.p50_us >= 0.0);
        // A request's wait excludes its own batch execution, so every wait
        // order statistic sits at or below the matching latency one.
        assert!(t.queue_wait.p99_us <= t.latency.p99_us);
        assert!(r.queue_wait.max_us <= r.latency.max_us);
        assert!(r.to_json().contains("\"queue_wait\""));
        assert!(r.to_json().contains("\"deadline_miss_rate\""));
    }

    #[test]
    fn metered_run_tracks_per_tenant_slo() {
        let eval = Evaluator::paper_platform();
        let session = rana_trace::Session::start(rana_trace::TraceConfig::Metrics);
        let r = Server::new(&eval, alexnet_mix(), quick_config(5)).run();
        let reg = session.finish().metrics.expect("metered session");
        let slo = reg.slo("AlexNet").expect("tenant SLO tracked");
        assert_eq!(
            slo.requests(),
            r.served + r.deadline_drops,
            "every completion and deadline drop is one SLO observation"
        );
        assert_eq!(slo.misses(), r.deadline_drops + r.late_served);
        let lat = reg
            .hist_f64(MetricKey::new("serve.latency_us").label("tenant", "AlexNet"))
            .expect("latency histogram populated");
        assert_eq!(lat.count(), r.served);
        // Log-linear buckets bound the histogram p99's relative error.
        let p99 = lat.quantile(0.99).unwrap();
        assert!((p99 - r.latency.p99_us).abs() / r.latency.p99_us < 0.01, "{p99}");
    }

    #[test]
    fn compile_penalty_charges_cold_runs_only() {
        let eval = Evaluator::paper_platform();
        // Two tenants split the buffer 22/22, so the first run must
        // compile fresh schedules at a partition size nothing warmed.
        let specs = || {
            vec![
                TenantSpec::new(rana_zoo::alexnet(), 0.6),
                TenantSpec::new(rana_zoo::alexnet(), 0.4),
            ]
        };
        let mut cfg = quick_config(5);
        cfg.compile_penalty_us = 1_000.0;
        let cold = Server::new(&eval, specs(), cfg.clone()).run();
        assert!(cold.compile_stall_us > 0.0, "cold start must pay compile stalls");
        assert!(cold.to_json().contains("\"compile_stall_us\""));
        let warm = Server::new(&eval, specs(), cfg).run();
        assert_eq!(warm.compile_stall_us, 0.0, "a warm cache leaves nothing to charge");
    }

    #[test]
    fn batching_amortizes_weight_reloads() {
        let eval = Evaluator::paper_platform();
        let mut batched = quick_config(21);
        batched.traffic = TrafficModel::Bursty {
            rate_rps: 300.0,
            burst_factor: 3.0,
            burst_fraction: 0.25,
            mean_burst_us: 10_000.0,
        };
        let mut unbatched = batched.clone();
        let mut specs_b = alexnet_mix();
        specs_b[0].max_batch = 4;
        let mut specs_u = alexnet_mix();
        specs_u[0].max_batch = 1;
        unbatched.seed = batched.seed;
        let rb = Server::new(&eval, specs_b, batched).run();
        let ru = Server::new(&eval, specs_u, unbatched).run();
        assert!(rb.batches < ru.batches, "batching should dispatch fewer, larger batches");
        if rb.served == ru.served {
            assert!(
                rb.energy.offchip_j < ru.energy.offchip_j,
                "resident weights must save off-chip energy"
            );
        }
    }
}
