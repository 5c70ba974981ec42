//! Fleet-scale serving: hundreds to thousands of RANA dies behind one
//! router.
//!
//! [`Server`](crate::Server) answers "what does one refresh-optimized
//! accelerator do under multi-tenant load?". This module answers the next
//! question up the stack: how do routing policy, schedule-cache affinity,
//! tenant sharding and die failures interact with the per-die
//! thermal/refresh closed loop at cluster scale? [`FleetSim`] runs the
//! same serving loop as `Server` (see `engine.rs`), in its cluster shape:
//!
//! * every die holds one FIFO slot shared by all tenants, with its own
//!   lumped-RC thermal state, refresh-divider setting and warm-schedule
//!   set; a `(tenant, rung)` pair new to a die pays the warm-set penalty
//!   inside its batch;
//! * per-tenant arrival processes draw from RNG streams split off the
//!   fleet seed ([`rana_des::Streams`]), and the router from a stream far
//!   outside the tenant range, so adding a tenant, resizing the cluster or
//!   switching router policy never perturbs another tenant's arrivals;
//! * the router ([`RouterPolicy`]) spreads requests over each tenant's
//!   shard: random, round-robin, power-of-two-choices, or
//!   schedule-cache-affinity (power-of-two-choices over warm dies);
//! * a failure plan ([`FailureEvent`]) crashes, drains and rejoins dies
//!   mid-run; displaced requests are rerouted (emitting
//!   [`rana_trace::Event::RequestRerouted`]) and in-flight work lost to a
//!   crash is charged as wasted energy;
//! * the report ([`FleetReport`]) is byte-deterministic: latency
//!   percentiles come from [`rana_trace::metrics::HistF64`], ordering from
//!   the DES core's total event order, never from map iteration.
//!
//! # A 16-die cluster
//!
//! ```
//! use rana_core::evaluate::Evaluator;
//! use rana_serve::fleet::{FleetConfig, FleetSim, RouterPolicy};
//! use rana_serve::{TenantSpec, TrafficModel};
//!
//! let eval = Evaluator::paper_platform();
//! let tenants = vec![
//!     TenantSpec::new(rana_zoo::alexnet(), 0.7),
//!     TenantSpec::new(rana_zoo::googlenet(), 0.3),
//! ];
//! let mut cfg = FleetConfig::paper(
//!     tenants,
//!     TrafficModel::Poisson { rate_rps: 250.0 },
//!     16,
//!     RouterPolicy::PowerOfTwoChoices,
//!     42,
//! );
//! cfg.horizon_us = 100_000.0; // 100 ms of arrivals
//! let report = FleetSim::new(&eval, cfg).run();
//! assert_eq!(
//!     report.offered,
//!     report.served + report.admission_drops + report.deadline_drops + report.unroutable_drops
//! );
//! assert!(report.latency.p99_us >= report.latency.p50_us);
//! ```
//!
//! # A drain scenario
//!
//! ```
//! use rana_core::evaluate::Evaluator;
//! use rana_serve::fleet::{FailureEvent, FailureKind, FleetConfig, FleetSim, RouterPolicy};
//! use rana_serve::{TenantSpec, TrafficModel};
//!
//! let eval = Evaluator::paper_platform();
//! let tenants = vec![TenantSpec::new(rana_zoo::alexnet(), 1.0)];
//! let mut cfg = FleetConfig::paper(
//!     tenants,
//!     TrafficModel::Poisson { rate_rps: 120.0 },
//!     4,
//!     RouterPolicy::RoundRobin,
//!     7,
//! );
//! cfg.horizon_us = 200_000.0;
//! // Drain die 1 at t = 60 ms for maintenance, rejoin it at t = 140 ms.
//! cfg.failures = vec![
//!     FailureEvent { at_us: 60_000.0, die: 1, kind: FailureKind::Drain },
//!     FailureEvent { at_us: 140_000.0, die: 1, kind: FailureKind::Rejoin },
//! ];
//! let report = FleetSim::new(&eval, cfg).run();
//! assert_eq!(report.die_drains, 1);
//! assert_eq!(report.lost_in_flight, 0, "drains finish in-flight work");
//! ```

use crate::engine::{Engine, Shape, WARM_SET_PENALTY_US};
use crate::metrics::{ratio, LatencyLog};
use crate::partition::PartitionPolicy;
use crate::server::{QueuePolicy, TenantSpec};
use crate::traffic::{ArrivalStreams, TrafficModel};
use rana_core::designs::Design;
use rana_core::energy::EnergyBreakdown;
use rana_core::evaluate::Evaluator;
use rana_core::operating::{LADDER_STEPS_PER_OCTAVE, RESCHEDULE_REFRESH_WEIGHT};
use rana_core::policy::Strategy;
use rana_trace::json::{array, json_opt, Obj};
use rana_trace::metrics::HistF64;

pub use crate::metrics::LatencySummary;
pub use rana_core::operating::{Profile, ProfileCache};

/// How the global router spreads requests over a tenant's shard. All
/// randomness comes from one dedicated router RNG stream split off the
/// fleet seed, so routing never perturbs the arrival processes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouterPolicy {
    /// Uniformly random among accepting dies.
    Random,
    /// Cycle through the shard in index order.
    RoundRobin,
    /// Sample two random accepting dies, queue on the shorter queue
    /// (ties to the lower index) — the classic load-balancing result.
    PowerOfTwoChoices,
    /// Power-of-two-choices restricted to dies whose schedule cache is
    /// already warm for the tenant; falls back to plain
    /// power-of-two-choices when no warm die accepts work or the chosen
    /// warm die's queue is full.
    CacheAffinity,
}

impl RouterPolicy {
    /// Stable lowercase label (used in JSON and CSV output).
    pub fn label(&self) -> &'static str {
        match self {
            RouterPolicy::Random => "random",
            RouterPolicy::RoundRobin => "round-robin",
            RouterPolicy::PowerOfTwoChoices => "po2c",
            RouterPolicy::CacheAffinity => "cache-affinity",
        }
    }

    /// Every policy, in the order the experiments sweep them.
    pub fn all() -> [RouterPolicy; 4] {
        [
            RouterPolicy::Random,
            RouterPolicy::RoundRobin,
            RouterPolicy::PowerOfTwoChoices,
            RouterPolicy::CacheAffinity,
        ]
    }
}

/// What a scheduled failure-plan entry does to its die.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureKind {
    /// Hard failure: the in-flight batch is lost (its energy so far is
    /// wasted), the warm schedule cache is cleared, and every queued or
    /// in-flight request is rerouted.
    Crash,
    /// Graceful drain: the queue is handed back to the router, the
    /// in-flight batch completes, and the warm cache survives for rejoin.
    Drain,
    /// The die returns to service (cooled; ignored unless the die is
    /// down).
    Rejoin,
}

impl FailureKind {
    /// Stable lowercase label.
    pub fn label(&self) -> &'static str {
        match self {
            FailureKind::Crash => "crash",
            FailureKind::Drain => "drain",
            FailureKind::Rejoin => "rejoin",
        }
    }
}

/// One entry of a fleet failure plan.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FailureEvent {
    /// When the event fires, µs.
    pub at_us: f64,
    /// Which die it hits.
    pub die: usize,
    /// What happens.
    pub kind: FailureKind,
}

/// Configuration of one fleet run. The model's fixed knobs are constants:
/// the queue cap ([`QUEUE_CAP`](crate::QUEUE_CAP)), the warm-set penalty
/// ([`WARM_SET_PENALTY_US`]) and the thermal
/// policy of [`rana_core::operating`].
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Accelerator design every die runs (must buffer in eDRAM).
    pub design: Design,
    /// The tenant mix. Weights are absolute rate multipliers: tenant `i`
    /// offers `traffic.rate_rps() × weight_i` requests per second.
    pub tenants: Vec<TenantSpec>,
    /// The fleet-wide arrival process (per-tenant rates scale off its
    /// rate).
    pub traffic: TrafficModel,
    /// Arrivals are generated over `[0, horizon_us)`; the run then
    /// drains.
    pub horizon_us: f64,
    /// Master seed: tenant arrival streams and the router stream are
    /// split off it ([`rana_des::stream_seed`]).
    pub seed: u64,
    /// Cluster size.
    pub num_dies: usize,
    /// Routing policy.
    pub router: RouterPolicy,
    /// Tenant sharding: each tenant may only use this many dies (evenly
    /// staggered over the cluster). `None` means every tenant uses every
    /// die.
    pub shard_size: Option<usize>,
    /// Modeled stall per fresh Stage-2 layer search, µs, charged once
    /// when the profile that needed it is first dispatched: the die idles
    /// while the host searches. `0` (the default, and the
    /// committed-baseline behavior) prices compilation as free; a
    /// persistent [`ScheduleStore`](rana_core::store::ScheduleStore) warm
    /// start removes it.
    pub compile_penalty_us: f64,
    /// Interval-ladder resolution, rungs per octave of derating.
    pub ladder_steps_per_octave: u32,
    /// Hedged refresh pricing for online reschedules: refresh is priced at
    /// this multiple of its Table III cost.
    pub reschedule_refresh_weight: f64,
    /// Per-die refresh-strategy mix: die `i` runs `strategies[i % len]`.
    /// Empty (the default) leaves every die on the design's controller
    /// kind — the byte-compatible legacy path. A pinned die strategy
    /// overrides any per-tenant [`TenantSpec::strategy`].
    pub strategies: Vec<Strategy>,
    /// Scheduled crash / drain / rejoin events (any order; sorted by
    /// time, ties by die index then kind declaration order).
    pub failures: Vec<FailureEvent>,
}

impl FleetConfig {
    /// Paper-platform defaults: RANA*(E-5) dies, no sharding, free
    /// compilation, the default ladder and reschedule hedge, and no
    /// failures.
    pub fn paper(
        tenants: Vec<TenantSpec>,
        traffic: TrafficModel,
        num_dies: usize,
        router: RouterPolicy,
        seed: u64,
    ) -> Self {
        Self {
            design: Design::RanaStarE5,
            tenants,
            traffic,
            horizon_us: 1e6,
            seed,
            num_dies,
            router,
            shard_size: None,
            compile_penalty_us: 0.0,
            ladder_steps_per_octave: LADDER_STEPS_PER_OCTAVE,
            reschedule_refresh_weight: RESCHEDULE_REFRESH_WEIGHT,
            strategies: Vec::new(),
            failures: Vec::new(),
        }
    }

    /// The refresh strategy die `die` runs: its slot of the strategy mix,
    /// else the tenant's pin, else `None` (the design's controller kind).
    pub fn die_strategy(&self, die: usize, tenant: usize) -> Option<Strategy> {
        if self.strategies.is_empty() {
            self.tenants[tenant].strategy
        } else {
            Some(self.strategies[die % self.strategies.len()])
        }
    }
}

/// The fleet's shape of the serving loop.
pub(crate) const FLEET: Shape = Shape {
    slot_per_tenant: false,
    queue_policy: QueuePolicy::Fifo,
    partition_policy: PartitionPolicy::Static,
    // Unused: a static split never rebalances.
    bank_quantum: 1,
    arrivals: ArrivalStreams::PerTenant,
    warm_penalty_us: WARM_SET_PENALTY_US,
    scope: "fleet",
    profile_scope: "fleet/tenant",
};

/// The fleet simulator. Build with [`FleetSim::new`], drive to
/// completion with [`FleetSim::run`].
pub struct FleetSim<'a>(Engine<'a, HistF64>);

impl<'a> FleetSim<'a> {
    /// Builds a fleet over `eval`'s platform (and its shared schedule
    /// cache).
    ///
    /// # Panics
    ///
    /// Panics if the design does not buffer in eDRAM, the mix or cluster
    /// is empty, a knob is out of range, or the failure plan names a die
    /// outside the cluster.
    pub fn new(eval: &'a Evaluator, config: FleetConfig) -> Self {
        Self(Engine::new(eval, config, FLEET))
    }

    /// Runs the whole scenario (per-tenant arrival streams, routing,
    /// batching, thermal/refresh adaptation, the failure plan) until
    /// every queue drains, and returns the report.
    pub fn run(self) -> FleetReport {
        let mut e = self.0.run();
        let (mut latency, mut queue_wait) = (HistF64::new(), HistF64::new());
        for ts in &e.tenants {
            latency.merge(&ts.latency);
            queue_wait.merge(&ts.queue_wait);
        }
        let tenants: Vec<FleetTenantReport> = e
            .tenants
            .iter_mut()
            .zip(&e.config.tenants)
            .zip(&e.isolated_us)
            .map(|((ts, spec), &isolated_us)| FleetTenantReport {
                name: spec.network.name().to_string(),
                weight: spec.weight,
                isolated_us,
                offered: ts.offered,
                served: ts.served,
                admission_drops: ts.admission_drops,
                deadline_drops: ts.deadline_drops,
                unroutable_drops: ts.unroutable_drops,
                rerouted: ts.rerouted,
                late_served: ts.late_served,
                latency: ts.latency.summary(),
            })
            .collect();
        let served: Vec<u64> = e.dies.iter().map(|d| d.served).collect();
        let c = &e.config;
        let sum = |f: fn(&FleetTenantReport) -> u64| tenants.iter().map(f).sum::<u64>();
        FleetReport {
            design: c.design.label().to_string(),
            router: c.router,
            num_dies: c.num_dies,
            shard_size: c.shard_size,
            traffic: c.traffic,
            seed: c.seed,
            horizon_us: c.horizon_us,
            offered: sum(|t| t.offered),
            served: sum(|t| t.served),
            admission_drops: sum(|t| t.admission_drops),
            deadline_drops: sum(|t| t.deadline_drops),
            unroutable_drops: sum(|t| t.unroutable_drops),
            late_served: sum(|t| t.late_served),
            batches: e.tenants.iter().map(|t| t.batches).sum(),
            cold_schedules: e.cold_schedules,
            compile_stall_us: e.compile_stall_us,
            retunes: e.dies.iter().flat_map(|d| &d.slots).map(|s| s.retunes).sum(),
            die_failures: e.die_failures,
            die_drains: e.die_drains,
            rerouted_crash: e.rerouted_crash,
            rerouted_drain: e.rerouted_drain,
            lost_in_flight: e.lost_in_flight,
            wasted_j: e.wasted_j,
            latency: latency.summary(),
            queue_wait: queue_wait.summary(),
            energy: e.energy,
            refresh_words: e.refresh_words,
            peak_temp_c: e.dies.iter().map(|d| d.peak_temp_c).fold(f64::MIN, f64::max),
            min_interval_us: e.min_interval_us,
            nominal_interval_us: e.stage1.policy().nominal().1,
            makespan_us: e.makespan_us,
            die_served_min: served.iter().copied().min().unwrap_or(0),
            die_served_max: served.iter().copied().max().unwrap_or(0),
            die_served_mean: served.iter().sum::<u64>() as f64 / served.len() as f64,
            disrupted_offered: e.disrupted_offered,
            disrupted_misses: e.disrupted_misses,
            profile_entries: e.profiles.len() as u64,
            tenants,
        }
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
        let misses = self.deadline_drops + self.late_served + self.unroutable_drops;
        ratio(misses as f64, self.offered as f64)
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
    /// Batches that paid the warm-set penalty.
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
        ratio(self.served as f64, self.makespan_us * 1e-6)
    }

    /// Offered load scaled to requests per simulated hour.
    pub fn offered_per_hour(&self) -> f64 {
        ratio(self.offered as f64 * 3.6e9, self.horizon_us)
    }

    /// Total energy per served inference, joules (0 when nothing
    /// served).
    pub fn energy_per_inference_j(&self) -> f64 {
        ratio(self.energy.total_j(), self.served as f64)
    }

    /// Refresh share of the total energy.
    pub fn refresh_share(&self) -> f64 {
        ratio(self.energy.refresh_j, self.energy.total_j())
    }

    /// Deadline misses (drops, late completions, unroutable) per offered
    /// request.
    pub fn deadline_miss_rate(&self) -> f64 {
        let misses = self.deadline_drops + self.late_served + self.unroutable_drops;
        ratio(misses as f64, self.offered as f64)
    }

    /// Miss rate over arrivals inside disruption (drain/crash) windows —
    /// the price of losing dies, isolated from steady-state behavior.
    pub fn disruption_miss_rate(&self) -> f64 {
        ratio(self.disrupted_misses as f64, self.disrupted_offered as f64)
    }

    /// Most-loaded die's served count over the per-die mean — 1.0 is a
    /// perfectly balanced fleet (0 when nothing was served).
    pub fn load_imbalance(&self) -> f64 {
        ratio(self.die_served_max as f64, self.die_served_mean)
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

    fn mix() -> Vec<TenantSpec> {
        vec![TenantSpec::new(rana_zoo::alexnet(), 0.6), TenantSpec::new(rana_zoo::googlenet(), 0.4)]
    }

    fn quick(num_dies: usize, router: RouterPolicy, seed: u64) -> FleetConfig {
        let mut c = FleetConfig::paper(
            mix(),
            TrafficModel::Poisson { rate_rps: 30.0 * num_dies as f64 },
            num_dies,
            router,
            seed,
        );
        c.horizon_us = 300_000.0;
        c
    }

    #[test]
    fn requests_are_conserved() {
        let eval = Evaluator::paper_platform();
        let r = FleetSim::new(&eval, quick(8, RouterPolicy::PowerOfTwoChoices, 11)).run();
        assert!(r.served > 0, "nothing served");
        assert_eq!(
            r.offered,
            r.served + r.admission_drops + r.deadline_drops + r.unroutable_drops,
            "every offered request must be served or dropped exactly once"
        );
        assert_eq!(r.latency.count, r.served);
        assert!(r.energy.total_j() > 0.0);
        assert!(r.makespan_us > 0.0);
        assert_eq!(r.unroutable_drops, 0, "no failures, so nothing is unroutable");
    }

    #[test]
    fn reports_are_byte_deterministic() {
        let eval = Evaluator::paper_platform();
        let a = FleetSim::new(&eval, quick(8, RouterPolicy::CacheAffinity, 5)).run().to_json();
        let b = FleetSim::new(&eval, quick(8, RouterPolicy::CacheAffinity, 5)).run().to_json();
        assert_eq!(a, b);
        let c = FleetSim::new(&eval, quick(8, RouterPolicy::CacheAffinity, 6)).run().to_json();
        assert_ne!(a, c, "different seeds must produce different runs");
    }

    #[test]
    fn crash_reroutes_and_loses_in_flight_work() {
        let eval = Evaluator::paper_platform();
        let mut cfg = quick(4, RouterPolicy::RoundRobin, 7);
        cfg.failures = vec![
            FailureEvent { at_us: 120_000.0, die: 1, kind: FailureKind::Crash },
            FailureEvent { at_us: 220_000.0, die: 1, kind: FailureKind::Rejoin },
        ];
        let r = FleetSim::new(&eval, cfg).run();
        assert_eq!(r.die_failures, 1);
        assert!(r.rerouted_crash > 0, "the crashed die's work must move");
        assert!(r.lost_in_flight > 0, "a busy die loses its in-flight batch");
        assert!(r.wasted_j > 0.0, "lost work costs energy");
        assert_eq!(r.offered, r.served + r.admission_drops + r.deadline_drops + r.unroutable_drops);
    }

    #[test]
    fn drain_is_graceful_and_keeps_warm_state() {
        let eval = Evaluator::paper_platform();
        let mut cfg = quick(4, RouterPolicy::RoundRobin, 7);
        // Overload the cluster so every die holds a queue when the drain
        // hits.
        cfg.traffic = TrafficModel::Poisson { rate_rps: 320.0 };
        cfg.failures = vec![
            FailureEvent { at_us: 120_000.0, die: 2, kind: FailureKind::Drain },
            FailureEvent { at_us: 200_000.0, die: 2, kind: FailureKind::Rejoin },
        ];
        let r = FleetSim::new(&eval, cfg).run();
        assert_eq!(r.die_drains, 1);
        assert_eq!(r.die_failures, 0);
        assert!(r.rerouted_drain > 0, "the drained die's queue must move");
        assert_eq!(r.lost_in_flight, 0, "drains finish their in-flight batch");
        assert_eq!(r.wasted_j, 0.0);
        assert!(r.disrupted_offered > 0, "arrivals landed inside the drain window");
    }

    #[test]
    fn sharding_confines_tenants() {
        let eval = Evaluator::paper_platform();
        let mut cfg = quick(8, RouterPolicy::Random, 13);
        cfg.shard_size = Some(2);
        let sim = FleetSim::new(&eval, cfg);
        for (t, shard) in sim.0.shards.iter().enumerate() {
            assert_eq!(shard.len(), 2, "tenant {t} shard");
        }
        assert_ne!(sim.0.shards[0], sim.0.shards[1], "shards stagger across the cluster");
        let r = sim.run();
        // With 2 tenants on disjoint 2-die shards, at least 4 dies see
        // no traffic at all.
        assert_eq!(r.die_served_min, 0);
        assert!(r.served > 0);
    }

    #[test]
    fn cold_schedule_penalty_is_paid_once_per_warm_key() {
        let eval = Evaluator::paper_platform();
        let r = FleetSim::new(&eval, quick(4, RouterPolicy::RoundRobin, 3)).run();
        // Every die eventually warms both tenants; cold misses are
        // bounded by dies × tenants × distinct rungs.
        assert!(r.cold_schedules >= 2, "at least one cold miss per tenant");
        assert!(r.batches > r.cold_schedules, "most batches run warm");
    }

    #[test]
    fn labels_are_distinct() {
        let labels: Vec<&str> = RouterPolicy::all().iter().map(|p| p.label()).collect();
        let mut dedup = labels.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), labels.len());
    }
}
