//! The fleet-scale discrete-event simulation.
//!
//! Hundreds to thousands of dies, each a whole RANA accelerator with its
//! own lumped-RC thermal state and refresh-divider setting, serve a
//! multi-tenant request stream behind one global router. Everything runs
//! on the [`rana_des`] core: per-tenant Poisson/bursty arrival streams
//! (split off the fleet seed so tenants never perturb each other), batch
//! completions, and a failure plan of crash / drain / rejoin control
//! events. Same-timestamp ordering is fixed by DES priority classes —
//! control first, then completions, then arrivals — never by map
//! iteration, so a fixed configuration and seed replays byte-identically.
//! Arrivals are pulled lazily from the merged stream, one pending event
//! at a time, so the heap holds at most one completion per die, the
//! failure plan and one arrival — never the whole horizon.
//!
//! Randomness budget: tenant `i`'s arrival process draws from DES stream
//! `i` (inside [`rana_serve::traffic::Arrivals`]); the router
//! draws from stream [`ROUTER_STREAM`], far outside the tenant range.
//! Adding a tenant or switching router policy therefore cannot perturb
//! another tenant's arrival sequence.

use crate::die::{Die, DieState, FleetRequest, InFlight};
use crate::report::{FleetReport, FleetTenantReport, LatencySummary};
use crate::router::RouterPolicy;
use rana_core::designs::Design;
use rana_core::energy::EnergyBreakdown;
use rana_core::evaluate::Evaluator;
use rana_core::operating::{ProfileCache, ThermalPolicy};
use rana_core::policy::Strategy;
use rana_des::{EventQueue, Streams};
use rana_edram::thermal::ThermalModel;
use rana_metrics::HistF64;
use rana_serve::traffic::{ArrivalStreams, Arrivals, TrafficModel};
use rana_serve::TenantSpec;
use rand::rngs::StdRng;
use rand::RngExt;

/// DES stream id of the router's RNG. Tenant arrival processes use
/// streams `0..n_tenants`; this id sits far outside that range so the
/// two can never collide.
pub const ROUTER_STREAM: u64 = 1 << 32;

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

/// Configuration of one fleet run.
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
    /// Per-die queue cap; arrivals routed to a full die are dropped.
    pub queue_cap: usize,
    /// Tenant sharding: each tenant may only use this many dies (evenly
    /// staggered over the cluster). `None` means every tenant uses every
    /// die.
    pub shard_size: Option<usize>,
    /// Latency of scheduling a `(tenant, rung)` combination this die has
    /// never run — the cold schedule-cache miss the affinity router
    /// avoids, µs.
    pub sched_penalty_us: f64,
    /// Modeled stall per fresh Stage-2 layer search in the *simulator's*
    /// profile builder, µs — the compile-time cost a persistent
    /// [`ScheduleStore`](rana_core::store::ScheduleStore) warm start
    /// removes. `0` (the default, and the committed-baseline behavior)
    /// prices compilation as free. Distinct from `sched_penalty_us`,
    /// which models the per-die warm-set fill.
    pub compile_penalty_us: f64,
    /// Safety margin on the tolerable retention time (PR 3 semantics).
    pub retention_margin: f64,
    /// Temperature sensor resolution, °C (samples quantize up).
    pub sensor_quantum_c: f64,
    /// Interval-ladder resolution, rungs per octave of derating.
    pub ladder_steps_per_octave: u32,
    /// Hedged refresh pricing for online reschedules (PR 3 semantics).
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
    /// Paper-platform defaults: RANA*(E-5) dies, 16-deep queues, no
    /// sharding, 5 ms cold-schedule penalty, the PR 3 thermal-policy
    /// constants, and no failures.
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
            queue_cap: 16,
            shard_size: None,
            sched_penalty_us: 5_000.0,
            compile_penalty_us: 0.0,
            retention_margin: 0.85,
            sensor_quantum_c: 0.25,
            ladder_steps_per_octave: 4,
            reschedule_refresh_weight: 4.0,
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

/// DES priority class of failure-plan control events: state changes
/// apply before anything else at the same instant.
const CLASS_CONTROL: u8 = 0;
/// DES priority class of batch completions: dies free up before arrivals
/// at the same instant are routed.
const CLASS_COMPLETION: u8 = 1;
/// DES priority class of request arrivals.
const CLASS_ARRIVAL: u8 = 2;

/// The fleet's event alphabet.
#[derive(Debug, Clone, Copy)]
enum FleetEvent {
    /// Apply failure-plan entry `index` (into the sorted plan).
    Control { index: usize },
    /// Die `die` finishes its in-flight batch.
    Completion { die: usize },
    /// One request of `tenant` arrives at the fleet front door.
    Arrival { tenant: usize },
}

/// Per-tenant accounting. The fleet-wide latency histogram is the merge
/// of the per-tenant ones, built at report time.
#[derive(Debug, Default)]
struct TenantStats {
    offered: u64,
    served: u64,
    admission_drops: u64,
    deadline_drops: u64,
    unroutable_drops: u64,
    rerouted: u64,
    late_served: u64,
    latency: HistF64,
}

/// The fleet simulator. Build with [`FleetSim::new`], drive to
/// completion with [`FleetSim::run`].
pub struct FleetSim<'a> {
    config: FleetConfig,
    thermal: ThermalModel,
    policy: ThermalPolicy,
    /// Simulator memo of inference profiles; unlike the modeled per-die
    /// warm set ([`Die::warm`]), no die pays for it.
    profiles: ProfileCache<'a>,
    dies: Vec<Die>,
    disrupted: Vec<bool>,
    shards: Vec<Vec<usize>>,
    warm_dies: Vec<Vec<usize>>,
    isolated_us: Vec<f64>,
    events: EventQueue<FleetEvent>,
    plan: Vec<FailureEvent>,
    router_rng: StdRng,
    rr: usize,
    tenants: Vec<TenantStats>,
    queue_wait: HistF64,
    energy: EnergyBreakdown,
    wasted_j: f64,
    refresh_words: u64,
    min_interval_us: f64,
    makespan_us: f64,
    active_disruptions: usize,
    disrupted_offered: u64,
    disrupted_misses: u64,
    die_failures: u64,
    die_drains: u64,
    rerouted_crash: u64,
    rerouted_drain: u64,
    lost_in_flight: u64,
    compile_stall_us: f64,
}

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
        assert!(config.design.uses_edram(), "fleet needs an eDRAM design, got {}", config.design);
        assert!(!config.tenants.is_empty(), "tenant mix must not be empty");
        assert!(config.tenants.iter().all(|s| s.weight > 0.0), "tenant weights must be positive");
        assert!(config.tenants.iter().all(|s| s.max_batch >= 1), "max_batch must be at least 1");
        assert!(config.tenants.iter().all(|s| s.deadline_slack > 1.0), "slack must exceed 1");
        assert!(config.num_dies >= 1, "cluster must have at least one die");
        assert!(config.queue_cap >= 1, "queue cap must be at least 1");
        assert!(config.sched_penalty_us >= 0.0, "cold penalty must be non-negative");
        assert!(config.compile_penalty_us >= 0.0, "compile penalty must be non-negative");
        for f in &config.failures {
            assert!(
                f.die < config.num_dies,
                "failure plan names die {} of {}",
                f.die,
                config.num_dies
            );
            assert!(f.at_us.is_finite() && f.at_us >= 0.0, "failure times must be finite and >= 0");
        }
        if let Some(s) = config.shard_size {
            assert!(s >= 1, "shards must hold at least one die");
        }

        let template = eval.scheduler_for(config.design);
        let thermal = ThermalModel::embedded_65nm();
        let policy = ThermalPolicy::new(
            &template,
            eval.retention().tolerable_retention_us(config.design.failure_rate()),
            config.retention_margin,
            config.sensor_quantum_c,
            config.ladder_steps_per_octave,
        );
        let (nominal_divider, nominal_rung_us) = policy.nominal();

        let n = config.num_dies;
        let dies = (0..n).map(|_| Die::new(thermal.ambient_c, nominal_divider.ratio())).collect();
        let nt = config.tenants.len();
        // Shards stagger evenly over the cluster so tenants overlap as
        // little as the shard size allows.
        let shard = config.shard_size.unwrap_or(n).min(n);
        let shards = (0..nt)
            .map(|t| {
                let start = t * n / nt;
                (0..shard).map(|j| (start + j) % n).collect()
            })
            .collect();
        let isolated_us = config
            .tenants
            .iter()
            .map(|s| eval.evaluate(&s.network, config.design).time_us)
            .collect();
        let mut plan = config.failures.clone();
        plan.sort_by(|a, b| {
            a.at_us
                .total_cmp(&b.at_us)
                .then(a.die.cmp(&b.die))
                .then((a.kind as u8).cmp(&(b.kind as u8)))
        });
        let router_rng = Streams::new(config.seed).rng(ROUTER_STREAM);
        let profiles = ProfileCache::new(eval, template, config.reschedule_refresh_weight)
            .scoped("fleet/tenant");
        let tenants = (0..nt).map(|_| TenantStats::default()).collect();

        Self {
            config,
            thermal,
            policy,
            profiles,
            dies,
            disrupted: vec![false; n],
            shards,
            warm_dies: vec![Vec::new(); nt],
            isolated_us,
            events: EventQueue::new(),
            plan,
            router_rng,
            rr: 0,
            tenants,
            queue_wait: HistF64::new(),
            energy: EnergyBreakdown::default(),
            wasted_j: 0.0,
            refresh_words: 0,
            min_interval_us: nominal_rung_us,
            makespan_us: 0.0,
            active_disruptions: 0,
            disrupted_offered: 0,
            disrupted_misses: 0,
            die_failures: 0,
            die_drains: 0,
            rerouted_crash: 0,
            rerouted_drain: 0,
            lost_in_flight: 0,
            compile_stall_us: 0.0,
        }
    }

    /// Runs the whole scenario — per-tenant arrival streams, routing,
    /// batching, thermal/refresh adaptation, the failure plan — until
    /// every queue drains, and returns the report.
    pub fn run(mut self) -> FleetReport {
        let weights: Vec<f64> = self.config.tenants.iter().map(|s| s.weight).collect();
        let c = &self.config;
        let mut arrivals =
            Arrivals::new(ArrivalStreams::PerTenant, &weights, c.traffic, c.horizon_us, c.seed);
        // Delivering an arrival schedules the next. The merged stream is
        // in (time, tenant) order and at most one arrival event is queued,
        // so arrivals fire in stream order and the next is never in the
        // past.
        let mut schedule_next_arrival = |events: &mut EventQueue<FleetEvent>| {
            if let Some(a) = arrivals.next() {
                events.schedule(
                    a.arrival_us,
                    CLASS_ARRIVAL,
                    FleetEvent::Arrival { tenant: a.tenant },
                );
            }
        };
        schedule_next_arrival(&mut self.events);
        for (i, f) in self.plan.iter().enumerate() {
            self.events.schedule(f.at_us, CLASS_CONTROL, FleetEvent::Control { index: i });
        }
        while let Some((t, event)) = self.events.pop() {
            match event {
                FleetEvent::Control { index } => {
                    let f = self.plan[index];
                    match f.kind {
                        FailureKind::Crash => self.crash(f.die, t),
                        FailureKind::Drain => self.drain(f.die, t),
                        FailureKind::Rejoin => self.rejoin(f.die, t),
                    }
                }
                FleetEvent::Completion { die } => self.complete(die, t),
                FleetEvent::Arrival { tenant } => {
                    schedule_next_arrival(&mut self.events);
                    self.arrive(tenant, t);
                }
            }
        }
        self.report()
    }

    /// One front-door arrival: route, admit, maybe wake an idle die.
    fn arrive(&mut self, tenant: usize, t: f64) {
        self.tenants[tenant].offered += 1;
        if self.active_disruptions > 0 {
            self.disrupted_offered += 1;
        }
        let deadline_us = t + self.config.tenants[tenant].deadline_slack * self.isolated_us[tenant];
        let req = FleetRequest { tenant, arrival_us: t, deadline_us };
        match self.route(tenant) {
            Some(d) => self.admit(d, req, t),
            None => {
                self.tenants[tenant].unroutable_drops += 1;
                self.note_miss();
            }
        }
    }

    /// Queues `req` on die `d` (or drops it at the cap) and dispatches if
    /// the die is idle.
    fn admit(&mut self, d: usize, req: FleetRequest, t: f64) {
        if self.dies[d].queue.len() >= self.config.queue_cap {
            self.tenants[req.tenant].admission_drops += 1;
            return;
        }
        self.dies[d].queue.push_back(req);
        if self.dies[d].state == DieState::Up && self.dies[d].in_flight.is_none() {
            self.try_dispatch(d, t);
        }
    }

    /// One deadline/unroutable miss, attributed to the disruption window
    /// if any die is currently down or draining.
    fn note_miss(&mut self) {
        if self.active_disruptions > 0 {
            self.disrupted_misses += 1;
        }
    }

    /// Routes one request of `tenant` to an accepting die, per the
    /// configured policy. `None` when no die in the tenant's shard
    /// accepts work.
    fn route(&mut self, tenant: usize) -> Option<usize> {
        match self.config.router {
            RouterPolicy::Random => {
                pick_accepting(&mut self.router_rng, &self.dies, &self.shards[tenant])
            }
            RouterPolicy::RoundRobin => {
                let shard = &self.shards[tenant];
                let start = self.rr % shard.len();
                self.rr = self.rr.wrapping_add(1);
                (0..shard.len())
                    .map(|k| shard[(start + k) % shard.len()])
                    .find(|&d| self.dies[d].accepting())
            }
            RouterPolicy::PowerOfTwoChoices => self.route_po2c(tenant),
            RouterPolicy::CacheAffinity => {
                let warm = &self.warm_dies[tenant];
                let mut best: Option<(usize, usize)> = None;
                for _ in 0..2 {
                    if warm.is_empty() {
                        break;
                    }
                    let cand = warm[self.router_rng.random_range(0..warm.len())];
                    if self.dies[cand].accepting() {
                        let key = (self.dies[cand].load(), cand);
                        if best.is_none_or(|b| key < b) {
                            best = Some(key);
                        }
                    }
                }
                match best {
                    // A warm die with queue room wins; a saturated or
                    // dead warm set falls back to load balancing.
                    Some((load, d)) if load < self.config.queue_cap => Some(d),
                    _ => self.route_po2c(tenant),
                }
            }
        }
    }

    /// Power-of-two-choices over the tenant's shard.
    fn route_po2c(&mut self, tenant: usize) -> Option<usize> {
        let a = pick_accepting(&mut self.router_rng, &self.dies, &self.shards[tenant])?;
        let b = pick_accepting(&mut self.router_rng, &self.dies, &self.shards[tenant])?;
        let (ka, kb) = ((self.dies[a].load(), a), (self.dies[b].load(), b));
        Some(if ka <= kb { a } else { b })
    }

    /// Dispatches the next batch on idle die `d` at time `t`: purge
    /// expired front requests, batch the front tenant, sense → rung →
    /// divider, profile lookup, cold-penalty check, completion schedule.
    fn try_dispatch(&mut self, d: usize, t: f64) {
        debug_assert!(self.dies[d].state == DieState::Up && self.dies[d].in_flight.is_none());
        // Front purge is complete: per-tenant arrival order is preserved
        // in the FIFO queue, so deadlines are monotonic within a tenant
        // and an expired request always surfaces before a live one of the
        // same tenant. No expired request is ever dispatched.
        while self.dies[d].queue.front().is_some_and(|r| r.deadline_us < t) {
            let r = self.dies[d].queue.pop_front().unwrap();
            self.tenants[r.tenant].deadline_drops += 1;
            self.note_miss();
        }
        let Some(front) = self.dies[d].queue.front() else { return };
        let tn = front.tenant;
        let cap = self.config.tenants[tn].max_batch;
        let mut batch = std::mem::take(&mut self.dies[d].spare_batch);
        let mut i = 0;
        while i < self.dies[d].queue.len() && batch.len() < cap {
            if self.dies[d].queue[i].tenant == tn {
                batch.push(self.dies[d].queue.remove(i).unwrap());
            } else {
                i += 1;
            }
        }

        // The die idled (zero power) since its last update; cool it.
        let idle_us = t - self.dies[d].last_update_us;
        self.dies[d].temp_c = self.thermal.step(self.dies[d].temp_c, 0.0, idle_us);
        self.dies[d].last_update_us = t;

        // Sense → tolerable retention → ladder rung → divider (PR 3).
        let op = self.policy.operate(&self.thermal, self.dies[d].temp_c);
        let (divider, interval_us) = (op.divider, op.interval_us);
        if divider.ratio() != self.dies[d].divider_ratio {
            self.dies[d].divider_ratio = divider.ratio();
            self.dies[d].retunes += 1;
        }
        self.min_interval_us = self.min_interval_us.min(interval_us);

        // Warm-schedule check: first time this die runs (tenant, rung) it
        // pays the cold scheduling penalty and joins the tenant's warm
        // set (what the cache-affinity router steers by).
        let warm_key = (tn, divider.ratio());
        let cold = !self.dies[d].warm.contains(&warm_key);
        if cold {
            // The die's first pair for this tenant puts it in the
            // tenant's warm set (crashes clear both together).
            if !self.dies[d].warm.iter().any(|&(t, _)| t == tn) {
                self.warm_dies[tn].push(d);
            }
            self.dies[d].warm.push(warm_key);
            self.dies[d].cold_schedules += 1;
        }

        let strategy = self.config.die_strategy(d, tn);
        let banks = self.profiles.full_banks();
        let network = &self.config.tenants[tn].network;
        let (profile, fresh) = self.profiles.dispatch(tn, network, banks, interval_us, strategy);
        // Fresh Stage-2 searches behind this profile stall the dispatch
        // (a warm-started schedule cache leaves `fresh == 0`).
        let compile_stall_us = fresh as f64 * self.config.compile_penalty_us;
        self.compile_stall_us += compile_stall_us;
        let b = batch.len() as f64;
        // Weights stay resident across the batch.
        let energy = profile.batch_energy(batch.len());
        let time_us = profile.time_us * b
            + if cold { self.config.sched_penalty_us } else { 0.0 }
            + compile_stall_us;
        let power_w = energy.accelerator_j() / (time_us * 1e-6);
        let completion =
            self.events.schedule(t + time_us, CLASS_COMPLETION, FleetEvent::Completion { die: d });
        self.dies[d].in_flight = Some(InFlight {
            requests: batch,
            dispatch_us: t,
            time_us,
            energy,
            power_w,
            refresh_words: profile.refresh_words * b as u64,
            completion,
        });
        self.dies[d].batches += 1;
    }

    /// Finishes die `d`'s in-flight batch: thermal/energy accounting,
    /// latency recording, then the next dispatch (or drain completion).
    fn complete(&mut self, d: usize, t: f64) {
        let batch = self.dies[d].in_flight.take().expect("completion without in-flight batch");
        let die = &mut self.dies[d];
        die.temp_c = self.thermal.step(die.temp_c, batch.power_w, batch.time_us);
        die.peak_temp_c = die.peak_temp_c.max(die.temp_c);
        die.last_update_us = t;
        die.energy += batch.energy;
        die.served += batch.requests.len() as u64;
        self.energy += batch.energy;
        self.refresh_words += batch.refresh_words;
        self.makespan_us = self.makespan_us.max(t);
        for r in &batch.requests {
            let latency_us = t - r.arrival_us;
            self.queue_wait.record(batch.dispatch_us - r.arrival_us);
            let ts = &mut self.tenants[r.tenant];
            ts.served += 1;
            ts.latency.record(latency_us);
            // Deadlines gate dispatch, not completion: a request served
            // past its deadline still counts as an SLO miss.
            if t > r.deadline_us {
                ts.late_served += 1;
                self.note_miss();
            }
        }
        let mut requests = batch.requests;
        requests.clear();
        self.dies[d].spare_batch = requests;
        match self.dies[d].state {
            DieState::Draining => self.dies[d].state = DieState::Down,
            DieState::Up => self.try_dispatch(d, t),
            DieState::Down => unreachable!("a down die cannot complete a batch"),
        }
    }

    /// Hard failure of die `d`: lose the in-flight batch (charging the
    /// energy already spent as waste), clear the warm cache, and reroute
    /// everything.
    fn crash(&mut self, d: usize, t: f64) {
        if self.dies[d].state == DieState::Down {
            return;
        }
        let queued = self.dies[d].queue.len();
        let in_flight = self.dies[d].in_flight.as_ref().map_or(0, |b| b.requests.len());
        rana_trace::emit(|| rana_trace::Event::DieFailed { die: d, queued, in_flight });
        self.die_failures += 1;
        let mut displaced: Vec<FleetRequest> = Vec::with_capacity(queued + in_flight);
        if let Some(batch) = self.dies[d].in_flight.take() {
            self.events.cancel(batch.completion);
            // The batch ran for `t - dispatch_us` before dying: that
            // share of its energy is spent but buys nothing.
            let frac = ((t - batch.dispatch_us) / batch.time_us).clamp(0.0, 1.0);
            self.wasted_j += batch.energy.total_j() * frac;
            let die = &mut self.dies[d];
            die.temp_c = self.thermal.step(die.temp_c, batch.power_w, t - batch.dispatch_us);
            die.peak_temp_c = die.peak_temp_c.max(die.temp_c);
            die.last_update_us = t;
            self.lost_in_flight += batch.requests.len() as u64;
            displaced.extend(batch.requests);
        } else {
            let die = &mut self.dies[d];
            die.temp_c = self.thermal.step(die.temp_c, 0.0, t - die.last_update_us);
            die.last_update_us = t;
        }
        displaced.extend(self.dies[d].queue.drain(..));
        self.dies[d].warm.clear();
        for list in &mut self.warm_dies {
            list.retain(|&x| x != d);
        }
        self.dies[d].state = DieState::Down;
        if !self.disrupted[d] {
            self.disrupted[d] = true;
            self.active_disruptions += 1;
        }
        self.reroute(displaced, d, FailureKind::Crash, t);
    }

    /// Graceful drain of die `d`: hand the queue back, finish the
    /// in-flight batch, keep the warm cache.
    fn drain(&mut self, d: usize, t: f64) {
        if self.dies[d].state != DieState::Up {
            return;
        }
        let queued = self.dies[d].queue.len();
        rana_trace::emit(|| rana_trace::Event::DieDrained { die: d, queued });
        self.die_drains += 1;
        let displaced: Vec<FleetRequest> = self.dies[d].queue.drain(..).collect();
        self.dies[d].state =
            if self.dies[d].in_flight.is_some() { DieState::Draining } else { DieState::Down };
        if !self.disrupted[d] {
            self.disrupted[d] = true;
            self.active_disruptions += 1;
        }
        self.reroute(displaced, d, FailureKind::Drain, t);
    }

    /// Returns die `d` to service (ignored unless it is down). The die
    /// cooled, unpowered, while out of the fleet.
    fn rejoin(&mut self, d: usize, t: f64) {
        if self.dies[d].state != DieState::Down {
            return;
        }
        let die = &mut self.dies[d];
        die.temp_c = self.thermal.step(die.temp_c, 0.0, t - die.last_update_us);
        die.last_update_us = t;
        die.state = DieState::Up;
        if self.disrupted[d] {
            self.disrupted[d] = false;
            self.active_disruptions -= 1;
        }
    }

    /// Re-dispatches displaced requests through the router (the source
    /// die is already non-accepting, so it is never chosen again).
    fn reroute(&mut self, displaced: Vec<FleetRequest>, from: usize, why: FailureKind, t: f64) {
        for req in displaced {
            match self.route(req.tenant) {
                Some(to) => {
                    let tenant = self.config.tenants[req.tenant].network.name().to_string();
                    rana_trace::emit(|| rana_trace::Event::RequestRerouted {
                        tenant: tenant.clone(),
                        from_die: from,
                        to_die: to,
                        reason: why.label().to_string(),
                    });
                    match why {
                        FailureKind::Crash => self.rerouted_crash += 1,
                        FailureKind::Drain => self.rerouted_drain += 1,
                        FailureKind::Rejoin => unreachable!("rejoin displaces nothing"),
                    }
                    self.tenants[req.tenant].rerouted += 1;
                    self.admit(to, req, t);
                }
                None => {
                    self.tenants[req.tenant].unroutable_drops += 1;
                    self.note_miss();
                }
            }
        }
    }

    /// Assembles the final report.
    fn report(self) -> FleetReport {
        let mut latency = HistF64::new();
        for ts in &self.tenants {
            latency.merge(&ts.latency);
        }
        let tenants: Vec<FleetTenantReport> = self
            .tenants
            .iter()
            .zip(&self.config.tenants)
            .zip(&self.isolated_us)
            .map(|((ts, spec), &iso)| FleetTenantReport {
                name: spec.network.name().to_string(),
                weight: spec.weight,
                isolated_us: iso,
                offered: ts.offered,
                served: ts.served,
                admission_drops: ts.admission_drops,
                deadline_drops: ts.deadline_drops,
                unroutable_drops: ts.unroutable_drops,
                rerouted: ts.rerouted,
                late_served: ts.late_served,
                latency: LatencySummary::of(&ts.latency),
            })
            .collect();
        let served: Vec<u64> = self.dies.iter().map(|d| d.served).collect();
        let die_served_min = served.iter().copied().min().unwrap_or(0);
        let die_served_max = served.iter().copied().max().unwrap_or(0);
        let die_served_mean = if served.is_empty() {
            0.0
        } else {
            served.iter().sum::<u64>() as f64 / served.len() as f64
        };
        FleetReport {
            design: self.config.design.label().to_string(),
            router: self.config.router,
            num_dies: self.config.num_dies,
            shard_size: self.config.shard_size,
            traffic: self.config.traffic,
            seed: self.config.seed,
            horizon_us: self.config.horizon_us,
            offered: tenants.iter().map(|t| t.offered).sum(),
            served: tenants.iter().map(|t| t.served).sum(),
            admission_drops: tenants.iter().map(|t| t.admission_drops).sum(),
            deadline_drops: tenants.iter().map(|t| t.deadline_drops).sum(),
            unroutable_drops: tenants.iter().map(|t| t.unroutable_drops).sum(),
            late_served: tenants.iter().map(|t| t.late_served).sum(),
            batches: self.dies.iter().map(|d| d.batches).sum(),
            cold_schedules: self.dies.iter().map(|d| d.cold_schedules).sum(),
            compile_stall_us: self.compile_stall_us,
            retunes: self.dies.iter().map(|d| d.retunes).sum(),
            die_failures: self.die_failures,
            die_drains: self.die_drains,
            rerouted_crash: self.rerouted_crash,
            rerouted_drain: self.rerouted_drain,
            lost_in_flight: self.lost_in_flight,
            wasted_j: self.wasted_j,
            latency: LatencySummary::of(&latency),
            queue_wait: LatencySummary::of(&self.queue_wait),
            energy: self.energy,
            refresh_words: self.refresh_words,
            peak_temp_c: self
                .dies
                .iter()
                .map(|d| d.peak_temp_c)
                .fold(self.thermal.ambient_c, f64::max),
            min_interval_us: self.min_interval_us,
            nominal_interval_us: self.policy.nominal().1,
            makespan_us: self.makespan_us,
            die_served_min,
            die_served_max,
            die_served_mean,
            disrupted_offered: self.disrupted_offered,
            disrupted_misses: self.disrupted_misses,
            profile_entries: self.profiles.len() as u64,
            tenants,
        }
    }
}

/// A uniformly random accepting die of `shard`: rejection-sample a few
/// times (O(1) when most dies are up), then fall back to a scan from a
/// random offset so routing stays live under heavy failure.
fn pick_accepting(rng: &mut StdRng, dies: &[Die], shard: &[usize]) -> Option<usize> {
    for _ in 0..16 {
        let d = shard[rng.random_range(0..shard.len())];
        if dies[d].accepting() {
            return Some(d);
        }
    }
    let start = rng.random_range(0..shard.len());
    (0..shard.len()).map(|k| shard[(start + k) % shard.len()]).find(|&d| dies[d].accepting())
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
        for (t, shard) in sim.shards.iter().enumerate() {
            assert_eq!(shard.len(), 2, "tenant {t} shard");
        }
        assert_ne!(sim.shards[0], sim.shards[1], "shards stagger across the cluster");
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
}
