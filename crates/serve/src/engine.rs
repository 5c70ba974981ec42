//! The one serving loop.
//!
//! A discrete-event simulation on [`rana_des`] of RANA dies serving a
//! tenant mix. Each die is a whole accelerator with its own lumped-RC
//! thermal state, warm-schedule set and *slots*: a slot is a request
//! queue with its own bank share of the unified buffer, refresh-divider
//! setting and queue cap. The two public simulators are two shapes of
//! this loop:
//!
//! * [`Server`](crate::Server): one die with one slot per tenant, FIFO or
//!   EDF across the slots, a static or greedy bank split, one shared
//!   arrival generator, no warm-set penalty and no failure plan;
//! * [`FleetSim`](crate::fleet::FleetSim): a routed cluster whose dies
//!   each hold one slot shared by every tenant, per-tenant arrival
//!   streams, the warm-set penalty and a crash / drain / rejoin plan.
//!
//! Per batch the loop runs the operating-point engine
//! ([`rana_core::operating`]), as the adaptive runtime does: cool the die
//! over its idle time, throttle above [`THROTTLE_TEMP_C`], sense, derate
//! and snap onto the interval ladder (memoized per sensor step,
//! [`OperatingMemo`]), retune the slot's clock divider when the rung
//! changed, and look up the tenant's whole-network
//! [`Profile`](rana_core::operating::Profile) at the slot's bank share and
//! rung. The batch's dissipated power heats the die at completion.
//! Sustained load therefore heats the die, the die tightens the rungs,
//! and the tight rungs trigger the adaptive runtime's reschedule
//! fallback. A fresh profile's Stage-2 searches stall the dispatch: the
//! die idles, unpowered, while the host searches, and the stall counts as
//! queue wait.
//!
//! Same-timestamp order is fixed by DES priority classes (failure-plan
//! control, then completions, then arrivals), never by map iteration, so
//! a fixed configuration and seed replays byte for byte. Arrivals are
//! pulled lazily, one pending event at a time, so the heap holds at most
//! one completion per die, the failure plan and one arrival.

use crate::fleet::{FailureEvent, FailureKind, FleetConfig, RouterPolicy};
use crate::metrics::LatencyLog;
use crate::partition::{equal_split, greedy_split, PartitionPolicy};
use crate::server::{QueuePolicy, TenantSpec};
use crate::traffic::{ArrivalStreams, Arrivals};
use rana_core::energy::EnergyBreakdown;
use rana_core::evaluate::Evaluator;
use rana_core::operating::{
    throttle, OperatingMemo, OperatingPoint, Profile, ProfileCache, ThermalPolicy, THROTTLE_TEMP_C,
};
use rana_des::{EventId, EventQueue, Streams};
use rana_edram::thermal::ThermalModel;
use rana_trace::metrics::{MetricKey, SloObservation, SloSpec};
use rand::rngs::StdRng;
use rand::RngExt;
use std::collections::VecDeque;

/// Admission control: arrivals beyond this many queued requests in a slot
/// are dropped.
pub const QUEUE_CAP: usize = 16;
/// Smallest bank share the greedy split leaves a slot.
pub const MIN_BANKS: usize = 4;
/// Dynamic partitioning recomputes the bank split every this many µs.
/// Epochs must be long enough to observe tens of arrivals, or the
/// estimated per-tenant rates (and with them the split) jitter.
pub const REBALANCE_US: f64 = 2_000_000.0;
/// On-die cost of scheduling a `(tenant, rung)` pair a fleet die has never
/// run, µs: the cold warm-set miss the cache-affinity router avoids. It is
/// powered die work, so it stays inside the batch.
pub const WARM_SET_PENALTY_US: f64 = 5_000.0;

/// DES stream id of the router's RNG. Tenant arrival processes use
/// streams `0..n_tenants`; this id sits far outside that range so the two
/// can never collide.
pub(crate) const ROUTER_STREAM: u64 = 1 << 32;

/// DES priority class of failure-plan control events: state changes apply
/// before anything else at the same instant.
const CLASS_CONTROL: u8 = 0;
/// DES priority class of batch completions: dies free up before arrivals
/// at the same instant are routed.
const CLASS_COMPLETION: u8 = 1;
/// DES priority class of request arrivals.
const CLASS_ARRIVAL: u8 = 2;

/// The loop's event alphabet.
#[derive(Debug, Clone, Copy)]
enum Event {
    /// Apply failure-plan entry `index` (into the sorted plan).
    Control { index: usize },
    /// Die `die` finishes its in-flight batch.
    Completion { die: usize },
    /// One request of `tenant` arrives at the front door.
    Arrival { tenant: usize },
}

/// What tells the loop's two shapes apart.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Shape {
    /// One slot per tenant, or one slot shared by all tenants.
    pub(crate) slot_per_tenant: bool,
    /// Dispatch order among a die's slots.
    pub(crate) queue_policy: QueuePolicy,
    /// How a die's banks are split across its slots.
    pub(crate) partition_policy: PartitionPolicy,
    /// Greedy shares grow in slices of this many banks.
    pub(crate) bank_quantum: usize,
    /// How the arrival stream draws randomness.
    pub(crate) arrivals: ArrivalStreams,
    /// Cold warm-set penalty inside the batch, µs.
    pub(crate) warm_penalty_us: f64,
    /// Trace scope of dispatch events: `"{scope}/{tenant name}"`.
    pub(crate) scope: &'static str,
    /// Trace scope of strategy decisions ([`ProfileCache::scoped`]).
    pub(crate) profile_scope: &'static str,
}

/// One request in flight through the loop.
#[derive(Debug, Clone, Copy)]
struct Request {
    /// Tenant (mix index) the request belongs to.
    tenant: usize,
    /// Arrival at the front door, µs (survives rerouting, so latency
    /// always counts from first arrival).
    arrival_us: f64,
    /// Dispatch deadline, µs.
    deadline_us: f64,
}

/// Die availability state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DieState {
    /// Accepting and executing work.
    Up,
    /// Graceful drain: finishing the in-flight batch, accepting nothing;
    /// becomes `Down` at batch completion.
    Draining,
    /// Out of service (crashed or drained) until a rejoin.
    Down,
}

/// A request queue with its own bank share, divider setting and cap.
#[derive(Debug, Default)]
pub(crate) struct Slot {
    queue: VecDeque<Request>,
    /// Bank share of the unified buffer.
    pub(crate) banks: usize,
    /// Currently programmed refresh clock-divider ratio.
    pub(crate) divider_ratio: u64,
    /// Divider retunes.
    pub(crate) retunes: u64,
    /// Arrivals since the last rebalance.
    epoch_arrivals: u64,
}

/// The batch a die is executing, with everything its completion needs,
/// or a crash needs to charge the wasted share of it.
#[derive(Debug)]
struct InFlight {
    /// The batched requests (all one tenant).
    requests: Vec<Request>,
    /// Start of the powered batch, after any throttle and compile stall.
    dispatch_us: f64,
    /// Powered batch time, µs (including any warm-set penalty).
    time_us: f64,
    /// Batch Eq. 14 energy (weight reloads amortized).
    energy: EnergyBreakdown,
    /// Dissipated accelerator power over the batch, W.
    power_w: f64,
    /// Words refreshed over the batch.
    refresh_words: u64,
    /// The scheduled completion event (cancelled on crash).
    completion: EventId,
}

/// Mutable state of one die.
#[derive(Debug)]
pub(crate) struct Die {
    state: DieState,
    pub(crate) slots: Vec<Slot>,
    /// Junction temperature, °C: at `last_update_us` while idle, at the
    /// start of the powered batch while one runs. A crash inside a
    /// throttle or compile stall leaves it at the batch start, with
    /// `last_update_us` moved there too, so no cooling counts twice.
    temp_c: f64,
    /// Instant `temp_c` was last integrated to, µs.
    last_update_us: f64,
    /// The modeled on-die schedule cache: per tenant, the distinct divider
    /// ratios this die has already scheduled it at, in first-use order (a
    /// handful each, so a scan beats hashing). A crash clears every list,
    /// a drain keeps them.
    warm: Vec<Vec<u64>>,
    in_flight: Option<InFlight>,
    /// The last completed batch's request buffer, emptied and kept for the
    /// next dispatch so steady-state batching allocates nothing.
    spare_batch: Vec<Request>,
    /// Requests served to completion.
    pub(crate) served: u64,
    /// Peak junction temperature, °C.
    pub(crate) peak_temp_c: f64,
    /// Time spent idle with empty queues, µs.
    pub(crate) idle_us: f64,
    /// Idle time inserted by the thermal throttle, µs.
    pub(crate) throttle_us: f64,
    /// Greedy bank-split recomputations.
    pub(crate) rebalances: u64,
    next_rebalance_us: f64,
}

impl Die {
    fn new(ambient_c: f64, nominal_ratio: u64, shares: &[usize], tenants: usize) -> Self {
        let slot = |&banks: &usize| Slot { banks, divider_ratio: nominal_ratio, ..Slot::default() };
        Self {
            state: DieState::Up,
            slots: shares.iter().map(slot).collect(),
            temp_c: ambient_c,
            last_update_us: 0.0,
            warm: vec![Vec::new(); tenants],
            in_flight: None,
            spare_batch: Vec::new(),
            served: 0,
            peak_temp_c: ambient_c,
            idle_us: 0.0,
            throttle_us: 0.0,
            rebalances: 0,
            next_rebalance_us: REBALANCE_US,
        }
    }

    /// Whether the router may queue new work here.
    fn accepting(&self) -> bool {
        self.state == DieState::Up
    }

    /// Queued requests across the slots.
    fn queued(&self) -> usize {
        self.slots.iter().map(|s| s.queue.len()).sum()
    }

    /// Router load signal: queued plus executing requests.
    fn load(&self) -> usize {
        self.queued() + self.in_flight.as_ref().map_or(0, |b| b.requests.len())
    }

    /// Cools the unpowered die forward to `t` and returns the idle time
    /// integrated (0 when `temp_c` is already at or past `t`).
    fn cool_to(&mut self, thermal: &ThermalModel, t: f64) -> f64 {
        let idle_us = t - self.last_update_us;
        if idle_us <= 0.0 {
            return 0.0;
        }
        self.temp_c = thermal.step(self.temp_c, 0.0, idle_us);
        self.last_update_us = t;
        idle_us
    }
}

/// Per-tenant accounting; run-wide latency is the merge of the tenants'
/// logs, built at report time.
#[derive(Debug, Default)]
pub(crate) struct TenantStats<L> {
    pub(crate) offered: u64,
    pub(crate) served: u64,
    pub(crate) batches: u64,
    pub(crate) admission_drops: u64,
    pub(crate) deadline_drops: u64,
    pub(crate) unroutable_drops: u64,
    pub(crate) rerouted: u64,
    pub(crate) late_served: u64,
    pub(crate) rescheduled_layer_execs: u64,
    pub(crate) flagged_banks_peak: usize,
    pub(crate) energy: EnergyBreakdown,
    pub(crate) latency: L,
    pub(crate) queue_wait: L,
}

/// The serving loop's state. Build with [`Engine::new`], drive with
/// [`Engine::run`], then read the report fields off the result.
#[derive(Debug)]
pub(crate) struct Engine<'a, L> {
    pub(crate) config: FleetConfig,
    pub(crate) shape: Shape,
    thermal: ThermalModel,
    /// Stage 1, memoized by sensor step.
    pub(crate) stage1: OperatingMemo,
    /// Simulator memo of inference profiles; unlike the modeled per-die
    /// warm set, no die pays for it.
    pub(crate) profiles: ProfileCache<'a>,
    pub(crate) isolated_us: Vec<f64>,
    pub(crate) dies: Vec<Die>,
    pub(crate) shards: Vec<Vec<usize>>,
    warm_dies: Vec<Vec<usize>>,
    disrupted: Vec<bool>,
    events: EventQueue<Event>,
    plan: Vec<FailureEvent>,
    router_rng: StdRng,
    rr: usize,
    pub(crate) tenants: Vec<TenantStats<L>>,
    pub(crate) energy: EnergyBreakdown,
    pub(crate) wasted_j: f64,
    pub(crate) refresh_words: u64,
    pub(crate) min_interval_us: f64,
    pub(crate) makespan_us: f64,
    pub(crate) compile_stall_us: f64,
    pub(crate) cold_schedules: u64,
    active_disruptions: usize,
    pub(crate) disrupted_offered: u64,
    pub(crate) disrupted_misses: u64,
    pub(crate) die_failures: u64,
    pub(crate) die_drains: u64,
    pub(crate) rerouted_crash: u64,
    pub(crate) rerouted_drain: u64,
    pub(crate) lost_in_flight: u64,
}

impl<'a, L: LatencyLog> Engine<'a, L> {
    /// Validates `config` and builds its dies in `shape` over `eval`'s
    /// platform (and its shared schedule cache): the one constructor
    /// behind `Server::new` and `FleetSim::new`.
    ///
    /// # Panics
    ///
    /// Panics if the design does not buffer in eDRAM, the mix or cluster
    /// is empty, a tenant or cluster knob is out of range, the failure plan
    /// names a die outside the cluster, or the buffer cannot give every
    /// slot [`MIN_BANKS`] banks.
    pub(crate) fn new(eval: &'a Evaluator, config: FleetConfig, shape: Shape) -> Self {
        let (specs, n) = (&config.tenants, config.num_dies);
        assert!(config.design.uses_edram(), "serving needs an eDRAM design, got {}", config.design);
        assert!(!specs.is_empty(), "tenant mix must not be empty");
        assert!(specs.iter().all(|s| s.weight > 0.0), "tenant weights must be positive");
        assert!(specs.iter().all(|s| s.max_batch >= 1), "max_batch must be at least 1");
        assert!(specs.iter().all(|s| s.deadline_slack > 1.0), "deadline slack must exceed 1");
        assert!(n >= 1, "cluster must have at least one die");
        assert!(config.compile_penalty_us >= 0.0, "compile penalty must be non-negative");
        assert!(config.shard_size != Some(0), "shards must hold at least one die");
        for f in &config.failures {
            assert!(f.die < n, "failure plan names die {} of {n}", f.die);
            assert!(f.at_us.is_finite() && f.at_us >= 0.0, "failure times must be finite and >= 0");
        }

        let template = eval.scheduler_for(config.design);
        let thermal = ThermalModel::embedded_65nm();
        let policy = ThermalPolicy::new(
            &template,
            eval.retention().tolerable_retention_us(config.design.failure_rate()),
            config.ladder_steps_per_octave,
        );
        let nt = specs.len();
        let slots = if shape.slot_per_tenant { nt } else { 1 };
        let total_banks = template.cfg.buffer.num_banks;
        assert!(
            total_banks >= slots * MIN_BANKS,
            "{total_banks} banks cannot give {slots} slots {MIN_BANKS} banks each"
        );
        let (nominal_divider, nominal_rung_us) = policy.nominal();
        let shares = equal_split(total_banks, slots);
        let dies = (0..n)
            .map(|_| Die::new(thermal.ambient_c, nominal_divider.ratio(), &shares, nt))
            .collect();
        // Shards stagger evenly over the cluster so tenants overlap as
        // little as the shard size allows.
        let shard = config.shard_size.unwrap_or(n).min(n);
        let shards = (0..nt)
            .map(|t| {
                let start = t * n / nt;
                (0..shard).map(|j| (start + j) % n).collect()
            })
            .collect();
        let isolated_us =
            specs.iter().map(|s| eval.evaluate(&s.network, config.design).time_us).collect();
        let mut plan = config.failures.clone();
        plan.sort_by(|a, b| {
            a.at_us
                .total_cmp(&b.at_us)
                .then(a.die.cmp(&b.die))
                .then((a.kind as u8).cmp(&(b.kind as u8)))
        });
        let router_rng = Streams::new(config.seed).rng(ROUTER_STREAM);
        let profiles = ProfileCache::new(eval, template, config.reschedule_refresh_weight)
            .scoped(shape.profile_scope);

        Self {
            thermal,
            stage1: OperatingMemo::new(policy, thermal),
            profiles,
            isolated_us,
            dies,
            shards,
            warm_dies: vec![Vec::new(); nt],
            disrupted: vec![false; n],
            events: EventQueue::new(),
            plan,
            router_rng,
            rr: 0,
            tenants: (0..nt).map(|_| TenantStats::default()).collect(),
            energy: EnergyBreakdown::default(),
            wasted_j: 0.0,
            refresh_words: 0,
            min_interval_us: nominal_rung_us,
            makespan_us: 0.0,
            compile_stall_us: 0.0,
            cold_schedules: 0,
            active_disruptions: 0,
            disrupted_offered: 0,
            disrupted_misses: 0,
            die_failures: 0,
            die_drains: 0,
            rerouted_crash: 0,
            rerouted_drain: 0,
            lost_in_flight: 0,
            config,
            shape,
        }
    }

    /// Runs the whole scenario (arrivals, routing, batching, the
    /// thermal/refresh loop, the failure plan) until every queue drains.
    pub(crate) fn run(mut self) -> Self {
        let weights: Vec<f64> = self.config.tenants.iter().map(|s| s.weight).collect();
        let c = &self.config;
        let mut arrivals =
            Arrivals::new(self.shape.arrivals, &weights, c.traffic, c.horizon_us, c.seed);
        // Delivering an arrival schedules the next. The stream is in time
        // order and at most one arrival event is queued, so arrivals fire
        // in stream order and the next is never in the past.
        let mut schedule_next_arrival = |events: &mut EventQueue<Event>| {
            if let Some(a) = arrivals.next() {
                events.schedule(a.arrival_us, CLASS_ARRIVAL, Event::Arrival { tenant: a.tenant });
            }
        };
        schedule_next_arrival(&mut self.events);
        for (i, f) in self.plan.iter().enumerate() {
            self.events.schedule(f.at_us, CLASS_CONTROL, Event::Control { index: i });
        }
        if self.shape.partition_policy == PartitionPolicy::Dynamic {
            for d in 0..self.dies.len() {
                self.rebalance(d);
            }
        }
        while let Some((t, event)) = self.events.pop() {
            match event {
                Event::Control { index } => {
                    let f = self.plan[index];
                    match f.kind {
                        FailureKind::Crash => self.crash(f.die, t),
                        FailureKind::Drain => self.drain(f.die, t),
                        FailureKind::Rejoin => self.rejoin(f.die, t),
                    }
                }
                Event::Completion { die } => self.complete(die, t),
                Event::Arrival { tenant } => {
                    schedule_next_arrival(&mut self.events);
                    self.arrive(tenant, t);
                }
            }
        }
        self
    }

    /// One front-door arrival: route, then admit.
    fn arrive(&mut self, tenant: usize, t: f64) {
        self.tenants[tenant].offered += 1;
        self.disrupted_offered += u64::from(self.active_disruptions > 0);
        let deadline_us = t + self.config.tenants[tenant].deadline_slack * self.isolated_us[tenant];
        let req = Request { tenant, arrival_us: t, deadline_us };
        match self.route(tenant) {
            Some(d) => self.admit(d, req, t),
            None => self.drop_unroutable(tenant, t),
        }
    }

    /// Queues `req` in its slot of die `d` (or drops it at the cap) and
    /// dispatches if the die is idle.
    fn admit(&mut self, d: usize, req: Request, t: f64) {
        let die = &mut self.dies[d];
        let slot = &mut die.slots[if self.shape.slot_per_tenant { req.tenant } else { 0 }];
        slot.epoch_arrivals += 1;
        if slot.queue.len() >= QUEUE_CAP {
            self.tenants[req.tenant].admission_drops += 1;
            return;
        }
        slot.queue.push_back(req);
        if die.state == DieState::Up && die.in_flight.is_none() {
            self.try_dispatch(d, t);
        }
    }

    /// Drops a request of `tenant` that no die in its shard accepts: a
    /// miss, fed to the tenant's SLO tracker like a deadline drop.
    fn drop_unroutable(&mut self, tenant: usize, t: f64) {
        self.tenants[tenant].unroutable_drops += 1;
        self.note_miss();
        observe(&self.config.tenants[tenant], self.isolated_us[tenant], None, true, t);
    }

    /// One deadline/unroutable miss, attributed to the disruption window
    /// if any die is currently down or draining.
    fn note_miss(&mut self) {
        self.disrupted_misses += u64::from(self.active_disruptions > 0);
    }

    /// Routes one request of `tenant` to an accepting die, per the
    /// configured policy. `None` when no die in the tenant's shard accepts
    /// work.
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
                // Two random warm dies (no draw from an empty warm set);
                // the less loaded accepting one, ties to the lower index.
                let warm = &self.warm_dies[tenant];
                let best = (0..if warm.is_empty() { 0 } else { 2 })
                    .map(|_| warm[self.router_rng.random_range(0..warm.len())])
                    .filter(|&d| self.dies[d].accepting())
                    .map(|d| (self.dies[d].load(), d))
                    .min();
                match best {
                    // A warm die with queue room wins; a saturated or
                    // dead warm set falls back to load balancing.
                    Some((load, d)) if load < QUEUE_CAP => Some(d),
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

    /// Recomputes die `d`'s greedy bank split from the arrival rates its
    /// slots observed this epoch (first call: the configured mix weights).
    /// Banks go where the predicted energy-per-inference saving at the
    /// nominal rung, weighted by load, is largest.
    fn rebalance(&mut self, d: usize) {
        let die = &mut self.dies[d];
        let mut rates: Vec<f64> = die.slots.iter().map(|s| s.epoch_arrivals as f64).collect();
        if rates.iter().all(|&r| r == 0.0) {
            rates = self.config.tenants.iter().map(|s| s.weight).collect();
        }
        for s in &mut die.slots {
            s.epoch_arrivals = 0;
        }
        die.rebalances += 1;
        let (total, quantum) = (self.profiles.full_banks(), self.shape.bank_quantum);
        let (config, profiles) = (&self.config, &mut self.profiles);
        let rung = self.stage1.policy().nominal().1;
        let mut energy_at = |t: usize, banks: usize| {
            let (net, strategy) = (&config.tenants[t].network, config.die_strategy(d, t));
            profiles.profile_at(t, net, banks, rung, strategy).energy.total_j()
        };
        let shares = greedy_split(total, rates.len(), MIN_BANKS, quantum, |t, b| {
            rates[t] * (energy_at(t, b) - energy_at(t, b + quantum))
        });
        for (slot, banks) in self.dies[d].slots.iter_mut().zip(shares) {
            slot.banks = banks;
        }
    }

    /// Dispatches the next batch on idle die `d` at time `t`: rebalance
    /// epoch, expiry purge, slot choice, then cool → throttle → sense →
    /// rung → divider, profile lookup, compile stall and the completion
    /// schedule. Leaves the die idle when every slot is empty.
    fn try_dispatch(&mut self, d: usize, t: f64) {
        debug_assert!(self.dies[d].accepting() && self.dies[d].in_flight.is_none());
        if self.shape.partition_policy == PartitionPolicy::Dynamic
            && t >= self.dies[d].next_rebalance_us
        {
            self.rebalance(d);
            let die = &mut self.dies[d];
            while die.next_rebalance_us <= t {
                die.next_rebalance_us += REBALANCE_US;
            }
        }
        // Front purge: per-tenant arrival order is preserved in each FIFO
        // slot, so deadlines are monotonic within a tenant and an expired
        // request always surfaces before a live one of the same tenant.
        for s in 0..self.dies[d].slots.len() {
            while let Some(&r) = self.dies[d].slots[s].queue.front().filter(|r| r.deadline_us < t) {
                self.dies[d].slots[s].queue.pop_front();
                self.tenants[r.tenant].deadline_drops += 1;
                self.note_miss();
                observe(&self.config.tenants[r.tenant], self.isolated_us[r.tenant], None, true, t);
            }
        }
        // The slot to serve, per the queue policy (ties to the lowest
        // index).
        let die = &mut self.dies[d];
        let key = |slot: &Slot| match self.shape.queue_policy {
            QueuePolicy::Fifo => slot.queue[0].arrival_us,
            QueuePolicy::Edf => slot.queue[0].deadline_us,
        };
        let busy = (0..die.slots.len()).filter(|&i| !die.slots[i].queue.is_empty());
        let Some(s) = busy.min_by(|&a, &b| key(&die.slots[a]).total_cmp(&key(&die.slots[b])))
        else {
            return;
        };
        // Batch up to `max_batch` requests of the front request's tenant.
        let queue = &mut die.slots[s].queue;
        let tn = queue[0].tenant;
        let cap = self.config.tenants[tn].max_batch;
        let mut batch = std::mem::take(&mut die.spare_batch);
        let mut i = 0;
        while i < queue.len() && batch.len() < cap {
            if queue[i].tenant == tn {
                batch.push(queue.remove(i).expect("index is inside the queue"));
            } else {
                i += 1;
            }
        }

        // The die idled, unpowered, since its last update; cool it (a
        // back-to-back dispatch has nothing to integrate), then throttle
        // (closed-form RC cooldown to the cap).
        die.idle_us += die.cool_to(&self.thermal, t);
        let mut now = t;
        if let Some(dt) = throttle(&self.thermal, die.temp_c, THROTTLE_TEMP_C) {
            die.temp_c = THROTTLE_TEMP_C;
            now += dt;
            die.throttle_us += dt;
        }

        // Sense → tolerable retention → ladder rung → divider.
        let op = self.stage1.operate(die.temp_c);
        let (divider, interval_us) = (op.divider, op.interval_us);
        let slot = &mut die.slots[s];
        let retuned = divider.ratio() != slot.divider_ratio;
        if retuned {
            slot.divider_ratio = divider.ratio();
            slot.retunes += 1;
        }
        let banks = slot.banks;
        self.min_interval_us = self.min_interval_us.min(interval_us);

        // Warm-set check: the first time this die runs (tenant, rung) it
        // pays the warm-set penalty and joins the tenant's warm set (what
        // the cache-affinity router steers by; crashes clear both).
        let warm = &mut die.warm[tn];
        let cold = !warm.contains(&divider.ratio());
        if cold {
            if warm.is_empty() {
                self.warm_dies[tn].push(d);
            }
            warm.push(divider.ratio());
            self.cold_schedules += 1;
        }

        let network = &self.config.tenants[tn].network;
        let strategy = self.config.die_strategy(d, tn);
        let (profile, fresh) = self.profiles.dispatch(tn, network, banks, interval_us, strategy);
        // A freshly compiled profile's Stage-2 searches stall the dispatch:
        // the die sits unpowered while the host searches. Warm-started
        // caches leave nothing to charge.
        let stall = fresh as f64 * self.config.compile_penalty_us;
        if stall > 0.0 {
            die.temp_c = self.thermal.step(die.temp_c, 0.0, stall);
            now += stall;
            self.compile_stall_us += stall;
        }

        let b = batch.len();
        if rana_trace::enabled() {
            trace_dispatch(self.shape.scope, network.name(), &batch, now, &op, retuned, &profile);
        }

        let ts = &mut self.tenants[tn];
        ts.batches += 1;
        ts.rescheduled_layer_execs += profile.rescheduled_layers * b as u64;
        ts.flagged_banks_peak = ts.flagged_banks_peak.max(profile.flagged_banks);
        // Weights stay resident across the batch.
        let energy = profile.batch_energy(b);
        let time_us =
            profile.time_us * b as f64 + if cold { self.shape.warm_penalty_us } else { 0.0 };
        let power_w = energy.accelerator_j() / (time_us * 1e-6);
        let completion =
            self.events.schedule(now + time_us, CLASS_COMPLETION, Event::Completion { die: d });
        die.in_flight = Some(InFlight {
            requests: batch,
            dispatch_us: now,
            time_us,
            energy,
            power_w,
            refresh_words: profile.refresh_words * b as u64,
            completion,
        });
    }

    /// Finishes die `d`'s in-flight batch: thermal/energy accounting,
    /// latency recording, then the next dispatch (or drain completion).
    fn complete(&mut self, d: usize, t: f64) {
        let batch = self.dies[d].in_flight.take().expect("completion without in-flight batch");
        let die = &mut self.dies[d];
        die.temp_c = self.thermal.step(die.temp_c, batch.power_w, batch.time_us);
        die.peak_temp_c = die.peak_temp_c.max(die.temp_c);
        die.last_update_us = t;
        die.served += batch.requests.len() as u64;
        self.energy += batch.energy;
        self.refresh_words += batch.refresh_words;
        self.makespan_us = self.makespan_us.max(t);
        self.tenants[batch.requests[0].tenant].energy += batch.energy;
        let traced = rana_trace::enabled();
        for r in &batch.requests {
            let (latency_us, wait_us) = (t - r.arrival_us, batch.dispatch_us - r.arrival_us);
            // Deadlines gate dispatch, not completion: a request served
            // past its deadline still counts as an SLO miss.
            let late = t > r.deadline_us;
            let ts = &mut self.tenants[r.tenant];
            ts.served += 1;
            ts.latency.record(latency_us);
            ts.queue_wait.record(wait_us);
            if late {
                ts.late_served += 1;
                self.note_miss();
            }
            if traced {
                let spec = &self.config.tenants[r.tenant];
                observe(spec, self.isolated_us[r.tenant], Some((latency_us, wait_us)), late, t);
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

    /// Marks die `d` as down or draining for the disruption window.
    fn disrupt(&mut self, d: usize) {
        if !self.disrupted[d] {
            self.disrupted[d] = true;
            self.active_disruptions += 1;
        }
    }

    /// Hard failure of die `d`: lose the in-flight batch (charging the
    /// energy already spent as waste), clear the warm set, and reroute
    /// everything.
    fn crash(&mut self, d: usize, t: f64) {
        if self.dies[d].state == DieState::Down {
            return;
        }
        let die = &mut self.dies[d];
        let queued = die.queued();
        let in_flight = die.in_flight.as_ref().map_or(0, |b| b.requests.len());
        rana_trace::emit(|| rana_trace::Event::DieFailed { die: d, queued, in_flight });
        self.die_failures += 1;
        let mut displaced: Vec<Request> = Vec::with_capacity(queued + in_flight);
        if let Some(batch) = die.in_flight.take() {
            self.events.cancel(batch.completion);
            // The batch ran for `ran_us` before dying: that share of its
            // energy is spent but buys nothing.
            let ran_us = (t - batch.dispatch_us).max(0.0);
            self.wasted_j += batch.energy.total_j() * (ran_us / batch.time_us).clamp(0.0, 1.0);
            die.temp_c = self.thermal.step(die.temp_c, batch.power_w, ran_us);
            die.peak_temp_c = die.peak_temp_c.max(die.temp_c);
            die.last_update_us = t.max(batch.dispatch_us);
            self.lost_in_flight += batch.requests.len() as u64;
            displaced.extend(batch.requests);
        } else {
            die.cool_to(&self.thermal, t);
        }
        displaced.extend(die.slots.iter_mut().flat_map(|slot| slot.queue.drain(..)));
        die.warm.iter_mut().for_each(Vec::clear);
        die.state = DieState::Down;
        for list in &mut self.warm_dies {
            list.retain(|&x| x != d);
        }
        self.disrupt(d);
        self.reroute(displaced, d, FailureKind::Crash, t);
    }

    /// Graceful drain of die `d`: hand the queues back, finish the
    /// in-flight batch, keep the warm set.
    fn drain(&mut self, d: usize, t: f64) {
        if self.dies[d].state != DieState::Up {
            return;
        }
        let die = &mut self.dies[d];
        let queued = die.queued();
        rana_trace::emit(|| rana_trace::Event::DieDrained { die: d, queued });
        self.die_drains += 1;
        let displaced: Vec<Request> =
            die.slots.iter_mut().flat_map(|slot| slot.queue.drain(..)).collect();
        die.state = if die.in_flight.is_some() { DieState::Draining } else { DieState::Down };
        self.disrupt(d);
        self.reroute(displaced, d, FailureKind::Drain, t);
    }

    /// Returns die `d` to service (ignored unless it is down). The die
    /// cooled, unpowered, while out of service.
    fn rejoin(&mut self, d: usize, t: f64) {
        if self.dies[d].state != DieState::Down {
            return;
        }
        let die = &mut self.dies[d];
        die.cool_to(&self.thermal, t);
        die.state = DieState::Up;
        if self.disrupted[d] {
            self.disrupted[d] = false;
            self.active_disruptions -= 1;
        }
    }

    /// Re-admits displaced requests through the router (the source die is
    /// already non-accepting, so it is never chosen again).
    fn reroute(&mut self, displaced: Vec<Request>, from: usize, why: FailureKind, t: f64) {
        for req in displaced {
            match self.route(req.tenant) {
                Some(to) => {
                    let name = self.config.tenants[req.tenant].network.name();
                    rana_trace::emit(|| rana_trace::Event::RequestRerouted {
                        tenant: name.to_string(),
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
                None => self.drop_unroutable(req.tenant, t),
            }
        }
    }
}

/// Emits a dispatch's trace events and counters, scoped
/// `"{scope}/{name}"`: off the hot path, so an untraced run pays only the
/// caller's `enabled` check.
#[cold]
fn trace_dispatch(
    scope: &str,
    name: &str,
    batch: &[Request],
    now: f64,
    op: &OperatingPoint,
    retuned: bool,
    profile: &Profile,
) {
    // Tightest remaining slack in the batch at the moment of dispatch
    // (negative only transiently: the purge ran first).
    let slack_us = batch.iter().map(|r| r.deadline_us - now).fold(f64::INFINITY, f64::min);
    let scope = format!("{scope}/{name}");
    rana_trace::emit(|| rana_trace::Event::TenantDispatch {
        tenant: name.to_string(),
        batch: batch.len(),
        deadline_slack_us: slack_us,
    });
    rana_trace::emit(|| rana_trace::Event::ThermalSample {
        at: scope.clone(),
        temp_c: op.sensed_c,
        scaled_retention_us: op.tolerable_us,
    });
    if retuned {
        rana_trace::emit(|| rana_trace::Event::RefreshDecision {
            scope,
            banks: profile.flagged_banks,
            divider: op.divider.ratio(),
            rung_us: op.interval_us,
            refresh_words: profile.refresh_words,
            reason: "retune".to_string(),
        });
    }
    rana_trace::count("serve.batches", 1);
    rana_trace::count("serve.requests", batch.len() as u64);
}

/// Feeds one request outcome to the session's metrics: a completion's
/// `(latency, queue wait)` into the per-tenant histograms, and every
/// completion, deadline drop or unroutable drop into the tenant's SLO
/// tracker.
fn observe(spec: &TenantSpec, isolated_us: f64, served: Option<(f64, f64)>, missed: bool, t: f64) {
    rana_trace::metrics::record(|reg| {
        let name = spec.network.name();
        if let Some((latency_us, wait_us)) = served {
            reg.observe_f64(MetricKey::new("serve.latency_us").label("tenant", name), latency_us);
            reg.observe_f64(MetricKey::new("serve.queue_wait_us").label("tenant", name), wait_us);
        }
        let slo = SloSpec::from_deadline(spec.deadline_slack * isolated_us);
        let (latency_us, queue_wait_us) = served.unzip();
        let obs = SloObservation { latency_us, queue_wait_us, missed_deadline: missed, now_us: t };
        reg.slo_observe(name, &slo, obs);
    });
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
    use crate::fleet::FLEET;
    use crate::traffic::TrafficModel;
    use rana_trace::metrics::HistF64;

    #[test]
    fn fresh_die_is_idle_and_accepting() {
        let d = Die::new(45.0, 9000, &[22, 22], 3);
        assert!(d.accepting());
        assert_eq!(d.load(), 0);
        assert_eq!(d.temp_c, 45.0);
        assert_eq!(d.warm.len(), 3);
        assert!(d.warm.iter().all(Vec::is_empty));
        assert_eq!(d.slots.len(), 2);
    }

    #[test]
    fn crash_inside_a_compile_stall_cools_the_die_once() {
        let eval = Evaluator::paper_platform();
        let tenants = vec![TenantSpec::new(rana_zoo::alexnet(), 1.0)];
        let traffic = TrafficModel::Poisson { rate_rps: 1.0 };
        let mut cfg = FleetConfig::paper(tenants, traffic, 1, RouterPolicy::RoundRobin, 1);
        cfg.compile_penalty_us = 1_000.0;
        let mut e: Engine<'_, HistF64> = Engine::new(&eval, cfg, FLEET);
        e.dies[0].temp_c = 80.0;

        // A hot die dispatches a fresh profile at t = 500 µs and stalls.
        e.admit(0, Request { tenant: 0, arrival_us: 500.0, deadline_us: f64::INFINITY }, 500.0);
        let stall = e.compile_stall_us;
        assert!(stall > 0.0, "the first dispatch compiles");
        let batch = e.dies[0].in_flight.as_ref().expect("dispatched");
        let (dispatch_us, power_w) = (batch.dispatch_us, batch.power_w);
        assert_eq!(dispatch_us, 500.0 + stall);
        assert_eq!(e.dies[0].warm[0].len(), 1, "the tenant's first rung is warm");
        assert_eq!(e.warm_dies[0], [0]);

        // It crashes halfway through the stall: nothing ran, and the die
        // is taken to have cooled through the whole stall. The crash
        // forgets every warm rung.
        e.crash(0, 500.0 + stall / 2.0);
        assert!(e.dies[0].warm.iter().all(Vec::is_empty));
        assert!(e.warm_dies[0].is_empty());
        assert_eq!(e.wasted_j, 0.0);
        assert_eq!(e.lost_in_flight, 1);
        assert_eq!(e.tenants[0].unroutable_drops, 1, "a one-die fleet has nowhere to reroute");
        assert_eq!(e.dies[0].last_update_us, dispatch_us);

        // A rejoin cools it from the batch start only.
        e.rejoin(0, dispatch_us + 2_000.0);
        let th = e.thermal;
        let at_dispatch = th.step(th.step(80.0, 0.0, 500.0), 0.0, stall);
        let expected = th.step(th.step(at_dispatch, power_w, 0.0), 0.0, 2_000.0);
        assert_eq!(e.dies[0].temp_c, expected);
    }
}
