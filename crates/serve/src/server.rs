//! The event-driven serving loop.
//!
//! One simulated RANA accelerator serves a mix of tenant networks. Each
//! tenant owns a partition of the banked eDRAM unified buffer and is
//! scheduled against an accelerator config whose `buffer.num_banks` equals
//! its share, at the refresh-interval ladder rung the sensed die
//! temperature currently allows — so every (layer shape, partition size,
//! rung) search flows through the evaluator's shared
//! [`ScheduleCache`](rana_core::par::ScheduleCache) and is performed at
//! most once.
//!
//! Per batch the loop runs the operating-point engine
//! ([`rana_core::operating`]), as the adaptive runtime does: sense
//! the die, derate and snap onto the interval ladder, and retune the
//! tenant's clock divider when the rung changed. Then it looks up the
//! tenant's whole-network [`Profile`](rana_core::operating::Profile) at
//! its bank share and rung, and integrates the dissipated power into the
//! lumped-RC thermal plant. Sustained load therefore heats the die, the
//! die tightens the rungs, and the tight rungs trigger exactly the
//! adaptive runtime's reschedule fallback.

use crate::metrics::LatencyStats;
use crate::partition::{equal_split, greedy_split, PartitionPolicy};
use crate::traffic::{ArrivalStreams, Arrivals, TrafficModel};
use rana_core::designs::Design;
use rana_core::energy::EnergyBreakdown;
use rana_core::evaluate::Evaluator;
use rana_core::operating::{check_throttle, throttle, ProfileCache, ThermalPolicy};
use rana_core::policy::Strategy;
use rana_des::EventQueue;
use rana_edram::thermal::ThermalModel;
use rana_trace::metrics::{MetricKey, SloObservation, SloSpec};
use rana_trace::{json_f64, json_string};
use rana_zoo::Network;
use std::collections::VecDeque;

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

/// Configuration of one serving run.
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
    /// How the arrival stream draws randomness: one shared generator
    /// (legacy, the committed-baseline behavior) or per-tenant streams
    /// split off the DES core so tenants never perturb each other.
    pub arrival_streams: ArrivalStreams,
    /// Admission control: arrivals beyond this many queued requests per
    /// tenant are dropped.
    pub queue_cap: usize,
    /// Smallest per-tenant bank share.
    pub min_banks: usize,
    /// Dynamic shares grow in slices of this many banks (bounds the set
    /// of distinct partition sizes the schedule cache must absorb).
    pub bank_quantum: usize,
    /// Dynamic partitioning recomputes shares every this many µs. Epochs
    /// must be long enough to observe tens of arrivals, or the estimated
    /// per-tenant rates (and with them the partition) jitter.
    pub rebalance_us: f64,
    /// Safety margin on the tolerable retention time (PR 3 semantics).
    pub retention_margin: f64,
    /// Temperature sensor resolution, °C (samples quantize up).
    pub sensor_quantum_c: f64,
    /// Interval-ladder resolution, rungs per octave of derating.
    pub ladder_steps_per_octave: u32,
    /// Thermal throttle cap, °C: the accelerator idles back to this
    /// temperature before launching a batch from above it.
    pub throttle_temp_c: f64,
    /// Hedged refresh pricing for online reschedules (PR 3 semantics);
    /// accounting always uses the unweighted model.
    pub reschedule_refresh_weight: f64,
    /// Modeled stall per fresh Stage-2 layer search, µs, charged once
    /// when the op that needed it is first dispatched. `0` (the default,
    /// and the committed-baseline behavior) prices compilation as free;
    /// a positive value makes cold starts visible in tail latency —
    /// searches absorbed by a warm-started schedule cache (see
    /// `rana_core::store`) are never charged.
    pub compile_penalty_us: f64,
}

impl ServeConfig {
    /// Paper-platform defaults: RANA*(E-5), FIFO, static partitioning,
    /// 1 s horizon, 16-deep queues, 4-bank floor and quantum, 2 s
    /// rebalance epochs, and the PR 3 thermal-policy constants.
    pub fn paper(traffic: TrafficModel, seed: u64) -> Self {
        Self {
            design: Design::RanaStarE5,
            queue_policy: QueuePolicy::Fifo,
            partition_policy: PartitionPolicy::Static,
            traffic,
            horizon_us: 1e6,
            seed,
            arrival_streams: ArrivalStreams::Shared,
            queue_cap: 16,
            min_banks: 4,
            bank_quantum: 4,
            rebalance_us: 2_000_000.0,
            retention_margin: 0.85,
            sensor_quantum_c: 0.25,
            ladder_steps_per_octave: 4,
            throttle_temp_c: 85.0,
            reschedule_refresh_weight: 4.0,
            compile_penalty_us: 0.0,
        }
    }
}

/// An admitted request waiting in a tenant queue.
#[derive(Debug, Clone, Copy)]
struct Request {
    arrival_us: f64,
    deadline_us: f64,
}

/// DES priority class of request arrivals: at equal timestamps, arrivals
/// are admitted before the engine wakes to dispatch.
const CLASS_ARRIVAL: u8 = 0;
/// DES priority class of engine wake-ups (batch completions, first
/// arrival after idle).
const CLASS_WAKE: u8 = 1;

/// The serving loop's event alphabet on the [`rana_des`] core.
#[derive(Debug, Clone, Copy)]
enum ServeEvent {
    /// One request of `tenant` arrives (admission control runs here).
    Arrival { tenant: usize },
    /// The engine re-examines its queues: rebalance epoch, expiry purge,
    /// then dispatch of the next batch (or back to idle).
    Wake,
}

/// Mutable per-tenant serving state.
#[derive(Debug, Default)]
struct TenantRuntime {
    queue: VecDeque<Request>,
    banks: usize,
    divider_ratio: u64,
    isolated_us: f64,
    offered: u64,
    epoch_arrivals: u64,
    served: u64,
    batches: u64,
    admission_drops: u64,
    deadline_drops: u64,
    retunes: u64,
    rescheduled_layer_execs: u64,
    flagged_banks_peak: usize,
    energy: EnergyBreakdown,
    latencies: Vec<f64>,
    queue_waits: Vec<f64>,
    late_served: u64,
}

/// The serving simulator. Build with [`Server::new`], drive to completion
/// with [`Server::run`].
#[derive(Debug)]
pub struct Server<'a> {
    specs: Vec<TenantSpec>,
    config: ServeConfig,
    thermal: ThermalModel,
    policy: ThermalPolicy,
    /// Per-(tenant, bank share, rung) inference profiles; the serving
    /// loop runs thousands of requests over a handful of these.
    profiles: ProfileCache<'a>,
    tenants: Vec<TenantRuntime>,
    now_us: f64,
    temp_c: f64,
    peak_temp_c: f64,
    min_interval_us: f64,
    idle_us: f64,
    throttle_us: f64,
    compile_stall_us: f64,
    rebalances: u64,
    energy: EnergyBreakdown,
    refresh_words: u64,
}

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
        assert!(config.design.uses_edram(), "serving needs an eDRAM design, got {}", config.design);
        assert!(!specs.is_empty(), "tenant mix must not be empty");
        assert!(specs.iter().all(|s| s.weight > 0.0), "tenant weights must be positive");
        assert!(specs.iter().all(|s| s.max_batch >= 1), "max_batch must be at least 1");
        assert!(specs.iter().all(|s| s.deadline_slack > 1.0), "deadline slack must exceed 1");
        assert!(config.queue_cap >= 1, "queue cap must be at least 1");

        let template = eval.scheduler_for(config.design);
        let thermal = ThermalModel::embedded_65nm();
        check_throttle(config.throttle_temp_c, &thermal);
        let policy = ThermalPolicy::new(
            &template,
            eval.retention().tolerable_retention_us(config.design.failure_rate()),
            config.retention_margin,
            config.sensor_quantum_c,
            config.ladder_steps_per_octave,
        );
        let total_banks = template.cfg.buffer.num_banks;
        assert!(
            total_banks >= specs.len() * config.min_banks,
            "{} banks cannot give {} tenants {} banks each",
            total_banks,
            specs.len(),
            config.min_banks
        );
        let (nominal_divider, nominal_rung_us) = policy.nominal();

        let shares = equal_split(total_banks, specs.len());
        let tenants = specs
            .iter()
            .zip(&shares)
            .map(|(s, &banks)| TenantRuntime {
                banks,
                divider_ratio: nominal_divider.ratio(),
                isolated_us: eval.evaluate(&s.network, config.design).time_us,
                ..TenantRuntime::default()
            })
            .collect();

        let profiles = ProfileCache::new(eval, template, config.reschedule_refresh_weight);
        Self {
            specs,
            config,
            thermal,
            policy,
            profiles,
            tenants,
            now_us: 0.0,
            temp_c: thermal.ambient_c,
            peak_temp_c: thermal.ambient_c,
            min_interval_us: nominal_rung_us,
            idle_us: 0.0,
            throttle_us: 0.0,
            compile_stall_us: 0.0,
            rebalances: 0,
            energy: EnergyBreakdown::default(),
            refresh_words: 0,
        }
    }

    /// Per-inference total energy of tenant `t` at `banks` banks under the
    /// nominal rung — the prediction the dynamic partitioner optimizes.
    fn energy_at(&mut self, t: usize, banks: usize) -> f64 {
        let (spec, rung) = (&self.specs[t], self.policy.nominal().1);
        self.profiles.profile_at(t, &spec.network, banks, rung, spec.strategy).energy.total_j()
    }

    /// Recomputes the dynamic partition from the arrival rates observed
    /// this epoch (initial call: the configured mix weights).
    fn rebalance(&mut self) {
        let n = self.tenants.len();
        let mut rates: Vec<f64> = self.tenants.iter().map(|t| t.epoch_arrivals as f64).collect();
        if rates.iter().all(|&r| r == 0.0) {
            rates = self.specs.iter().map(|s| s.weight).collect();
        }
        for t in &mut self.tenants {
            t.epoch_arrivals = 0;
        }
        let (total, min_banks, quantum) =
            (self.profiles.full_banks(), self.config.min_banks, self.config.bank_quantum);
        let shares = greedy_split(total, n, min_banks, quantum, |t, b| {
            rates[t] * (self.energy_at(t, b) - self.energy_at(t, b + quantum))
        });
        for (t, &b) in shares.iter().enumerate() {
            self.tenants[t].banks = b;
        }
        self.rebalances += 1;
    }

    /// Admits one arrival (or drops it at the queue cap).
    fn admit(&mut self, tenant: usize, arrival_us: f64) {
        let rt = &mut self.tenants[tenant];
        rt.offered += 1;
        rt.epoch_arrivals += 1;
        if rt.queue.len() >= self.config.queue_cap {
            rt.admission_drops += 1;
        } else {
            let deadline_us = arrival_us + self.specs[tenant].deadline_slack * rt.isolated_us;
            rt.queue.push_back(Request { arrival_us, deadline_us });
        }
    }

    /// Drops queued requests whose deadline already passed.
    fn purge_expired(&mut self) {
        for (i, rt) in self.tenants.iter_mut().enumerate() {
            while rt.queue.front().is_some_and(|r| r.deadline_us < self.now_us) {
                rt.queue.pop_front();
                rt.deadline_drops += 1;
                rana_trace::metrics::record(|reg| {
                    let spec =
                        SloSpec::from_deadline(self.specs[i].deadline_slack * rt.isolated_us);
                    reg.slo_observe(
                        self.specs[i].network.name(),
                        &spec,
                        SloObservation {
                            latency_us: None,
                            queue_wait_us: None,
                            missed_deadline: true,
                            now_us: self.now_us,
                        },
                    );
                });
            }
        }
    }

    /// The tenant to dispatch next, per the queue policy (ties to the
    /// lowest tenant index).
    fn pick_tenant(&self) -> Option<usize> {
        let keyed = |t: &TenantRuntime| {
            t.queue.front().map(|r| match self.config.queue_policy {
                QueuePolicy::Fifo => r.arrival_us,
                QueuePolicy::Edf => r.deadline_us,
            })
        };
        let mut best: Option<(usize, f64)> = None;
        for (i, t) in self.tenants.iter().enumerate() {
            if let Some(k) = keyed(t) {
                if best.is_none_or(|(_, bk)| k < bk) {
                    best = Some((i, k));
                }
            }
        }
        best.map(|(i, _)| i)
    }

    /// Idles (zero power) until `t_us`, letting the die cool.
    fn idle_to(&mut self, t_us: f64) {
        let dt = t_us - self.now_us;
        assert!(dt >= 0.0, "cannot idle backwards");
        self.temp_c = self.thermal.step(self.temp_c, 0.0, dt);
        self.now_us = t_us;
        self.idle_us += dt;
    }

    /// Executes a batch for `tenant`: throttle, sense, rung, retune,
    /// profile lookup, energy/thermal accounting, completions.
    fn execute_batch(&mut self, tenant: usize, batch: Vec<Request>) {
        // Thermal throttle (closed-form RC cooldown to the cap).
        if let Some(dt) = throttle(&self.thermal, self.temp_c, self.config.throttle_temp_c) {
            self.temp_c = self.config.throttle_temp_c;
            self.now_us += dt;
            self.throttle_us += dt;
        }

        let op = self.policy.operate(&self.thermal, self.temp_c);
        let (divider, interval_us) = (op.divider, op.interval_us);
        let retuned = divider.ratio() != self.tenants[tenant].divider_ratio;
        if retuned {
            self.tenants[tenant].divider_ratio = divider.ratio();
            self.tenants[tenant].retunes += 1;
        }
        self.min_interval_us = self.min_interval_us.min(interval_us);

        let spec = &self.specs[tenant];
        let banks = self.tenants[tenant].banks;
        let (profile, fresh) =
            self.profiles.dispatch(tenant, &spec.network, banks, interval_us, spec.strategy);
        // First dispatch of a freshly-compiled profile pays the modeled
        // compile stall: the die sits unpowered while Stage-2 searches
        // run. Warm-started caches leave nothing to charge.
        if fresh > 0 && self.config.compile_penalty_us > 0.0 {
            let stall = fresh as f64 * self.config.compile_penalty_us;
            self.temp_c = self.thermal.step(self.temp_c, 0.0, stall);
            self.now_us += stall;
            self.compile_stall_us += stall;
        }

        if rana_trace::enabled() {
            let name = self.specs[tenant].network.name().to_string();
            // Tightest remaining slack in the batch at the moment of
            // dispatch (can be negative only transiently: expired requests
            // were purged before dispatch).
            let slack_us =
                batch.iter().map(|r| r.deadline_us - self.now_us).fold(f64::INFINITY, f64::min);
            rana_trace::emit(|| rana_trace::Event::TenantDispatch {
                tenant: name.clone(),
                batch: batch.len(),
                deadline_slack_us: slack_us,
            });
            rana_trace::emit(|| rana_trace::Event::ThermalSample {
                at: format!("serve/{name}"),
                temp_c: op.sensed_c,
                scaled_retention_us: op.tolerable_us,
            });
            if retuned {
                rana_trace::emit(|| rana_trace::Event::RefreshDecision {
                    scope: format!("serve/{name}"),
                    banks: profile.flagged_banks,
                    divider: divider.ratio(),
                    rung_us: interval_us,
                    refresh_words: profile.refresh_words,
                    reason: "retune".to_string(),
                });
            }
            rana_trace::count("serve.batches", 1);
            rana_trace::count("serve.requests", batch.len() as u64);
        }

        // Queue wait ends here: the batch is committed to the engine once
        // the throttle cooldown and retune are done.
        let dispatch_us = self.now_us;

        // Weights stay resident across the batch.
        let energy = profile.batch_energy(batch.len());
        let time_us = profile.time_us * batch.len() as f64;
        let power_w = energy.accelerator_j() / (time_us * 1e-6);
        self.temp_c = self.thermal.step(self.temp_c, power_w, time_us);
        self.peak_temp_c = self.peak_temp_c.max(self.temp_c);
        self.now_us += time_us;

        let words = profile.refresh_words * batch.len() as u64;
        self.energy += energy;
        self.refresh_words += words;
        let spec = &self.specs[tenant];
        let rt = &mut self.tenants[tenant];
        rt.served += batch.len() as u64;
        rt.batches += 1;
        rt.rescheduled_layer_execs += profile.rescheduled_layers * batch.len() as u64;
        rt.flagged_banks_peak = rt.flagged_banks_peak.max(profile.flagged_banks);
        rt.energy += energy;
        for r in &batch {
            let latency_us = self.now_us - r.arrival_us;
            let wait_us = dispatch_us - r.arrival_us;
            // Deadlines gate dispatch, not completion: a request dispatched
            // in time can still finish past its deadline. That is an SLO
            // miss even though the request was served.
            let late = self.now_us > r.deadline_us;
            rt.latencies.push(latency_us);
            rt.queue_waits.push(wait_us);
            if late {
                rt.late_served += 1;
            }
            rana_trace::metrics::record(|reg| {
                let name = spec.network.name();
                let slo = SloSpec::from_deadline(spec.deadline_slack * rt.isolated_us);
                reg.observe_f64(
                    MetricKey::new("serve.latency_us").label("tenant", name),
                    latency_us,
                );
                reg.observe_f64(
                    MetricKey::new("serve.queue_wait_us").label("tenant", name),
                    wait_us,
                );
                reg.slo_observe(
                    name,
                    &slo,
                    SloObservation {
                        latency_us: Some(latency_us),
                        queue_wait_us: Some(wait_us),
                        missed_deadline: late,
                        now_us: self.now_us,
                    },
                );
            });
        }
    }

    /// Runs the whole scenario — draw arrivals, serve until the stream
    /// and the queues are empty — and returns the report.
    ///
    /// The loop is a discrete-event simulation over [`rana_des`]: every
    /// arrival is an `Arrival` event (class 0), and the engine
    /// wakes itself with `Wake` events (class 1) at each
    /// batch completion and at the first arrival after an idle period.
    /// Class ordering guarantees arrivals at a batch's completion instant
    /// are admitted before the engine picks the next batch — exactly the
    /// admit-then-dispatch order of the pre-DES polling loop, which is why
    /// the ported server reproduces `BENCH_serve.json` byte for byte.
    /// Arrivals are pulled lazily: delivering one schedules the next.
    /// The stream is in time order and at most one arrival event is
    /// queued, so arrivals fire in stream order and the next one is never
    /// in the past.
    pub fn run(mut self) -> ServeReport {
        let weights: Vec<f64> = self.specs.iter().map(|s| s.weight).collect();
        let c = &self.config;
        let mut arrivals =
            Arrivals::new(c.arrival_streams, &weights, c.traffic, c.horizon_us, c.seed);
        let mut queue: EventQueue<ServeEvent> = EventQueue::new();
        let mut schedule_next_arrival = |queue: &mut EventQueue<ServeEvent>| {
            if let Some(a) = arrivals.next() {
                queue.schedule(
                    a.arrival_us,
                    CLASS_ARRIVAL,
                    ServeEvent::Arrival { tenant: a.tenant },
                );
            }
        };
        schedule_next_arrival(&mut queue);
        let mut next_rebalance = self.config.rebalance_us;
        if self.config.partition_policy == PartitionPolicy::Dynamic {
            self.rebalance();
        }
        // The engine starts idle at t = 0; a pending wake means a wake
        // event is already in the queue (batch completion or first arrival
        // after idle), so arrivals must not schedule another.
        let mut idle = true;
        let mut wake_pending = false;
        while let Some((t, event)) = queue.pop() {
            match event {
                ServeEvent::Arrival { tenant } => {
                    schedule_next_arrival(&mut queue);
                    if idle {
                        // The die cooled, unpowered, since the queues
                        // drained.
                        self.idle_to(t);
                        idle = false;
                    }
                    self.admit(tenant, t);
                    if !wake_pending {
                        wake_pending = true;
                        queue.schedule(t, CLASS_WAKE, ServeEvent::Wake);
                    }
                }
                ServeEvent::Wake => {
                    wake_pending = false;
                    if self.config.partition_policy == PartitionPolicy::Dynamic
                        && self.now_us >= next_rebalance
                    {
                        self.rebalance();
                        while next_rebalance <= self.now_us {
                            next_rebalance += self.config.rebalance_us;
                        }
                    }
                    self.purge_expired();
                    match self.pick_tenant() {
                        Some(tn) => {
                            let take = self.specs[tn].max_batch.min(self.tenants[tn].queue.len());
                            let batch: Vec<Request> =
                                self.tenants[tn].queue.drain(..take).collect();
                            // Throttle cooldown and execution advance
                            // `now_us` past the event's timestamp; the
                            // completion wake re-enters the DES clock
                            // there, after any arrivals in between.
                            self.execute_batch(tn, batch);
                            wake_pending = true;
                            queue.schedule(self.now_us, CLASS_WAKE, ServeEvent::Wake);
                        }
                        None => idle = true,
                    }
                }
            }
        }
        self.report()
    }

    /// Assembles the final report.
    fn report(mut self) -> ServeReport {
        let tenants: Vec<TenantReport> = self
            .tenants
            .iter_mut()
            .zip(&self.specs)
            .map(|(rt, spec)| TenantReport {
                name: spec.network.name().to_string(),
                weight: spec.weight,
                banks: rt.banks,
                isolated_us: rt.isolated_us,
                offered: rt.offered,
                served: rt.served,
                batches: rt.batches,
                admission_drops: rt.admission_drops,
                deadline_drops: rt.deadline_drops,
                retunes: rt.retunes,
                rescheduled_layer_execs: rt.rescheduled_layer_execs,
                flagged_banks_peak: rt.flagged_banks_peak,
                divider_ratio: rt.divider_ratio,
                latency: LatencyStats::of(&mut rt.latencies),
                queue_wait: LatencyStats::of(&mut rt.queue_waits),
                late_served: rt.late_served,
                energy: rt.energy,
            })
            .collect();
        let mut all: Vec<f64> =
            self.tenants.iter().flat_map(|t| t.latencies.iter().copied()).collect();
        let mut all_waits: Vec<f64> =
            self.tenants.iter().flat_map(|t| t.queue_waits.iter().copied()).collect();
        let served: u64 = tenants.iter().map(|t| t.served).sum();
        ServeReport {
            design: self.config.design.label().to_string(),
            queue_policy: self.config.queue_policy,
            partition_policy: self.config.partition_policy,
            traffic: self.config.traffic,
            seed: self.config.seed,
            horizon_us: self.config.horizon_us,
            offered: tenants.iter().map(|t| t.offered).sum(),
            served,
            admission_drops: tenants.iter().map(|t| t.admission_drops).sum(),
            deadline_drops: tenants.iter().map(|t| t.deadline_drops).sum(),
            batches: tenants.iter().map(|t| t.batches).sum(),
            retunes: tenants.iter().map(|t| t.retunes).sum(),
            rescheduled_layer_execs: tenants.iter().map(|t| t.rescheduled_layer_execs).sum(),
            rebalances: self.rebalances,
            late_served: tenants.iter().map(|t| t.late_served).sum(),
            makespan_us: self.now_us,
            idle_us: self.idle_us,
            throttle_us: self.throttle_us,
            compile_stall_us: self.compile_stall_us,
            latency: LatencyStats::of(&mut all),
            queue_wait: LatencyStats::of(&mut all_waits),
            energy: self.energy,
            refresh_words: self.refresh_words,
            peak_temp_c: self.peak_temp_c,
            min_interval_us: self.min_interval_us,
            nominal_interval_us: self.policy.nominal().1,
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
        if self.offered == 0 {
            0.0
        } else {
            (self.deadline_drops + self.late_served) as f64 / self.offered as f64
        }
    }

    fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\"name\":{},\"weight\":{},\"banks\":{},\"isolated_us\":{},",
                "\"offered\":{},\"served\":{},\"batches\":{},\"admission_drops\":{},",
                "\"deadline_drops\":{},\"retunes\":{},\"rescheduled_layer_execs\":{},",
                "\"flagged_banks_peak\":{},\"divider_ratio\":{},\"latency\":{},",
                "\"queue_wait\":{},\"late_served\":{},\"deadline_miss_rate\":{},",
                "\"energy_j\":{},\"refresh_j\":{}}}"
            ),
            json_string(&self.name),
            json_f64(self.weight),
            self.banks,
            json_f64(self.isolated_us),
            self.offered,
            self.served,
            self.batches,
            self.admission_drops,
            self.deadline_drops,
            self.retunes,
            self.rescheduled_layer_execs,
            self.flagged_banks_peak,
            self.divider_ratio,
            self.latency.to_json(),
            self.queue_wait.to_json(),
            self.late_served,
            json_f64(self.deadline_miss_rate()),
            json_f64(self.energy.total_j()),
            json_f64(self.energy.refresh_j)
        )
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
        if self.makespan_us <= 0.0 {
            0.0
        } else {
            self.served as f64 / (self.makespan_us * 1e-6)
        }
    }

    /// Total energy per served inference, joules (0 when nothing served).
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

    /// Requests dropped (any reason) per offered request.
    pub fn drop_rate(&self) -> f64 {
        if self.offered == 0 {
            0.0
        } else {
            (self.admission_drops + self.deadline_drops) as f64 / self.offered as f64
        }
    }

    /// Deadline misses (drops plus late completions) per offered request.
    pub fn deadline_miss_rate(&self) -> f64 {
        if self.offered == 0 {
            0.0
        } else {
            (self.deadline_drops + self.late_served) as f64 / self.offered as f64
        }
    }

    /// Serializes the run to a compact, deterministic JSON object.
    pub fn to_json(&self) -> String {
        let e = self.energy;
        let tenants: Vec<String> = self.tenants.iter().map(TenantReport::to_json).collect();
        format!(
            concat!(
                "{{\"design\":{},\"queue\":\"{}\",\"partition\":\"{}\",\"traffic\":\"{}\",",
                "\"rate_rps\":{},\"seed\":{},\"horizon_us\":{},",
                "\"offered\":{},\"served\":{},\"admission_drops\":{},\"deadline_drops\":{},",
                "\"batches\":{},\"retunes\":{},\"rescheduled_layer_execs\":{},\"rebalances\":{},",
                "\"late_served\":{},\"deadline_miss_rate\":{},",
                "\"makespan_us\":{},\"idle_us\":{},\"throttle_us\":{},\"compile_stall_us\":{},",
                "\"throughput_rps\":{},\"latency\":{},\"queue_wait\":{},",
                "\"energy\":{{\"computing_j\":{},\"buffer_j\":{},\"refresh_j\":{},\"offchip_j\":{}}},",
                "\"energy_per_inference_j\":{},\"refresh_share\":{},\"refresh_words\":{},",
                "\"peak_temp_c\":{},\"min_interval_us\":{},\"nominal_interval_us\":{},",
                "\"tenants\":[{}]}}"
            ),
            json_string(&self.design),
            self.queue_policy.label(),
            self.partition_policy.label(),
            self.traffic.label(),
            json_f64(self.traffic.rate_rps()),
            self.seed,
            json_f64(self.horizon_us),
            self.offered,
            self.served,
            self.admission_drops,
            self.deadline_drops,
            self.batches,
            self.retunes,
            self.rescheduled_layer_execs,
            self.rebalances,
            self.late_served,
            json_f64(self.deadline_miss_rate()),
            json_f64(self.makespan_us),
            json_f64(self.idle_us),
            json_f64(self.throttle_us),
            json_f64(self.compile_stall_us),
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
            tenants.join(",")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
