//! Multi-tenant inference serving on RANA accelerators, from one die to a
//! fleet.
//!
//! The paper evaluates each network as a solo, steady-state workload; a
//! production deployment multiplexes several networks over each device
//! under bursty traffic, and spreads them over many devices. This crate
//! simulates that regime end to end, deterministically (seeded PRNG, no
//! wall-clock), with one discrete-event serving loop on [`rana_des`] in two
//! shapes:
//!
//! * [`Server`] — one die with one queue slot per tenant: admission
//!   control, FIFO / earliest-deadline-first queueing, weight-resident
//!   batching, per-tenant refresh-divider state and bank shares, and the
//!   thermal closed loop: sustained load heats the die
//!   ([`rana_edram::thermal`]), the sensed temperature tightens the
//!   refresh-interval ladder of [`rana_core::operating`], and layers whose
//!   scheduled data lifetimes no longer fit are rescheduled online
//!   through the shared memoized scheduler;
//! * [`fleet::FleetSim`] — hundreds to thousands of such dies behind one
//!   router, with tenant sharding and crash / drain / rejoin plans.
//!
//! Around the loop:
//!
//! * [`traffic`] — Poisson / Markov-modulated bursty request streams over
//!   a weighted network mix;
//! * [`partition`] — static (equal) vs dynamic (load- and
//!   marginal-energy-driven greedy) partitioning of the banked eDRAM
//!   unified buffer across a die's slots;
//! * [`metrics`] — exact and histogram latency summaries.
//!
//! The scheduler memo cache ([`rana_core::par::ScheduleCache`]) needs no
//! new machinery to serve as the warm schedule cache: `Scheduler::layer_key`
//! fingerprints the whole scheduling context, so a tenant's partition size
//! (`cfg.buffer.num_banks`) and temperature rung (`refresh.interval_us`)
//! are already part of the key. Every (layer shape, partition size, rung)
//! combination is searched at most once per [`rana_core::Evaluator`], and
//! reused across requests, policies, and offered loads.
//!
//! Cold starts can additionally be priced (`compile_penalty_us`) and
//! eliminated by warm-starting the evaluator's cache from a persistent
//! [`rana_core::store::ScheduleStore`] — see `docs/SCHEDULE_CACHE.md`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod engine;
pub mod fleet;
pub mod metrics;
pub mod partition;
pub mod server;
pub mod traffic;

pub use engine::{MIN_BANKS, QUEUE_CAP, REBALANCE_US, WARM_SET_PENALTY_US};
pub use metrics::LatencyStats;
pub use partition::PartitionPolicy;
pub use server::{QueuePolicy, ServeConfig, ServeReport, Server, TenantReport, TenantSpec};
pub use traffic::{Arrival, ArrivalStreams, Arrivals, TrafficModel};
