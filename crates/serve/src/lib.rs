//! Multi-tenant inference serving on one RANA accelerator.
//!
//! The paper evaluates each network as a solo, steady-state workload; a
//! production deployment multiplexes several networks over one device
//! under bursty traffic. This crate simulates that regime end to end,
//! deterministically (seeded PRNG, no wall-clock):
//!
//! * [`traffic`] — Poisson / Markov-modulated bursty request streams over
//!   a weighted network mix;
//! * [`partition`] — static (equal) vs dynamic (load- and
//!   marginal-energy-driven greedy) partitioning of the banked eDRAM
//!   unified buffer across tenants;
//! * [`server`] — the event-driven serving loop: admission control,
//!   FIFO / earliest-deadline-first queueing, weight-resident batching,
//!   per-tenant refresh-flag/divider state, and the thermal closed loop —
//!   sustained load heats the die ([`rana_edram::thermal`]), the sensed
//!   temperature tightens the refresh-interval ladder of
//!   [`rana_core::adaptive`], and layers whose scheduled data lifetimes no
//!   longer fit are rescheduled online through the shared memoized
//!   scheduler;
//! * [`metrics`] — latency percentiles and the deterministic JSON report.
//!
//! The scheduler memo cache ([`rana_core::par::ScheduleCache`]) needs no
//! new machinery to serve as the warm schedule cache: `Scheduler::layer_key`
//! fingerprints the whole scheduling context, so a tenant's partition size
//! (`cfg.buffer.num_banks`) and temperature rung (`refresh.interval_us`)
//! are already part of the key. Every (layer shape, partition size, rung)
//! combination is searched at most once per [`rana_core::Evaluator`], and
//! reused across requests, policies, and offered loads.
//!
//! Cold starts can additionally be priced (`ServeConfig::compile_penalty_us`)
//! and eliminated by warm-starting the evaluator's cache from a persistent
//! [`rana_core::store::ScheduleStore`] — see `docs/SCHEDULE_CACHE.md`.

#![warn(missing_docs)]

pub mod metrics;
pub mod partition;
pub mod server;
pub mod traffic;

pub use metrics::LatencyStats;
pub use partition::PartitionPolicy;
pub use server::{QueuePolicy, ServeConfig, ServeReport, Server, TenantReport, TenantSpec};
pub use traffic::{Arrival, ArrivalStreams, Arrivals, TrafficModel};
