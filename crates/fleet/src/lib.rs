//! Fleet-scale serving: hundreds to thousands of RANA dies behind one
//! router, as a discrete-event simulation on [`rana_des`].
//!
//! The single-die serving loop ([`rana_serve`]) answers "what does one
//! refresh-optimized accelerator do under multi-tenant load?". This crate
//! answers the next question up the stack: what does a *cluster* of them
//! do — how do routing policy, schedule-cache affinity, tenant sharding
//! and die failures interact with the per-die thermal/refresh closed loop
//! at fleet scale?
//!
//! * every die carries its own lumped-RC thermal state, refresh-divider
//!   setting and warm-schedule set; batch dispatch runs the full PR 3
//!   sense → retention-derate → ladder-rung → retune loop per die, through
//!   the operating-point engine [`rana_core::operating`] that the serving
//!   loop and the adaptive runtime share;
//! * per-tenant arrival processes draw from RNG streams split off the
//!   fleet seed ([`rana_des::Streams`]), so adding a tenant or resizing
//!   the cluster never perturbs another tenant's arrivals;
//! * the router ([`RouterPolicy`]) spreads requests over each tenant's
//!   shard: random, round-robin, power-of-two-choices, or
//!   schedule-cache-affinity (power-of-two-choices over warm dies);
//! * a failure plan ([`FailureEvent`]) crashes, drains and rejoins dies
//!   mid-run; displaced requests are rerouted (emitting
//!   [`rana_trace::Event::RequestRerouted`]) and in-flight work lost to a
//!   crash is charged as wasted energy;
//! * the report ([`FleetReport`]) is byte-deterministic: latency
//!   percentiles come from [`rana_metrics::HistF64`], ordering from the
//!   DES core's total event order — never from map iteration.
//!
//! # A 16-die cluster
//!
//! ```
//! use rana_core::evaluate::Evaluator;
//! use rana_fleet::{FleetConfig, FleetSim, RouterPolicy};
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
//! use rana_fleet::{FailureEvent, FailureKind, FleetConfig, FleetSim, RouterPolicy};
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

#![warn(missing_docs)]

pub mod die;
pub mod report;
pub mod router;
pub mod sim;

pub use die::{Die, DieState, FleetRequest};
pub use rana_core::operating::{Profile, ProfileCache};
pub use report::{FleetReport, FleetTenantReport, LatencySummary};
pub use router::RouterPolicy;
pub use sim::{FailureEvent, FailureKind, FleetConfig, FleetSim, ROUTER_STREAM};
