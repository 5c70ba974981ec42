//! # rana-repro — umbrella crate
//!
//! Reproduction of **RANA: Towards Efficient Neural Acceleration with
//! Refresh-Optimized Embedded DRAM** (Tu et al., ISCA 2018).
//!
//! This crate re-exports the workspace members so examples and integration
//! tests can use a single dependency. Each sub-crate is also usable on its
//! own:
//!
//! * [`fixq`] — fixed-point numerics and bit-level retention-error injection.
//! * [`zoo`] — CONV-layer descriptions of AlexNet / VGG-16 / GoogLeNet /
//!   ResNet-50.
//! * [`edram`] — eDRAM retention model, banked buffers, refresh controllers.
//! * [`accel`] — cycle-level CNN accelerator simulator (ID/OD/WD patterns).
//! * [`nn`] — fixed-point CNN training substrate with retention-fault
//!   injection (the retention-aware training method).
//! * [`policy`] — the refresh-strategy lab: one trait over conventional,
//!   RANA-flagged, access-triggered (RTC) and error-budget (EDEN)
//!   refresh, plus the per-word access-trace oracle.
//! * [`core`] — the RANA framework: energy model, hybrid-pattern scheduler,
//!   refresh-flag generation, design points, the evaluation platform and
//!   the persistent content-addressed schedule store ([`core::store`]).
//! * [`serve`] — multi-tenant inference serving: traffic generation, eDRAM
//!   bank partitioning, deadline-aware queueing and the thermal closed loop.
//! * [`des`] — the generic discrete-event-simulation core: deterministic
//!   event queue, typed cancellation and seeded per-actor RNG streams.
//! * [`fleet`] — fleet-scale cluster simulation: routing policies, tenant
//!   sharding and die failure/drain/rejoin over hundreds of dies.
//! * [`metrics`] — opt-in streaming telemetry: log-linear histograms,
//!   per-tenant SLO monitors and counters behind a zero-cost-when-off
//!   session guard.
//! * [`trace`] — opt-in structured event tracing of scheduling and
//!   refresh decisions (JSONL sink, deterministic replay).
//!
//! ## Quickstart
//!
//! ```
//! use rana_repro::core::{designs::Design, evaluate::Evaluator};
//! use rana_repro::zoo;
//!
//! let net = zoo::alexnet();
//! let eval = Evaluator::paper_platform();
//! let energy = eval.evaluate(&net, Design::RanaStarE5);
//! assert!(energy.total.total_j() > 0.0);
//! ```

#![warn(missing_docs)]

pub use rana_accel as accel;
pub use rana_core as core;
pub use rana_des as des;
pub use rana_edram as edram;
pub use rana_fixq as fixq;
pub use rana_fleet as fleet;
pub use rana_nn as nn;
pub use rana_policy as policy;
pub use rana_serve as serve;
pub use rana_trace as trace;
pub use rana_trace::metrics;
pub use rana_zoo as zoo;
