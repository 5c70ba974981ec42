//! # rana-core — the Retention-Aware Neural Acceleration framework
//!
//! The paper's contribution (Figure 6): a 3-stage workflow that lets an
//! eDRAM-buffered CNN accelerator run almost refresh-free.
//!
//! * **Stage 1 — training** ([`training_stage`]): retention-aware training
//!   finds the highest tolerable bit failure rate under an accuracy
//!   constraint; the eDRAM retention distribution maps it to a *tolerable
//!   retention time* (45 µs → 734 µs at rate 10⁻⁵).
//! * **Stage 2 — scheduling** ([`scheduler`]): for each CONV layer, explore
//!   OD/WD computation patterns × tiling parameters under the core-local
//!   storage constraints and pick the minimum of the system energy model
//!   `E = α·Emac + βb·Ebuffer + γ·Erefresh + βd·Eddr` ([`energy`], Eq. 14),
//!   yielding the hybrid computation pattern and the layerwise
//!   configurations ([`config_gen`]).
//! * **Stage 3 — architecture** ([`evaluate`] + `rana-accel`/`rana-edram`):
//!   the refresh-optimized eDRAM controller executes those configurations,
//!   refreshing only flagged banks at the tolerable-retention-time pulse.
//!
//! [`designs`] defines the six design points of Table IV and
//! [`evaluate::Evaluator`] reproduces the paper's energy comparisons.
//! [`operating`] applies the three stages once per thermal rung at run
//! time, for the adaptive runtime, the serving and fleet simulators, and
//! the schedule-store precompiler alike.
//!
//! # Example
//!
//! ```
//! use rana_core::{designs::Design, evaluate::Evaluator};
//!
//! let eval = Evaluator::paper_platform();
//! let net = rana_zoo::alexnet();
//! let sram = eval.evaluate(&net, Design::SId);
//! let rana = eval.evaluate(&net, Design::RanaStarE5);
//! assert!(rana.total.refresh_j < 0.05 * rana.total.total_j());
//! assert!(sram.total.refresh_j == 0.0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use rana_policy as policy;
pub use rana_trace as trace;
pub use rana_trace::metrics;

pub mod adaptive;
pub mod config_gen;
pub mod designs;
pub mod energy;
pub mod evaluate;
pub mod exec_batch;
mod fxhash;
pub mod operating;
pub mod par;
pub mod report;
pub mod runtime;
pub mod scheduler;
pub mod store;
pub mod training_stage;

pub use adaptive::{
    AdaptiveConfig, AdaptiveReport, AdaptiveRuntime, FallbackPolicy, Scenario, ValidationSummary,
};
pub use designs::Design;
pub use energy::{EnergyBreakdown, EnergyModel};
pub use evaluate::{Evaluator, NetworkEnergy};
pub use exec_batch::{execute_layer_batch, BatchSummary};
pub use par::{par_map, par_map_with, thread_count, ScheduleCache};
pub use scheduler::{LayerSchedule, NetworkSchedule, Scheduler};
pub use store::{
    precompile, PrecompileSpec, PrecompileStats, ScheduleStore, StoreEntry, StoreError,
};
