//! Embedded-DRAM substrate for the RANA reproduction.
//!
//! An eDRAM cell stores its logic state as charge on a capacitor and leaks
//! over time (paper §II-D); cells must be refreshed before their *retention
//! time* elapses or they fail. This crate provides every eDRAM-related
//! mechanism the paper relies on:
//!
//! * [`RetentionDistribution`] — the retention-time distribution of Kong et
//!   al. (ITC 2008) used in the paper's Figure 8: the weakest cell of a
//!   32 KB bank retains for 45 µs (cumulative failure rate 3·10⁻⁶) and a
//!   16× longer interval (734 µs) is reached at failure rate 10⁻⁵.
//! * [`EnergyCosts`] / [`MemoryCharacteristics`] — the 65 nm constants of
//!   Tables II and III.
//! * [`EdramArray`] — a functional banked eDRAM with write timestamps and
//!   deterministic per-cell Monte-Carlo fault injection on read.
//! * [`RefreshConfig`] + [`controller`] — the refresh machinery: a
//!   programmable clock divider, per-bank refresh flags and pulse
//!   generation, covering both the conventional all-banks controller and
//!   RANA's refresh-optimized controller (§IV-D).
//! * [`UnifiedBuffer`] — bank allocation for the unified buffer system that
//!   lets data mapping change between OD and WD layers.
//! * [`thermal`] — a lumped-RC die-temperature model closing the loop from
//!   dissipated power to the temperature-scaled retention distribution
//!   (the plant of `rana_core::adaptive`).
//!
//! # Example
//!
//! ```
//! use rana_edram::RetentionDistribution;
//!
//! let dist = RetentionDistribution::kong2008();
//! // Conventional refresh interval: the weakest cell.
//! assert_eq!(dist.typical_retention_us(), 45.0);
//! // The paper's tolerable retention time at failure rate 1e-5.
//! let t = dist.tolerable_retention_us(1e-5);
//! assert!((t - 734.0).abs() < 1.0);
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod bank;
pub mod binning;
pub mod buffer;
pub mod controller;
pub mod ecc;
pub mod energy;
pub mod retention;
pub mod stats;
pub mod thermal;

pub use bank::{EdramArray, WeakestCellMap};
pub use buffer::{BankAllocation, DataType, UnifiedBuffer};
pub use controller::{ClockDivider, RefreshConfig, RefreshPattern};
pub use energy::{EnergyCosts, MemoryCharacteristics};
pub use retention::RetentionDistribution;
pub use stats::MemoryStats;
pub use thermal::{ThermalModel, TrajectoryPoint};
