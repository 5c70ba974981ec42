//! Cycle-level CNN accelerator simulator for the RANA reproduction.
//!
//! Models the paper's evaluation platform (§III-A): a 16×16 PE array at
//! 200 MHz where the 16 PE rows share inputs to compute 16 output channels
//! in parallel, a unified on-chip buffer (384 KB SRAM or 1.44 MB eDRAM in
//! the same area), and off-chip DDR3. A CONV layer executes under one of
//! three *computation patterns* — loop orders of the memory-control part
//! (Figure 10):
//!
//! * **ID** (input dominant) — `M` outermost: all inputs resident on chip,
//!   input lifetime = whole layer.
//! * **OD** (output dominant) — `N` outermost: all outputs resident,
//!   rewritten (self-refreshed) every `T2`.
//! * **WD** (weight dominant) — `RC` outermost: all weights resident,
//!   shrinking the buffer requirement of wide shallow layers.
//!
//! Two engines produce identical numbers and cross-validate each other:
//!
//! * [`analysis`] — closed-form reuse analysis (the formulas of Eq. 1-13
//!   generalized to edge tiles and buffer overflows); used by the RANA
//!   scheduler where millions of candidate tilings are explored.
//! * [`trace`] — a tile-granular event simulator walking the actual loop
//!   nest, time-stamping every transfer; used to verify the analysis and to
//!   measure data lifetimes empirically.
//!
//! # Example
//!
//! ```
//! use rana_accel::{analysis::analyze, AcceleratorConfig, Pattern, SchedLayer, Tiling};
//! use rana_zoo::resnet50;
//!
//! let cfg = AcceleratorConfig::paper_edram();
//! let layer_a = SchedLayer::from_conv(resnet50().conv("res4a_branch1").unwrap());
//! let sim = analyze(&layer_a, Pattern::Od, Tiling::new(16, 16, 1, 16), &cfg);
//! // The paper's OD running case: LTo = 72 us.
//! assert!((sim.lifetimes.output_rewrite_us - 71.68).abs() < 0.1);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod analysis;
pub mod config;
pub mod dram;
pub mod exec;
pub mod fingerprint;
mod kernel;
pub mod layer;
pub mod pattern;
pub mod refresh;
pub mod trace;

pub use analysis::{analyze, LayerSim, Lifetimes, Storage, TilingGrid, Traffic};
pub use config::{AcceleratorConfig, BufferConfig};
pub use exec::Engine;
pub use fingerprint::{Fingerprint, Fnv1a};
pub use layer::SchedLayer;
pub use pattern::{Pattern, TileAxis, Tiling};
pub use refresh::{layer_refresh_words, ControllerKind, RefreshModel, RefreshPricer};
