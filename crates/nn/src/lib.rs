//! Fixed-point CNN training substrate with retention-fault injection.
//!
//! The paper's retention-aware training method (§IV-B, Figure 9) retrains a
//! fixed-point CNN while injecting bit-level retention failures into every
//! layer's inputs and weights during the forward pass, so the weights adapt
//! to the errors and the network tolerates a higher cell failure rate.
//!
//! The paper does this with Caffe on ImageNet-scale models; this crate is
//! the from-scratch substitute (see DESIGN.md): a small but complete
//! pure-Rust training stack — tensors, conv/linear/pool/residual/inception
//! layers with forward *and* backward passes, SGD — exercising exactly the
//! same code path: 16-bit fixed-point quantization of activations and
//! weights, a [`BitErrorModel`](rana_fixq::BitErrorModel) mask at failure
//! rate `r`, retraining, and accuracy evaluation under injected failures.
//! Four mini benchmark models mirror the architectural styles of the
//! paper's benchmarks (plain stack / deep 3×3 stack / inception / residual)
//! on a deterministic synthetic image dataset.
//!
//! # Example
//!
//! ```
//! use rana_nn::{data::SyntheticDataset, models, train::Trainer};
//!
//! let data = SyntheticDataset::new(4, 240, 9);
//! let mut net = models::alexnet_s(4, 11);
//! let mut trainer = Trainer::new(0.05, 13);
//! let acc = trainer.train(&mut net, &data, 1, 0.0);
//! assert!(acc > 0.2, "one epoch should beat random guessing, got {acc}");
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod data;
pub mod fault;
pub mod layers;
pub mod models;
pub mod retention;
pub mod surrogate;
pub mod tensor;
pub mod train;

pub use fault::FaultContext;
pub use layers::{Layer, Sequential};
pub use retention::{AccuracyCurve, RetentionAwareTrainer};
pub use tensor::Tensor;
