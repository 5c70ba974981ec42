//! Fixed-point numerics and bit-level retention-error injection.
//!
//! The RANA paper runs CNNs in 16-bit fixed-point precision on the test
//! accelerator and models eDRAM retention failures as *bit-level* errors: a
//! failed cell reads back a random value of 0 or 1 with equal probability
//! (§IV-B). This crate provides the two building blocks the rest of the
//! reproduction needs:
//!
//! * [`QFormat`] / [`Fixed`] — signed 16-bit `Q(m.f)` fixed-point values with
//!   saturating arithmetic and the multiply-accumulate used by the PEs, plus
//!   per-tensor quantization helpers in [`quant`].
//! * [`BitErrorModel`] — the retention-failure mask: every stored bit is
//!   independently replaced by a uniform random bit with probability `r`
//!   (so it actually *flips* with probability `r/2`).
//!
//! # Example
//!
//! ```
//! use rana_fixq::{BitErrorModel, QFormat};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let q = QFormat::new(8); // Q7.8
//! let raw = q.quantize(1.5);
//! assert_eq!(q.dequantize(raw), 1.5);
//!
//! let mut words = vec![raw; 1024];
//! let model = BitErrorModel::new(0.01);
//! let mut rng = StdRng::seed_from_u64(7);
//! let injected = model.inject(&mut words, &mut rng);
//! assert!(injected > 0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod bits;
pub mod fixed;
pub mod quant;

pub use bits::BitErrorModel;
pub use fixed::{Fixed, QFormat};
pub use quant::{dequantize_slice, quantize_slice, QuantizedTensor};
