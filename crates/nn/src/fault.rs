//! Retention-fault injection into tensors (the "mask" of Figure 9).
//!
//! A tensor is quantized to 16-bit fixed point (the hardware precision),
//! each stored bit is randomized with probability `rate` via
//! [`BitErrorModel`], and the words are dequantized back. Rate 0 is exact
//! quantization-only (the fixed-point pretraining path).

use crate::tensor::Tensor;
use rana_edram::ecc;
use rana_fixq::{BitErrorModel, QuantizedTensor};
use rand::{rngs::StdRng, RngExt, SeedableRng};

/// Per-forward-pass fault-injection context.
///
/// Carries the failure rate and a deterministic RNG; layers call
/// [`corrupt`](FaultContext::corrupt) on their inputs and weights.
///
/// # Example
///
/// ```
/// use rana_nn::{FaultContext, Tensor};
/// let t = Tensor::from_vec(vec![0.5, -0.25, 1.0], &[3]);
/// // Rate 0: quantization only, values this simple survive exactly.
/// let mut ctx = FaultContext::new(0.0, 1);
/// assert_eq!(ctx.corrupt(&t).data(), t.data());
/// ```
#[derive(Debug)]
pub struct FaultContext {
    model: BitErrorModel,
    rng: StdRng,
    /// Bits corrupted so far (diagnostics).
    pub corrupted_bits: u64,
    /// Number of [`corrupt`](Self::corrupt) calls made so far.
    calls: usize,
    /// When set, errors are injected only for call indices inside this
    /// range (quantization still applies everywhere) — the per-layer
    /// sensitivity ablation's knob. Each parameterized layer makes two
    /// calls per forward: its input, then its weights.
    active_calls: Option<std::ops::Range<usize>>,
    /// When set, every word is stored SECDED-encoded: failures hit all 22
    /// code bits, single errors are corrected, uncorrectable words read
    /// back random — the ECC alternative to retention-aware training.
    ecc: bool,
}

impl FaultContext {
    /// Creates a context with per-bit failure rate `rate` and an RNG seed.
    pub fn new(rate: f64, seed: u64) -> Self {
        Self {
            model: BitErrorModel::new(rate),
            rng: StdRng::seed_from_u64(seed),
            corrupted_bits: 0,
            calls: 0,
            active_calls: None,
            ecc: false,
        }
    }

    /// Stores every word behind (22,16) SECDED ECC (see
    /// [`rana_edram::ecc`]): the failure rate applies to all 22 code bits,
    /// single-bit errors are corrected transparently and uncorrectable
    /// words read back random values.
    pub fn with_secded(mut self) -> Self {
        self.ecc = true;
        self
    }

    /// Restricts error injection to [`corrupt`](Self::corrupt) call indices
    /// in `range` (0-based, counted per forward pass). Layers outside the
    /// range are still quantized, but error-free.
    pub fn restricted_to_calls(mut self, range: std::ops::Range<usize>) -> Self {
        self.active_calls = Some(range);
        self
    }

    /// A disabled context (no quantization, no faults) for clean
    /// floating-point evaluation.
    pub fn clean() -> Self {
        Self::new(0.0, 0)
    }

    /// The failure rate.
    pub fn rate(&self) -> f64 {
        self.model.rate()
    }

    /// Quantizes `t` to 16-bit fixed point, randomizes bits at the failure
    /// rate, and returns the dequantized tensor.
    pub fn corrupt(&mut self, t: &Tensor) -> Tensor {
        let call = self.calls;
        self.calls += 1;
        let active = self.active_calls.as_ref().is_none_or(|r| r.contains(&call));
        let mut q = QuantizedTensor::from_f32(t.data());
        if active && self.model.rate() > 0.0 {
            if self.ecc {
                self.inject_through_secded(q.words_mut());
            } else {
                self.corrupted_bits += self.model.inject(q.words_mut(), &mut self.rng) as u64;
            }
        }
        Tensor::from_vec(q.to_f32(), t.shape())
    }

    /// Encode → fail bits over the 22-bit code word → decode. Single
    /// errors vanish; uncorrectable words read back random garbage.
    fn inject_through_secded(&mut self, words: &mut [i16]) {
        let rate = self.model.rate();
        for w in words.iter_mut() {
            let mut code = ecc::encode(*w as u16);
            let mut touched = false;
            for bit in 0..ecc::CODE_BITS {
                if self.rng.random_bool(rate) && self.rng.random_bool(0.5) {
                    code ^= 1 << bit;
                    touched = true;
                }
            }
            if !touched {
                continue;
            }
            match ecc::decode(code).data() {
                Some(d) => {
                    if d != *w as u16 {
                        self.corrupted_bits += u64::from((d ^ *w as u16).count_ones());
                        *w = d as i16;
                    }
                }
                None => {
                    let garbage: u16 = (self.rng.random::<u32>() & 0xFFFF) as u16;
                    self.corrupted_bits += u64::from((garbage ^ *w as u16).count_ones());
                    *w = garbage as i16;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_rate_quantizes_only() {
        let t = Tensor::from_vec(vec![0.125, -0.5, 3.0, 100.0], &[4]);
        let mut ctx = FaultContext::new(0.0, 7);
        let out = ctx.corrupt(&t);
        // All values exactly representable after per-tensor scaling.
        assert_eq!(out.data(), t.data());
        assert_eq!(ctx.corrupted_bits, 0);
    }

    #[test]
    fn high_rate_corrupts() {
        let t = Tensor::from_vec(vec![0.5; 4096], &[4096]);
        let mut ctx = FaultContext::new(0.1, 7);
        let out = ctx.corrupt(&t);
        assert!(ctx.corrupted_bits > 1000, "bits {}", ctx.corrupted_bits);
        let changed = t.data().iter().zip(out.data()).filter(|(a, b)| a != b).count();
        assert!(changed > 1000, "changed {changed}");
    }

    #[test]
    fn corruption_is_seed_deterministic() {
        let t = Tensor::from_vec((0..256).map(|x| x as f32 / 17.0).collect(), &[256]);
        let a = FaultContext::new(0.05, 42).corrupt(&t);
        let b = FaultContext::new(0.05, 42).corrupt(&t);
        assert_eq!(a.data(), b.data());
    }

    #[test]
    fn corruption_preserves_shape() {
        let t = Tensor::zeros(&[2, 3, 4, 5]);
        let out = FaultContext::new(0.5, 1).corrupt(&t);
        assert_eq!(out.shape(), t.shape());
    }

    #[test]
    fn secded_absorbs_moderate_rates() {
        // At a raw rate of 1e-3, plain storage corrupts plenty of bits
        // while SECDED corrects essentially all of them (expected double
        // errors: 64k words x 231 x 1e-6 ~ 15 words).
        let t = Tensor::from_vec(vec![0.37; 1 << 16], &[1 << 16]);
        let mut plain = FaultContext::new(1e-3, 11);
        let _ = plain.corrupt(&t);
        let mut protected = FaultContext::new(1e-3, 11).with_secded();
        let _ = protected.corrupt(&t);
        assert!(plain.corrupted_bits > 200, "plain {}", plain.corrupted_bits);
        assert!(
            protected.corrupted_bits < plain.corrupted_bits / 4,
            "ECC {} vs plain {}",
            protected.corrupted_bits,
            plain.corrupted_bits
        );
    }

    #[test]
    fn secded_fails_open_at_extreme_rates() {
        // At 20% per bit, most words take >=2 errors: ECC cannot help.
        let t = Tensor::from_vec(vec![0.37; 4096], &[4096]);
        let mut protected = FaultContext::new(0.2, 13).with_secded();
        let out = protected.corrupt(&t);
        let changed = out.data().iter().zip(t.data()).filter(|(a, b)| a != b).count();
        assert!(changed > 2000, "changed {changed}");
    }

    #[test]
    fn call_restriction_targets_one_layer() {
        let t = Tensor::from_vec(vec![0.5; 2048], &[2048]);
        let mut ctx = FaultContext::new(0.2, 9).restricted_to_calls(1..2);
        let first = ctx.corrupt(&t); // call 0: outside the range, clean
        let second = ctx.corrupt(&t); // call 1: injected
        let third = ctx.corrupt(&t); // call 2: clean again
        assert_eq!(first.data(), t.data());
        assert_ne!(second.data(), t.data());
        assert_eq!(third.data(), t.data());
        assert!(ctx.corrupted_bits > 0);
    }
}
