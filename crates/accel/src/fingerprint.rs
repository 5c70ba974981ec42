//! Canonical fingerprints of scheduling inputs, used as memoization keys.
//!
//! The scheduler's output for a layer is a pure function of the layer's
//! *shape* and of the scheduling context (accelerator configuration,
//! refresh model, energy costs, pattern space, tiling policy). Networks
//! reuse the same CONV shape dozens of times (ResNet-50's residual blocks,
//! GoogLeNet's inception columns), so a schedule cache keyed by these
//! fingerprints collapses the repeated searches to one.
//!
//! Keys are 64-bit FNV-1a digests over a canonical byte serialization:
//! every field that the analysis reads is hashed, and *only* those —
//! layer and configuration names are deliberately excluded so that
//! `conv2_1` and `conv2_2` with identical shapes share one cache entry.
//! Floats are hashed via [`f64::to_bits`], making the digest exact and
//! platform-independent (no epsilon comparisons, `-0.0 ≠ 0.0`).

use crate::config::{AcceleratorConfig, BufferConfig, PeOrganization};
use crate::layer::SchedLayer;
use crate::pattern::{Pattern, Tiling};
use crate::refresh::{ControllerKind, RefreshModel};
use rana_edram::energy::BufferTech;
use rana_edram::EnergyCosts;

/// 64-bit FNV-1a running hash.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Fnv1a {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// A fresh hasher at the FNV offset basis.
    pub fn new() -> Self {
        Self(Self::OFFSET)
    }

    /// Absorbs one byte.
    pub fn write_u8(&mut self, b: u8) {
        self.0 = (self.0 ^ b as u64).wrapping_mul(Self::PRIME);
    }

    /// Absorbs a `u64` in little-endian byte order.
    pub fn write_u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.write_u8(b);
        }
    }

    /// Absorbs a `usize` (widened to 64 bits for layout independence).
    pub fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    /// Absorbs an `f64` by its exact bit pattern.
    pub fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Self::new()
    }
}

/// Types with a canonical scheduling fingerprint.
pub trait Fingerprint {
    /// Absorbs the canonical serialization into `h`.
    fn fingerprint_into(&self, h: &mut Fnv1a);

    /// The standalone 64-bit digest.
    ///
    /// Counted under `fingerprint.computed` when tracing is active, so a
    /// telemetry report shows how much key derivation a sweep performs.
    fn fingerprint(&self) -> u64 {
        if rana_trace::enabled() {
            rana_trace::count("fingerprint.computed", 1);
        }
        let mut h = Fnv1a::new();
        self.fingerprint_into(&mut h);
        h.finish()
    }
}

impl Fingerprint for SchedLayer {
    /// Shape only — the `name` is presentation, not analysis input, and
    /// excluding it is what lets repeated shapes share a cache entry.
    fn fingerprint_into(&self, h: &mut Fnv1a) {
        h.write_usize(self.n);
        h.write_usize(self.h);
        h.write_usize(self.l);
        h.write_usize(self.m);
        h.write_usize(self.k);
        h.write_usize(self.s);
        h.write_usize(self.r);
        h.write_usize(self.c);
        h.write_usize(self.pad);
        h.write_usize(self.groups);
    }
}

impl Fingerprint for Pattern {
    fn fingerprint_into(&self, h: &mut Fnv1a) {
        h.write_u8(match self {
            Pattern::Id => 0,
            Pattern::Od => 1,
            Pattern::Wd => 2,
        });
    }
}

impl Fingerprint for Tiling {
    fn fingerprint_into(&self, h: &mut Fnv1a) {
        h.write_usize(self.tm);
        h.write_usize(self.tn);
        h.write_usize(self.tr);
        h.write_usize(self.tc);
    }
}

impl Fingerprint for PeOrganization {
    fn fingerprint_into(&self, h: &mut Fnv1a) {
        h.write_u8(match self {
            PeOrganization::PixelColumns => 0,
            PeOrganization::ChannelColumns => 1,
        });
    }
}

impl Fingerprint for BufferTech {
    fn fingerprint_into(&self, h: &mut Fnv1a) {
        h.write_u8(match self {
            BufferTech::Sram => 0,
            BufferTech::Edram => 1,
        });
    }
}

impl Fingerprint for BufferConfig {
    fn fingerprint_into(&self, h: &mut Fnv1a) {
        self.tech.fingerprint_into(h);
        h.write_usize(self.num_banks);
        h.write_usize(self.bank_words);
    }
}

impl Fingerprint for AcceleratorConfig {
    /// Every field the analysis reads; the display `name` is excluded so
    /// that identically-dimensioned machines share cache entries.
    fn fingerprint_into(&self, h: &mut Fnv1a) {
        h.write_usize(self.pe_rows);
        h.write_usize(self.pe_cols);
        self.organization.fingerprint_into(h);
        h.write_f64(self.frequency_hz);
        h.write_usize(self.local_input_words);
        h.write_usize(self.local_output_words);
        h.write_usize(self.local_weight_words);
        self.buffer.fingerprint_into(h);
    }
}

impl Fingerprint for ControllerKind {
    fn fingerprint_into(&self, h: &mut Fnv1a) {
        h.write_u8(match self {
            ControllerKind::Conventional => 0,
            ControllerKind::RefreshOptimized => 1,
        });
    }
}

impl Fingerprint for RefreshModel {
    fn fingerprint_into(&self, h: &mut Fnv1a) {
        h.write_f64(self.interval_us);
        self.kind.fingerprint_into(h);
    }
}

impl Fingerprint for EnergyCosts {
    fn fingerprint_into(&self, h: &mut Fnv1a) {
        h.write_f64(self.mac_pj);
        h.write_f64(self.sram_access_pj);
        h.write_f64(self.edram_access_pj);
        h.write_f64(self.edram_refresh_pj);
        h.write_f64(self.ddr_access_pj);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rana_zoo::{resnet50, vgg16};

    #[test]
    fn layer_fingerprint_ignores_name() {
        let a = SchedLayer::from_conv(resnet50().conv("res4a_branch1").unwrap());
        let mut b = a.clone();
        b.name = "something-else".into();
        assert_eq!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn layer_fingerprint_sees_every_shape_field() {
        let base = SchedLayer::from_conv(vgg16().conv("conv4_2").unwrap());
        let fp = base.fingerprint();
        let bump = |f: &dyn Fn(&mut SchedLayer)| {
            let mut l = base.clone();
            f(&mut l);
            l.fingerprint()
        };
        assert_ne!(fp, bump(&|l| l.n += 1));
        assert_ne!(fp, bump(&|l| l.h += 1));
        assert_ne!(fp, bump(&|l| l.l += 1));
        assert_ne!(fp, bump(&|l| l.m += 1));
        assert_ne!(fp, bump(&|l| l.k += 1));
        assert_ne!(fp, bump(&|l| l.s += 1));
        assert_ne!(fp, bump(&|l| l.r += 1));
        assert_ne!(fp, bump(&|l| l.c += 1));
        assert_ne!(fp, bump(&|l| l.pad += 1));
        assert_ne!(fp, bump(&|l| l.groups += 1));
    }

    #[test]
    fn repeated_resnet_shapes_collide_on_purpose() {
        // ResNet-50 repeats its block shapes: far fewer unique
        // fingerprints than layers.
        let net = resnet50();
        let mut fps: Vec<u64> =
            net.conv_layers().map(|c| SchedLayer::from_conv(c).fingerprint()).collect();
        let total = fps.len();
        fps.sort_unstable();
        fps.dedup();
        assert!(
            fps.len() * 2 < total,
            "expected heavy shape reuse: {} unique of {total}",
            fps.len()
        );
    }

    #[test]
    fn config_fingerprint_ignores_name_but_sees_buffer() {
        let mut a = AcceleratorConfig::paper_edram();
        let b = AcceleratorConfig::paper_edram();
        a.name = "renamed".into();
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_ne!(
            AcceleratorConfig::paper_sram().fingerprint(),
            AcceleratorConfig::paper_edram().fingerprint()
        );
        assert_ne!(
            AcceleratorConfig::paper_edram().fingerprint(),
            AcceleratorConfig::dadiannao().fingerprint()
        );
    }

    #[test]
    fn refresh_and_costs_fingerprints_discriminate() {
        let conv45 = RefreshModel::conventional_45us();
        let conv90 = RefreshModel { interval_us: 90.0, kind: ControllerKind::Conventional };
        let opt45 = RefreshModel { interval_us: 45.0, kind: ControllerKind::RefreshOptimized };
        assert_ne!(conv45.fingerprint(), conv90.fingerprint());
        assert_ne!(conv45.fingerprint(), opt45.fingerprint());

        let costs = EnergyCosts::paper_65nm();
        let mut cheap_ddr = costs;
        cheap_ddr.ddr_access_pj /= 2.0;
        assert_ne!(costs.fingerprint(), cheap_ddr.fingerprint());
    }

    #[test]
    fn pattern_and_tiling_compose_order_sensitively() {
        // (OD, t) and (WD, t) must differ, and composing a ≠ b.
        let t = Tiling::new(16, 16, 1, 16);
        let mut a = Fnv1a::new();
        Pattern::Od.fingerprint_into(&mut a);
        t.fingerprint_into(&mut a);
        let mut b = Fnv1a::new();
        Pattern::Wd.fingerprint_into(&mut b);
        t.fingerprint_into(&mut b);
        assert_ne!(a.finish(), b.finish());
    }
}
