//! Refresh-operation accounting (paper §IV-D and §V).
//!
//! Refresh pulses fire every *refresh interval* (= the tolerable retention
//! time) of wall-clock execution. Whether a pulse actually refreshes words
//! depends on the memory controller:
//!
//! * **Conventional** ("Normal" in Table IV): refresh is all-or-nothing —
//!   while a layer holds any data whose retention-critical interval reaches
//!   the refresh interval, *every cell of the whole buffer* is refreshed at
//!   every pulse, "whether they store data or not" (§V-B4; this is why
//!   refresh energy grows with buffer capacity in Figure 18(a)). During a
//!   layer all of whose data meets `lifetime < retention time`, refresh is
//!   unnecessary and the controller pauses (the condition of §III-C that
//!   both eD+OD and RANA exploit at layer granularity — "more layers meet
//!   the condition ... to avoid refresh", §V-B2).
//! * **Refresh-optimized** (RANA*): per-bank refresh flags — only banks
//!   whose own data type needs retention are refreshed; unused banks and
//!   banks holding short-lived data never are (§IV-D2).
//!
//! The paper obtains its refresh count γ "through simulation on the
//! evaluation platform, with data lifetime analysis"; this module is that
//! analysis.

use crate::analysis::LayerSim;
use crate::config::AcceleratorConfig;
use rana_edram::energy::BufferTech;

/// Memory-controller kind (the "Memory Controller" column of Table IV).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ControllerKind {
    /// Conventional all-banks refresh.
    Conventional,
    /// RANA's refresh-optimized controller with per-bank flags.
    RefreshOptimized,
}

/// Refresh interval plus controller kind.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RefreshModel {
    /// Pulse period in µs (= tolerable retention time).
    pub interval_us: f64,
    /// Controller kind.
    pub kind: ControllerKind,
}

impl RefreshModel {
    /// Conventional controller at the eDRAM's typical 45 µs retention time.
    pub fn conventional_45us() -> Self {
        Self { interval_us: 45.0, kind: ControllerKind::Conventional }
    }

    /// Which data types of a layer need refresh: those whose
    /// retention-critical interval (residency, or rewrite period for
    /// accumulating outputs) is at least the refresh interval.
    pub fn needy_types(&self, sim: &LayerSim) -> [bool; 3] {
        let [i, o, w] = sim.lifetimes.critical_intervals();
        [i >= self.interval_us, o >= self.interval_us, w >= self.interval_us]
    }
}

/// Words refreshed over one layer's execution under `model` on `cfg`.
///
/// Returns 0 for SRAM buffers (no refresh), and 0 when every data type's
/// critical interval is below the refresh interval (the paper's
/// "Data Lifetime < Retention Time" condition).
///
/// # Panics
///
/// Panics if the refresh interval is not finite and positive.
pub fn layer_refresh_words(sim: &LayerSim, cfg: &AcceleratorConfig, model: &RefreshModel) -> u64 {
    RefreshPricer::new(cfg, model).words(sim)
}

/// [`layer_refresh_words`] for one refresh model on one configuration,
/// with everything that does not depend on the layer checked and read
/// once: a scan prices many candidate layers under the same model.
///
/// ```
/// use rana_accel::{analyze, layer_refresh_words, AcceleratorConfig, Pattern};
/// use rana_accel::{RefreshModel, RefreshPricer, SchedLayer, Tiling};
///
/// let layer = SchedLayer {
///     name: "c".into(), n: 64, h: 30, l: 30, m: 64, k: 3, s: 1,
///     r: 28, c: 28, pad: 0, groups: 1,
/// };
/// let cfg = AcceleratorConfig::paper_edram();
/// let model = RefreshModel::conventional_45us();
/// let pricer = RefreshPricer::new(&cfg, &model);
/// for tiling in [Tiling::new(16, 16, 1, 16), Tiling::new(64, 16, 4, 28)] {
///     let sim = analyze(&layer, Pattern::Id, tiling, &cfg);
///     assert_eq!(pricer.words(&sim), layer_refresh_words(&sim, &cfg, &model));
/// }
/// ```
#[derive(Debug, Clone, Copy)]
pub struct RefreshPricer {
    model: RefreshModel,
    /// The buffer's capacity and bank size in words; `None` for an SRAM
    /// buffer, which never refreshes.
    edram: Option<(u64, u64)>,
}

impl RefreshPricer {
    /// The pricer of `model` on `cfg`'s buffer.
    ///
    /// # Panics
    ///
    /// Panics if the refresh interval is not finite and positive.
    pub fn new(cfg: &AcceleratorConfig, model: &RefreshModel) -> Self {
        // A zero interval would count an unbounded number of pulses
        // (wrapping the word count), and a negative or NaN one would
        // silently count none.
        assert!(
            model.interval_us.is_finite() && model.interval_us > 0.0,
            "refresh interval must be finite and positive, got {} us",
            model.interval_us
        );
        let edram = (cfg.buffer.tech != BufferTech::Sram)
            .then(|| (cfg.buffer.capacity_words(), cfg.buffer.bank_words as u64));
        Self { model: *model, edram }
    }

    /// Words refreshed over the execution of the layer `sim` describes.
    #[inline]
    pub fn words(&self, sim: &LayerSim) -> u64 {
        let Some((capacity, bank)) = self.edram else {
            return 0;
        };
        // `x as u64` equals `x.floor() as u64` for every f64: both truncate
        // a non-negative value, saturate at 2^64 and +∞, and send NaN and
        // negative values to 0. The cast skips `floor`, a library call on
        // baseline x86-64 (no SSE4.1 `roundsd`).
        let pulses = (sim.time_us / self.model.interval_us) as u64;
        if pulses == 0 {
            return 0;
        }
        let needy = self.model.needy_types(sim);
        if !needy.iter().any(|&n| n) {
            return 0;
        }
        match self.model.kind {
            ControllerKind::Conventional => pulses * capacity,
            ControllerKind::RefreshOptimized => {
                // Per-bank flags: only the banks allocated to needy data
                // types.
                let sizes =
                    [sim.storage.input_words, sim.storage.output_words, sim.storage.weight_words];
                let flagged_words: u64 = needy
                    .iter()
                    .zip(sizes)
                    .filter(|(&n, _)| n)
                    .map(|(_, words)| words.min(capacity).div_ceil(bank) * bank)
                    .sum();
                pulses * flagged_words.min(capacity)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::analyze;
    use crate::layer::SchedLayer;
    use crate::pattern::{Pattern, Tiling};
    use rana_zoo::{resnet50, vgg16};

    fn layer_a_sim(pattern: Pattern) -> (LayerSim, AcceleratorConfig) {
        let cfg = AcceleratorConfig::paper_edram();
        let l = SchedLayer::from_conv(resnet50().conv("res4a_branch1").unwrap());
        (analyze(&l, pattern, Tiling::new(16, 16, 1, 16), &cfg), cfg)
    }

    #[test]
    fn sram_never_refreshes() {
        let cfg = AcceleratorConfig::paper_sram();
        let l = SchedLayer::from_conv(resnet50().conv("res4a_branch1").unwrap());
        let sim = analyze(&l, Pattern::Id, Tiling::new(16, 16, 1, 16), &cfg);
        assert_eq!(layer_refresh_words(&sim, &cfg, &RefreshModel::conventional_45us()), 0);
    }

    #[test]
    fn layer_a_id_needs_refresh_at_45us() {
        // LTi = 2294 µs >> 45 µs: conventional refresh of the whole buffer.
        let (sim, cfg) = layer_a_sim(Pattern::Id);
        let words = layer_refresh_words(&sim, &cfg, &RefreshModel::conventional_45us());
        let pulses = (2293.76f64 / 45.0).floor() as u64; // 50
        assert_eq!(words, pulses * cfg.buffer.capacity_words());
    }

    #[test]
    fn layer_a_od_needs_no_refresh_at_734us() {
        // §IV-C1: OD lifetime 72 µs < 734 µs tolerable retention: no refresh.
        let (sim, cfg) = layer_a_sim(Pattern::Od);
        let model = RefreshModel { interval_us: 734.0, kind: ControllerKind::Conventional };
        assert_eq!(layer_refresh_words(&sim, &cfg, &model), 0);
    }

    #[test]
    fn layer_a_od_still_refreshes_at_45us() {
        // 72 µs > 45 µs: refresh cannot be avoided at the typical interval.
        let (sim, cfg) = layer_a_sim(Pattern::Od);
        let words = layer_refresh_words(&sim, &cfg, &RefreshModel::conventional_45us());
        assert!(words > 0);
    }

    #[test]
    fn optimized_refreshes_only_needy_banks() {
        // Layer-B OD at Tn=16: inputs/outputs live 1290 µs (> 734), weights
        // 40 µs (< 734). The optimized controller must skip weight banks
        // and unused banks.
        let cfg = AcceleratorConfig::paper_edram();
        let l = SchedLayer::from_conv(vgg16().conv("conv4_2").unwrap());
        let sim = analyze(&l, Pattern::Od, Tiling::new(16, 16, 1, 16), &cfg);
        let conv = RefreshModel { interval_us: 734.0, kind: ControllerKind::Conventional };
        let opt = RefreshModel { interval_us: 734.0, kind: ControllerKind::RefreshOptimized };
        let w_conv = layer_refresh_words(&sim, &cfg, &conv);
        let w_opt = layer_refresh_words(&sim, &cfg, &opt);
        assert!(w_opt > 0, "outputs still need refresh");
        assert!(
            w_opt < w_conv,
            "optimized {w_opt} must refresh fewer words than conventional {w_conv}"
        );
        // Flagged words = input + output banks only.
        let bank = cfg.buffer.bank_words as u64;
        let expected_flagged = sim.storage.input_words.div_ceil(bank) * bank
            + sim.storage.output_words.div_ceil(bank) * bank;
        let pulses = (sim.time_us / 734.0).floor() as u64;
        assert_eq!(w_opt, pulses * expected_flagged);
    }

    #[test]
    fn longer_interval_reduces_refresh() {
        let (sim, cfg) = layer_a_sim(Pattern::Id);
        let w45 = layer_refresh_words(&sim, &cfg, &RefreshModel::conventional_45us());
        let w90 = layer_refresh_words(
            &sim,
            &cfg,
            &RefreshModel { interval_us: 90.0, kind: ControllerKind::Conventional },
        );
        // Halving the pulse rate halves refresh (Fig. 16's eD+ID trend).
        assert!((w45 as f64 / w90 as f64 - 2.0).abs() < 0.05);
    }

    #[test]
    #[should_panic(expected = "refresh interval must be finite and positive")]
    fn zero_refresh_interval_panics() {
        let (sim, cfg) = layer_a_sim(Pattern::Id);
        let model = RefreshModel { interval_us: 0.0, kind: ControllerKind::Conventional };
        layer_refresh_words(&sim, &cfg, &model);
    }

    #[test]
    #[should_panic(expected = "refresh interval must be finite and positive")]
    fn negative_refresh_interval_panics() {
        let (sim, cfg) = layer_a_sim(Pattern::Id);
        let model = RefreshModel { interval_us: -45.0, kind: ControllerKind::Conventional };
        layer_refresh_words(&sim, &cfg, &model);
    }

    #[test]
    #[should_panic(expected = "refresh interval must be finite and positive")]
    fn nan_refresh_interval_panics() {
        let (sim, cfg) = layer_a_sim(Pattern::Id);
        let model = RefreshModel { interval_us: f64::NAN, kind: ControllerKind::RefreshOptimized };
        layer_refresh_words(&sim, &cfg, &model);
    }

    #[test]
    fn pulse_cast_equals_floor_then_cast() {
        let edges = [0.0, -0.0, 0.5, 1.0, 1.5, 2f64.powi(53) + 2.0, 2f64.powi(64), f64::MAX];
        for x in edges.into_iter().chain([f64::INFINITY, f64::NAN, f64::MIN_POSITIVE]) {
            for x in [x, -x] {
                assert_eq!(x as u64, x.floor() as u64, "{x}");
            }
        }
    }

    #[test]
    fn needy_type_classification() {
        let (sim, _) = layer_a_sim(Pattern::Od);
        let model = RefreshModel::conventional_45us();
        let [i, o, w] = model.needy_types(&sim);
        assert!(i, "inputs live 72 us >= 45 us");
        assert!(o, "output rewrite period 72 us >= 45 us");
        assert!(!w, "weights live 2.2 us < 45 us");
    }
}
