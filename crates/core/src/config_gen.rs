//! Layerwise configuration generation (the output of Stage 2, consumed by
//! the refresh-optimized eDRAM controller in Stage 3 — paper §IV-A/§IV-D).
//!
//! A [`LayerwiseConfig`] carries, per CONV layer: the chosen computation
//! pattern `⟨OD/WD, Tm, Tn, Tr, Tc⟩`, the unified-buffer bank allocation,
//! and the per-bank eDRAM refresh flags. Globally it carries the tolerable
//! retention time and the clock-divider ratio programmed into the
//! controller.

use crate::scheduler::NetworkSchedule;
use rana_accel::{AcceleratorConfig, LayerSim, RefreshModel};
use rana_edram::{BankAllocation, ClockDivider, UnifiedBuffer};
use rana_trace::json::{array, json_opt, Obj};

/// Configuration of one layer.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerConfig {
    /// Layer name.
    pub layer: String,
    /// Pattern and tiling, as `⟨OD/WD, Tm, Tn, Tr, Tc⟩`.
    pub pattern: String,
    /// Bank allocation in the unified buffer (`None` when the resident set
    /// overflows and the layer streams through the whole buffer).
    pub allocation: Option<BankAllocation>,
    /// Per-bank refresh flags for the refresh-optimized controller.
    pub refresh_flags: Vec<bool>,
}

impl LayerConfig {
    /// Generates one layer's configuration: the unified-buffer bank
    /// allocation and the per-bank refresh flags under `refresh` (the
    /// [`rana_policy::refresh_flags_for`] projection). This is the
    /// per-layer core of [`LayerwiseConfig::generate`].
    pub fn for_sim(sim: &LayerSim, cfg: &AcceleratorConfig, refresh: &RefreshModel) -> Self {
        let buffer = UnifiedBuffer::new(cfg.buffer.num_banks, cfg.buffer.bank_words);
        let allocation = buffer
            .allocate(sim.storage.input_words, sim.storage.output_words, sim.storage.weight_words)
            .ok();
        Self {
            layer: sim.layer.clone(),
            pattern: format!("<{},{}>", sim.pattern, sim.tiling),
            allocation,
            refresh_flags: rana_policy::refresh_flags_for(sim, cfg, refresh.interval_us),
        }
    }
}

/// The full compilation output for one network on one accelerator.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerwiseConfig {
    /// Network name.
    pub network: String,
    /// Tolerable retention time (µs) — the refresh pulse period.
    pub tolerable_retention_us: f64,
    /// Programmable clock-divider ratio realizing that period.
    pub clock_divider: u64,
    /// Per-layer configurations in execution order.
    pub layers: Vec<LayerConfig>,
}

impl LayerwiseConfig {
    /// Generates the configurations from a schedule.
    pub fn generate(
        schedule: &NetworkSchedule,
        cfg: &AcceleratorConfig,
        refresh: &RefreshModel,
    ) -> Self {
        let divider = ClockDivider::for_interval(cfg.frequency_hz, refresh.interval_us);
        let layers =
            schedule.layers.iter().map(|l| LayerConfig::for_sim(&l.sim, cfg, refresh)).collect();
        Self {
            network: schedule.network.clone(),
            tolerable_retention_us: refresh.interval_us,
            clock_divider: divider.ratio(),
            layers,
        }
    }

    /// Serializes the configuration to a compact JSON string.
    pub fn to_json(&self) -> String {
        let layers = self.layers.iter().map(|l| {
            let allocation = l.allocation.as_ref().map(|a| {
                let banks = |r: &std::ops::Range<usize>| array([r.start, r.end]);
                Obj::new()
                    .raw("input_banks", banks(&a.input_banks))
                    .raw("output_banks", banks(&a.output_banks))
                    .raw("weight_banks", banks(&a.weight_banks))
                    .raw("total_banks", a.total_banks)
                    .finish()
            });
            Obj::new()
                .str("layer", &l.layer)
                .str("pattern", &l.pattern)
                .raw("allocation", json_opt(allocation))
                .raw("refresh_flags", array(&l.refresh_flags))
                .finish()
        });
        Obj::new()
            .str("network", &self.network)
            .f64("tolerable_retention_us", self.tolerable_retention_us)
            .raw("clock_divider", self.clock_divider)
            .raw("layers", array(layers))
            .finish()
    }

    /// Fraction of bank-pulse slots with refresh disabled, over all layers
    /// (a quick view of how refresh-free the network is).
    pub fn disabled_flag_fraction(&self) -> f64 {
        let mut total = 0usize;
        let mut disabled = 0usize;
        for l in &self.layers {
            total += l.refresh_flags.len();
            disabled += l.refresh_flags.iter().filter(|&&f| !f).count();
        }
        if total == 0 {
            0.0
        } else {
            disabled as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::designs::Design;
    use crate::evaluate::Evaluator;
    use rana_edram::RetentionDistribution;

    #[test]
    fn generate_for_resnet_rana_star() {
        let eval = Evaluator::paper_platform();
        let net = rana_zoo::resnet50();
        let design = Design::RanaStarE5;
        let energy = eval.evaluate(&net, design);
        let refresh = design.refresh_model(&RetentionDistribution::kong2008());
        let cfg = eval.edram_config().clone();
        let lw = LayerwiseConfig::generate(&energy.schedule, &cfg, &refresh);
        assert_eq!(lw.layers.len(), 53);
        assert!((lw.tolerable_retention_us - 734.0).abs() < 1.0);
        // 200 MHz x 734 µs.
        assert_eq!(lw.clock_divider, 146_800);
        // RANA* at 734 µs: the vast majority of bank flags are disabled.
        assert!(lw.disabled_flag_fraction() > 0.8, "disabled {}", lw.disabled_flag_fraction());
        // Flag vectors match the bank count.
        for l in &lw.layers {
            assert_eq!(l.refresh_flags.len(), cfg.buffer.num_banks);
        }
    }

    #[test]
    fn overflowing_layers_flag_all_banks_when_needy() {
        // AlexNet under RANA(0): conv1 keeps some data longer than 45 µs
        // and fits; every flag vector still has the right length and the
        // config carries the 45 µs divider.
        let eval = Evaluator::paper_platform();
        let net = rana_zoo::alexnet();
        let design = Design::Rana0;
        let energy = eval.evaluate(&net, design);
        let refresh = design.refresh_model(&RetentionDistribution::kong2008());
        let cfg = eval.edram_config().clone();
        let lw = LayerwiseConfig::generate(&energy.schedule, &cfg, &refresh);
        assert_eq!(lw.clock_divider, 9000); // 200 MHz x 45 µs
        assert_eq!(lw.layers.len(), 5);
        assert!(format!("{lw:?}").contains("pattern"));
    }
}
