//! The system energy model (paper Eq. 14, Table III).
//!
//! `Energy = α·Emac + βb·Ebuffer + γ·Erefresh + βd·Eddr` where α is the MAC
//! count, βb the on-chip buffer accesses, γ the refresh operations and βd
//! the off-chip accesses — all per 16-bit word.

use rana_accel::{AcceleratorConfig, LayerSim, Traffic};
use rana_edram::EnergyCosts;
use std::ops::{Add, AddAssign};

/// Joules per picojoule.
const PJ: f64 = 1e-12;

/// Energy of one layer or network, split the way Figures 1 and 15 plot it.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EnergyBreakdown {
    /// MAC (computing) energy, joules.
    pub computing_j: f64,
    /// On-chip buffer access energy, joules.
    pub buffer_j: f64,
    /// eDRAM refresh energy, joules.
    pub refresh_j: f64,
    /// Off-chip memory access energy, joules.
    pub offchip_j: f64,
}

impl EnergyBreakdown {
    /// Total system energy.
    pub fn total_j(&self) -> f64 {
        self.computing_j + self.buffer_j + self.refresh_j + self.offchip_j
    }

    /// Accelerator energy (excluding off-chip access — Figure 16's view).
    pub fn accelerator_j(&self) -> f64 {
        self.computing_j + self.buffer_j + self.refresh_j
    }

    /// This breakdown as a telemetry [`rana_trace::EnergyLedger`] (the
    /// same four Eq. 14 components, in plain-data form for event sinks).
    pub fn ledger(&self) -> rana_trace::EnergyLedger {
        rana_trace::EnergyLedger {
            computing_j: self.computing_j,
            buffer_j: self.buffer_j,
            refresh_j: self.refresh_j,
            offchip_j: self.offchip_j,
        }
    }

    /// This breakdown scaled so that `reference` is 1.0 (the normalized
    /// bars of Figures 15-19).
    pub fn normalized_to(&self, reference_j: f64) -> EnergyBreakdown {
        assert!(reference_j > 0.0, "reference energy must be positive");
        EnergyBreakdown {
            computing_j: self.computing_j / reference_j,
            buffer_j: self.buffer_j / reference_j,
            refresh_j: self.refresh_j / reference_j,
            offchip_j: self.offchip_j / reference_j,
        }
    }
}

impl Add for EnergyBreakdown {
    type Output = EnergyBreakdown;

    fn add(self, rhs: EnergyBreakdown) -> EnergyBreakdown {
        EnergyBreakdown {
            computing_j: self.computing_j + rhs.computing_j,
            buffer_j: self.buffer_j + rhs.buffer_j,
            refresh_j: self.refresh_j + rhs.refresh_j,
            offchip_j: self.offchip_j + rhs.offchip_j,
        }
    }
}

impl AddAssign for EnergyBreakdown {
    fn add_assign(&mut self, rhs: EnergyBreakdown) {
        *self = *self + rhs;
    }
}

/// Evaluates Eq. 14 for analyzed layers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyModel {
    /// Per-operation costs (Table III).
    pub costs: EnergyCosts,
}

impl EnergyModel {
    /// The 65 nm model of the paper.
    pub fn paper_65nm() -> Self {
        Self { costs: EnergyCosts::paper_65nm() }
    }

    /// Energy of one analyzed layer given its refresh-operation count.
    pub fn layer_energy(
        &self,
        sim: &LayerSim,
        refresh_words: u64,
        cfg: &AcceleratorConfig,
    ) -> EnergyBreakdown {
        self.with_refresh(self.without_refresh(sim.macs, &sim.traffic, cfg), refresh_words)
    }

    /// Eq. 14 at zero refresh: the computing, buffer and off-chip terms of
    /// `macs` MACs moving `traffic` on `cfg`.
    pub(crate) fn without_refresh(
        &self,
        macs: u64,
        traffic: &Traffic,
        cfg: &AcceleratorConfig,
    ) -> EnergyBreakdown {
        EnergyBreakdown {
            computing_j: macs as f64 * self.costs.mac_pj * PJ,
            buffer_j: traffic.buffer_total() as f64
                * self.costs.buffer_access_pj(cfg.buffer.tech)
                * PJ,
            refresh_j: 0.0,
            offchip_j: traffic.dram_total() as f64 * self.costs.ddr_access_pj * PJ,
        }
    }

    /// `energy` with its refresh term priced for `refresh_words` refresh
    /// operations.
    pub(crate) fn with_refresh(
        &self,
        energy: EnergyBreakdown,
        refresh_words: u64,
    ) -> EnergyBreakdown {
        EnergyBreakdown {
            refresh_j: refresh_words as f64 * self.costs.edram_refresh_pj * PJ,
            ..energy
        }
    }
}

impl Default for EnergyModel {
    fn default() -> Self {
        Self::paper_65nm()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rana_accel::{analyze, Pattern, SchedLayer, Tiling};

    #[test]
    fn breakdown_arithmetic() {
        let a = EnergyBreakdown { computing_j: 1.0, buffer_j: 2.0, refresh_j: 3.0, offchip_j: 4.0 };
        let b = a + a;
        assert_eq!(b.total_j(), 20.0);
        assert_eq!(a.accelerator_j(), 6.0);
        let n = a.normalized_to(a.total_j());
        assert!((n.total_j() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn layer_energy_uses_table3_costs() {
        let cfg = AcceleratorConfig::paper_edram();
        let l = SchedLayer::from_conv(rana_zoo::resnet50().conv("res4a_branch1").unwrap());
        let sim = analyze(&l, Pattern::Od, Tiling::new(16, 16, 1, 16), &cfg);
        let model = EnergyModel::paper_65nm();
        let e = model.layer_energy(&sim, 1000, &cfg);
        assert!((e.computing_j - sim.macs as f64 * 1.3e-12).abs() < 1e-15);
        assert!((e.refresh_j - 1000.0 * 48.1e-12).abs() < 1e-15);
        assert!(e.offchip_j > e.computing_j, "DDR3 words cost 1625x a MAC");
    }

    #[test]
    fn sram_vs_edram_buffer_cost() {
        let l = SchedLayer::from_conv(rana_zoo::resnet50().conv("res4a_branch1").unwrap());
        let model = EnergyModel::paper_65nm();
        let sram = AcceleratorConfig::paper_sram();
        let edram = AcceleratorConfig::paper_edram();
        let sim_s = analyze(&l, Pattern::Od, Tiling::new(16, 16, 1, 16), &sram);
        let sim_e = analyze(&l, Pattern::Od, Tiling::new(16, 16, 1, 16), &edram);
        let es = model.layer_energy(&sim_s, 0, &sram);
        let ee = model.layer_energy(&sim_e, 0, &edram);
        // Identical access counts would cost 18.2 vs 10.6 pJ; the eDRAM
        // design also avoids the OD spill, so its buffer energy is lower.
        assert!(ee.buffer_j < es.buffer_j);
    }
}
