//! Off-chip DDR3 bandwidth model.
//!
//! The paper's energy model charges 2112.9 pJ per 16-bit DDR3 access
//! (Table III) but evaluates performance assuming the memory system keeps
//! up ("the performance loss is negligible"). This module adds the timing
//! side: a DDR3 channel with a peak transfer rate and an achievable
//! efficiency, and a per-layer performance summary where execution time is
//! the maximum of compute time and transfer time (double-buffered
//! overlap). It quantifies *when* the paper's performance assumption holds
//! — and the bandwidth ablation (`exp_ablation`) shows where it breaks.

use crate::analysis::{LayerSim, Traffic};

/// DRAM address-interleaving order (PENDRAM / DRMap-style mapping policy).
///
/// The order in which row, bank and column bits are taken from the linear
/// address decides how much row-buffer locality sequential streams keep
/// and how much bank-level parallelism scattered accesses get. The model
/// prices this as two effective-bandwidth factors applied on top of the
/// channel's planning efficiency: one for *streaming* traffic (layer
/// input/weight loads and final output stores, long sequential bursts)
/// and one for *scattered* traffic (partial-sum spills and reloads, short
/// strided bursts).
///
/// # Example
///
/// ```
/// use rana_accel::dram::DdrMapping;
/// // The default mapping is the baseline the planning efficiency already
/// // assumes: both factors are exactly 1.
/// assert_eq!(DdrMapping::default(), DdrMapping::RowBankCol);
/// assert_eq!(DdrMapping::RowBankCol.stream_factor(), 1.0);
/// // Bank-interleaving trades stream locality for scatter parallelism.
/// assert!(DdrMapping::BankRowCol.stream_factor() < 1.0);
/// assert!(DdrMapping::BankRowCol.scatter_factor() > 1.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DdrMapping {
    /// Row bits high, column bits low: sequential streams stay inside one
    /// open row per bank. The baseline — the channel's planning
    /// `efficiency` is calibrated to it, so both factors are exactly 1.
    #[default]
    RowBankCol,
    /// Bank bits above row bits: consecutive bursts rotate through banks.
    /// Scattered partial-sum traffic overlaps row activations across
    /// banks, but long streams give up some open-row locality.
    BankRowCol,
    /// Column bits split around the bank bits (fine-grained interleave):
    /// the strongest scatter parallelism and the weakest stream locality.
    RowColBank,
}

impl DdrMapping {
    /// Every mapping, in report order.
    pub fn all() -> [DdrMapping; 3] {
        [DdrMapping::RowBankCol, DdrMapping::BankRowCol, DdrMapping::RowColBank]
    }

    /// Stable lowercase label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            DdrMapping::RowBankCol => "row-bank-col",
            DdrMapping::BankRowCol => "bank-row-col",
            DdrMapping::RowColBank => "row-col-bank",
        }
    }

    /// Multiplier on achievable bandwidth for sequential streams.
    pub fn stream_factor(&self) -> f64 {
        match self {
            DdrMapping::RowBankCol => 1.0,
            DdrMapping::BankRowCol => 0.93,
            DdrMapping::RowColBank => 0.85,
        }
    }

    /// Multiplier on achievable bandwidth for scattered (partial-sum
    /// spill/reload) traffic.
    pub fn scatter_factor(&self) -> f64 {
        match self {
            DdrMapping::RowBankCol => 1.0,
            DdrMapping::BankRowCol => 1.45,
            DdrMapping::RowColBank => 1.7,
        }
    }
}

/// A DDR3 channel.
///
/// # Example
///
/// ```
/// use rana_accel::dram::Ddr3Model;
/// let ddr = Ddr3Model::ddr3_1600();
/// assert_eq!(ddr.peak_bandwidth(), 12.8e9);
/// // 1 MB at 70% efficiency: ~112 µs.
/// assert!((ddr.transfer_time_us(500_000) - 111.6).abs() < 0.1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ddr3Model {
    /// I/O bus clock in Hz (data moves on both edges).
    pub io_clock_hz: f64,
    /// Bus width in bytes (8 for a ×64 DIMM).
    pub bus_bytes: usize,
    /// Achievable fraction of the peak rate (row misses, refresh,
    /// read/write turnaround); 0.7 is a common planning number.
    pub efficiency: f64,
    /// Address-interleaving order; reprices streaming vs scattered
    /// traffic in [`Ddr3Model::transfer_time_us_for`].
    pub mapping: DdrMapping,
}

impl Ddr3Model {
    /// DDR3-1600 (800 MHz I/O clock, ×64, 12.8 GB/s peak).
    pub fn ddr3_1600() -> Self {
        Self { io_clock_hz: 800e6, bus_bytes: 8, efficiency: 0.7, mapping: DdrMapping::RowBankCol }
    }

    /// DDR3-800 — a half-rate channel for sensitivity studies.
    pub fn ddr3_800() -> Self {
        Self { io_clock_hz: 400e6, bus_bytes: 8, efficiency: 0.7, mapping: DdrMapping::RowBankCol }
    }

    /// This channel with a different address mapping.
    pub fn with_mapping(self, mapping: DdrMapping) -> Self {
        Self { mapping, ..self }
    }

    /// Peak bandwidth in bytes per second.
    pub fn peak_bandwidth(&self) -> f64 {
        self.io_clock_hz * 2.0 * self.bus_bytes as f64
    }

    /// Achievable bandwidth in bytes per second.
    pub fn achievable_bandwidth(&self) -> f64 {
        self.peak_bandwidth() * self.efficiency
    }

    /// Time to move `words` 16-bit words, in µs, at the plain achievable
    /// bandwidth (mapping-agnostic).
    pub fn transfer_time_us(&self, words: u64) -> f64 {
        words as f64 * 2.0 / self.achievable_bandwidth() * 1e6
    }

    /// Time to move a layer's DRAM traffic, in µs, with the address
    /// mapping repricing streaming traffic (input/weight loads, final
    /// output stores) and scattered traffic (partial-sum spills and
    /// reloads) separately.
    ///
    /// Under the default [`DdrMapping::RowBankCol`] both factors are
    /// exactly 1 and this is bit-identical to
    /// [`transfer_time_us`](Self::transfer_time_us) of the total.
    pub fn transfer_time_us_for(&self, traffic: &Traffic) -> f64 {
        let scattered = traffic.dram_partial_stores + traffic.dram_partial_loads;
        let streamed = traffic.dram_total() - scattered;
        let (sf, cf) = (self.mapping.stream_factor(), self.mapping.scatter_factor());
        if sf == 1.0 && cf == 1.0 {
            // One division, same float as the legacy path.
            return self.transfer_time_us(traffic.dram_total());
        }
        streamed as f64 * 2.0 / (self.achievable_bandwidth() * sf) * 1e6
            + scattered as f64 * 2.0 / (self.achievable_bandwidth() * cf) * 1e6
    }

    /// A model scaled to `factor` × this channel's rate.
    pub fn scaled(&self, factor: f64) -> Self {
        Self { io_clock_hz: self.io_clock_hz * factor, ..*self }
    }
}

impl Default for Ddr3Model {
    fn default() -> Self {
        Self::ddr3_1600()
    }
}

/// Timing of one layer under a bandwidth constraint.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LayerPerformance {
    /// Pure compute time (the analytic `time_us`).
    pub compute_us: f64,
    /// Off-chip transfer time at the achievable bandwidth.
    pub dram_us: f64,
    /// Wall-clock with perfect double buffering: `max(compute, dram)`.
    pub total_us: f64,
}

impl LayerPerformance {
    /// Evaluates a layer's timing against a DDR3 channel (honoring the
    /// channel's address mapping).
    pub fn of(sim: &LayerSim, ddr: &Ddr3Model) -> Self {
        let compute_us = sim.time_us;
        let dram_us = ddr.transfer_time_us_for(&sim.traffic);
        Self { compute_us, dram_us, total_us: compute_us.max(dram_us) }
    }

    /// Slowdown over the pure-compute time (1.0 = fully overlapped).
    pub fn slowdown(&self) -> f64 {
        self.total_us / self.compute_us
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::analyze;
    use crate::config::AcceleratorConfig;
    use crate::layer::SchedLayer;
    use crate::pattern::{Pattern, Tiling};

    #[test]
    fn ddr3_1600_rates() {
        let d = Ddr3Model::ddr3_1600();
        assert!((d.peak_bandwidth() - 12.8e9).abs() < 1e3);
        // 1M words = 2 MB at 8.96 GB/s achievable = ~223 us.
        let t = d.transfer_time_us(1_000_000);
        assert!((t - 223.2).abs() < 1.0, "transfer {t} us");
    }

    #[test]
    fn compute_bound_conv_layer() {
        // VGG conv4_2 on the eDRAM platform: 1.85 GMACs vs ~10 MB of
        // traffic — decisively compute-bound at DDR3-1600.
        let cfg = AcceleratorConfig::paper_edram();
        let l = SchedLayer::from_conv(rana_zoo::vgg16().conv("conv4_2").unwrap());
        let sim = analyze(&l, Pattern::Od, Tiling::new(16, 16, 1, 16), &cfg);
        let p = LayerPerformance::of(&sim, &Ddr3Model::ddr3_1600());
        assert!(p.dram_us <= p.compute_us, "compute {} vs dram {}", p.compute_us, p.dram_us);
        assert!((p.slowdown() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn spilling_od_layer_becomes_memory_bound_on_slow_channel() {
        // VGG conv1_2 under OD spills partial sums; on a crippled channel
        // the spill traffic dominates the wall clock.
        let cfg = AcceleratorConfig::paper_edram();
        let l = SchedLayer::from_conv(rana_zoo::vgg16().conv("conv1_2").unwrap());
        let sim = analyze(&l, Pattern::Od, Tiling::new(16, 16, 1, 16), &cfg);
        assert!(!sim.fits_buffer);
        let slow = Ddr3Model::ddr3_1600().scaled(0.1);
        let p = LayerPerformance::of(&sim, &slow);
        assert!(p.dram_us > p.compute_us, "compute {} vs dram {}", p.compute_us, p.dram_us);
        assert!(p.slowdown() > 1.5, "slowdown {}", p.slowdown());
    }

    #[test]
    fn default_mapping_is_bit_identical_to_legacy_timing() {
        let cfg = AcceleratorConfig::paper_edram();
        let l = SchedLayer::from_conv(rana_zoo::vgg16().conv("conv1_2").unwrap());
        let sim = analyze(&l, Pattern::Od, Tiling::new(16, 16, 1, 16), &cfg);
        let ddr = Ddr3Model::ddr3_1600();
        assert_eq!(
            ddr.transfer_time_us_for(&sim.traffic).to_bits(),
            ddr.transfer_time_us(sim.traffic.dram_total()).to_bits(),
            "RowBankCol must reproduce the mapping-agnostic time exactly"
        );
    }

    #[test]
    fn bank_interleave_helps_spilling_layers_and_hurts_streaming_ones() {
        let cfg = AcceleratorConfig::paper_edram();
        // conv1_2 under OD spills partial sums (scatter-heavy)...
        let spill = SchedLayer::from_conv(rana_zoo::vgg16().conv("conv1_2").unwrap());
        let spill_sim = analyze(&spill, Pattern::Od, Tiling::new(16, 16, 1, 16), &cfg);
        assert!(spill_sim.traffic.dram_partial_stores > 0);
        // ...while conv4_2 fits and only streams.
        let stream = SchedLayer::from_conv(rana_zoo::vgg16().conv("conv4_2").unwrap());
        let stream_sim = analyze(&stream, Pattern::Od, Tiling::new(16, 16, 1, 16), &cfg);
        assert_eq!(stream_sim.traffic.dram_partial_stores, 0);

        let base = Ddr3Model::ddr3_1600();
        let interleaved = base.with_mapping(DdrMapping::BankRowCol);
        assert!(
            interleaved.transfer_time_us_for(&spill_sim.traffic)
                < base.transfer_time_us_for(&spill_sim.traffic),
            "scatter-heavy traffic must gain from bank interleaving"
        );
        assert!(
            interleaved.transfer_time_us_for(&stream_sim.traffic)
                > base.transfer_time_us_for(&stream_sim.traffic),
            "pure streams must pay for bank interleaving"
        );
    }

    #[test]
    fn mapping_labels_are_distinct() {
        let labels: Vec<&str> = DdrMapping::all().iter().map(|m| m.label()).collect();
        assert_eq!(labels.len(), 3);
        for (i, a) in labels.iter().enumerate() {
            for b in &labels[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn scaling_the_channel() {
        let d = Ddr3Model::ddr3_1600();
        let double = d.scaled(2.0);
        assert!((double.transfer_time_us(1000) - d.transfer_time_us(1000) / 2.0).abs() < 1e-9);
        assert!((Ddr3Model::ddr3_800().peak_bandwidth() - 6.4e9).abs() < 1e3);
    }
}
