//! Tile-granular trace simulator.
//!
//! Walks the actual loop nest of a computation pattern, advancing a cycle
//! clock and recording every buffer/DRAM word transfer with a timestamp.
//! This is the "RTL-level cycle-accurate simulation ... for performance
//! estimation and memory access tracing" of §III-A, at tile granularity
//! (one event per `(m, n, rc)` tile iteration — the core computing part
//! below that is fixed and identical across patterns, so per-MAC detail
//! adds nothing the energy model consumes).
//!
//! The tile loop itself — the pattern's loop order, each tile's extents,
//! its input and weight reuse scopes and its PE-array cycles — is the
//! crate's one walk (`pattern::tiles`), which the functional engine
//! ([`crate::exec`]) runs too, so the two cannot disagree on the order or
//! the clock.
//!
//! Its purpose is to *validate* the closed-form [`crate::analysis`]: tests
//! assert that cycles and traffic agree exactly, and that the analytically
//! predicted lifetimes match the measured residencies.

use crate::analysis::{Lifetimes, Traffic};
use crate::config::AcceleratorConfig;
use crate::layer::SchedLayer;
use crate::pattern::{tiles, Pattern, Tiling};
use std::collections::HashMap;

/// Result of a traced execution.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceResult {
    /// Total execution cycles (all groups).
    pub cycles: u64,
    /// Word traffic (totals over all groups).
    pub traffic: Traffic,
    /// Lifetimes measured from the trace: maximum residency per data type
    /// and maximum rewrite gap for outputs.
    pub measured: Lifetimes,
}

/// Tracks residencies of one data type: keyed intervals from first load to
/// last use.
#[derive(Debug, Default)]
struct ResidencyTracker {
    current_key: Option<usize>,
    current_start: u64,
    last_use: u64,
    max_residency: u64,
}

impl ResidencyTracker {
    fn touch(&mut self, key: usize, now: u64, end: u64) {
        if self.opens(key) {
            self.close();
            self.current_key = Some(key);
            self.current_start = now;
        }
        self.last_use = end;
    }

    /// Whether a tile in reuse scope `key` starts a new residency.
    fn opens(&self, key: usize) -> bool {
        self.current_key != Some(key)
    }

    fn close(&mut self) {
        if self.current_key.is_some() {
            self.max_residency = self.max_residency.max(self.last_use - self.current_start);
            self.current_key = None;
        }
    }
}

/// Traces `layer` under `pattern`/`tiling` on `cfg`.
///
/// The trace executes one channel group and scales the counts, exactly as
/// the analysis does (groups are independent repetitions).
pub fn trace(
    layer: &SchedLayer,
    pattern: Pattern,
    tiling: Tiling,
    cfg: &AcceleratorConfig,
) -> TraceResult {
    let t = tiling.clamped_to(layer);
    let g = layer.groups as u64;
    let k2 = (layer.k * layer.k) as u64;
    let (tm_trips, tn_trips, _, _) = t.trips(layer);

    // Buffer-capacity check drives the overflow traffic, mirroring analysis.
    let capacity = cfg.buffer.capacity_words();
    let n_hl = (layer.n * layer.h * layer.l) as u64;
    let m_rc_words = (layer.m * layer.r * layer.c) as u64;
    let mn_k2 = (layer.m * layer.n) as u64 * k2;
    let resident_total = match pattern {
        Pattern::Id => n_hl + (t.tm * t.tr * t.tc) as u64 + (layer.n * t.tm) as u64 * k2,
        Pattern::Od => (t.tn * layer.h * layer.l) as u64 + m_rc_words + (t.tn * t.tm) as u64 * k2,
        Pattern::Wd => {
            layer.n as u64 * layer.tile_in_h(t.tr) as u64 * layer.tile_in_w(t.tc) as u64
                + (t.tm * t.tr * t.tc) as u64
                + mn_k2
        }
    };
    let fits = resident_total <= capacity;

    let mut traffic = Traffic::default();
    let mut clock: u64 = 0;

    // Whole-layer one-shot DRAM loads (WD's per-rc-tile streaming is
    // counted inside the loop below). ID's overflow uses the same
    // input-banding closed form as the analysis: band count, halo rows,
    // and one weight sweep per band.
    match pattern {
        Pattern::Id if fits => {
            traffic.dram_input_loads = n_hl;
            traffic.dram_weight_loads = mn_k2;
        }
        Pattern::Id => {
            // Inputs reload once per m-tile (Figure 3(b) semantics).
            traffic.dram_input_loads = tm_trips as u64 * n_hl;
            traffic.dram_weight_loads = mn_k2;
        }
        Pattern::Od => {
            traffic.dram_input_loads = n_hl;
            traffic.dram_weight_loads = mn_k2;
        }
        Pattern::Wd => {
            // Both streamed per rc-tile below; weights once when resident.
            traffic.dram_weight_loads = if fits { mn_k2 } else { 0 };
        }
    }
    traffic.dram_output_stores = m_rc_words;

    let mut input_res = ResidencyTracker::default();
    let mut weight_res = ResidencyTracker::default();
    let mut output_res = ResidencyTracker::default();
    let mut last_output_write: HashMap<(usize, usize), u64> = HashMap::new();
    let mut max_rewrite_gap: u64 = 0;

    for tile in tiles(layer, pattern, t, cfg) {
        let ((_, tm_e), (_, tn_e), (_, tr_e), (_, tc_e)) = (tile.m, tile.n, tile.r, tile.c);
        let th_e = layer.tile_in_h(tr_e) as u64;
        let tl_e = layer.tile_in_w(tc_e) as u64;
        let end = clock + tile.cycles;

        // WD streams a fresh input region (and spilled weights) from DRAM
        // at every rc-tile, its input scope.
        if pattern == Pattern::Wd && input_res.opens(tile.input_scope) {
            traffic.dram_input_loads += layer.n as u64 * th_e * tl_e;
            if !fits {
                traffic.dram_weight_loads += mn_k2;
            }
        }

        // Core fetches the input tile every iteration.
        traffic.buf_input_reads += tn_e as u64 * th_e * tl_e;
        // Weight tile fetch: OD holds it across the RC inner loop.
        if pattern != Pattern::Od || weight_res.opens(tile.weight_scope) {
            traffic.buf_weight_reads += (tm_e * tn_e) as u64 * k2;
        }

        // Output updates.
        let out_words = (tm_e * tr_e * tc_e) as u64;
        match pattern {
            Pattern::Od => {
                traffic.buf_output_writes += out_words;
                if tile.ni > 0 {
                    traffic.buf_output_reads += out_words;
                }
                let key = (tile.mi, tile.rci);
                if let Some(&prev) = last_output_write.get(&key) {
                    max_rewrite_gap = max_rewrite_gap.max(end - prev);
                }
                last_output_write.insert(key, end);
            }
            Pattern::Id | Pattern::Wd => {
                if tile.last_n {
                    traffic.buf_output_writes += out_words;
                }
            }
        }

        // Residency tracking: the resident set changes with the tile's
        // reuse scope (outputs: OD keeps them all, WD an (rc, m) tile's).
        input_res.touch(tile.input_scope, clock, end);
        weight_res.touch(tile.weight_scope, clock, end);
        match pattern {
            Pattern::Id => {}
            Pattern::Od => output_res.touch(0, clock, end),
            Pattern::Wd => output_res.touch(tile.rci * tm_trips + tile.mi, clock, end),
        }

        clock = end;
    }
    input_res.close();
    weight_res.close();
    output_res.close();

    // OD overflow: partial sums spill and reload once per extra n-pass.
    if pattern == Pattern::Od && !fits && tn_trips > 1 {
        traffic.dram_partial_stores = (tn_trips as u64 - 1) * m_rc_words;
        traffic.dram_partial_loads = (tn_trips as u64 - 1) * m_rc_words;
    }

    // Scale one group's counts to all groups.
    let total_cycles = clock * g;
    traffic = Traffic {
        dram_input_loads: traffic.dram_input_loads * g,
        dram_weight_loads: traffic.dram_weight_loads * g,
        dram_output_stores: traffic.dram_output_stores * g,
        dram_partial_stores: traffic.dram_partial_stores * g,
        dram_partial_loads: traffic.dram_partial_loads * g,
        buf_input_reads: traffic.buf_input_reads * g,
        buf_weight_reads: traffic.buf_weight_reads * g,
        buf_output_writes: traffic.buf_output_writes * g,
        buf_output_reads: traffic.buf_output_reads * g,
    };

    let us = |c: u64| cfg.cycles_to_us(c);
    let measured = Lifetimes {
        input_us: us(input_res.max_residency),
        output_us: if pattern == Pattern::Id {
            0.0
        } else {
            us(output_res.max_residency.max(if pattern == Pattern::Od { clock } else { 0 }))
        },
        weight_us: us(weight_res.max_residency),
        output_rewrite_us: match pattern {
            Pattern::Od => us(max_rewrite_gap),
            Pattern::Wd => us(output_res.max_residency),
            Pattern::Id => 0.0,
        },
        layer_us: us(total_cycles),
    };

    TraceResult { cycles: total_cycles, traffic, measured }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::analyze;
    use rana_zoo::{alexnet, resnet50, vgg16};

    fn check_agreement(
        layer: &SchedLayer,
        pattern: Pattern,
        tiling: Tiling,
        cfg: &AcceleratorConfig,
    ) {
        let a = analyze(layer, pattern, tiling, cfg);
        let t = trace(layer, pattern, tiling, cfg);
        assert_eq!(a.cycles, t.cycles, "{} {pattern} {tiling}: cycles", layer.name);
        assert_eq!(a.traffic, t.traffic, "{} {pattern} {tiling}: traffic", layer.name);
        // Analytic lifetimes are full-tile residencies; the traced maximum
        // must match within one tile iteration.
        let tol = 1.02;
        assert!(
            a.lifetimes.input_us <= t.measured.input_us * tol + 1.0
                && t.measured.input_us <= a.lifetimes.input_us * tol + 1.0,
            "{} {pattern}: LTi analytic {} vs traced {}",
            layer.name,
            a.lifetimes.input_us,
            t.measured.input_us
        );
        assert!(
            a.lifetimes.weight_us <= t.measured.weight_us * tol + 1.0
                && t.measured.weight_us <= a.lifetimes.weight_us * tol + 1.0,
            "{} {pattern}: LTw analytic {} vs traced {}",
            layer.name,
            a.lifetimes.weight_us,
            t.measured.weight_us
        );
    }

    #[test]
    fn trace_matches_analysis_on_running_cases() {
        let cfg = AcceleratorConfig::paper_edram();
        let a = SchedLayer::from_conv(resnet50().conv("res4a_branch1").unwrap());
        let b = SchedLayer::from_conv(vgg16().conv("conv4_2").unwrap());
        for pattern in Pattern::ALL {
            check_agreement(&a, pattern, Tiling::new(16, 16, 1, 16), &cfg);
            check_agreement(&b, pattern, Tiling::new(16, 16, 1, 16), &cfg);
        }
    }

    #[test]
    fn trace_matches_analysis_on_odd_tilings() {
        let cfg = AcceleratorConfig::paper_edram();
        let b = SchedLayer::from_conv(vgg16().conv("conv4_2").unwrap());
        for tiling in [
            Tiling::new(16, 8, 1, 16),
            Tiling::new(8, 16, 2, 8),
            Tiling::new(32, 4, 4, 4),
            Tiling::new(5, 7, 3, 9), // deliberately non-dividing
        ] {
            for pattern in Pattern::ALL {
                check_agreement(&b, pattern, tiling, &cfg);
            }
        }
    }

    #[test]
    fn trace_matches_analysis_on_grouped_conv() {
        let cfg = AcceleratorConfig::paper_edram();
        let c2 = SchedLayer::from_conv(alexnet().conv("conv2").unwrap());
        for pattern in Pattern::ALL {
            check_agreement(&c2, pattern, Tiling::new(16, 16, 2, 8), &cfg);
        }
    }

    #[test]
    fn trace_matches_analysis_on_sram_overflow() {
        // Layer-A on the 384 KB SRAM machine: ID overflows and reloads.
        let cfg = AcceleratorConfig::paper_sram();
        let a = SchedLayer::from_conv(resnet50().conv("res4a_branch1").unwrap());
        for pattern in Pattern::ALL {
            check_agreement(&a, pattern, Tiling::new(16, 16, 1, 16), &cfg);
        }
    }

    #[test]
    fn od_rewrite_gap_close_to_t2() {
        let cfg = AcceleratorConfig::paper_edram();
        let a = SchedLayer::from_conv(resnet50().conv("res4a_branch1").unwrap());
        let t = trace(&a, Pattern::Od, Tiling::new(16, 16, 1, 16), &cfg);
        // The measured gap between rewrites of an output tile is T2 = 72 µs.
        assert!(
            (t.measured.output_rewrite_us - 71.68).abs() < 1.0,
            "gap {}",
            t.measured.output_rewrite_us
        );
    }

    #[test]
    fn id_inputs_live_whole_layer() {
        let cfg = AcceleratorConfig::paper_edram();
        let a = SchedLayer::from_conv(resnet50().conv("res4a_branch1").unwrap());
        let t = trace(&a, Pattern::Id, Tiling::new(16, 16, 1, 16), &cfg);
        assert!((t.measured.input_us - t.measured.layer_us).abs() < 1.0);
    }
}
