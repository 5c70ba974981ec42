//! Batched functional inference: independent images across the worker
//! pool.
//!
//! A batch of images through one CONV layer is embarrassingly parallel —
//! each image owns its buffer simulation — so [`execute_layer_batch`]
//! fans the images out over [`crate::par::par_map`] workers
//! (`RANA_THREADS` honored) and returns per-image
//! [`FunctionalResult`]s in input order plus summed statistics. Results
//! are bit-identical to running the images serially: each image's
//! simulation is self-contained and `par_map` preserves order.

use crate::par;
use rana_accel::exec::{
    execute_layer_grouped_with, BufferModel, Engine, Formats, FunctionalResult,
};
use rana_accel::{AcceleratorConfig, Pattern, SchedLayer, Tiling};

/// Summed statistics of a batch execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BatchSummary {
    /// Images executed.
    pub images: usize,
    /// Total execution cycles across the batch (sum, not wall-clock —
    /// images run concurrently).
    pub cycles: u64,
    /// Total words refreshed by the controller.
    pub refresh_words: u64,
    /// Total bit faults injected.
    pub faults: u64,
    /// Total buffer words read by the compute.
    pub reads: u64,
}

impl BatchSummary {
    /// Accumulates one image's result.
    fn add(&mut self, r: &FunctionalResult) {
        self.images += 1;
        self.cycles += r.cycles;
        self.refresh_words += r.refresh_words;
        self.faults += r.faults;
        self.reads += r.reads;
    }
}

/// Runs one CONV layer functionally over a batch of independent images
/// on the worker pool, with the given tile-compute [`Engine`].
///
/// `images` holds one input feature map per image
/// (`groups × n × h × l` words each, as [`execute_layer_grouped_with`]
/// expects); all images share `weights`. Returns the per-image results
/// in input order and the batch totals.
///
/// # Example
///
/// ```
/// use rana_accel::exec::{BufferModel, Engine, Formats};
/// use rana_accel::{AcceleratorConfig, Pattern, SchedLayer, Tiling};
/// use rana_core::exec_batch::execute_layer_batch;
///
/// let layer = SchedLayer {
///     name: "tiny".into(), n: 1, h: 4, l: 4, m: 1, k: 1, s: 1,
///     r: 4, c: 4, pad: 0, groups: 1,
/// };
/// let cfg = AcceleratorConfig::paper_edram();
/// let images: Vec<Vec<i16>> = (0..3).map(|b| (b..b + 16).collect()).collect();
/// // 1x1 identity kernel (Q3.12 raw 4096 = 1.0): outputs echo inputs.
/// let (results, summary) = execute_layer_batch(
///     Engine::Blocked, &layer, Pattern::Od, Tiling::new(16, 16, 1, 16),
///     &cfg, &images, &[4096], Formats::default(), &BufferModel::Ideal);
/// assert_eq!(summary.images, 3);
/// assert_eq!(results[2].outputs, images[2]);
/// ```
///
/// # Panics
///
/// Panics if any image's length does not match the layer shape (same
/// contract as [`execute_layer_grouped_with`]).
#[allow(clippy::too_many_arguments)] // mirrors the single-image entry point plus the batch
pub fn execute_layer_batch(
    engine: Engine,
    layer: &SchedLayer,
    pattern: Pattern,
    tiling: Tiling,
    cfg: &AcceleratorConfig,
    images: &[Vec<i16>],
    weights: &[i16],
    formats: Formats,
    model: &BufferModel,
) -> (Vec<FunctionalResult>, BatchSummary) {
    let results = par::par_map(images, |inputs| {
        execute_layer_grouped_with(
            engine, layer, pattern, tiling, cfg, inputs, weights, formats, model,
        )
    });
    let mut summary = BatchSummary::default();
    for r in &results {
        summary.add(r);
    }
    (results, summary)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layer() -> (SchedLayer, Vec<Vec<i16>>, Vec<i16>) {
        let layer = SchedLayer {
            name: "batch".into(),
            n: 3,
            h: 6,
            l: 6,
            m: 4,
            k: 3,
            s: 1,
            r: 6,
            c: 6,
            pad: 1,
            groups: 1,
        };
        let images: Vec<Vec<i16>> = (0..5)
            .map(|b| (0..3 * 36).map(|i| ((i * 31 + b * 17 + 3) % 199) as i16 - 99).collect())
            .collect();
        let weights: Vec<i16> = (0..4 * 3 * 9).map(|i| ((i * 23 + 5) % 91) as i16 - 45).collect();
        (layer, images, weights)
    }

    #[test]
    fn batch_matches_serial_execution() {
        let (layer, images, weights) = layer();
        let cfg = AcceleratorConfig::paper_edram();
        let f = Formats::default();
        let (results, summary) = execute_layer_batch(
            Engine::Blocked,
            &layer,
            Pattern::Od,
            Tiling::new(4, 2, 3, 4),
            &cfg,
            &images,
            &weights,
            f,
            &BufferModel::Ideal,
        );
        assert_eq!(summary.images, images.len());
        let mut cycles = 0;
        for (img, got) in images.iter().zip(&results) {
            let want = execute_layer_grouped_with(
                Engine::Scalar,
                &layer,
                Pattern::Od,
                Tiling::new(4, 2, 3, 4),
                &cfg,
                img,
                &weights,
                f,
                &BufferModel::Ideal,
            );
            assert_eq!(got, &want);
            cycles += want.cycles;
        }
        assert_eq!(summary.cycles, cycles);
    }

    #[test]
    fn batch_is_deterministic_across_thread_counts() {
        let (layer, images, weights) = layer();
        let cfg = AcceleratorConfig::paper_edram();
        let f = Formats::default();
        let run = || {
            execute_layer_batch(
                Engine::Blocked,
                &layer,
                Pattern::Wd,
                Tiling::new(4, 3, 2, 6),
                &cfg,
                &images,
                &weights,
                f,
                &BufferModel::Ideal,
            )
        };
        let (r1, s1) = run();
        let (r2, s2) = run();
        assert_eq!(r1, r2);
        assert_eq!(s1, s2);
    }
}
