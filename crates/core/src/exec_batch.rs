//! Batched functional inference: independent images across the worker
//! pool.
//!
//! A batch of images through one CONV layer is embarrassingly parallel —
//! each image owns its buffer simulation — so [`execute_layer_batch`]
//! fans the images out over [`crate::par::par_map`] workers
//! (`RANA_THREADS` honored) and returns per-image
//! [`FunctionalResult`]s in input order plus summed statistics. The
//! images share one thing: a weakest-cell map of the layer's buffer
//! cells, built once per call. On an eDRAM buffer each of the first
//! `min(workers, images)` images fills the map under one equal share of a
//! channel group's resident words before it runs, inside the one fan-out
//! of the images, so each block is filled about once for the whole batch
//! and the images, which run the same tile sequence in lockstep, rarely
//! race to fill one. The fill covers data that may never decay, which a
//! single-image call's lazy fill skips. Every bucket is a pure function of
//! the cell seed and address, whoever fills it and whenever, so results
//! are bit-identical to running each image alone on a fresh map, and
//! `par_map` preserves order. Each image's buffers are built on storage
//! that earlier buffers dropped (see `rana_edram::bank`), so a batch
//! allocates about one buffer per worker, not one per group and image.

use crate::par;
use rana_accel::exec::{
    execute_layer_grouped_on, resident_words, BufferModel, Engine, Formats, FunctionalResult,
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
/// (`groups × n × h × l` words each, as
/// [`rana_accel::exec::execute_layer_grouped_with`] expects); all images
/// share `weights`. Returns the per-image results in input order and the
/// batch totals.
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
/// Panics if any image's length does not match the layer shape or the
/// model's refresh interval is not finite and positive (same contract as
/// [`rana_accel::exec::execute_layer_grouped_with`]).
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
    execute_layer_batch_on(
        par::thread_count(),
        engine,
        layer,
        pattern,
        tiling,
        cfg,
        images,
        weights,
        formats,
        model,
    )
}

/// [`execute_layer_batch`] on `threads` workers.
#[allow(clippy::too_many_arguments)]
pub(crate) fn execute_layer_batch_on(
    threads: usize,
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
    let cells = model.cell_map(cfg);
    // On eDRAM, each of the first `fillers` images fills one equal share of
    // the resident words before it runs; a block astride two shares may be
    // filled twice, to the same bytes. Clamped to the map, so that a layer
    // too big for the buffer still fails the engine's fit assertion with
    // its own message.
    let fillers = match model {
        BufferModel::Edram { .. } => threads.clamp(1, images.len().max(1)),
        BufferModel::Ideal => 0,
    };
    let resident = resident_words(layer).min(cells.capacity_words());
    let share = resident.div_ceil(fillers.max(1));
    let indexed: Vec<_> = images.iter().enumerate().collect();
    let results = par::par_map_with(&indexed, threads, |&(i, inputs)| {
        if i < fillers {
            cells.fill(i * share..((i + 1) * share).min(resident));
        }
        execute_layer_grouped_on(
            &cells, engine, layer, pattern, tiling, cfg, inputs, weights, formats, model,
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
    use rana_accel::exec::execute_layer_grouped_with;
    use rana_edram::{RefreshConfig, RetentionDistribution};

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

    /// A 100 kHz machine with a small buffer whose cells decay past a sharp
    /// knee at 100 µs, long before the layer ends: faults occur on reads
    /// and at the 400 µs refresh pulses.
    fn decaying() -> (AcceleratorConfig, BufferModel) {
        let mut cfg = AcceleratorConfig::paper_edram();
        cfg.frequency_hz = 1e5;
        cfg.buffer.num_banks = 2;
        cfg.buffer.bank_words = 1024;
        let dist =
            RetentionDistribution::from_anchors(vec![(100.0, 1e-7), (150.0, 1e-2), (1e3, 1.0)])
                .expect("valid anchors");
        let refresh = Some(RefreshConfig::conventional(400.0));
        (cfg, BufferModel::Edram { dist, seed: 5, refresh })
    }

    #[test]
    fn batch_matches_serial_execution() {
        let (layer, images, weights) = layer();
        let f = Formats::default();
        let tiling = Tiling::new(4, 2, 3, 4);
        let (decaying_cfg, decaying_model) = decaying();
        let runs = [
            (AcceleratorConfig::paper_edram(), BufferModel::Ideal, false),
            (decaying_cfg, decaying_model, true),
        ];
        for (cfg, model, decays) in &runs {
            let (results, summary) = execute_layer_batch(
                Engine::Blocked,
                &layer,
                Pattern::Od,
                tiling,
                cfg,
                &images,
                &weights,
                f,
                model,
            );
            assert_eq!(summary.faults > 0, *decays);
            // Each image alone, on a map of its own, through the scalar
            // reference engine.
            let mut want = BatchSummary::default();
            for (img, got) in images.iter().zip(&results) {
                let alone = execute_layer_grouped_with(
                    Engine::Scalar,
                    &layer,
                    Pattern::Od,
                    tiling,
                    cfg,
                    img,
                    &weights,
                    f,
                    model,
                );
                assert_eq!(got, &alone);
                want.add(&alone);
            }
            assert_eq!(summary, want);
        }
    }

    #[test]
    fn batch_is_deterministic_across_thread_counts() {
        let (layer, images, weights) = layer();
        let (cfg, model) = decaying();
        let run = |threads| {
            execute_layer_batch_on(
                threads,
                Engine::Blocked,
                &layer,
                Pattern::Wd,
                Tiling::new(4, 3, 2, 6),
                &cfg,
                &images,
                &weights,
                Formats::default(),
                &model,
            )
        };
        let (one, one_summary) = run(1);
        let (three, three_summary) = run(3);
        assert!(one_summary.faults > 0, "the buffer must decay");
        assert_eq!(one, three);
        assert_eq!(one_summary, three_summary);
    }

    /// The pre-fill stops at the end of the map, so an oversized layer
    /// fails the engine's own fit assertion (on one worker, whose panic
    /// message reaches the caller as is).
    #[test]
    #[should_panic(expected = "functional engine needs all residents to fit")]
    fn batch_on_a_buffer_too_small_fails_the_fit_assertion() {
        let (layer, images, weights) = layer();
        let (mut cfg, model) = decaying();
        cfg.buffer.bank_words = 100;
        execute_layer_batch_on(
            1,
            Engine::Blocked,
            &layer,
            Pattern::Od,
            Tiling::new(4, 2, 3, 4),
            &cfg,
            &images,
            &weights,
            Formats::default(),
            &model,
        );
    }

    /// A two-group layer on a decaying buffer of 3 × 83 = 249 words, not a
    /// multiple of the map's 64-word block, whose resident set (234 words
    /// per group) ends inside the partial last block: the batch's
    /// pre-filled map, split across 1, 2 or 3 workers, gives every image
    /// what it gets alone on a fresh map.
    #[test]
    fn prefilled_two_group_batch_matches_images_alone() {
        let layer = SchedLayer {
            name: "two-group".into(),
            n: 2,
            h: 6,
            l: 6,
            m: 3,
            k: 3,
            s: 1,
            r: 6,
            c: 6,
            pad: 1,
            groups: 2,
        };
        assert_eq!(resident_words(&layer), 2 * 36 + 3 * 2 * 9 + 3 * 36);
        let images: Vec<Vec<i16>> = (0..4)
            .map(|b| (0..2 * 2 * 36).map(|i| ((i * 37 + b * 11 + 1) % 181) as i16 - 90).collect())
            .collect();
        let weights: Vec<i16> =
            (0..2 * 3 * 2 * 9).map(|i| ((i * 29 + 7) % 83) as i16 - 41).collect();
        let (mut cfg, model) = decaying();
        cfg.buffer.num_banks = 3;
        cfg.buffer.bank_words = 83;
        let (tiling, f) = (Tiling::new(2, 1, 3, 4), Formats::default());
        let alone: Vec<FunctionalResult> = images
            .iter()
            .map(|img| {
                execute_layer_grouped_with(
                    Engine::Blocked,
                    &layer,
                    Pattern::Od,
                    tiling,
                    &cfg,
                    img,
                    &weights,
                    f,
                    &model,
                )
            })
            .collect();
        assert!(alone.iter().all(|r| r.faults > 0), "every image must decay");
        for threads in 1..=3 {
            let (results, _) = execute_layer_batch_on(
                threads,
                Engine::Blocked,
                &layer,
                Pattern::Od,
                tiling,
                &cfg,
                &images,
                &weights,
                f,
                &model,
            );
            assert_eq!(results, alone, "{threads} threads");
        }
    }
}
