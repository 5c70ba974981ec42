//! Property-based equivalence of the two functional tile engines: for any
//! layer shape (including asymmetric padding margins, strides and channel
//! groups), pattern, tiling and number format, the blocked/vectorized
//! engine must reproduce the scalar reference engine's *entire*
//! [`FunctionalResult`] — outputs, cycles, reads, faults and refresh
//! words — on both the ideal buffer and a decaying eDRAM buffer with and
//! without refresh.
//!
//! Besides small random shapes, four properties aim at the blocked
//! engine's own paths: channel groups on operands wide enough that the
//! outputs are not all zero; tiles of 16 output channels (the PE array's
//! rows, and the micro-kernel's fixed width) with a partial last channel
//! tile; output rows wider than 16 columns, where the columns are the
//! lanes; and reductions longer than a 32-bit lane holds at small product
//! shifts, whose layer calls run every tile on the reference tile.

use proptest::prelude::*;
use rana_repro::accel::exec::{execute_layer_grouped_with, BufferModel, Engine, Formats};
use rana_repro::accel::{AcceleratorConfig, Pattern, SchedLayer, Tiling};
use rana_repro::edram::{RefreshConfig, RetentionDistribution};

/// Layer shapes with independent padding (not tied to `k/2`), strides and
/// kernel sizes; `r`/`c` follow the convolution arithmetic.
fn arb_layer() -> impl Strategy<Value = SchedLayer> {
    // `hw >= 4 >= k` keeps the kernel inside the padded input for every
    // combination, so no filtering is needed.
    (1usize..=4, 4usize..=9, 1usize..=5, 1usize..=4, 1usize..=3, 0usize..=2).prop_map(
        |(n, hw, m, k, s, pad)| SchedLayer {
            name: "kernel-eq".into(),
            n,
            h: hw,
            l: hw,
            m,
            k,
            s,
            r: (hw + 2 * pad - k) / s + 1,
            c: (hw + 2 * pad - k) / s + 1,
            pad,
            groups: 1,
        },
    )
}

/// Number formats spanning the i32 fast path, the `shift == 0` and the
/// negative-shift i64 fallbacks (`prod_shift` ∈ −4 ..= 16).
fn arb_formats() -> impl Strategy<Value = Formats> {
    (0u8..=8, 0u8..=8, 0u8..=4).prop_map(|(input_frac, weight_frac, output_frac)| Formats {
        input_frac,
        weight_frac,
        output_frac,
    })
}

/// A sharp-knee retention curve (fault-free below 100 µs, fully decayed
/// past 1 ms) so decay effects are deterministic and actually exercised.
fn sharp_dist() -> RetentionDistribution {
    RetentionDistribution::from_anchors(vec![(100.0, 1e-7), (150.0, 1e-2), (1000.0, 1.0)]).unwrap()
}

fn operands(layer: &SchedLayer, seed: u64) -> (Vec<i16>, Vec<i16>) {
    let words = layer.groups * layer.n * layer.h * layer.l;
    let w_words = layer.groups * layer.m * layer.n * layer.k * layer.k;
    let inputs =
        (0..words).map(|i| (((i as u64).wrapping_mul(seed | 1) >> 5) % 61) as i16 - 30).collect();
    let weights = (0..w_words)
        .map(|i| (((i as u64).wrapping_mul((seed >> 3) | 1) >> 7) % 41) as i16 - 20)
        .collect();
    (inputs, weights)
}

/// Buffer models the engines must agree on: ideal, decaying-unrefreshed,
/// and decaying under the conventional 45 µs pulse.
fn models(seed: u64) -> [BufferModel; 3] {
    [
        BufferModel::Ideal,
        BufferModel::Edram { dist: sharp_dist(), seed, refresh: None },
        BufferModel::Edram {
            dist: sharp_dist(),
            seed,
            refresh: Some(RefreshConfig::conventional(45.0)),
        },
    ]
}

/// Layer shape from its input size, kernel, stride and padding.
#[allow(clippy::too_many_arguments)]
fn conv(n: usize, h: usize, l: usize, m: usize, k: usize, s: usize, pad: usize) -> SchedLayer {
    SchedLayer {
        name: "kernel-eq".into(),
        n,
        h,
        l,
        m,
        k,
        s,
        r: (h + 2 * pad - k) / s + 1,
        c: (l + 2 * pad - k) / s + 1,
        pad,
        groups: 1,
    }
}

/// Inputs and weights drawn from `-bound..=bound`: wide enough that the
/// rounded products at the format's shift are seldom zero, narrow enough
/// that most sums stay inside the 16-bit output.
fn operands_within(layer: &SchedLayer, seed: u64, bound: i16) -> (Vec<i16>, Vec<i16>) {
    let draw = |words: usize, mul: u64| -> Vec<i16> {
        let span = 2 * bound as u64 + 1;
        (0..words)
            .map(|i| (((i as u64).wrapping_mul(mul | 1) >> 7) % span) as i16 - bound)
            .collect()
    };
    let words = layer.groups * layer.n * layer.h * layer.l;
    let w_words = layer.groups * layer.m * layer.n * layer.k * layer.k;
    (draw(words, seed), draw(w_words, seed.rotate_left(17)))
}

/// Both engines on every buffer model, operands within `bound`: the whole
/// results must agree.
fn engines_agree(
    layer: &SchedLayer,
    pattern: Pattern,
    tiling: Tiling,
    formats: Formats,
    seed: u64,
    bound: i16,
) -> Result<(), TestCaseError> {
    let cfg = AcceleratorConfig::paper_edram();
    let (inputs, weights) = operands_within(layer, seed, bound);
    for model in models(seed) {
        let scalar = execute_layer_grouped_with(
            Engine::Scalar,
            layer,
            pattern,
            tiling,
            &cfg,
            &inputs,
            &weights,
            formats,
            &model,
        );
        let blocked = execute_layer_grouped_with(
            Engine::Blocked,
            layer,
            pattern,
            tiling,
            &cfg,
            &inputs,
            &weights,
            formats,
            &model,
        );
        prop_assert_eq!(
            &blocked,
            &scalar,
            "{} {} {:?} formats {:?}",
            pattern,
            tiling,
            layer,
            formats
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Blocked ≡ scalar on the full result, across patterns, tilings,
    /// paddings, strides, formats and buffer models.
    #[test]
    fn blocked_engine_matches_scalar_everywhere(
        layer in arb_layer(),
        formats in arb_formats(),
        tm in 1usize..=6,
        tn in 1usize..=5,
        tr in 1usize..=4,
        tc in 1usize..=5,
        pattern_idx in 0usize..3,
        seed in any::<u64>(),
    ) {
        let pattern = Pattern::ALL[pattern_idx];
        let tiling = Tiling::new(tm, tn, tr, tc);
        let cfg = AcceleratorConfig::paper_edram();
        let (inputs, weights) = operands(&layer, seed);
        for model in models(seed) {
            let scalar = execute_layer_grouped_with(
                Engine::Scalar, &layer, pattern, tiling, &cfg, &inputs, &weights, formats, &model);
            let blocked = execute_layer_grouped_with(
                Engine::Blocked, &layer, pattern, tiling, &cfg, &inputs, &weights, formats, &model);
            prop_assert_eq!(
                &blocked, &scalar,
                "{} {} pad {} s {} formats {:?}", pattern, tiling, layer.pad, layer.s, formats);
        }
    }

    /// Channel groups preserve the equivalence (per-group slicing, output
    /// concatenation and stat summation are engine-agnostic), on operands
    /// whose rounded products at the default shift are not all zero.
    #[test]
    fn grouped_wrapper_preserves_equivalence(
        base in arb_layer(),
        groups in 1usize..=3,
        pattern_idx in 0usize..3,
        seed in any::<u64>(),
    ) {
        let layer = SchedLayer { groups, ..base.clone() };
        let pattern = Pattern::ALL[pattern_idx];
        let tiling = Tiling::new(3, 2, 2, 3);
        let cfg = AcceleratorConfig::paper_edram();
        let (inputs, weights) = operands_within(&layer, seed, 2000);
        let f = Formats::default();
        for model in models(seed) {
            let scalar = execute_layer_grouped_with(
                Engine::Scalar, &layer, pattern, tiling, &cfg, &inputs, &weights, f, &model);
            prop_assert!(
                scalar.outputs.iter().any(|&o| o != 0),
                "{} groups {}: every output is 0, so the outputs check nothing", pattern, groups);
            let blocked = execute_layer_grouped_with(
                Engine::Blocked, &layer, pattern, tiling, &cfg, &inputs, &weights, f, &model);
            prop_assert_eq!(&blocked, &scalar, "{} groups {}", pattern, groups);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Channel tiles of 16 (the 16-lane micro-kernel) and a partial last
    /// channel tile (`m` of 17–20, or 16 in one tile), on narrow outputs so
    /// the channels are the lanes.
    #[test]
    fn blocked_engine_matches_scalar_on_pe_width_channel_tiles(
        m in 16usize..=20,
        n in 1usize..=3,
        hw in 3usize..=6,
        k in 1usize..=3,
        s in 1usize..=2,
        pad in 0usize..=1,
        tn in 1usize..=3,
        tr in 1usize..=3,
        tc in 1usize..=4,
        pattern_idx in 0usize..3,
        seed in any::<u64>(),
    ) {
        let layer = conv(n, hw, hw, m, k.min(hw), s, pad);
        let tiling = Tiling::new(16, tn, tr, tc);
        engines_agree(&layer, Pattern::ALL[pattern_idx], tiling, Formats::default(), seed, 2000)?;
    }

    /// Output rows of 17–40 columns in one column tile, so the columns are
    /// the lanes in a full 16-lane block and a partial one (strided columns
    /// only for one output channel, as in a depthwise group).
    #[test]
    fn blocked_engine_matches_scalar_on_wide_column_tiles(
        m in 1usize..=3,
        n in 1usize..=2,
        k in 1usize..=3,
        extra_rows in 0usize..=1,
        l in 17usize..=40,
        strided in 0usize..4,
        pad in 0usize..=1,
        tm in 1usize..=3,
        pattern_idx in 0usize..3,
        seed in any::<u64>(),
    ) {
        let (m, s) = if strided == 0 { (1, 2) } else { (m, 1) };
        let layer = conv(n, k + extra_rows, l, m, k, s, pad);
        let tiling = Tiling::new(tm, n, 2, 40);
        engines_agree(&layer, Pattern::ALL[pattern_idx], tiling, Formats::default(), seed, 2000)?;
    }

    /// At a product shift of 4 a 32-bit lane holds 31 terms, fewer than
    /// the 36–54 steps of these 3×3 tilings: the blocked engine runs every
    /// tile of such a call on the reference tile.
    #[test]
    fn blocked_engine_matches_scalar_on_draining_reductions(
        n in 4usize..=6,
        hw in 3usize..=5,
        m in 1usize..=4,
        pad in 0usize..=1,
        tn in 4usize..=6,
        tm in 1usize..=4,
        tc in 1usize..=5,
        pattern_idx in 0usize..3,
        seed in any::<u64>(),
    ) {
        let layer = conv(n, hw, hw, m, 3, 1, pad);
        let formats = Formats { input_frac: 2, weight_frac: 2, output_frac: 0 };
        let tiling = Tiling::new(tm, tn, 2, tc);
        engines_agree(&layer, Pattern::ALL[pattern_idx], tiling, formats, seed, 60)?;
    }
}
