//! Golden pin of decayed functional runs: a few small CONV layers run
//! through `execute_layer_grouped_with` on the kong2008 eDRAM buffer, with
//! conventional 45 µs refresh, without refresh, on a clock slowed until
//! faults are plentiful, and on that slow clock under refresh at a
//! non-integer interval. Each run's output checksum, read count,
//! fault count and refreshed words are pinned to absolute values, so any
//! change to the decay model, its fast paths or their accounting shows
//! up here — not only as a disagreement between two engines that share
//! one memory model.

use rana_repro::accel::exec::{execute_layer_grouped_with, BufferModel, Engine, Formats};
use rana_repro::accel::{AcceleratorConfig, Fnv1a, Pattern, SchedLayer, Tiling};
use rana_repro::edram::{RefreshConfig, RetentionDistribution};

/// A CONV layer shape; `r`/`c` follow the convolution arithmetic.
fn layer(
    name: &str,
    (n, hw, m, k, s, pad, groups): (usize, usize, usize, usize, usize, usize, usize),
) -> SchedLayer {
    let out = (hw + 2 * pad - k) / s + 1;
    SchedLayer { name: name.into(), n, h: hw, l: hw, m, k, s, r: out, c: out, pad, groups }
}

/// The pinned layers, each with the pattern and tiling it runs under:
/// a dense 3×3 (OD's partial-sum rereads), a depthwise grouped layer (ID)
/// and a strided layer (WD).
fn layers() -> Vec<(SchedLayer, Pattern, Tiling)> {
    vec![
        (layer("dense", (6, 10, 8, 3, 1, 1, 1)), Pattern::Od, Tiling::new(4, 2, 5, 5)),
        (layer("depthwise", (1, 16, 1, 3, 1, 1, 6)), Pattern::Id, Tiling::new(1, 1, 2, 16)),
        (layer("strided", (3, 11, 5, 3, 2, 1, 1)), Pattern::Wd, Tiling::new(2, 3, 2, 3)),
    ]
}

/// Deterministic small-magnitude operands.
fn operands(layer: &SchedLayer, seed: u64) -> (Vec<i16>, Vec<i16>) {
    let words = layer.groups * layer.n * layer.h * layer.l;
    let w_words = layer.groups * layer.m * layer.n * layer.k * layer.k;
    let mix = |i: usize, salt: u64, modulus: u64| {
        ((((i as u64).wrapping_mul(salt | 1) >> 5) % modulus) as i16) - (modulus / 2) as i16
    };
    let inputs = (0..words).map(|i| mix(i, seed, 61)).collect();
    let weights = (0..w_words).map(|i| mix(i, seed ^ 0x5743, 41)).collect();
    (inputs, weights)
}

/// The paper machine with its clock set to `frequency_hz` and a buffer
/// just large enough for one group's resident set.
fn machine(layer: &SchedLayer, frequency_hz: f64) -> AcceleratorConfig {
    let mut cfg = AcceleratorConfig::paper_edram();
    cfg.frequency_hz = frequency_hz;
    let resident = layer.n * layer.h * layer.l
        + layer.m * layer.n * layer.k * layer.k
        + layer.m * layer.r * layer.c;
    cfg.buffer.num_banks = 4;
    cfg.buffer.bank_words = resident.div_ceil(4);
    cfg
}

/// One pinned run: `(case, layer, outputs FNV, reads, faults, refresh_words)`.
type Pin = (&'static str, &'static str, u64, u64, u64, u64);

/// The four decay cases: clock frequency and refresh configuration.
const CASES: [(&str, f64, Option<f64>); 4] = [
    ("refresh45", 2e6, Some(45.0)),
    ("unrefreshed", 2e6, None),
    ("slow-clock", 2e4, None),
    ("refresh-rung", 2e4, Some(617.215)),
];

/// Recorded from the per-bit decay model: at 2 MHz the layers run
/// 243–432 µs, so 45 µs refresh pulses fire and, unrefreshed, only the
/// dense layer reads decayed bits; at 20 kHz they run 24–43 ms, long
/// enough for the bulk of the cells to fail. The 617.215 µs interval is a
/// divider-quantized quarter-octave rung below 734 µs at 200 MHz, where
/// pulse `k` at `k·interval` and pulse times accumulated one interval at
/// a time part by an ULP: these rows pin the `k·interval` grid.
const PINS: [Pin; 12] = [
    ("refresh45", "dense", 0x7501636cb8119725, 77664, 0, 16488),
    ("refresh45", "depthwise", 0x6e431751526de325, 25392, 0, 3144),
    ("refresh45", "strided", 0x78e7f76b5c14a3a5, 7680, 0, 3400),
    ("unrefreshed", "dense", 0x7501636cb8119725, 77664, 44, 0),
    ("unrefreshed", "depthwise", 0x6e431751526de325, 25392, 0, 0),
    ("unrefreshed", "strided", 0x78e7f76b5c14a3a5, 7680, 0, 0),
    ("slow-clock", "dense", 0x394a8906d302d294, 77664, 32515, 0),
    ("slow-clock", "depthwise", 0xfb0ebce078823e67, 25392, 643, 0),
    ("slow-clock", "strided", 0x07af38b8a4bf89be, 7680, 11153, 0),
    ("refresh-rung", "dense", 0xe05219d5040f7d3a, 77664, 65, 126408),
    ("refresh-rung", "depthwise", 0x6e431751526de325, 25392, 0, 34584),
    ("refresh-rung", "strided", 0x78e7f76b5c14a3a5, 7680, 0, 26520),
];

/// One pinned run: layer `layer_idx` of [`layers`] under case `case_idx`
/// of [`CASES`], through both engines (which must agree), as its [`Pin`]
/// row.
fn pinned_run(case_idx: usize, layer_idx: usize) -> (&'static str, String, u64, u64, u64, u64) {
    let (case, frequency_hz, refresh) = CASES[case_idx];
    let (layer, pattern, tiling) = layers().swap_remove(layer_idx);
    let (inputs, weights) = operands(&layer, 17 + layer_idx as u64);
    let cfg = machine(&layer, frequency_hz);
    let model = BufferModel::Edram {
        dist: RetentionDistribution::kong2008(),
        seed: 0xD0C + layer_idx as u64,
        refresh: refresh.map(RefreshConfig::conventional),
    };
    let run = |engine| {
        execute_layer_grouped_with(
            engine,
            &layer,
            pattern,
            tiling,
            &cfg,
            &inputs,
            &weights,
            Formats::default(),
            &model,
        )
    };
    let blocked = run(Engine::Blocked);
    assert_eq!(run(Engine::Scalar), blocked, "{case}/{}: engines diverged", layer.name);
    let mut h = Fnv1a::new();
    for &w in &blocked.outputs {
        h.write_u64(w as u16 as u64);
    }
    (case, layer.name, h.finish(), blocked.reads, blocked.faults, blocked.refresh_words)
}

/// The pin of `(case, layer)`.
fn pin(case: &str, layer: &str) -> (&'static str, String, u64, u64, u64, u64) {
    let &(c, l, fnv, r, f, rw) =
        PINS.iter().find(|p| p.0 == case && p.1 == layer).expect("every run has a pin");
    (c, l.to_string(), fnv, r, f, rw)
}

#[test]
fn decayed_runs_match_their_pins() {
    let got: Vec<_> = (0..CASES.len())
        .flat_map(|case| (0..layers().len()).map(move |layer| pinned_run(case, layer)))
        .collect();
    let table: String = got
        .iter()
        .map(|(c, l, fnv, r, f, rw)| {
            format!("    (\"{c}\", \"{l}\", 0x{fnv:016x}, {r}, {f}, {rw}),\n")
        })
        .collect();
    let want: Vec<_> = PINS.iter().map(|&(c, l, ..)| pin(c, l)).collect();
    assert_eq!(got, want, "computed pins:\n{table}");
}

/// The same runs one after another on this thread, in an order whose
/// buffers go big → small → big: dense (4 banks of 458 words), the six
/// depthwise groups (4 × 131 each), strided (4 × 170) and dense again,
/// the decayed slow-clock case first. Each buffer may be built on storage
/// that an earlier, differently sized one wrote, decayed and dropped, and
/// every run must still give its pin.
#[test]
fn big_small_big_runs_match_their_pins() {
    for case in [2, 0, 1] {
        for layer in [0, 1, 2, 0] {
            let got = pinned_run(case, layer);
            assert_eq!(got, pin(got.0, &got.1), "case {case}, layer {layer}");
        }
    }
}
