//! Golden pin of decayed functional runs: a few small CONV layers run
//! through `execute_layer_grouped_with` on the kong2008 eDRAM buffer, with
//! conventional 45 µs refresh, without refresh, and on a clock slowed
//! until faults are plentiful. Each run's output checksum, read count,
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

/// The three decay cases: clock frequency and refresh configuration.
const CASES: [(&str, f64, Option<f64>); 3] =
    [("refresh45", 2e6, Some(45.0)), ("unrefreshed", 2e6, None), ("slow-clock", 2e4, None)];

/// Recorded from the per-bit decay model: at 2 MHz the layers run
/// 243–432 µs, so 45 µs refresh pulses fire and, unrefreshed, only the
/// dense layer reads decayed bits; at 20 kHz they run 24–43 ms, long
/// enough for the bulk of the cells to fail.
const PINS: [Pin; 9] = [
    ("refresh45", "dense", 0x7501636cb8119725, 77664, 0, 16488),
    ("refresh45", "depthwise", 0x6e431751526de325, 25392, 0, 3144),
    ("refresh45", "strided", 0x78e7f76b5c14a3a5, 7680, 0, 3400),
    ("unrefreshed", "dense", 0x7501636cb8119725, 77664, 44, 0),
    ("unrefreshed", "depthwise", 0x6e431751526de325, 25392, 0, 0),
    ("unrefreshed", "strided", 0x78e7f76b5c14a3a5, 7680, 0, 0),
    ("slow-clock", "dense", 0x394a8906d302d294, 77664, 32515, 0),
    ("slow-clock", "depthwise", 0xfb0ebce078823e67, 25392, 643, 0),
    ("slow-clock", "strided", 0x07af38b8a4bf89be, 7680, 11153, 0),
];

#[test]
fn decayed_runs_match_their_pins() {
    let mut got = Vec::new();
    for (case, frequency_hz, refresh) in CASES {
        for (i, (layer, pattern, tiling)) in layers().into_iter().enumerate() {
            let (inputs, weights) = operands(&layer, 17 + i as u64);
            let cfg = machine(&layer, frequency_hz);
            let model = BufferModel::Edram {
                dist: RetentionDistribution::kong2008(),
                seed: 0xD0C + i as u64,
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
            got.push((
                case,
                layer.name.clone(),
                h.finish(),
                blocked.reads,
                blocked.faults,
                blocked.refresh_words,
            ));
        }
    }
    let table: String = got
        .iter()
        .map(|(c, l, fnv, r, f, rw)| {
            format!("    (\"{c}\", \"{l}\", 0x{fnv:016x}, {r}, {f}, {rw}),\n")
        })
        .collect();
    let want: Vec<_> =
        PINS.iter().map(|&(c, l, fnv, r, f, rw)| (c, l.to_string(), fnv, r, f, rw)).collect();
    assert_eq!(got, want, "computed pins:\n{table}");
}
