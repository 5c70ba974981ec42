//! Functional-execution engine benchmark — wall-clock of the scalar
//! reference tile engine vs the blocked/vectorized engine
//! ([`Engine::Blocked`]) on the five zoo networks, plus batched inference
//! throughput over the worker pool (`RANA_THREADS` honored). Verifies the
//! blocked engine is bit-identical to the scalar reference — outputs,
//! cycles, reads, faults and refresh words — on every layer before
//! recording a single number. Emits byte-deterministic
//! `results/BENCH_exec.json` (checksums + counters) and quarantined
//! `results/BENCH_exec_timing.json` (wall-clock).
//!
//! The timing rows also carry each layer's blocked-engine time, so a
//! layer shape that slows down cannot hide under a network-level gain.
//!
//! `--smoke`: runs the identity checks on a synthetic mini-net without
//! writing any files. Its layers cover both lane axes of the blocked
//! engine: plain, grouped and strided layers, depthwise layers (one
//! channel per group, so output-column lanes) with stride 1 and 2, a 1×1
//! pointwise layer on a 1×1 map (one column, output-channel lanes), a
//! layer wider than the column tile (several channels on column lanes),
//! and a layer at product shift 4 whose 36-step reductions are longer than
//! one 32-bit run, which the blocked engine hands to the reference tile.
//! Each also runs as a two-image batch whose image 0 must equal the
//! single run.

use rana_accel::exec::{
    execute_layer_grouped_with, resident_words, BufferModel, Engine, Formats, FunctionalResult,
};
use rana_accel::{AcceleratorConfig, Fnv1a, Pattern, SchedLayer, Tiling};
use rana_bench::{banner, seed_from_env, threads_from_env, write_result};
use rana_core::exec_batch::execute_layer_batch;
use rana_edram::{RefreshConfig, RetentionDistribution};
use rana_zoo::Network;
use std::time::Instant;

const DEFAULT_SEED: u64 = 0x5241_4E41_4558_4543; // "RANAEXEC"

/// Layers heavier than this many weight words are skipped (an FC layer
/// transformed to CONV would need a multi-hundred-MB simulated buffer);
/// none of the benchmarked networks hit it.
const MAX_WEIGHT_WORDS: u64 = 4 << 20;

/// The pattern and tiling every layer runs under. OD exercises the
/// partial-sum read-modify-write path, the hardest case for the blocked
/// engine's equivalence.
const PATTERN: Pattern = Pattern::Od;

fn tiling() -> Tiling {
    Tiling::new(16, 16, 4, 32)
}

fn ms(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1e3
}

/// Deterministic small-magnitude operand mix (same family as the
/// functional-engine property tests).
fn mix(seed: u64, i: u64, modulus: u64) -> i16 {
    (((i.wrapping_mul(seed | 1).wrapping_add(seed >> 7) >> 5) % modulus) as i16)
        - (modulus / 2) as i16
}

/// Accelerator config whose unified buffer is sized to the layer's
/// per-group resident set (the functional engine requires all three
/// regions resident; zoo layers exceed the paper's 1.45 MB buffer).
fn cfg_for(ly: &SchedLayer) -> AcceleratorConfig {
    let mut cfg = AcceleratorConfig::paper_edram();
    cfg.buffer.bank_words = resident_words(ly).div_ceil(cfg.buffer.num_banks);
    cfg
}

/// The charge-based buffer model every layer simulates: the kong2008
/// retention distribution under the conventional 45 µs refresh.
fn model_for(layer_seed: u64) -> BufferModel {
    BufferModel::Edram {
        dist: RetentionDistribution::kong2008(),
        seed: layer_seed,
        refresh: Some(RefreshConfig::conventional(45.0)),
    }
}

fn layer_operands(ly: &SchedLayer, layer_seed: u64, image: u64) -> (Vec<i16>, Vec<i16>) {
    let img_seed = layer_seed.wrapping_add(image.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let inputs = (0..ly.input_words()).map(|i| mix(img_seed, i, 61)).collect();
    let weights = (0..ly.weight_words()).map(|i| mix(layer_seed ^ 0x5743, i, 41)).collect();
    (inputs, weights)
}

struct NetReport {
    /// Deterministic JSON row (counters + checksums).
    json: String,
    /// Wall-clock JSON row.
    timing: String,
    speedup: f64,
}

/// Runs every CONV layer of `net` through both engines (and the blocked
/// engine again as a batch), checks full-result identity, and returns the
/// two report rows.
fn bench_network(net: &Network, seed: u64, batch: usize) -> NetReport {
    let mut scalar_ms = 0.0f64;
    let mut blocked_ms = 0.0f64;
    let mut batch_s = 0.0f64;
    let mut macs = 0u64;
    let mut reads = 0u64;
    let mut faults = 0u64;
    let mut layers = 0usize;
    let mut layer_ms = Vec::new();
    let mut fnv = Fnv1a::new();
    let formats = Formats::default();

    for (idx, shape) in net.conv_layers().enumerate() {
        if shape.weight_words() > MAX_WEIGHT_WORDS {
            println!("  {:<18} skipped ({} weight words)", shape.name, shape.weight_words());
            continue;
        }
        let ly = SchedLayer::from_conv(shape);
        let mut h = Fnv1a::new();
        for b in net.name().bytes() {
            h.write_u8(b);
        }
        h.write_usize(idx);
        let layer_seed = seed ^ h.finish();
        let (inputs, weights) = layer_operands(&ly, layer_seed, 0);
        let cfg = cfg_for(&ly);
        let model = model_for(layer_seed);

        let t = Instant::now();
        let scalar = execute_layer_grouped_with(
            Engine::Scalar,
            &ly,
            PATTERN,
            tiling(),
            &cfg,
            &inputs,
            &weights,
            formats,
            &model,
        );
        scalar_ms += ms(t);

        let t = Instant::now();
        let blocked = execute_layer_grouped_with(
            Engine::Blocked,
            &ly,
            PATTERN,
            tiling(),
            &cfg,
            &inputs,
            &weights,
            formats,
            &model,
        );
        let blocked_layer_ms = ms(t);
        blocked_ms += blocked_layer_ms;
        layer_ms
            .push(format!("{{\"layer\":\"{}\",\"blocked_ms\":{blocked_layer_ms:.3}}}", ly.name));
        assert_eq!(
            blocked,
            scalar,
            "{}/{}: blocked engine diverged from the scalar reference",
            net.name(),
            ly.name
        );

        // Batched throughput: image 0 is the benchmark image, the rest
        // vary by seed. Per-image results must match the serial blocked
        // run exactly.
        let images: Vec<Vec<i16>> =
            (0..batch as u64).map(|b| layer_operands(&ly, layer_seed, b).0).collect();
        let t = Instant::now();
        let (results, summary) = execute_layer_batch(
            Engine::Blocked,
            &ly,
            PATTERN,
            tiling(),
            &cfg,
            &images,
            &weights,
            formats,
            &model,
        );
        batch_s += t.elapsed().as_secs_f64();
        assert_eq!(results[0], scalar, "{}/{}: batch image 0 diverged", net.name(), ly.name);
        assert_eq!(summary.images, batch);

        layers += 1;
        macs += ly.total_macs();
        reads += scalar.reads;
        faults += scalar.faults;
        for &w in &scalar.outputs {
            fnv.write_u64(w as u16 as u64);
        }
    }

    let speedup = scalar_ms / blocked_ms;
    let images_per_s_scalar = 1e3 / scalar_ms;
    let images_per_s = batch as f64 / batch_s;
    println!(
        "{:<12} {layers:>2} layers | scalar {scalar_ms:>9.1} ms | blocked {blocked_ms:>8.1} ms | {speedup:>5.2}x | batched {images_per_s:>6.2} img/s",
        net.name()
    );

    NetReport {
        json: format!(
            concat!(
                "{{\"network\":\"{}\",\"layers\":{},\"macs\":{},",
                "\"identical\":true,\"outputs_fnv\":\"0x{:016x}\",\"reads\":{},\"faults\":{}}}"
            ),
            net.name(),
            layers,
            macs,
            fnv.finish(),
            reads,
            faults
        ),
        timing: format!(
            concat!(
                "{{\"network\":\"{}\",\"scalar_ms\":{:.3},\"blocked_ms\":{:.3},",
                "\"speedup\":{:.2},\"images_per_s_scalar\":{:.3},\"images_per_s\":{:.3},",
                "\"layers\":[{}]}}"
            ),
            net.name(),
            scalar_ms,
            blocked_ms,
            speedup,
            images_per_s_scalar,
            images_per_s,
            layer_ms.join(",")
        ),
        speedup,
    }
}

/// A mini CONV layer; `r`/`c` follow the convolution arithmetic.
fn mini(
    name: &str,
    (n, hw, m, k, s, pad, groups): (usize, usize, usize, usize, usize, usize, usize),
) -> SchedLayer {
    let out = (hw + 2 * pad - k) / s + 1;
    SchedLayer { name: name.into(), n, h: hw, l: hw, m, k, s, r: out, c: out, pad, groups }
}

/// Mini-net identity check for `--smoke`: every mini layer through both
/// engines on the decayed buffer, and through a two-image batch.
fn smoke(seed: u64) {
    // At product shift 4 a 32-bit run holds 31 rounded products, fewer than
    // a 4-channel 3×3 reduction's 36.
    let shift4 = Formats { input_frac: 2, weight_frac: 2, output_frac: 0 };
    let mini = [
        (mini("plain3x3", (4, 10, 6, 3, 1, 1, 1)), Formats::default()),
        (mini("grouped", (2, 8, 2, 3, 1, 1, 2)), Formats::default()),
        (mini("strided5x5", (3, 11, 4, 5, 2, 2, 1)), Formats::default()),
        (mini("depthwise", (1, 9, 1, 3, 1, 1, 4)), Formats::default()),
        (mini("depthwise_s2", (1, 11, 1, 3, 2, 1, 3)), Formats::default()),
        (mini("pointwise1x1", (24, 1, 20, 1, 1, 0, 1)), Formats::default()),
        (mini("wide", (2, 40, 3, 3, 1, 1, 1)), Formats::default()),
        (mini("shift4_3x3", (4, 6, 3, 3, 1, 1, 1)), shift4),
    ];
    assert!(mini[6].0.c > tiling().tc, "the wide layer must span several column tiles");
    for (idx, (ly, formats)) in mini.iter().enumerate() {
        let layer_seed = seed.wrapping_add(idx as u64);
        let images: Vec<Vec<i16>> = (0..2).map(|b| layer_operands(ly, layer_seed, b).0).collect();
        let weights = layer_operands(ly, layer_seed, 0).1;
        let cfg = cfg_for(ly);
        let model = model_for(layer_seed);
        let run = |engine| -> FunctionalResult {
            execute_layer_grouped_with(
                engine,
                ly,
                PATTERN,
                tiling(),
                &cfg,
                &images[0],
                &weights,
                *formats,
                &model,
            )
        };
        let scalar = run(Engine::Scalar);
        let blocked = run(Engine::Blocked);
        assert_eq!(blocked, scalar, "{}: engines diverged", ly.name);
        let (batch, _) = execute_layer_batch(
            Engine::Blocked,
            ly,
            PATTERN,
            tiling(),
            &cfg,
            &images,
            &weights,
            *formats,
            &model,
        );
        assert_eq!(batch[0], blocked, "{}: batch image 0 diverged from the single run", ly.name);
        println!(
            "  {:<12} identical: outputs {} words, reads {}, faults {}",
            ly.name,
            scalar.outputs.len(),
            scalar.reads,
            scalar.faults
        );
    }
    println!(
        "smoke OK: blocked engine and batch image 0 bit-identical to scalar on all mini layers"
    );
}

fn main() {
    banner("BENCH exec", "Functional engine wall clock: scalar reference vs blocked/vectorized");
    let seed = seed_from_env(DEFAULT_SEED);
    let threads = threads_from_env();
    println!("seed: {seed:#x}, worker threads: {threads}\n");

    if std::env::args().any(|a| a == "--smoke") {
        smoke(seed);
        return;
    }

    let batch = threads.max(2);
    let nets = [
        rana_zoo::alexnet(),
        rana_zoo::vgg16_with_input(64),
        rana_zoo::googlenet(),
        rana_zoo::resnet50_with_input(64),
        rana_zoo::mobilenet_v1(),
    ];
    let reports: Vec<NetReport> = nets.iter().map(|n| bench_network(n, seed, batch)).collect();

    let alexnet_speedup = reports[0].speedup;
    println!("\nAlexNet blocked-vs-scalar speedup: {alexnet_speedup:.2}x (floor 5x)");
    assert!(
        alexnet_speedup >= 5.0,
        "AlexNet blocked-engine speedup {alexnet_speedup:.2}x is below the 5x floor"
    );

    let json = format!(
        "{{\n  \"seed\": {},\n  \"engine\": \"blocked\",\n  \"networks\": [\n    {}\n  ]\n}}\n",
        seed,
        reports.iter().map(|r| r.json.as_str()).collect::<Vec<_>>().join(",\n    ")
    );
    let timing = format!(
        concat!(
            "{{\n  \"threads\": {},\n  \"batch\": {},\n",
            "  \"alexnet_speedup\": {:.2},\n  \"networks\": [\n    {}\n  ]\n}}\n"
        ),
        threads,
        batch,
        alexnet_speedup,
        reports.iter().map(|r| r.timing.as_str()).collect::<Vec<_>>().join(",\n    ")
    );
    write_result("BENCH_exec.json", &json);
    write_result("BENCH_exec_timing.json", &timing);
}
