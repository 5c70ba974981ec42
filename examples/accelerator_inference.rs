//! The whole reproduction in one story: train a CNN, run its convolutions
//! *functionally* on the simulated accelerator with a charge-level eDRAM
//! buffer, and watch retention physics act on a real inference:
//!
//! * at the real 200 MHz clock, every layer finishes inside the 45 µs
//!   retention time — no refresh needed, classifications intact;
//! * on an artificially slowed clock the unrefreshed buffer decays and the
//!   network starts misclassifying;
//! * the conventional 45 µs controller rescues it — at the refresh-energy
//!   price RANA exists to remove.
//!
//! Run with: `cargo run --release --example accelerator_inference`

use rana_repro::accel::exec::{execute_layer_grouped_with, BufferModel, Engine, Formats};
use rana_repro::accel::{AcceleratorConfig, Pattern, SchedLayer, Tiling};
use rana_repro::edram::{RefreshConfig, RetentionDistribution};
use rana_repro::fixq::QFormat;
use rana_repro::nn::data::{SyntheticDataset, IMG};
use rana_repro::nn::layers::{Conv2d, Layer, Linear, MaxPool2d, Relu, SoftmaxCrossEntropy};
use rana_repro::nn::FaultContext;

fn main() {
    // ---- train a small CNN on the host -------------------------------
    let data = SyntheticDataset::new(4, 240, 77);
    let (train, test) = data.split(0.8);
    let mut conv1 = Conv2d::new(1, 6, 5, 1, 2, 31);
    let mut relu1 = Relu::new();
    let mut pool1 = MaxPool2d::new(2);
    let mut conv2 = Conv2d::new(6, 12, 3, 1, 1, 32);
    let mut relu2 = Relu::new();
    let mut pool2 = MaxPool2d::new(2);
    let mut fc = Linear::new(12 * (IMG / 4) * (IMG / 4), 4, 33);
    let loss = SoftmaxCrossEntropy::new();

    for _ in 0..6 {
        for (x, labels) in train.batches(16) {
            let mut ctx = FaultContext::clean();
            let h = conv1.forward(&x, &mut ctx);
            let h = relu1.forward(&h, &mut ctx);
            let h = pool1.forward(&h, &mut ctx);
            let h = conv2.forward(&h, &mut ctx);
            let h = relu2.forward(&h, &mut ctx);
            let h = pool2.forward(&h, &mut ctx);
            let b = h.shape()[0];
            let flat = h.clone().reshape(&[b, 12 * 3 * 3]);
            let logits = fc.forward(&flat, &mut ctx);
            let (_, grad) = loss.loss_and_grad(&logits, &labels);
            let g = fc.backward(&grad).reshape(&[b, 12, 3, 3]);
            let g = pool2.backward(&g);
            let g = relu2.backward(&g);
            let g = conv2.backward(&g);
            let g = pool1.backward(&g);
            let g = relu1.backward(&g);
            conv1.backward(&g);
            for l in [&mut conv1, &mut conv2] {
                l.update(0.05);
            }
            fc.update(0.05);
        }
    }
    println!(
        "Trained a 2-conv CNN ({} parameters).",
        conv1.param_count() + conv2.param_count() + fc.param_count()
    );

    // ---- inference with convolutions on the accelerator ---------------
    let classify = |conv1: &Conv2d,
                    conv2: &Conv2d,
                    fc: &Linear,
                    image: &[f32],
                    cfg: &AcceleratorConfig,
                    model: &BufferModel|
     -> usize {
        let (h1, d1) = accel_conv(conv1, image, IMG, cfg, model);
        let (p1, d1p) = relu_pool(&h1, 6, d1);
        let (h2, d2) = accel_conv(conv2, &p1, d1p, cfg, model);
        let (p2, _) = relu_pool(&h2, 12, d2);
        let (in_dim, out_dim) = fc.dims();
        let mut best = (0usize, f32::NEG_INFINITY);
        for o in 0..out_dim {
            let mut acc = fc.bias()[o];
            for (i, &x) in p2.iter().enumerate() {
                acc += x * fc.weights()[o * in_dim + i];
            }
            if acc > best.1 {
                best = (o, acc);
            }
        }
        best.0
    };

    let kong = RetentionDistribution::kong2008;
    let mut scenarios: Vec<(&str, AcceleratorConfig, BufferModel)> = Vec::new();
    let fast = AcceleratorConfig::paper_edram();
    let mut slow = fast.clone();
    slow.frequency_hz = 20e3;
    slow.buffer.num_banks = 2;
    slow.buffer.bank_words = 2048;
    scenarios.push((
        "200 MHz, eDRAM, NO refresh",
        fast.clone(),
        BufferModel::Edram { dist: kong(), seed: 5, refresh: None },
    ));
    scenarios.push((
        "20 kHz (10000x slow), NO refresh",
        slow.clone(),
        BufferModel::Edram { dist: kong(), seed: 5, refresh: None },
    ));
    scenarios.push((
        "20 kHz, conventional 45 us refresh",
        slow,
        BufferModel::Edram {
            dist: kong(),
            seed: 5,
            refresh: Some(RefreshConfig::conventional(45.0)),
        },
    ));

    let n = 20.min(test.len());
    println!("\nClassifying {n} test images with the conv layers on the accelerator:");
    for (label, cfg, model) in &scenarios {
        let mut correct = 0;
        for (x, labels) in test.batches(1).into_iter().take(n) {
            if classify(&conv1, &conv2, &fc, x.data(), cfg, model) == labels[0] {
                correct += 1;
            }
        }
        println!("  {label:<38} accuracy {correct}/{n}");
    }
    println!("\nLifetime < retention time needs no refresh; decay corrupts; refresh rescues —");
    println!(
        "RANA's contribution is getting the first row's energy with the third row's safety margin."
    );
}

fn accel_conv(
    conv: &Conv2d,
    input: &[f32],
    in_h: usize,
    cfg: &AcceleratorConfig,
    model: &BufferModel,
) -> (Vec<f32>, usize) {
    let (n, m, k, s, pad) = conv.dims();
    let out_h = conv.out_dim(in_h);
    let layer = SchedLayer {
        name: "conv".into(),
        n,
        h: in_h,
        l: in_h,
        m,
        k,
        s,
        r: out_h,
        c: out_h,
        pad,
        groups: 1,
    };
    let in_q = QFormat::for_max_abs(input.iter().fold(0.0f64, |a, &x| a.max(f64::from(x).abs())));
    let w_q =
        QFormat::for_max_abs(conv.weights().iter().fold(0.0f64, |a, &x| a.max(f64::from(x).abs())));
    let out_q = QFormat::new(8);
    let inputs: Vec<i16> = input.iter().map(|&x| in_q.quantize(f64::from(x))).collect();
    let weights: Vec<i16> = conv.weights().iter().map(|&x| w_q.quantize(f64::from(x))).collect();
    let formats = Formats {
        input_frac: in_q.frac_bits(),
        weight_frac: w_q.frac_bits(),
        output_frac: out_q.frac_bits(),
    };
    let r = execute_layer_grouped_with(
        Engine::Blocked,
        &layer,
        Pattern::Od,
        Tiling::new(16, 16, 1, 16),
        cfg,
        &inputs,
        &weights,
        formats,
        model,
    );
    let mut out: Vec<f32> = r.outputs.iter().map(|&w| out_q.dequantize(w) as f32).collect();
    for (ch, &b) in conv.bias().iter().enumerate() {
        for px in &mut out[ch * out_h * out_h..(ch + 1) * out_h * out_h] {
            *px += b;
        }
    }
    (out, out_h)
}

fn relu_pool(x: &[f32], c: usize, h: usize) -> (Vec<f32>, usize) {
    let oh = h / 2;
    let mut out = vec![0.0f32; c * oh * oh];
    for ch in 0..c {
        for i in 0..oh {
            for j in 0..oh {
                let mut best = f32::NEG_INFINITY;
                for u in 0..2 {
                    for v in 0..2 {
                        best = best.max(x[(ch * h + 2 * i + u) * h + 2 * j + v]);
                    }
                }
                out[(ch * oh + i) * oh + j] = best.max(0.0);
            }
        }
    }
    (out, oh)
}
