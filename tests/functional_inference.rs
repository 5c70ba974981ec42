//! The full stack, end to end with real data: train a small CNN with the
//! `rana-nn` substrate, export its weights to 16-bit fixed point, and run
//! its convolutions *functionally on the simulated accelerator* with the
//! charge-level eDRAM buffer — intact at normal speed without refresh
//! (lifetime < retention), corrupted on an artificially slowed clock, and
//! rescued by the conventional controller.

use rana_repro::accel::exec::{execute_layer_grouped_with, BufferModel, Engine, Formats};
use rana_repro::accel::{AcceleratorConfig, Pattern, SchedLayer, Tiling};
use rana_repro::edram::{RefreshConfig, RetentionDistribution};
use rana_repro::fixq::QFormat;
use rana_repro::nn::data::{SyntheticDataset, IMG};
use rana_repro::nn::layers::{
    Conv2d, Flatten, Layer, Linear, MaxPool2d, Relu, SoftmaxCrossEntropy,
};
use rana_repro::nn::{FaultContext, Tensor};

/// A hand-rolled 2-conv CNN whose conv layers we can export.
struct SmallCnn {
    conv1: Conv2d,
    relu1: Relu,
    pool1: MaxPool2d,
    conv2: Conv2d,
    relu2: Relu,
    pool2: MaxPool2d,
    flatten: Flatten,
    fc: Linear,
}

impl SmallCnn {
    fn new(classes: usize, seed: u64) -> Self {
        Self {
            conv1: Conv2d::new(1, 6, 5, 1, 2, seed ^ 1),
            relu1: Relu::new(),
            pool1: MaxPool2d::new(2),
            conv2: Conv2d::new(6, 12, 3, 1, 1, seed ^ 2),
            relu2: Relu::new(),
            pool2: MaxPool2d::new(2),
            flatten: Flatten::new(),
            fc: Linear::new(12 * (IMG / 4) * (IMG / 4), classes, seed ^ 3),
        }
    }

    fn forward(&mut self, x: &Tensor, ctx: &mut FaultContext) -> Tensor {
        let h = self.conv1.forward(x, ctx);
        let h = self.relu1.forward(&h, ctx);
        let h = self.pool1.forward(&h, ctx);
        let h = self.conv2.forward(&h, ctx);
        let h = self.relu2.forward(&h, ctx);
        let h = self.pool2.forward(&h, ctx);
        let h = self.flatten.forward(&h, ctx);
        self.fc.forward(&h, ctx)
    }

    fn backward(&mut self, g: &Tensor) {
        let g = self.fc.backward(g);
        let g = self.flatten.backward(&g);
        let g = self.pool2.backward(&g);
        let g = self.relu2.backward(&g);
        let g = self.conv2.backward(&g);
        let g = self.pool1.backward(&g);
        let g = self.relu1.backward(&g);
        self.conv1.backward(&g);
    }

    fn update(&mut self, lr: f32) {
        self.conv1.update(lr);
        self.conv2.update(lr);
        self.fc.update(lr);
    }
}

/// Runs one conv layer on the accelerator: quantize, execute, dequantize,
/// add bias on the host side.
#[allow(clippy::too_many_arguments)]
fn conv_on_accelerator(
    conv: &Conv2d,
    input: &[f32],
    in_h: usize,
    cfg: &AcceleratorConfig,
    model: &BufferModel,
    name: &str,
) -> (Vec<f32>, usize) {
    let (n, m, k, s, pad) = conv.dims();
    let out_h = conv.out_dim(in_h);
    let layer = SchedLayer {
        name: name.into(),
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
    // Output format sized generously for the accumulated range.
    let out_q = QFormat::new(8);
    let inputs: Vec<i16> = input.iter().map(|&x| in_q.quantize(f64::from(x))).collect();
    let weights: Vec<i16> = conv.weights().iter().map(|&x| w_q.quantize(f64::from(x))).collect();
    let formats = Formats {
        input_frac: in_q.frac_bits(),
        weight_frac: w_q.frac_bits(),
        output_frac: out_q.frac_bits(),
    };
    let result = execute_layer_grouped_with(
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
    let mut out: Vec<f32> = result.outputs.iter().map(|&w| out_q.dequantize(w) as f32).collect();
    for (ch, &b) in conv.bias().iter().enumerate() {
        for px in &mut out[ch * out_h * out_h..(ch + 1) * out_h * out_h] {
            *px += b;
        }
    }
    (out, out_h)
}

/// Host-side relu + 2x2 maxpool on a single [c, h, h] map.
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

fn classify_on_accelerator(
    net: &SmallCnn,
    image: &[f32],
    cfg: &AcceleratorConfig,
    model: &BufferModel,
) -> usize {
    let (h1, d1) = conv_on_accelerator(&net.conv1, image, IMG, cfg, model, "conv1");
    let (p1, d1p) = relu_pool(&h1, 6, d1);
    let (h2, d2) = conv_on_accelerator(&net.conv2, &p1, d1p, cfg, model, "conv2");
    let (p2, _) = relu_pool(&h2, 12, d2);
    // FC on the host.
    let (in_dim, out_dim) = net.fc.dims();
    assert_eq!(p2.len(), in_dim);
    let mut best = (0usize, f32::NEG_INFINITY);
    for o in 0..out_dim {
        let mut acc = net.fc.bias()[o];
        for (i, &x) in p2.iter().enumerate() {
            acc += x * net.fc.weights()[o * in_dim + i];
        }
        if acc > best.1 {
            best = (o, acc);
        }
    }
    best.0
}

#[test]
fn trained_cnn_runs_on_the_accelerator() {
    // Train on the host.
    let data = SyntheticDataset::new(4, 240, 77);
    let (train, test) = data.split(0.8);
    let mut net = SmallCnn::new(4, 31);
    let loss = SoftmaxCrossEntropy::new();
    for _epoch in 0..6 {
        for (x, labels) in train.batches(16) {
            let mut ctx = FaultContext::clean();
            let logits = net.forward(&x, &mut ctx);
            let (_, grad) = loss.loss_and_grad(&logits, &labels);
            net.backward(&grad);
            net.update(0.05);
        }
    }

    // Host accuracy (floating point reference).
    let mut host_preds = Vec::new();
    let mut labels_all = Vec::new();
    for (x, labels) in test.batches(16) {
        let mut ctx = FaultContext::clean();
        let logits = net.forward(&x, &mut ctx);
        host_preds.extend(loss.predict(&logits));
        labels_all.extend(labels);
    }
    let host_acc = host_preds.iter().zip(&labels_all).filter(|(p, l)| p == l).count() as f64
        / labels_all.len() as f64;
    assert!(host_acc > 0.5, "host accuracy {host_acc}");

    // Accelerator inference, eDRAM buffer, NO refresh: at 200 MHz every
    // layer finishes far inside the 45 µs retention time, so results match
    // fixed-point classification.
    let cfg = AcceleratorConfig::paper_edram();
    let edram =
        BufferModel::Edram { dist: RetentionDistribution::kong2008(), seed: 5, refresh: None };
    let n_img = 16.min(test.len());
    let mut agree = 0;
    let mut acc_correct = 0;
    for (x, labels) in test.batches(1).into_iter().take(n_img) {
        let pred = classify_on_accelerator(&net, x.data(), &cfg, &edram);
        let mut ctx = FaultContext::clean();
        let logits = net.forward(&x, &mut ctx);
        let host = loss.predict(&logits)[0];
        if pred == host {
            agree += 1;
        }
        if pred == labels[0] {
            acc_correct += 1;
        }
    }
    assert!(agree as f64 / n_img as f64 >= 0.8, "accelerator/host agreement {agree}/{n_img}");
    assert!(
        acc_correct as f64 / n_img as f64 >= host_acc - 0.3,
        "accelerator accuracy collapsed: {acc_correct}/{n_img} vs host {host_acc}"
    );

    // The retention counter-factual: slow the clock 10000x so layer
    // lifetimes blow past retention with refresh disabled — inference
    // degrades to noise — then rescue it with the 45 µs controller. A
    // small buffer keeps the per-pulse refresh resolution cheap.
    let mut slow = cfg.clone();
    slow.frequency_hz = 20e3;
    slow.buffer.num_banks = 2;
    slow.buffer.bank_words = 2048;
    let decayed =
        BufferModel::Edram { dist: RetentionDistribution::kong2008(), seed: 5, refresh: None };
    let rescued = BufferModel::Edram {
        dist: RetentionDistribution::kong2008(),
        seed: 5,
        refresh: Some(RefreshConfig::conventional(45.0)),
    };
    let probe: Vec<(Tensor, Vec<usize>)> = test.batches(1).into_iter().take(8).collect();
    let mut decayed_agree = 0;
    let mut rescued_agree = 0;
    for (x, _) in &probe {
        let mut ctx = FaultContext::clean();
        let logits = net.forward(x, &mut ctx);
        let host = loss.predict(&logits)[0];
        if classify_on_accelerator(&net, x.data(), &slow, &decayed) == host {
            decayed_agree += 1;
        }
        if classify_on_accelerator(&net, x.data(), &slow, &rescued) == host {
            rescued_agree += 1;
        }
    }
    assert!(
        rescued_agree > decayed_agree,
        "refresh must help on a decayed clock: rescued {rescued_agree} vs decayed {decayed_agree}"
    );
    assert!(rescued_agree >= 7, "45 us refresh should restore fidelity, got {rescued_agree}/8");
}
