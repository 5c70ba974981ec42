//! ResNet-50 (He et al., CVPR 2016) CONV layers for 224×224×3 input.
//!
//! Bottleneck blocks with Caffe-style names (`res4a_branch1`,
//! `res2b_branch2c`, ...). The paper's Layer-A is `res4a_branch1`
//! (512×28×28 inputs, 1024 1×1 kernels, stride 2).

use crate::layer::{ConvShape, Layer, PoolShape};
use crate::network::Network;
use crate::MAX_INPUT_PIXELS;

/// One bottleneck stage: `blocks` blocks of (1×1, 3×3, 1×1) convs, the first
/// block carrying a 1×1 projection shortcut (`branch1`) and optionally a
/// stride-2 downsample.
#[allow(clippy::too_many_arguments)]
fn stage(
    layers: &mut Vec<Layer>,
    stage_id: usize,
    blocks: usize,
    in_ch: usize,
    mid_ch: usize,
    out_ch: usize,
    in_hw: usize,
    first_stride: usize,
) {
    let block_names = ["a", "b", "c", "d", "e", "f"];
    let out_hw = in_hw / first_stride;
    for (b, &bn) in block_names.iter().enumerate().take(blocks) {
        let prefix = format!("res{stage_id}{bn}");
        let (n, hw, s) = if b == 0 { (in_ch, in_hw, first_stride) } else { (out_ch, out_hw, 1) };
        if b == 0 {
            layers.push(Layer::conv(ConvShape::new(
                format!("{prefix}_branch1"),
                n,
                hw,
                hw,
                out_ch,
                1,
                s,
                0,
            )));
        }
        layers.push(Layer::conv(ConvShape::new(
            format!("{prefix}_branch2a"),
            n,
            hw,
            hw,
            mid_ch,
            1,
            s,
            0,
        )));
        layers.push(Layer::conv(ConvShape::new(
            format!("{prefix}_branch2b"),
            mid_ch,
            out_hw,
            out_hw,
            mid_ch,
            3,
            1,
            1,
        )));
        layers.push(Layer::conv(ConvShape::new(
            format!("{prefix}_branch2c"),
            mid_ch,
            out_hw,
            out_hw,
            out_ch,
            1,
            1,
            0,
        )));
    }
}

/// Builds the ResNet-50 CONV/pool stack for the standard 224×224×3 input.
pub fn resnet50() -> Network {
    resnet50_with_input(224)
}

/// ResNet-50 for an arbitrary square input (multiple of 32).
///
/// # Panics
///
/// Panics unless `hw` is a positive multiple of 32 of at most
/// [`MAX_INPUT_PIXELS`].
pub fn resnet50_with_input(hw: usize) -> Network {
    assert!(
        hw > 0 && hw.is_multiple_of(32) && hw <= MAX_INPUT_PIXELS,
        "ResNet input must be a positive multiple of 32 up to {MAX_INPUT_PIXELS}, got {hw}"
    );
    let mut layers = vec![
        Layer::conv(ConvShape::new("conv1", 3, hw, hw, 64, 7, 2, 3)),
        Layer::pool(PoolShape::new("pool1", 64, hw / 2, hw / 2, 3, 2)),
    ];
    stage(&mut layers, 2, 3, 64, 64, 256, hw / 4, 1);
    stage(&mut layers, 3, 4, 256, 128, 512, hw / 4, 2);
    stage(&mut layers, 4, 6, 512, 256, 1024, hw / 8, 2);
    stage(&mut layers, 5, 3, 1024, 512, 2048, hw / 16, 2);
    let name = if hw == 224 { "ResNet".to_string() } else { format!("ResNet@{hw}") };
    Network::new(name, layers)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layer_count() {
        // conv1 + 4 branch1 + (3+4+6+3) blocks x 3 convs = 1 + 4 + 48 = 53.
        assert_eq!(resnet50().conv_layers().count(), 53);
    }

    #[test]
    fn layer_a_matches_paper() {
        // §III-B1: Layer-A = res4a_branch1, BSi = N·H·L = 512·28·28 words
        // = 784 KB in 16-bit (the paper's 785 KB includes BSo+BSw at
        // Tm=Tn=Tr=Tc=1).
        let net = resnet50();
        let a = net.conv("res4a_branch1").unwrap();
        assert_eq!((a.in_ch, a.in_h, a.in_w), (512, 28, 28));
        assert_eq!((a.out_ch, a.kernel, a.stride), (1024, 1, 2));
        assert_eq!((a.out_h(), a.out_w()), (14, 14));
    }

    #[test]
    fn stride_two_blocks_downsample() {
        let net = resnet50();
        assert_eq!(net.conv("res3a_branch2a").unwrap().stride, 2);
        assert_eq!(net.conv("res3b_branch2a").unwrap().stride, 1);
        assert_eq!(net.conv("res5a_branch2b").unwrap().in_h, 7);
    }

    #[test]
    fn table1_storage_within_tolerance() {
        // Paper Table I (16-bit): 1.57 / 1.57 / 4.61 MB.
        // Max conv input: res3a (256·56·56·2 B); max output: conv1
        // (64·112·112·2 B); max weights: res5x_branch2b (3·3·512·512·2 B).
        let net = resnet50();
        let max_in = net.conv_layers().map(|c| c.input_words() * 2).max().unwrap() as f64 / 1e6;
        let max_out = net.conv_layers().map(|c| c.output_words() * 2).max().unwrap() as f64 / 1e6;
        let max_w = net.conv_layers().map(|c| c.weight_words() * 2).max().unwrap() as f64 / 1e6;
        assert!((max_in - 1.57).abs() / 1.57 < 0.05, "max inputs {max_in} MB");
        assert!((max_out - 1.57).abs() / 1.57 < 0.05, "max outputs {max_out} MB");
        assert!((max_w - 4.61).abs() / 4.61 < 0.05, "max weights {max_w} MB");
    }

    #[test]
    fn block_channel_chaining() {
        let net = resnet50();
        // res2 output 256 feeds res3a.
        assert_eq!(net.conv("res3a_branch1").unwrap().in_ch, 256);
        // res4 output 1024 feeds res5a.
        assert_eq!(net.conv("res5a_branch2a").unwrap().in_ch, 1024);
    }
}
