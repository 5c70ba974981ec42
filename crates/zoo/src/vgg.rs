//! VGG-16 (Simonyan & Zisserman, ICLR 2015) CONV layers for 224×224×3 input.
//!
//! Thirteen 3×3 CONV layers in five groups. The paper's Layer-B
//! ("vgg conv9") is `conv4_2`: 512×28×28 inputs, 512 kernels, K=3.

use crate::layer::{ConvShape, Layer, PoolShape};
use crate::network::Network;
use crate::MAX_INPUT_PIXELS;

fn conv3x3(name: &str, n: usize, hw: usize, m: usize) -> Layer {
    Layer::conv(ConvShape::new(name, n, hw, hw, m, 3, 1, 1))
}

/// Builds the VGG-16 CONV/pool stack for the standard 224×224×3 input.
pub fn vgg16() -> Network {
    vgg16_with_input(224)
}

/// VGG-16 for an arbitrary square input (the paper notes storage "will
/// greatly increase when the networks process higher resolution images").
///
/// # Panics
///
/// Panics unless `hw` is a positive multiple of 32 (five 2× pools) of at
/// most [`MAX_INPUT_PIXELS`].
pub fn vgg16_with_input(hw: usize) -> Network {
    assert!(
        hw > 0 && hw.is_multiple_of(32) && hw <= MAX_INPUT_PIXELS,
        "VGG input must be a positive multiple of 32 up to {MAX_INPUT_PIXELS}, got {hw}"
    );
    let (d1, d2, d3, d4, d5) = (hw, hw / 2, hw / 4, hw / 8, hw / 16);
    let layers = vec![
        conv3x3("conv1_1", 3, d1, 64),
        conv3x3("conv1_2", 64, d1, 64),
        Layer::pool(PoolShape::new("pool1", 64, d1, d1, 2, 2)),
        conv3x3("conv2_1", 64, d2, 128),
        conv3x3("conv2_2", 128, d2, 128),
        Layer::pool(PoolShape::new("pool2", 128, d2, d2, 2, 2)),
        conv3x3("conv3_1", 128, d3, 256),
        conv3x3("conv3_2", 256, d3, 256),
        conv3x3("conv3_3", 256, d3, 256),
        Layer::pool(PoolShape::new("pool3", 256, d3, d3, 2, 2)),
        conv3x3("conv4_1", 256, d4, 512),
        conv3x3("conv4_2", 512, d4, 512),
        conv3x3("conv4_3", 512, d4, 512),
        Layer::pool(PoolShape::new("pool4", 512, d4, d4, 2, 2)),
        conv3x3("conv5_1", 512, d5, 512),
        conv3x3("conv5_2", 512, d5, 512),
        conv3x3("conv5_3", 512, d5, 512),
        Layer::pool(PoolShape::new("pool5", 512, d5, d5, 2, 2)),
    ];
    let name = if hw == 224 { "VGG".to_string() } else { format!("VGG@{hw}") };
    Network::new(name, layers)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thirteen_conv_layers() {
        assert_eq!(vgg16().conv_layers().count(), 13);
    }

    #[test]
    fn layer_b_is_the_ninth_conv() {
        let net = vgg16();
        assert_eq!(net.conv_index("conv4_2"), Some(8)); // 0-based: the 9th
        let b = net.conv("conv4_2").unwrap();
        assert_eq!((b.in_ch, b.in_h, b.out_ch, b.kernel), (512, 28, 512, 3));
    }

    #[test]
    fn table1_storage_within_tolerance() {
        // Paper Table I (16-bit): 6.27 / 6.27 / 4.61 MB; conv1_2's
        // input/output is 64·224·224·2 B = 6.42 MB decimal, within 3%.
        let net = vgg16();
        let max_in = net.conv_layers().map(|c| c.input_words() * 2).max().unwrap() as f64 / 1e6;
        let max_out = net.conv_layers().map(|c| c.output_words() * 2).max().unwrap() as f64 / 1e6;
        let max_w = net.conv_layers().map(|c| c.weight_words() * 2).max().unwrap() as f64 / 1e6;
        assert!((max_in - 6.27).abs() / 6.27 < 0.05, "max inputs {max_in} MB");
        assert!((max_out - 6.27).abs() / 6.27 < 0.05, "max outputs {max_out} MB");
        assert!((max_w - 4.61).abs() / 4.61 < 0.05, "max weights {max_w} MB");
    }

    #[test]
    fn spatial_dims_halve_per_group() {
        let net = vgg16();
        for (l, hw) in
            [("conv1_1", 224), ("conv2_1", 112), ("conv3_1", 56), ("conv4_1", 28), ("conv5_1", 14)]
        {
            assert_eq!(net.conv(l).unwrap().in_h, hw);
        }
    }
}
