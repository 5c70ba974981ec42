//! CONV-layer-level descriptions of the paper's four benchmark networks.
//!
//! RANA schedules CNNs layer by layer; all it needs from a network is the
//! shape of every convolutional layer (the paper's discussion is "focused on
//! acceleration for CONV layers", §II-A — pooling layers are carried along
//! for storage statistics, full-connection layers execute like CONV layers
//! and are omitted as in the paper's Table I). This crate provides:
//!
//! * [`ConvShape`] — one CONV layer: `N×H×L` inputs, `M` kernels of
//!   `N×K×K`, stride `S`, producing `M×R×C` outputs, with storage and MAC
//!   counts (16-bit words, as in Table I).
//! * [`Network`] — an ordered list of layers with lookup by name.
//! * Constructors for the four benchmarks: [`alexnet`], [`vgg16`],
//!   [`googlenet`], [`resnet50`], all for the standard 224×224×3 ImageNet
//!   input.
//! * [`stats`] — Table I / Figure 12 style storage summaries.
//!
//! The two running-case layers of the paper are reachable by name:
//! `resnet50().conv("res4a_branch1")` (Layer-A) and
//! `vgg16().conv("conv4_2")` (Layer-B, the 9th VGG CONV layer).
//!
//! # Example
//!
//! ```
//! use rana_zoo::resnet50;
//! let net = resnet50();
//! let layer_a = net.conv("res4a_branch1").unwrap();
//! assert_eq!(layer_a.input_words(), 512 * 28 * 28);
//! assert_eq!(layer_a.out_h(), 14);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod layer;
pub mod network;
pub mod stats;

mod alexnet;
mod googlenet;
mod mobilenet;
mod resnet;
mod vgg;

pub use alexnet::{alexnet, alexnet_with_fc};
pub use googlenet::googlenet;
pub use layer::{ConvShape, Layer, LayerKind, PoolShape};
pub use mobilenet::mobilenet_v1;
pub use network::Network;
pub use resnet::{resnet50, resnet50_with_input};
pub use vgg::{vgg16, vgg16_with_input};

/// Largest square input side, in pixels, that [`vgg16_with_input`] and
/// [`resnet50_with_input`] accept. The shape arithmetic is u64: from 2^25
/// pixels on, VGG's per-layer MAC counts wrap.
pub const MAX_INPUT_PIXELS: usize = 65_536;

/// All four benchmark networks, in the order the paper reports them.
pub fn benchmarks() -> Vec<Network> {
    vec![alexnet(), vgg16(), googlenet(), resnet50()]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "VGG input must be a positive multiple of 32 up to 65536")]
    fn vgg_above_the_input_limit_panics() {
        vgg16_with_input(MAX_INPUT_PIXELS + 32);
    }

    #[test]
    #[should_panic(expected = "ResNet input must be a positive multiple of 32 up to 65536")]
    fn resnet_above_the_input_limit_panics() {
        resnet50_with_input(MAX_INPUT_PIXELS + 32);
    }

    #[test]
    fn macs_are_exact_at_the_input_limit() {
        for net in [vgg16_with_input(MAX_INPUT_PIXELS), resnet50_with_input(MAX_INPUT_PIXELS)] {
            for conv in net.conv_layers() {
                let factors = [conv.out_ch, conv.out_h(), conv.out_w(), conv.in_ch_per_group()];
                let exact = factors.map(|f| f as u128).iter().product::<u128>()
                    * (conv.kernel * conv.kernel) as u128;
                assert_eq!(u128::from(conv.macs()), exact, "{} {}", net.name(), conv.name);
            }
        }
    }
}
