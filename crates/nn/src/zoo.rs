//! Architecture descriptors for the paper's model zoo.
//!
//! The latency/energy experiments (Figures 3, 11–15, Tables 2–3) only need
//! each model's *shape*: per-layer-block feature-map dimensions, FLOP counts
//! and weight sizes. This module encodes VGG16, ResNet18/34, YOLOv2, FCN and
//! CharCNN as descriptors that the cost model and the discrete-event
//! simulator consume. (The trainable small-scale variants used for the
//! accuracy experiments live in [`crate::small`].)
//!
//! Descriptor fidelity notes:
//! - ResNet's 3×3/stride-2 max pool after conv1 is approximated as 2×2/2;
//!   the 1×1 projection shortcuts are omitted from FLOP counts (<2% of
//!   total).
//! - FCN is the FCN-32s head on a VGG-style backbone with the channel
//!   progression the paper's §4 example implies (block 7 emits
//!   `512×28×28`); the final bilinear upsample is not costed.
//! - CharCNN is the character-level CNN of Zhang et al. with unpadded 1-D
//!   convolutions, modeled as `H = 1` maps.

use serde::Serialize;

/// Convolution geometry of one layer block.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub struct ConvSpec {
    /// Input channels.
    pub in_c: usize,
    /// Output channels.
    pub out_c: usize,
    /// Kernel height (1 for 1-D text convolutions).
    pub kh: usize,
    /// Kernel width.
    pub kw: usize,
    /// Stride (both dims).
    pub stride: usize,
    /// Zero padding, height.
    pub pad_h: usize,
    /// Zero padding, width.
    pub pad_w: usize,
}

impl ConvSpec {
    /// "Same"-padded square 3×3-style conv.
    pub fn same(in_c: usize, out_c: usize, k: usize) -> Self {
        ConvSpec { in_c, out_c, kh: k, kw: k, stride: 1, pad_h: k / 2, pad_w: k / 2 }
    }

    /// Unpadded 1-D conv (kernel `1×k`), as used by CharCNN.
    pub fn conv1d(in_c: usize, out_c: usize, k: usize) -> Self {
        ConvSpec { in_c, out_c, kh: 1, kw: k, stride: 1, pad_h: 0, pad_w: 0 }
    }

    /// Output spatial size for input `(h, w)`.
    pub fn out_hw(&self, h: usize, w: usize) -> (usize, usize) {
        let oh = (h + 2 * self.pad_h).saturating_sub(self.kh) / self.stride + 1;
        let ow = (w + 2 * self.pad_w).saturating_sub(self.kw) / self.stride + 1;
        (oh, ow)
    }
}

/// One layer block: conv → BN → activation → optional pooling (Figure 2(a)).
#[derive(Clone, Debug, Serialize)]
pub struct LayerBlockSpec {
    /// Human-readable name, e.g. `"conv3_2"`.
    pub name: String,
    /// The convolution.
    pub conv: ConvSpec,
    /// Non-overlapping pooling window `(ph, pw)` at the end, if any.
    pub pool: Option<(usize, usize)>,
    /// True if this block sits inside a residual pair (adds the elementwise
    /// shortcut addition to the cost).
    pub residual: bool,
}

/// Spatial map dimensions `(channels, height, width)`.
pub type MapDims = (usize, usize, usize);

/// A whole model: stacked layer blocks plus trailing FC layers.
#[derive(Clone, Debug, Serialize)]
pub struct ModelSpec {
    /// Model name as used in the paper ("VGG16", "YOLO", …).
    pub name: String,
    /// Input `(C, H, W)`.
    pub input: MapDims,
    /// The convolutional layer blocks, in order.
    pub blocks: Vec<LayerBlockSpec>,
    /// Fully connected layers as `(in_dim, out_dim)` pairs. For FCN/YOLO
    /// (dense prediction) this is empty.
    pub fcs: Vec<(usize, usize)>,
    /// Whether a global average pool sits between blocks and FC (ResNet).
    pub global_avgpool: bool,
    /// The number of leading layer blocks the paper partitions with FDSP
    /// (Figure 10 caption: 7 for VGG16/FCN, 4 for CharCNN, 12 for
    /// ResNet34/YOLO).
    pub separable_prefix: usize,
    /// The spatial grid the paper uses in the testbed (§7.2): `(rows, cols)`.
    pub default_grid: (usize, usize),
    /// Bits actually sent on the wire for one input, when that differs from
    /// the in-memory f32 tensor. Images travel as f32 maps (the paper's own
    /// §3.1 accounting); text travels as one byte per symbol and is one-hot
    /// expanded on the device, so CharCNN sets this.
    pub wire_input_bits: Option<u64>,
}

impl ModelSpec {
    /// Input dims of each block: element `i` is what block `i` consumes;
    /// element `len()` is the final feature map entering pool/FC.
    pub fn block_inputs(&self) -> Vec<MapDims> {
        let mut dims = Vec::with_capacity(self.blocks.len() + 1);
        let (mut c, mut h, mut w) = self.input;
        for b in &self.blocks {
            dims.push((c, h, w));
            assert_eq!(b.conv.in_c, c, "{}: channel chain broken at {}", self.name, b.name);
            let (oh, ow) = b.conv.out_hw(h, w);
            c = b.conv.out_c;
            h = oh;
            w = ow;
            if let Some((ph, pw)) = b.pool {
                h /= ph;
                w /= pw;
            }
        }
        dims.push((c, h, w));
        dims
    }

    /// Output dims of block `i`.
    pub fn block_output(&self, i: usize) -> MapDims {
        self.block_inputs()[i + 1]
    }

    /// FLOPs of block `i` (counting one multiply-accumulate as 2 FLOPs, plus
    /// bias, BN, activation, pooling and residual-add elementwise work).
    pub fn block_flops(&self, i: usize) -> u64 {
        let dims = self.block_inputs();
        let (_, h, w) = dims[i];
        let b = &self.blocks[i];
        let (oh, ow) = b.conv.out_hw(h, w);
        let out_elems = (b.conv.out_c * oh * ow) as u64;
        let macs = out_elems * (b.conv.in_c * b.conv.kh * b.conv.kw) as u64;
        let mut flops = 2 * macs + out_elems; // conv + bias
        flops += 2 * out_elems; // BN affine
        flops += out_elems; // activation
        if b.pool.is_some() {
            flops += out_elems; // one compare/add per input element
        }
        if b.residual {
            flops += out_elems; // shortcut addition
        }
        flops
    }

    /// FLOPs of all trailing FC layers.
    pub fn fc_flops(&self) -> u64 {
        self.fcs.iter().map(|&(d, o)| 2 * (d as u64) * (o as u64)).sum()
    }

    /// FLOPs of blocks `[0, prefix)`.
    pub fn prefix_flops(&self, prefix: usize) -> u64 {
        (0..prefix).map(|i| self.block_flops(i)).sum()
    }

    /// FLOPs of blocks `[prefix, len)` plus the FC layers.
    pub fn suffix_flops(&self, prefix: usize) -> u64 {
        (prefix..self.blocks.len()).map(|i| self.block_flops(i)).sum::<u64>() + self.fc_flops()
    }

    /// Total FLOPs.
    pub fn total_flops(&self) -> u64 {
        self.prefix_flops(self.blocks.len()) + self.fc_flops()
    }

    /// Bits of the feature map *entering* block `i` at 32-bit floats
    /// (`i == len()` gives the final map).
    pub fn ifmap_bits(&self, i: usize) -> u64 {
        let (c, h, w) = self.block_inputs()[i];
        (c * h * w) as u64 * 32
    }

    /// Bits of the raw input image at 32-bit floats.
    pub fn input_bits(&self) -> u64 {
        let (c, h, w) = self.input;
        (c * h * w) as u64 * 32
    }

    /// Bits one input costs on the wire (`wire_input_bits` override, or the
    /// f32 tensor size).
    pub fn input_wire_bits(&self) -> u64 {
        self.wire_input_bits.unwrap_or_else(|| self.input_bits())
    }

    /// Weight bytes of block `i` (conv + BN params, f32).
    pub fn block_weight_bytes(&self, i: usize) -> u64 {
        let b = &self.blocks[i];
        let conv = b.conv.out_c * b.conv.in_c * b.conv.kh * b.conv.kw + b.conv.out_c;
        let bn = 4 * b.conv.out_c; // gamma, beta, mean, var
        ((conv + bn) * 4) as u64
    }

    /// Weight bytes of the FC layers.
    pub fn fc_weight_bytes(&self) -> u64 {
        self.fcs.iter().map(|&(d, o)| ((d * o + o) * 4) as u64).sum()
    }

    /// Cumulative spatial down-scaling factor `(fh, fw)` over blocks
    /// `[0, prefix)`: an input pixel grid of `H×W` becomes
    /// `H/fh × W/fw` after the prefix.
    pub fn prefix_scale(&self, prefix: usize) -> (usize, usize) {
        let mut fh = 1usize;
        let mut fw = 1usize;
        for b in &self.blocks[..prefix] {
            fh *= b.conv.stride;
            fw *= b.conv.stride;
            if let Some((ph, pw)) = b.pool {
                fh *= ph;
                fw *= pw;
            }
        }
        (fh, fw)
    }

    /// Sanity-check the channel chain and FC input dimension.
    pub fn validate(&self) {
        let dims = self.block_inputs(); // panics on chain break
        if let Some(&(d, _)) = self.fcs.first() {
            let (c, h, w) = dims[self.blocks.len()];
            let feat = if self.global_avgpool { c } else { c * h * w };
            assert_eq!(d, feat, "{}: FC input {} != feature size {}", self.name, d, feat);
        }
        assert!(self.separable_prefix <= self.blocks.len());
    }
}

fn blk(name: &str, conv: ConvSpec, pool: Option<(usize, usize)>) -> LayerBlockSpec {
    LayerBlockSpec { name: name.to_string(), conv, pool, residual: false }
}

fn rblk(name: &str, conv: ConvSpec) -> LayerBlockSpec {
    LayerBlockSpec { name: name.to_string(), conv, pool: None, residual: true }
}

/// VGG16 for 224×224 inputs (Simonyan & Zisserman), 13 conv layer blocks +
/// 3 FC layers.
pub fn vgg16() -> ModelSpec {
    let c = ConvSpec::same;
    let m = ModelSpec {
        name: "VGG16".into(),
        input: (3, 224, 224),
        blocks: vec![
            blk("conv1_1", c(3, 64, 3), None),
            blk("conv1_2", c(64, 64, 3), Some((2, 2))),
            blk("conv2_1", c(64, 128, 3), None),
            blk("conv2_2", c(128, 128, 3), Some((2, 2))),
            blk("conv3_1", c(128, 256, 3), None),
            blk("conv3_2", c(256, 256, 3), None),
            blk("conv3_3", c(256, 256, 3), Some((2, 2))),
            blk("conv4_1", c(256, 512, 3), None),
            blk("conv4_2", c(512, 512, 3), None),
            blk("conv4_3", c(512, 512, 3), Some((2, 2))),
            blk("conv5_1", c(512, 512, 3), None),
            blk("conv5_2", c(512, 512, 3), None),
            blk("conv5_3", c(512, 512, 3), Some((2, 2))),
        ],
        fcs: vec![(512 * 7 * 7, 4096), (4096, 4096), (4096, 1000)],
        global_avgpool: false,
        separable_prefix: 7,
        default_grid: (8, 8),
        wire_input_bits: None,
    };
    m.validate();
    m
}

/// ResNet-18 for 224×224 inputs (He et al.): conv1 + 8 residual pairs.
pub fn resnet18() -> ModelSpec {
    let mut blocks = vec![blk(
        "conv1",
        ConvSpec { in_c: 3, out_c: 64, kh: 7, kw: 7, stride: 2, pad_h: 3, pad_w: 3 },
        Some((2, 2)),
    )];
    let stages: &[(usize, usize, usize)] =
        &[(64, 64, 2), (64, 128, 2), (128, 256, 2), (256, 512, 2)];
    for (s, &(in_c, out_c, pairs)) in stages.iter().enumerate() {
        for p in 0..pairs {
            let (c_in, stride) =
                if p == 0 { (in_c, if s == 0 { 1 } else { 2 }) } else { (out_c, 1) };
            blocks.push(rblk(
                &format!("res{}_{}a", s + 2, p + 1),
                ConvSpec { in_c: c_in, out_c, kh: 3, kw: 3, stride, pad_h: 1, pad_w: 1 },
            ));
            blocks.push(rblk(&format!("res{}_{}b", s + 2, p + 1), ConvSpec::same(out_c, out_c, 3)));
        }
    }
    let m = ModelSpec {
        name: "ResNet18".into(),
        input: (3, 224, 224),
        blocks,
        fcs: vec![(512, 1000)],
        global_avgpool: true,
        separable_prefix: 8,
        default_grid: (8, 8),
        wire_input_bits: None,
    };
    m.validate();
    m
}

/// ResNet-34 for 224×224 inputs: conv1 + (3, 4, 6, 3) residual pairs.
pub fn resnet34() -> ModelSpec {
    let mut blocks = vec![blk(
        "conv1",
        ConvSpec { in_c: 3, out_c: 64, kh: 7, kw: 7, stride: 2, pad_h: 3, pad_w: 3 },
        Some((2, 2)),
    )];
    let stages: &[(usize, usize, usize)] =
        &[(64, 64, 3), (64, 128, 4), (128, 256, 6), (256, 512, 3)];
    for (s, &(in_c, out_c, pairs)) in stages.iter().enumerate() {
        for p in 0..pairs {
            let (c_in, stride) =
                if p == 0 { (in_c, if s == 0 { 1 } else { 2 }) } else { (out_c, 1) };
            blocks.push(rblk(
                &format!("res{}_{}a", s + 2, p + 1),
                ConvSpec { in_c: c_in, out_c, kh: 3, kw: 3, stride, pad_h: 1, pad_w: 1 },
            ));
            blocks.push(rblk(&format!("res{}_{}b", s + 2, p + 1), ConvSpec::same(out_c, out_c, 3)));
        }
    }
    let m = ModelSpec {
        name: "ResNet34".into(),
        input: (3, 224, 224),
        blocks,
        fcs: vec![(512, 1000)],
        global_avgpool: true,
        separable_prefix: 12,
        default_grid: (8, 8),
        wire_input_bits: None,
    };
    m.validate();
    m
}

/// YOLOv2 (Redmon & Farhadi 2017) with the Darknet-19 backbone, 416×416
/// inputs, dense detection head (no FC layers).
pub fn yolo() -> ModelSpec {
    let c = ConvSpec::same;
    let m = ModelSpec {
        name: "YOLO".into(),
        input: (3, 416, 416),
        blocks: vec![
            blk("conv1", c(3, 32, 3), Some((2, 2))),
            blk("conv2", c(32, 64, 3), Some((2, 2))),
            blk("conv3", c(64, 128, 3), None),
            blk("conv4", c(128, 64, 1), None),
            blk("conv5", c(64, 128, 3), Some((2, 2))),
            blk("conv6", c(128, 256, 3), None),
            blk("conv7", c(256, 128, 1), None),
            blk("conv8", c(128, 256, 3), Some((2, 2))),
            blk("conv9", c(256, 512, 3), None),
            blk("conv10", c(512, 256, 1), None),
            blk("conv11", c(256, 512, 3), None),
            blk("conv12", c(512, 256, 1), None),
            blk("conv13", c(256, 512, 3), Some((2, 2))),
            blk("conv14", c(512, 1024, 3), None),
            blk("conv15", c(1024, 512, 1), None),
            blk("conv16", c(512, 1024, 3), None),
            blk("conv17", c(1024, 512, 1), None),
            blk("conv18", c(512, 1024, 3), None),
            blk("conv19", c(1024, 1024, 3), None),
            blk("conv20", c(1024, 1024, 3), None),
            blk("conv21", c(1024, 1024, 3), None),
            blk("det", c(1024, 425, 1), None),
        ],
        fcs: vec![],
        global_avgpool: false,
        separable_prefix: 12,
        default_grid: (4, 4),
        wire_input_bits: None,
    };
    m.validate();
    m
}

/// FCN-32s-style semantic segmentation net on a VGG-flavoured backbone.
/// The channel progression matches the paper's §4 worked example: after the
/// seven separable blocks the feature map is `512×28×28`.
pub fn fcn() -> ModelSpec {
    let c = ConvSpec::same;
    let m = ModelSpec {
        name: "FCN".into(),
        input: (3, 224, 224),
        blocks: vec![
            blk("conv1_1", c(3, 64, 3), None),
            blk("conv1_2", c(64, 64, 3), Some((2, 2))),
            blk("conv2_1", c(64, 128, 3), None),
            blk("conv2_2", c(128, 128, 3), Some((2, 2))),
            blk("conv3_1", c(128, 256, 3), None),
            blk("conv3_2", c(256, 256, 3), Some((2, 2))),
            blk("conv4_1", c(256, 512, 3), None),
            blk("conv4_2", c(512, 512, 3), None),
            blk("conv4_3", c(512, 512, 3), Some((2, 2))),
            blk("conv5_1", c(512, 512, 3), None),
            blk("conv5_2", c(512, 512, 3), Some((2, 2))),
            blk(
                "fc6",
                ConvSpec { in_c: 512, out_c: 4096, kh: 7, kw: 7, stride: 1, pad_h: 3, pad_w: 3 },
                None,
            ),
            blk("fc7", c(4096, 4096, 1), None),
            blk("score", c(4096, 21, 1), None),
        ],
        fcs: vec![],
        global_avgpool: false,
        separable_prefix: 7,
        default_grid: (4, 8),
        wire_input_bits: None,
    };
    m.validate();
    m
}

/// Character-level CNN of Zhang et al. (2015): 70-symbol one-hot input of
/// length 1014, six unpadded 1-D conv blocks, three FC layers.
pub fn charcnn() -> ModelSpec {
    let m = ModelSpec {
        name: "CharCNN".into(),
        input: (70, 1, 1014),
        blocks: vec![
            blk("conv1", ConvSpec::conv1d(70, 256, 7), Some((1, 3))),
            blk("conv2", ConvSpec::conv1d(256, 256, 7), Some((1, 3))),
            blk("conv3", ConvSpec::conv1d(256, 256, 3), None),
            blk("conv4", ConvSpec::conv1d(256, 256, 3), None),
            blk("conv5", ConvSpec::conv1d(256, 256, 3), None),
            blk("conv6", ConvSpec::conv1d(256, 256, 3), Some((1, 3))),
        ],
        fcs: vec![(256 * 34, 1024), (1024, 1024), (1024, 4)],
        global_avgpool: false,
        separable_prefix: 4,
        default_grid: (1, 8),
        // 1014 symbols x 1 byte; the one-hot f32 expansion happens on the
        // receiving device, not on the wire.
        wire_input_bits: Some(1014 * 8),
    };
    m.validate();
    m
}

/// AlexNet (Krizhevsky et al. 2012), used by the paper's §2.3 feature
/// visualization (Figure 2(d)). 224×224 variant; the 3×3/2 overlapping
/// pools are approximated as 2×2/2.
pub fn alexnet() -> ModelSpec {
    let m = ModelSpec {
        name: "AlexNet".into(),
        input: (3, 224, 224),
        blocks: vec![
            blk(
                "conv1",
                ConvSpec { in_c: 3, out_c: 96, kh: 11, kw: 11, stride: 4, pad_h: 2, pad_w: 2 },
                Some((2, 2)),
            ),
            blk(
                "conv2",
                ConvSpec { in_c: 96, out_c: 256, kh: 5, kw: 5, stride: 1, pad_h: 2, pad_w: 2 },
                Some((2, 2)),
            ),
            blk("conv3", ConvSpec::same(256, 384, 3), None),
            blk("conv4", ConvSpec::same(384, 384, 3), None),
            blk("conv5", ConvSpec::same(384, 256, 3), Some((2, 2))),
        ],
        fcs: vec![(256 * 6 * 6, 4096), (4096, 4096), (4096, 1000)],
        global_avgpool: false,
        separable_prefix: 2,
        default_grid: (4, 4),
        wire_input_bits: None,
    };
    m.validate();
    m
}

/// All five evaluation models of the paper (§7.1), in its order.
pub fn all_models() -> Vec<ModelSpec> {
    vec![vgg16(), resnet34(), yolo(), fcn(), charcnn()]
}

/// Look a model up by (case-insensitive) name.
pub fn by_name(name: &str) -> Option<ModelSpec> {
    let n = name.to_ascii_lowercase();
    match n.as_str() {
        "vgg16" => Some(vgg16()),
        "resnet18" => Some(resnet18()),
        "resnet34" => Some(resnet34()),
        "yolo" | "yolov2" => Some(yolo()),
        "alexnet" => Some(alexnet()),
        "fcn" => Some(fcn()),
        "charcnn" => Some(charcnn()),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_models_validate() {
        for m in all_models() {
            m.validate();
            assert!(m.total_flops() > 0);
        }
        resnet18().validate();
    }

    #[test]
    fn vgg16_feature_map_chain() {
        let m = vgg16();
        let dims = m.block_inputs();
        assert_eq!(dims[0], (3, 224, 224));
        assert_eq!(dims[1], (64, 224, 224)); // after conv1_1
        assert_eq!(dims[2], (64, 112, 112)); // after conv1_2 + pool
        assert_eq!(dims[13], (512, 7, 7)); // final map
    }

    #[test]
    fn vgg16_flops_match_published_scale() {
        // VGG16 is famously ~15.5 GMACs = ~31 GFLOPs for 224x224.
        let m = vgg16();
        let total = m.total_flops() as f64;
        assert!((2.9e10..3.3e10).contains(&total), "total {total}");
    }

    #[test]
    fn section_3_1_channel_partition_overhead() {
        // Paper §3.1: channel-partitioning VGG16 over 2 devices moves
        // 224*224*64/2 * 32 = 51.38 Mbit per device pair for the first layer
        // block — 11x the input image.
        let m = vgg16();
        let (c, h, w) = m.block_output(0);
        let bits = (c * h * w / 2) as u64 * 32;
        assert_eq!(bits, 51_380_224);
        let ratio = bits as f64 / m.input_bits() as f64;
        assert!((10.0..11.5).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn section_4_fcn_intermediate_overhead() {
        // Paper §4: FCN's block-7 ofmap is 28x28x512; at 32-bit floats that
        // is 2.7x the 3x224x224 input image. (The paper's "25.7 Mbit" figure
        // is inconsistent with its own 2.7x ratio; the ratio is what we pin.)
        let m = fcn();
        let (c, h, w) = m.block_output(6);
        assert_eq!((c, h, w), (512, 28, 28));
        let bits = (c * h * w) as u64 * 32;
        let ratio = bits as f64 / m.input_bits() as f64;
        assert!((2.5..2.8).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn early_layers_dominate_compute() {
        // §2.2: early layer blocks carry most of the computation.
        // The first half of the blocks operate on far larger maps than the
        // second half, so they carry a FLOP share well above what uniform
        // per-block cost would give (FCN's big 7x7 "fc6" conv pulls its
        // share down somewhat, hence the 0.4 floor there).
        for m in [vgg16(), fcn()] {
            let half = m.blocks.len() / 2;
            let early = m.prefix_flops(half) as f64;
            let total = m.total_flops() as f64;
            assert!(early / total > 0.4, "{}: early fraction {}", m.name, early / total);
        }
    }

    #[test]
    fn vgg16_fc_is_tiny_fraction() {
        // §2.2: "in VGG16, FC layer only accounts for less than 2% of the
        // total computations" — our descriptor should agree.
        let m = vgg16();
        let frac = m.fc_flops() as f64 / m.total_flops() as f64;
        assert!(frac < 0.02, "fc fraction {frac}");
    }

    #[test]
    fn ifmap_peaks_after_first_block() {
        // §2.2: ifmap size grows tremendously after the first block, then
        // shrinks due to pooling.
        let m = vgg16();
        assert!(m.ifmap_bits(1) > m.ifmap_bits(0));
        assert!(m.ifmap_bits(12) < m.ifmap_bits(1));
    }

    #[test]
    fn charcnn_length_chain() {
        let m = charcnn();
        let dims = m.block_inputs();
        // 1014 -7-> 1008 /3 -> 336 -7-> 330 /3 -> 110 -3-> 108 -> 106 -> 104 -3-> 102/3 = 34
        assert_eq!(dims[1], (256, 1, 336));
        assert_eq!(dims[2], (256, 1, 110));
        assert_eq!(dims[5], (256, 1, 104));
        assert_eq!(m.block_output(5), (256, 1, 34));
    }

    #[test]
    fn resnet34_has_33_conv_blocks() {
        let m = resnet34();
        assert_eq!(m.blocks.len(), 1 + 2 * (3 + 4 + 6 + 3));
        // final map 512x7x7
        assert_eq!(m.block_inputs()[m.blocks.len()], (512, 7, 7));
    }

    #[test]
    fn yolo_final_map() {
        let m = yolo();
        let (c, h, w) = m.block_inputs()[m.blocks.len()];
        assert_eq!((c, h, w), (425, 13, 13));
    }

    #[test]
    fn prefix_scale_tracks_pools() {
        let m = vgg16();
        assert_eq!(m.prefix_scale(7), (8, 8)); // pools after blocks 2, 4, 7
        assert_eq!(m.prefix_scale(2), (2, 2));
        assert_eq!(m.prefix_scale(0), (1, 1));
    }

    #[test]
    fn alexnet_feature_chain() {
        let m = alexnet();
        let dims = m.block_inputs();
        assert_eq!(dims[1], (96, 27, 27)); // conv1 55x55 -> pool 27
        assert_eq!(dims[2], (256, 13, 13));
        assert_eq!(dims[5], (256, 6, 6));
        // ~0.7 GMACs = ~1.4 GFLOPs conv-side for 224x224 AlexNet
        let conv_flops: u64 = (0..m.blocks.len()).map(|i| m.block_flops(i)).sum();
        assert!((1.0e9..2.5e9).contains(&(conv_flops as f64)), "{conv_flops}");
    }

    #[test]
    fn by_name_lookup() {
        assert!(by_name("vgg16").is_some());
        assert!(by_name("VGG16").is_some());
        assert!(by_name("nonesuch").is_none());
    }

    #[test]
    fn weight_bytes_reasonable() {
        // VGG16 conv weights ~14.7M params, FC ~124M params.
        let m = vgg16();
        let conv_bytes: u64 = (0..m.blocks.len()).map(|i| m.block_weight_bytes(i)).sum();
        assert!((50_000_000..70_000_000).contains(&conv_bytes), "{conv_bytes}");
        assert!((480_000_000..520_000_000).contains(&m.fc_weight_bytes()));
    }
}
