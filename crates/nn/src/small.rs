//! Laptop-trainable small models for the accuracy experiments.
//!
//! The paper retrains VGG16/ResNet34/YOLO/FCN/CharCNN on ImageNet-scale
//! datasets; reproducing that verbatim is out of scope for a pure-Rust,
//! single-machine build. These scaled-down architectures keep the structural
//! properties FDSP interacts with — early local-feature conv blocks, BN,
//! pooling, residual shortcuts, a centrally-executed classifier — at a size
//! where Algorithm 1 (progressive retraining) runs in seconds.

use crate::layer::Layer;
use crate::network::{Block, Network};
use adcnn_tensor::conv::Conv2dParams;
use adcnn_tensor::pool::Pool2dParams;
use rand::Rng;

/// A small trainable model plus the metadata ADCNN partitioning needs.
pub struct SmallModel {
    /// The trainable network.
    pub net: Network,
    /// Display name.
    pub name: &'static str,
    /// Input dims `(C, H, W)`.
    pub input: (usize, usize, usize),
    /// Number of output classes.
    pub classes: usize,
    /// How many leading blocks are separable (FDSP-partitionable).
    pub separable_prefix: usize,
    /// Spatial down-scaling `(fh, fw)` across the separable prefix.
    pub prefix_scale: (usize, usize),
}

/// A 4-block CNN for 3×32×32 shape-classification images (the VGG16 /
/// FCN stand-in). Blocks: 3→16, 16→16(P), 16→32, 32→32(P); classifier
/// `32·8·8 → classes`. The first two blocks are treated as separable.
pub fn shapes_cnn(classes: usize, rng: &mut impl Rng) -> SmallModel {
    let same = Conv2dParams::same(3);
    let net = Network::new(vec![
        Block::Seq(vec![Layer::conv2d(3, 16, 3, same, rng), Layer::batch_norm(16), Layer::Relu]),
        Block::Seq(vec![
            Layer::conv2d(16, 16, 3, same, rng),
            Layer::batch_norm(16),
            Layer::Relu,
            Layer::MaxPool(Pool2dParams::non_overlapping(2)),
        ]),
        Block::Seq(vec![Layer::conv2d(16, 32, 3, same, rng), Layer::batch_norm(32), Layer::Relu]),
        Block::Seq(vec![
            Layer::conv2d(32, 32, 3, same, rng),
            Layer::batch_norm(32),
            Layer::Relu,
            Layer::MaxPool(Pool2dParams::non_overlapping(2)),
        ]),
        Block::Seq(vec![Layer::Flatten, Layer::linear(32 * 8 * 8, classes, rng)]),
    ]);
    SmallModel {
        net,
        name: "ShapesCNN",
        input: (3, 32, 32),
        classes,
        separable_prefix: 2,
        prefix_scale: (2, 2),
    }
}

/// A small residual network (the ResNet34 stand-in): stem conv, two
/// identity-shortcut residual blocks, pool, classifier. The stem and the
/// first residual block are separable.
pub fn small_resnet(classes: usize, rng: &mut impl Rng) -> SmallModel {
    let same = Conv2dParams::same(3);
    let net = Network::new(vec![
        Block::Seq(vec![Layer::conv2d(3, 16, 3, same, rng), Layer::batch_norm(16), Layer::Relu]),
        Block::Residual {
            body: vec![
                Layer::conv2d(16, 16, 3, same, rng),
                Layer::batch_norm(16),
                Layer::Relu,
                Layer::conv2d(16, 16, 3, same, rng),
                Layer::batch_norm(16),
            ],
            shortcut: vec![],
        },
        Block::Seq(vec![Layer::Relu, Layer::MaxPool(Pool2dParams::non_overlapping(2))]),
        Block::Residual {
            body: vec![
                Layer::conv2d(16, 16, 3, same, rng),
                Layer::batch_norm(16),
                Layer::Relu,
                Layer::conv2d(16, 16, 3, same, rng),
                Layer::batch_norm(16),
            ],
            shortcut: vec![],
        },
        Block::Seq(vec![Layer::Relu, Layer::GlobalAvgPool, Layer::linear(16, classes, rng)]),
    ]);
    SmallModel {
        net,
        name: "SmallResNet",
        input: (3, 32, 32),
        classes,
        separable_prefix: 2,
        prefix_scale: (1, 1),
    }
}

/// A small character-level CNN (the CharCNN stand-in) over one-hot
/// `[alphabet, 1, 64]` sequences. Down-sampling uses stride-2 convolutions
/// so the `H = 1` geometry stays valid; the first two blocks are separable
/// (1-D FDSP splits along W only).
pub fn small_charcnn(alphabet: usize, classes: usize, rng: &mut impl Rng) -> SmallModel {
    let same = Conv2dParams::same(3);
    let down = Conv2dParams { kernel: 3, stride: 2, pad: 1 };
    let net = Network::new(vec![
        Block::Seq(vec![
            Layer::conv2d(alphabet, 32, 3, same, rng),
            Layer::batch_norm(32),
            Layer::Relu,
        ]),
        Block::Seq(vec![Layer::conv2d(32, 32, 3, same, rng), Layer::batch_norm(32), Layer::Relu]),
        Block::Seq(vec![Layer::conv2d(32, 64, 3, down, rng), Layer::batch_norm(64), Layer::Relu]),
        Block::Seq(vec![Layer::Flatten, Layer::linear(64 * 32, classes, rng)]),
    ]);
    SmallModel {
        net,
        name: "SmallCharCNN",
        input: (alphabet, 1, 64),
        classes,
        separable_prefix: 2,
        prefix_scale: (1, 1),
    }
}

/// VGG16's blocks 1–2 at their real widths on a 3×64×64 input, as four
/// separable blocks (conv 3→64, 64→64 · pool, 64→128, 128→128 · pool;
/// ReLU after every conv, no BN), then a small classifier (pool · conv
/// 128→128 · ReLU · global pool · linear): ≈ 409 K weights, 1.6 MB.
pub fn vgg_blocks(classes: usize, rng: &mut impl Rng) -> SmallModel {
    let same = Conv2dParams::same(3);
    let pool = || Layer::MaxPool(Pool2dParams::non_overlapping(2));
    let net = Network::new(vec![
        Block::Seq(vec![Layer::conv2d(3, 64, 3, same, rng), Layer::Relu]),
        Block::Seq(vec![Layer::conv2d(64, 64, 3, same, rng), Layer::Relu, pool()]),
        Block::Seq(vec![Layer::conv2d(64, 128, 3, same, rng), Layer::Relu]),
        Block::Seq(vec![Layer::conv2d(128, 128, 3, same, rng), Layer::Relu, pool()]),
        Block::Seq(vec![
            pool(),
            Layer::conv2d(128, 128, 3, same, rng),
            Layer::Relu,
            Layer::GlobalAvgPool,
            Layer::linear(128, classes, rng),
        ]),
    ]);
    SmallModel {
        net,
        name: "VGGBlocks",
        input: (3, 64, 64),
        classes,
        separable_prefix: 4,
        prefix_scale: (4, 4),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::infer::InferScratch;
    use adcnn_tensor::loss::softmax_cross_entropy;
    use adcnn_tensor::Tensor;
    use rand::{rngs::StdRng, SeedableRng};

    fn check_forward(m: SmallModel, n: usize) {
        let mut rng = StdRng::seed_from_u64(99);
        let (c, h, w) = m.input;
        let x = Tensor::randn([n, c, h, w], 1.0, &mut rng);
        let y = m.net.forward_infer_with(&x, &mut InferScratch::new()).to_tensor();
        assert_eq!(y.dims(), &[n, m.classes]);
    }

    #[test]
    fn shapes_cnn_forward_shape() {
        let mut rng = StdRng::seed_from_u64(1);
        check_forward(shapes_cnn(8, &mut rng), 2);
    }

    #[test]
    fn small_resnet_forward_shape() {
        let mut rng = StdRng::seed_from_u64(2);
        check_forward(small_resnet(8, &mut rng), 2);
    }

    #[test]
    fn small_charcnn_forward_shape() {
        let mut rng = StdRng::seed_from_u64(3);
        check_forward(small_charcnn(16, 4, &mut rng), 2);
    }

    #[test]
    fn stride2_charcnn_keeps_h_one() {
        let mut rng = StdRng::seed_from_u64(4);
        let m = small_charcnn(16, 4, &mut rng);
        // forward up to before the flatten
        let x = Tensor::randn([1, 16, 1, 64], 1.0, &mut rng);
        let mid = m.net.forward_infer_range_with(&x, 0..3, &mut InferScratch::new()).to_tensor();
        assert_eq!(mid.dims(), &[1, 64, 1, 32]);
    }

    #[test]
    fn shapes_cnn_learns_a_separable_toy_task() {
        // Classify by which image half carries energy: learnable in a few
        // gradient steps if forward/backward are wired correctly.
        let mut rng = StdRng::seed_from_u64(5);
        let mut m = shapes_cnn(2, &mut rng);
        let n = 16;
        let mut x = Tensor::zeros([n, 3, 32, 32]);
        let mut t = vec![0usize; n];
        #[allow(clippy::needless_range_loop)]
        for i in 0..n {
            let cls = i % 2;
            t[i] = cls;
            for ci in 0..3 {
                for r in 0..32 {
                    for c in 0..32 {
                        let on = if cls == 0 { r < 16 } else { r >= 16 };
                        if on {
                            *x.at_mut(&[i, ci, r, c]) = 1.0;
                        }
                    }
                }
            }
        }
        let opt = crate::sgd::Sgd::with_momentum(0.05, 0.9, 0.0);
        let mut losses = Vec::new();
        for _ in 0..12 {
            let (logits, ctxs) = m.net.forward(&x);
            let (loss, dl) = softmax_cross_entropy(&logits, &t);
            m.net.backward(&ctxs, &dl);
            opt.step(&mut m.net);
            losses.push(loss);
        }
        assert!(losses.last().unwrap() < &(losses[0] * 0.5), "{losses:?}");
    }
}

/// A small fully convolutional network (the FCN stand-in): stride-1 conv
/// blocks ending in a 1×1 score head, so the output is a dense
/// `[N, classes, H, W]` map. The first two blocks are separable.
pub fn small_fcn(classes: usize, rng: &mut impl Rng) -> SmallModel {
    let same = Conv2dParams::same(3);
    let score = Conv2dParams { kernel: 1, stride: 1, pad: 0 };
    let net = Network::new(vec![
        Block::Seq(vec![Layer::conv2d(3, 16, 3, same, rng), Layer::batch_norm(16), Layer::Relu]),
        Block::Seq(vec![Layer::conv2d(16, 16, 3, same, rng), Layer::batch_norm(16), Layer::Relu]),
        Block::Seq(vec![
            Layer::conv2d(16, 32, 3, same, rng),
            Layer::batch_norm(32),
            Layer::Relu,
            Layer::conv2d(32, classes, 1, score, rng),
        ]),
    ]);
    SmallModel {
        net,
        name: "SmallFCN",
        input: (3, 32, 32),
        classes,
        separable_prefix: 2,
        prefix_scale: (1, 1),
    }
}

#[cfg(test)]
mod fcn_tests {
    use super::*;
    use crate::infer::InferScratch;
    use adcnn_tensor::Tensor;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn small_fcn_emits_dense_map() {
        let mut rng = StdRng::seed_from_u64(71);
        let m = small_fcn(7, &mut rng);
        let x = Tensor::randn([2, 3, 32, 32], 1.0, &mut rng);
        let y = m.net.forward_infer_with(&x, &mut InferScratch::new()).to_tensor();
        assert_eq!(y.dims(), &[2, 7, 32, 32]);
    }
}
