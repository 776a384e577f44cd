//! Property-based tests over randomly generated network architectures:
//! forward shapes, backward shapes, and gradient plumbing must hold for
//! *any* stack the builder can produce, not just the hand-written models.

#![cfg(test)]

use crate::infer::InferScratch;
use crate::layer::Layer;
use crate::network::{Block, Network};
use adcnn_tensor::conv::Conv2dParams;
use adcnn_tensor::pool::Pool2dParams;
use adcnn_tensor::Tensor;
use proptest::prelude::*;
use rand::{rngs::StdRng, SeedableRng};

/// Build a random conv stack: `depth` blocks of conv(+BN)(+pool), then
/// flatten + linear to `classes`. Returns the network and the spatial size
/// after all pools.
fn random_net(
    depth: usize,
    base_c: usize,
    pools: &[bool],
    with_bn: bool,
    input_hw: usize,
    classes: usize,
    seed: u64,
) -> (Network, usize) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut blocks = Vec::new();
    let mut c_in = 3usize;
    let mut hw = input_hw;
    for d in 0..depth {
        let c_out = base_c * (d + 1);
        let mut layers = vec![Layer::conv2d(c_in, c_out, 3, Conv2dParams::same(3), &mut rng)];
        if with_bn {
            layers.push(Layer::batch_norm(c_out));
        }
        layers.push(Layer::Relu);
        if pools[d % pools.len()] && hw.is_multiple_of(2) && hw >= 4 {
            layers.push(Layer::MaxPool(Pool2dParams::non_overlapping(2)));
            hw /= 2;
        }
        blocks.push(Block::Seq(layers));
        c_in = c_out;
    }
    blocks.push(Block::Seq(vec![Layer::Flatten, Layer::linear(c_in * hw * hw, classes, &mut rng)]));
    (Network::new(blocks), hw)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn prop_random_net_forward_backward_shapes(
        depth in 1usize..4,
        base_c in 2usize..5,
        with_bn in any::<bool>(),
        pool_a in any::<bool>(),
        pool_b in any::<bool>(),
        n in 1usize..3,
        seed in 0u64..1000,
    ) {
        let input_hw = 8usize;
        let classes = 4usize;
        let (mut net, _) = random_net(
            depth, base_c, &[pool_a, pool_b], with_bn, input_hw, classes, seed,
        );
        let mut rng = StdRng::seed_from_u64(seed ^ 0xabcd);
        let x = Tensor::randn([n, 3, input_hw, input_hw], 1.0, &mut rng);

        // forward
        let (y, ctxs) = net.forward(&x);
        prop_assert_eq!(y.dims(), &[n, classes]);
        prop_assert!(y.as_slice().iter().all(|v| v.is_finite()));

        // backward reaches the input with the right shape
        let dy = Tensor::full(y.shape().clone(), 1.0);
        let dx = net.backward(&ctxs, &dy);
        prop_assert_eq!(dx.dims(), x.dims());
        prop_assert!(dx.as_slice().iter().all(|v| v.is_finite()));

        // every learnable parameter accumulated a finite gradient buffer
        let mut all_finite = true;
        net.visit_params(&mut |p| {
            if !p.grad().is_some_and(|g| g.as_slice().iter().all(|v| v.is_finite())) {
                all_finite = false;
            }
        });
        prop_assert!(all_finite);
    }

    #[test]
    fn prop_inference_is_deterministic(seed in 0u64..1000) {
        let (net, _) = random_net(2, 3, &[true], true, 8, 3, seed);
        let mut rng = StdRng::seed_from_u64(seed);
        let x = Tensor::randn([2, 3, 8, 8], 1.0, &mut rng);
        let bits = |t: Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        // A reused scratch and a fresh one return the same bits.
        let mut s = InferScratch::new();
        let a = bits(net.forward_infer_with(&x, &mut s).to_tensor());
        let b = bits(net.forward_infer_with(&x, &mut s).to_tensor());
        let c = bits(net.forward_infer_with(&x, &mut InferScratch::new()).to_tensor());
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(&a, &c);
    }

    #[test]
    fn prop_train_forward_matches_infer_after_bn_warmup(seed in 0u64..200) {
        // After enough training-mode passes on the same distribution, the
        // BN running stats approach the batch stats, so infer ≈ train
        // forward (loosely).
        let (mut net, _) = random_net(1, 3, &[false], true, 8, 3, seed);
        let mut rng = StdRng::seed_from_u64(seed);
        let x = Tensor::randn([16, 3, 8, 8], 1.0, &mut rng);
        for _ in 0..60 {
            let _ = net.forward(&x);
        }
        let (train_y, _) = net.forward(&x);
        let infer_y = net.forward_infer_with(&x, &mut InferScratch::new()).to_tensor();
        // same argmax for most rows
        let (nrows, k) = train_y.shape().rc();
        let mut agree = 0;
        for i in 0..nrows {
            let arg = |t: &Tensor| {
                (0..k).max_by(|&a, &b| t.at(&[i, a]).total_cmp(&t.at(&[i, b]))).unwrap()
            };
            if arg(&train_y) == arg(&infer_y) {
                agree += 1;
            }
        }
        prop_assert!(agree * 10 >= nrows * 7, "only {agree}/{nrows} agree");
    }

    #[test]
    fn prop_zoo_descriptor_consistency(which in 0usize..6) {
        use crate::zoo;
        let m = match which {
            0 => zoo::vgg16(),
            1 => zoo::resnet18(),
            2 => zoo::resnet34(),
            3 => zoo::yolo(),
            4 => zoo::fcn(),
            _ => zoo::charcnn(),
        };
        let dims = m.block_inputs();
        prop_assert_eq!(dims.len(), m.blocks.len() + 1);
        for (i, b) in m.blocks.iter().enumerate() {
            prop_assert_eq!(b.conv.in_c, dims[i].0, "chain broken at {}", b.name);
            prop_assert!(m.block_flops(i) > 0);
            prop_assert!(m.block_weight_bytes(i) > 0);
        }
        // prefix + suffix = total, for every split point
        for p in 0..=m.blocks.len() {
            prop_assert_eq!(m.prefix_flops(p) + m.suffix_flops(p), m.total_flops());
        }
        // spatial dims never grow
        for w in dims.windows(2) {
            prop_assert!(w[1].1 <= w[0].1 + 2 * 3, "height grew unexpectedly");
        }
    }
}
