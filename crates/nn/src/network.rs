//! Network graph: sequences of blocks with optional residual shortcuts.
//!
//! A [`Network`] is a flat list of [`Block`]s. ADCNN's partitioning operates
//! on *block index ranges*: the separable prefix `[0, split)` runs per-tile
//! on Conv nodes, the suffix `[split, len)` runs on the Central node. The
//! [`Network::forward_range`] / [`Network::backward_range`] pair is the
//! training forward and backward, so the retraining code can drive exactly
//! that split; inference has one forward of its own,
//! [`Network::forward_infer_range_with`] (`infer.rs`), the one the Conv and
//! Central nodes serve.

use crate::layer::{Ctx, Layer, Param};
use adcnn_tensor::Tensor;

/// One block of the network.
#[derive(Clone)]
pub enum Block {
    /// A plain sequence of layers (the paper's "layer block" is
    /// conv → BN → activation → optional pool, but any sequence works).
    Seq(Vec<Layer>),
    /// A residual block: `y = body(x) + shortcut(x)`; an empty shortcut is
    /// the identity connection of Figure 2(b).
    Residual {
        /// The main path.
        body: Vec<Layer>,
        /// Projection path; empty means identity.
        shortcut: Vec<Layer>,
    },
}

/// Backward context for one block.
pub enum BlockCtx {
    /// Contexts of a plain sequence.
    Seq(Vec<Ctx>),
    /// Contexts of both residual paths.
    Residual {
        /// Main-path contexts.
        body: Vec<Ctx>,
        /// Shortcut contexts.
        shortcut: Vec<Ctx>,
    },
}

fn forward_seq(layers: &mut [Layer], x: &Tensor) -> (Tensor, Vec<Ctx>) {
    let mut ctxs = Vec::with_capacity(layers.len());
    let mut cur = x.clone();
    for l in layers.iter_mut() {
        let (y, c) = l.forward(&cur);
        ctxs.push(c);
        cur = y;
    }
    (cur, ctxs)
}

fn backward_seq(layers: &mut [Layer], ctxs: &[Ctx], dy: &Tensor) -> Tensor {
    let mut cur = dy.clone();
    for (l, c) in layers.iter_mut().zip(ctxs).rev() {
        cur = l.backward(c, &cur);
    }
    cur
}

impl Block {
    /// Training forward through this block.
    pub fn forward(&mut self, x: &Tensor) -> (Tensor, BlockCtx) {
        match self {
            Block::Seq(layers) => {
                let (y, ctxs) = forward_seq(layers, x);
                (y, BlockCtx::Seq(ctxs))
            }
            Block::Residual { body, shortcut } => {
                let (main, bctx) = forward_seq(body, x);
                let (skip, sctx) = if shortcut.is_empty() {
                    (x.clone(), Vec::new())
                } else {
                    forward_seq(shortcut, x)
                };
                (main.add(&skip), BlockCtx::Residual { body: bctx, shortcut: sctx })
            }
        }
    }

    /// Backward through this block.
    pub fn backward(&mut self, ctx: &BlockCtx, dy: &Tensor) -> Tensor {
        match (self, ctx) {
            (Block::Seq(layers), BlockCtx::Seq(ctxs)) => backward_seq(layers, ctxs, dy),
            (
                Block::Residual { body, shortcut },
                BlockCtx::Residual { body: bctx, shortcut: sctx },
            ) => {
                let d_main = backward_seq(body, bctx, dy);
                let d_skip =
                    if shortcut.is_empty() { dy.clone() } else { backward_seq(shortcut, sctx, dy) };
                d_main.add(&d_skip)
            }
            _ => panic!("block/context mismatch"),
        }
    }

    /// Visit all learnable params.
    pub fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        match self {
            Block::Seq(layers) => {
                for l in layers {
                    l.visit_params(f);
                }
            }
            Block::Residual { body, shortcut } => {
                for l in body.iter_mut().chain(shortcut.iter_mut()) {
                    l.visit_params(f);
                }
            }
        }
    }

    /// Zero all gradient accumulators in this block.
    pub fn zero_grad(&mut self) {
        match self {
            Block::Seq(layers) => layers.iter_mut().for_each(Layer::zero_grad),
            Block::Residual { body, shortcut } => {
                body.iter_mut().for_each(Layer::zero_grad);
                shortcut.iter_mut().for_each(Layer::zero_grad);
            }
        }
    }

    /// Total learnable scalars.
    pub fn param_count(&self) -> usize {
        match self {
            Block::Seq(layers) => layers.iter().map(Layer::param_count).sum(),
            Block::Residual { body, shortcut } => {
                body.iter().chain(shortcut.iter()).map(Layer::param_count).sum()
            }
        }
    }
}

/// A feed-forward network as an ordered list of blocks.
#[derive(Clone)]
pub struct Network {
    /// The blocks, executed in order.
    pub blocks: Vec<Block>,
}

impl Network {
    /// Build from blocks.
    pub fn new(blocks: Vec<Block>) -> Self {
        Network { blocks }
    }

    /// Number of blocks.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// True if the network has no blocks.
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// Training forward through blocks `range` (e.g. `0..split`), keeping
    /// the contexts [`Network::backward_range`] consumes.
    pub fn forward_range(
        &mut self,
        x: &Tensor,
        range: std::ops::Range<usize>,
    ) -> (Tensor, Vec<BlockCtx>) {
        let mut ctxs = Vec::with_capacity(range.len());
        let mut cur = x.clone();
        for b in &mut self.blocks[range] {
            let (y, c) = b.forward(&cur);
            ctxs.push(c);
            cur = y;
        }
        (cur, ctxs)
    }

    /// Backward through blocks `range`, consuming the matching contexts from
    /// [`Network::forward_range`]. Returns the gradient at the range's input.
    pub fn backward_range(
        &mut self,
        ctxs: &[BlockCtx],
        dy: &Tensor,
        range: std::ops::Range<usize>,
    ) -> Tensor {
        assert_eq!(ctxs.len(), range.len(), "context/range length mismatch");
        let mut cur = dy.clone();
        for (b, c) in self.blocks[range].iter_mut().zip(ctxs).rev() {
            cur = b.backward(c, &cur);
        }
        cur
    }

    /// Whole-network training forward.
    pub fn forward(&mut self, x: &Tensor) -> (Tensor, Vec<BlockCtx>) {
        let n = self.len();
        self.forward_range(x, 0..n)
    }

    /// Whole-network backward.
    pub fn backward(&mut self, ctxs: &[BlockCtx], dy: &Tensor) -> Tensor {
        let n = self.len();
        self.backward_range(ctxs, dy, 0..n)
    }

    /// Visit all learnable params in execution order.
    pub fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        for b in &mut self.blocks {
            b.visit_params(f);
        }
    }

    /// Zero all gradient accumulators.
    pub fn zero_grad(&mut self) {
        self.blocks.iter_mut().for_each(Block::zero_grad);
    }

    /// Total learnable scalars.
    pub fn param_count(&self) -> usize {
        self.blocks.iter().map(Block::param_count).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::infer::InferScratch;
    use adcnn_tensor::conv::Conv2dParams;
    use adcnn_tensor::loss::softmax_cross_entropy;
    use adcnn_tensor::pool::Pool2dParams;
    use rand::{rngs::StdRng, SeedableRng};

    fn tiny_net(rng: &mut StdRng) -> Network {
        Network::new(vec![
            Block::Seq(vec![
                Layer::conv2d(1, 4, 3, Conv2dParams::same(3), rng),
                Layer::batch_norm(4),
                Layer::Relu,
                Layer::MaxPool(Pool2dParams::non_overlapping(2)),
            ]),
            Block::Seq(vec![Layer::Flatten, Layer::linear(4 * 4 * 4, 3, rng)]),
        ])
    }

    #[test]
    fn forward_shapes() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut net = tiny_net(&mut rng);
        let x = Tensor::randn([2, 1, 8, 8], 1.0, &mut rng);
        let (y, ctxs) = net.forward(&x);
        assert_eq!(y.dims(), &[2, 3]);
        assert_eq!(ctxs.len(), 2);
    }

    #[test]
    fn training_reduces_loss() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut net = tiny_net(&mut rng);
        let x = Tensor::randn([8, 1, 8, 8], 1.0, &mut rng);
        let targets: Vec<usize> = (0..8).map(|i| i % 3).collect();
        let mut first = None;
        let mut last = 0.0;
        for _ in 0..30 {
            net.zero_grad();
            let (logits, ctxs) = net.forward(&x);
            let (loss, dl) = softmax_cross_entropy(&logits, &targets);
            net.backward(&ctxs, &dl);
            // manual SGD
            net.visit_params(&mut |p| {
                let g = p.grad().expect("backward wrote every gradient").clone();
                p.value.add_scaled(&g, -0.1);
            });
            if first.is_none() {
                first = Some(loss);
            }
            last = loss;
        }
        assert!(last < first.unwrap() * 0.5, "loss {first:?} -> {last}");
    }

    #[test]
    fn residual_identity_matches_manual_sum() {
        let mut rng = StdRng::seed_from_u64(3);
        let conv = Layer::conv2d(2, 2, 3, Conv2dParams::same(3), &mut rng);
        let mut res =
            Network::new(vec![Block::Residual { body: vec![conv.clone()], shortcut: vec![] }]);
        let mut plain = Network::new(vec![Block::Seq(vec![conv])]);
        let x = Tensor::randn([1, 2, 5, 5], 1.0, &mut rng);
        let mut s = InferScratch::new();
        let y = res.forward_infer_with(&x, &mut s).to_tensor();
        let conv_out = plain.forward_infer_with(&x, &mut s).to_tensor();
        // y - x must equal conv(x), in the inference and the training forward
        assert!(y.zip_map(&conv_out, |a, b| a - b).approx_eq(&x, 1e-5));
        let (y, conv_out) = (res.forward(&x).0, plain.forward(&x).0);
        assert!(y.zip_map(&conv_out, |a, b| a - b).approx_eq(&x, 1e-5));
    }

    #[test]
    fn residual_backward_gradcheck() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut net = Network::new(vec![Block::Residual {
            body: vec![Layer::conv2d(1, 1, 3, Conv2dParams::same(3), &mut rng)],
            shortcut: vec![],
        }]);
        let x = Tensor::randn([1, 1, 4, 4], 1.0, &mut rng);
        let (y, ctxs) = net.forward(&x);
        let dy = Tensor::full(y.shape().clone(), 1.0);
        let dx = net.backward(&ctxs, &dy);

        let eps = 1e-2f32;
        let mut s = InferScratch::new();
        for &flat in &[0usize, 5, 15] {
            let mut xp = x.clone();
            xp.as_mut_slice()[flat] += eps;
            let mut xm = x.clone();
            xm.as_mut_slice()[flat] -= eps;
            let lp = net.forward_infer_with(&xp, &mut s).to_tensor().sum();
            let lm = net.forward_infer_with(&xm, &mut s).to_tensor().sum();
            let num = ((lp - lm) / (2.0 * eps as f64)) as f32;
            assert!(
                (num - dx.as_slice()[flat]).abs() < 3e-2,
                "dx[{flat}]: {num} vs {}",
                dx.as_slice()[flat]
            );
        }
    }

    #[test]
    fn range_split_equals_full_forward() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut net = tiny_net(&mut rng);
        let x = Tensor::randn([1, 1, 8, 8], 1.0, &mut rng);
        let (full, _) = net.forward(&x);
        let (mid, _) = net.forward_range(&x, 0..1);
        let (split, _) = net.forward_range(&mid, 1..2);
        assert!(full.approx_eq(&split, 1e-6));
    }

    #[test]
    fn param_count_is_positive_and_stable() {
        let mut rng = StdRng::seed_from_u64(6);
        let net = tiny_net(&mut rng);
        // conv: 4*1*3*3 + 4 = 40; bn: 8; linear: 64*3 + 3 = 195; total 243
        assert_eq!(net.param_count(), 40 + 8 + 195);
    }
}
