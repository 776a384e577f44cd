//! The FDSP-partitioned model (Figure 7 of the paper): its training graph,
//! and the pipeline the cluster serves, run serially.
//!
//! Training ([`PartitionedModel::forward_train`]) stacks the tiles along
//! the batch dimension, so the prefix's zero-padded convolutions apply
//! FDSP's border semantics automatically; the boundary clipped ReLU and
//! quantizer apply where Figure 7(b) inserts them (the quantizer's backward
//! is the straight-through estimator), and the suffix runs on the
//! reassembled map.
//!
//! Inference ([`PartitionedModel::infer`]) is what the Conv and Central
//! nodes run, one image at a time, through the one inference forward
//! [`Network::forward_infer_range_with`]: each tile through the prefix, the
//! boundary ops, the paste, the suffix. Its logits are the served logits
//! bit for bit (DESIGN §7). Both directions quantize with the wire's
//! [`Quantizer`]; [`QuantizeSte`] only names its `(bits, range)`.

use adcnn_core::compress::Quantizer;
use adcnn_core::fdsp::TileGrid;
use adcnn_nn::infer::InferScratch;
use adcnn_nn::layer::QuantizeSte;
use adcnn_nn::small::SmallModel;
use adcnn_nn::{BlockCtx, Network};
use adcnn_tensor::activ::ClippedRelu;
use adcnn_tensor::Tensor;

/// A model whose separable prefix is executed per-FDSP-tile.
pub struct PartitionedModel {
    /// The underlying network (prefix blocks + suffix blocks).
    pub net: Network,
    /// Number of leading blocks in the separable prefix.
    pub prefix: usize,
    /// The FDSP grid; `1×1` means unpartitioned.
    pub grid: TileGrid,
    /// Clipped ReLU at the prefix/suffix boundary (§4.1), if enabled.
    pub boundary_crelu: Option<ClippedRelu>,
    /// Quantizer at the boundary (§4.2), if enabled.
    pub boundary_quant: Option<QuantizeSte>,
    /// Model metadata (input dims, classes).
    pub input: (usize, usize, usize),
    /// Number of classes.
    pub classes: usize,
}

/// Backward context of one partitioned forward pass.
pub struct PartCtx {
    prefix_ctxs: Vec<BlockCtx>,
    suffix_ctxs: Vec<BlockCtx>,
    /// Boundary tensor *before* the clipped ReLU (needed for its backward).
    pre_crelu: Option<Tensor>,
}

impl PartitionedModel {
    /// Wrap a small model without partitioning (grid 1×1).
    pub fn unpartitioned(m: SmallModel) -> Self {
        PartitionedModel {
            net: m.net,
            prefix: m.separable_prefix,
            grid: TileGrid::new(1, 1),
            boundary_crelu: None,
            boundary_quant: None,
            input: m.input,
            classes: m.classes,
        }
    }

    /// Wrap a small model with FDSP over `grid`.
    pub fn fdsp(m: SmallModel, grid: TileGrid) -> Self {
        let (_, h, w) = m.input;
        assert!(
            h % grid.rows == 0 && w % grid.cols == 0,
            "input {h}x{w} not divisible by grid {grid}"
        );
        PartitionedModel { grid, ..PartitionedModel::unpartitioned(m) }
    }

    /// Enable the boundary clipped ReLU (Algorithm 1, step 4).
    pub fn with_crelu(mut self, cr: ClippedRelu) -> Self {
        self.boundary_crelu = Some(cr);
        self
    }

    /// Enable the boundary quantizer (Algorithm 1, step 5).
    pub fn with_quant(mut self, q: QuantizeSte) -> Self {
        self.boundary_quant = Some(q);
        self
    }

    fn tiled(&self) -> bool {
        self.grid.tiles() > 1
    }

    /// The boundary ops on one value, as a Conv node applies them: the
    /// clipped ReLU, then the wire quantizer's level → value. Either may be
    /// off.
    fn boundary_op(&self) -> impl Fn(f32) -> f32 {
        let cr = self.boundary_crelu;
        let q = self.boundary_quant.map(|q| Quantizer::new(q.bits, q.range));
        move |v| {
            let v = cr.map_or(v, |cr| cr.apply(v));
            q.map_or(v, |q| q.value(q.level(v)))
        }
    }

    /// Training forward: returns logits and the backward context.
    pub fn forward_train(&mut self, x: &Tensor) -> (Tensor, PartCtx) {
        let p = self.prefix;
        let total = self.net.len();
        // 1. prefix, per tile (stacked into the batch dimension)
        let (boundary_tiled, prefix_ctxs) = if self.tiled() {
            let stacked = self.grid.stack(x);
            self.net.forward_range(&stacked, 0..p)
        } else {
            self.net.forward_range(x, 0..p)
        };
        // 2. reassemble
        let boundary =
            if self.tiled() { self.grid.unstack_assemble(&boundary_tiled) } else { boundary_tiled };
        // 3. boundary compression ops; the clipped ReLU's backward gates on
        // their input
        let compressed = boundary.map(self.boundary_op());
        let pre_crelu = self.boundary_crelu.map(|_| boundary);
        // 4. suffix on the full map
        let (out, suffix_ctxs) = self.net.forward_range(&compressed, p..total);
        (out, PartCtx { prefix_ctxs, suffix_ctxs, pre_crelu })
    }

    /// Logits for a batch, each image computed as the cluster serves it
    /// (see the module docs): per-tile prefix, boundary ops, suffix.
    pub fn infer(&self, x: &Tensor) -> Tensor {
        let mut s = InferScratch::new();
        let suffix = self.prefix..self.net.len();
        each_image(x, |image| {
            let boundary = self.boundary_map(image, true, &mut s);
            self.net.forward_infer_range_with(&boundary, suffix.clone(), &mut s).to_tensor()
        })
    }

    /// Boundary activations for a batch, before the boundary ops (used to
    /// choose clipped-ReLU bounds from output statistics, §7.1): the
    /// per-tile prefix of [`PartitionedModel::infer`].
    pub fn boundary_activations(&self, x: &Tensor) -> Tensor {
        let mut s = InferScratch::new();
        each_image(x, |image| self.boundary_map(image, false, &mut s))
    }

    /// One `[1, C, H, W]` image's boundary map: each tile through the
    /// prefix, through the boundary ops when `ops`, pasted where the
    /// Central node pastes it.
    fn boundary_map(&self, image: &Tensor, ops: bool, s: &mut InferScratch) -> Tensor {
        let op = self.boundary_op();
        let mut map: Option<Tensor> = None;
        for t in 0..self.grid.tiles() {
            let tile = self.grid.extract_tile(image, t);
            let mut out = self.net.forward_infer_range_with(&tile, 0..self.prefix, s).to_tensor();
            if ops {
                out.as_mut_slice().iter_mut().for_each(|v| *v = op(*v));
            }
            let (_, c, th, tw) = out.shape().nchw();
            let (rows, cols) = (self.grid.rows, self.grid.cols);
            let map = map.get_or_insert_with(|| Tensor::zeros([1, c, th * rows, tw * cols]));
            let (gr, gc) = self.grid.tile_pos(t);
            map.paste_spatial(&out, gr * th, gc * tw);
        }
        map.expect("a grid has at least one tile")
    }

    /// Backward pass; accumulates gradients into the network's parameters.
    pub fn backward(&mut self, ctx: &PartCtx, dlogits: &Tensor) -> Tensor {
        let p = self.prefix;
        let total = self.net.len();
        // suffix
        let mut d = self.net.backward_range(&ctx.suffix_ctxs, dlogits, p..total);
        // quantizer: straight-through (full-precision gradients, §4.4)
        // clipped ReLU: gate on the saved pre-activation
        if let Some(cr) = self.boundary_crelu {
            let pre = ctx.pre_crelu.as_ref().expect("forward_train must be used before backward");
            d = cr.backward(pre, &d);
        }
        // split the boundary gradient back into tiles
        let d_tiled = if self.tiled() { self.grid.stack_gradient(&d) } else { d };
        let d_in = self.net.backward_range(&ctx.prefix_ctxs, &d_tiled, 0..p);
        if self.tiled() {
            self.grid.unstack_assemble(&d_in)
        } else {
            d_in
        }
    }
}

/// `f` on each `[1, …]` image of the batch `x`, its results stacked back
/// into a batch.
fn each_image(x: &Tensor, mut f: impl FnMut(&Tensor) -> Tensor) -> Tensor {
    let (n, item) = (x.dims()[0], &x.dims()[1..]);
    let stride: usize = item.iter().product();
    let one: Vec<usize> = [&[1], item].concat();
    let (mut dims, mut data) = (vec![n], Vec::new());
    for (i, image) in x.as_slice().chunks_exact(stride).enumerate() {
        let y = f(&Tensor::from_vec(one.as_slice(), image.to_vec()));
        if i == 0 {
            dims.extend_from_slice(&y.dims()[1..]);
        }
        data.extend_from_slice(y.as_slice());
    }
    Tensor::from_vec(dims.as_slice(), data)
}

/// Pick clipped-ReLU bounds from boundary-activation statistics: `lo` at
/// the quantile that yields the target sparsity, `hi` near the top of the
/// distribution (the paper's "coarse range from output statistics, then
/// grid search", §7.1, first half).
pub fn choose_crelu_bounds(acts: &Tensor, target_sparsity: f64) -> ClippedRelu {
    assert!((0.0..1.0).contains(&target_sparsity));
    let mut vals: Vec<f32> = acts.as_slice().to_vec();
    vals.sort_by(f32::total_cmp);
    let n = vals.len();
    let lo_idx = ((n as f64 * target_sparsity) as usize).min(n - 2);
    let hi_idx = ((n as f64 * 0.995) as usize).clamp(lo_idx + 1, n - 1);
    let lo = vals[lo_idx];
    let mut hi = vals[hi_idx];
    if hi <= lo {
        hi = lo + 1e-3;
    }
    ClippedRelu::new(lo, hi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use adcnn_nn::small::shapes_cnn;
    use adcnn_tensor::conv::Conv2dParams;
    use rand::{rngs::StdRng, SeedableRng};

    fn model(seed: u64) -> SmallModel {
        let mut rng = StdRng::seed_from_u64(seed);
        shapes_cnn(6, &mut rng)
    }

    #[test]
    fn grid_1x1_matches_plain_network() {
        let mut rng = StdRng::seed_from_u64(1);
        let x = Tensor::randn([2, 3, 32, 32], 1.0, &mut rng);
        let m1 = model(5);
        let m2 = model(5); // same seed -> same weights
        let part = PartitionedModel::unpartitioned(m1);
        let got = part.infer(&x);
        let want = m2.net.forward_infer_with(&x, &mut InferScratch::new()).to_tensor();
        assert!(got.approx_eq(&want, 1e-5));
    }

    #[test]
    fn fdsp_changes_border_math_only_slightly() {
        let mut rng = StdRng::seed_from_u64(2);
        let x = Tensor::randn([1, 3, 32, 32], 0.5, &mut rng);
        let plain = PartitionedModel::unpartitioned(model(7));
        let tiled = PartitionedModel::fdsp(model(7), TileGrid::new(2, 2));
        let a = plain.infer(&x);
        let b = tiled.infer(&x);
        // different (border effects) but same scale of logits
        assert!(!a.approx_eq(&b, 1e-6));
        assert!(a.max_abs() > 0.0 && b.max_abs() > 0.0);
        let diff = a.zip_map(&b, |p, q| p - q).max_abs();
        assert!(diff < 10.0 * a.max_abs().max(1.0), "diff {diff}");
    }

    #[test]
    fn backward_runs_and_populates_grads() {
        let mut rng = StdRng::seed_from_u64(3);
        let x = Tensor::randn([2, 3, 32, 32], 0.5, &mut rng);
        let mut m = PartitionedModel::fdsp(model(9), TileGrid::new(2, 2))
            .with_crelu(ClippedRelu::new(0.0, 2.0))
            .with_quant(QuantizeSte::new(4, 2.0));
        let (y, ctx) = m.forward_train(&x);
        let dl = Tensor::full(y.shape().clone(), 0.1);
        let dx = m.backward(&ctx, &dl);
        assert_eq!(dx.dims(), x.dims());
        let mut any = false;
        m.net.visit_params(&mut |p| {
            if p.grad().is_some_and(|g| g.max_abs() > 0.0) {
                any = true;
            }
        });
        assert!(any, "no gradients accumulated");
    }

    /// The quantizer's backward is the straight-through estimator: with the
    /// whole net in the prefix, the gradient reaching the boundary is the
    /// upstream one, and adding the quantizer changes no gradient bit.
    #[test]
    fn quantizer_backward_is_straight_through() {
        let mut rng = StdRng::seed_from_u64(6);
        let x = Tensor::randn([2, 3, 8, 8], 0.5, &mut rng);
        let build = |quant: bool| {
            let mut rng = StdRng::seed_from_u64(61);
            let conv = adcnn_nn::Layer::conv2d(3, 4, 3, Conv2dParams::same(3), &mut rng);
            let cr = ClippedRelu::new(0.0, 1.0);
            let m = PartitionedModel {
                net: Network::new(vec![adcnn_nn::Block::Seq(vec![conv])]),
                prefix: 1,
                grid: TileGrid::new(2, 2),
                boundary_crelu: Some(cr),
                boundary_quant: None,
                input: (3, 8, 8),
                classes: 4,
            };
            if quant {
                m.with_quant(QuantizeSte::new(4, cr.range()))
            } else {
                m
            }
        };
        let bits = |t: &Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let (mut plain, mut quant) = (build(false), build(true));
        let (y_plain, c_plain) = plain.forward_train(&x);
        let (y_quant, c_quant) = quant.forward_train(&x);
        assert_ne!(bits(&y_plain), bits(&y_quant), "the quantizer must change the forward");
        let dl = Tensor::randn(y_plain.dims(), 1.0, &mut rng);
        let dx_plain = plain.backward(&c_plain, &dl);
        let dx_quant = quant.backward(&c_quant, &dl);
        assert_eq!(bits(&dx_plain), bits(&dx_quant));
        let mut grads = Vec::new();
        plain.net.visit_params(&mut |p| grads.push(p.grad().map(bits)));
        let mut i = 0;
        quant.net.visit_params(&mut |p| {
            assert_eq!(p.grad().map(bits), grads[i]);
            i += 1;
        });
    }

    #[test]
    fn fdsp_gradcheck_through_tiling() {
        // Finite-difference check of the whole partitioned pipeline without
        // boundary ops (they are piecewise-linear; checked separately).
        let mut rng = StdRng::seed_from_u64(4);
        let x = Tensor::randn([1, 3, 8, 8], 0.5, &mut rng);
        // build a tiny 2-block model on 8x8 inputs
        let mut net_rng = StdRng::seed_from_u64(77);
        let same = adcnn_tensor::conv::Conv2dParams::same(3);
        let net = Network::new(vec![
            adcnn_nn::Block::Seq(vec![adcnn_nn::Layer::conv2d(3, 4, 3, same, &mut net_rng)]),
            adcnn_nn::Block::Seq(vec![
                adcnn_nn::Layer::Flatten,
                adcnn_nn::Layer::linear(4 * 8 * 8, 3, &mut net_rng),
            ]),
        ]);
        let mut m = PartitionedModel {
            net,
            prefix: 1,
            grid: TileGrid::new(2, 2),
            boundary_crelu: None,
            boundary_quant: None,
            input: (3, 8, 8),
            classes: 3,
        };
        let (y, ctx) = m.forward_train(&x);
        let dl = Tensor::full(y.shape().clone(), 1.0);
        let dx = m.backward(&ctx, &dl);

        let eps = 1e-2f32;
        for &flat in &[0usize, 50, 100, 191] {
            let mut xp = x.clone();
            xp.as_mut_slice()[flat] += eps;
            let mut xm = x.clone();
            xm.as_mut_slice()[flat] -= eps;
            let lp = m.infer(&xp).sum();
            let lm = m.infer(&xm).sum();
            let num = ((lp - lm) / (2.0 * eps as f64)) as f32;
            assert!(
                (num - dx.as_slice()[flat]).abs() < 3e-2,
                "dx[{flat}]: {num} vs {}",
                dx.as_slice()[flat]
            );
        }
    }

    #[test]
    fn crelu_bounds_hit_target_sparsity() {
        let mut rng = StdRng::seed_from_u64(5);
        let x = Tensor::randn([1, 3, 32, 32], 0.5, &mut rng);
        let m = PartitionedModel::fdsp(model(11), TileGrid::new(2, 2));
        let acts = m.boundary_activations(&x);
        let cr = choose_crelu_bounds(&acts, 0.9);
        let clipped = cr.forward(&acts);
        let s = clipped.sparsity();
        assert!((0.8..0.99).contains(&s), "sparsity {s}");
        assert!(cr.lo < cr.hi);
    }

    #[test]
    #[should_panic]
    fn fdsp_rejects_indivisible_grid() {
        PartitionedModel::fdsp(model(1), TileGrid::new(3, 3));
    }
}
