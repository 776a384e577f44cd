//! The inference forward: the only one there is.
//!
//! [`Network::forward_infer_with`] runs the network in inference mode while
//! ping-ponging between two reusable [`ActBuf`] activation buffers owned by
//! an [`InferScratch`]. After a warm-up pass on a given input shape the whole
//! forward performs zero heap allocation (proven by the counting-allocator
//! test `tests/alloc_steady_state.rs` at the workspace root).
//!
//! Every inference runs here: the Conv nodes' prefix, the Central node's
//! suffix, and — through `adcnn-retrain`'s `PartitionedModel::infer`, which
//! serves each image tile by tile exactly as the cluster does — evaluation,
//! Algorithm 1's acceptance checks and every local reference a runtime test
//! compares with. [`Network::forward`] / [`Network::forward_range`] are the
//! training forward: they keep per-layer contexts, own their tensors and
//! normalize by batch statistics.
//!
//! A small peephole pass fuses `Conv2d → [BatchNorm] → [Relu | ClippedRelu]`
//! and `Linear → [Relu | ClippedRelu]` into one GEMM call: the BatchNorm's
//! folded per-channel `(a, b)` and the activation ([`FusedAct`]) ride the
//! epilogue, so they cost no extra pass over the output. The fused and the
//! layer-by-layer forms return the same bits: the epilogue applies the
//! affine as BatchNorm's own multiply then add, and a standalone
//! activation pass is [`FusedAct::apply`], the epilogue's scalar form.

use crate::layer::Layer;
use crate::network::{Block, Network};
use crate::zoo::MapDims;
use adcnn_tensor::conv::{conv2d_affine_into, conv2d_into};
use adcnn_tensor::gemm::FusedAct;
use adcnn_tensor::linear::linear_into;
use adcnn_tensor::norm::BatchNorm;
use adcnn_tensor::pool::{avgpool2d_into, global_avgpool_into, maxpool2d_into};
use adcnn_tensor::{ActBuf, Scratch, Tensor};

/// Per-thread reusable state for [`Network::forward_infer_with`].
///
/// One `InferScratch` per worker thread; never shared. All buffers grow to
/// the high-water mark of the shapes seen and then stay put.
#[derive(Clone, Debug, Default)]
pub struct InferScratch {
    /// GEMM-pack / padded-image arenas shared by every conv and linear layer.
    pub ts: Scratch,
    ping: ActBuf,
    pong: ActBuf,
    res_in: ActBuf,
    res_tmp: ActBuf,
    bn: BnCoeffs,
}

/// The folded `(a, b)` of the BatchNorm a conv's epilogue applies.
#[derive(Clone, Debug, Default)]
struct BnCoeffs {
    scale: Vec<f32>,
    shift: Vec<f32>,
}

impl BnCoeffs {
    /// `bn`'s per-channel coefficients, in buffers that only grow.
    fn of(&mut self, bn: &BatchNorm) -> (&[f32], &[f32]) {
        self.scale.clear();
        self.shift.clear();
        for ci in 0..bn.channels() {
            let (a, b) = bn.fold(ci);
            self.scale.push(a);
            self.shift.push(b);
        }
        (&self.scale, &self.shift)
    }
}

impl InferScratch {
    /// Empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        InferScratch::default()
    }

    /// Bytes currently held by the activation buffers and arenas (capacity,
    /// not the current shapes' length).
    pub fn capacity_bytes(&self) -> usize {
        let acts =
            [&self.ping, &self.pong, &self.res_in, &self.res_tmp].map(ActBuf::capacity_bytes);
        let coeffs = self.bn.scale.capacity() + self.bn.shift.capacity();
        self.ts.capacity_bytes() + acts.iter().sum::<usize>() + coeffs * std::mem::size_of::<f32>()
    }
}

/// If `layer` is an activation the epilogue can apply, its [`FusedAct`].
fn activation(layer: Option<&Layer>) -> Option<FusedAct> {
    match layer {
        Some(Layer::Relu) => Some(FusedAct::Relu),
        Some(Layer::ClippedRelu(cr)) => Some(FusedAct::Clipped { lo: cr.lo, hi: cr.hi }),
        _ => None,
    }
}

/// Run `layers` in inference mode on the input in `a`, `b` its ping-pong
/// partner; returns `(output, partner)`. The two trade roles by reference,
/// never by content, so each buffer sees the same shapes on every call and
/// holds its full size after the first.
fn forward_layers_infer<'b>(
    layers: &[Layer],
    mut a: &'b mut ActBuf,
    mut b: &'b mut ActBuf,
    ts: &mut Scratch,
    coeffs: &mut BnCoeffs,
) -> (&'b mut ActBuf, &'b mut ActBuf) {
    let mut i = 0;
    while i < layers.len() {
        let mut consumed = 1;
        match &layers[i] {
            Layer::Conv2d { w, b: bias, p } => {
                let bn = match layers.get(i + 1) {
                    Some(Layer::BatchNorm { bn, .. }) => Some(bn),
                    _ => None,
                };
                consumed += bn.is_some() as usize;
                let act = activation(layers.get(i + consumed));
                consumed += act.is_some() as usize;
                let (x, dims) = (a.as_slice(), a.nchw());
                let (w, bias, act) =
                    (&w.value, bias.value.as_slice(), act.unwrap_or(FusedAct::Identity));
                match bn {
                    Some(bn) => conv2d_affine_into(x, dims, w, bias, coeffs.of(bn), *p, act, ts, b),
                    None => conv2d_into(x, dims, w, bias, *p, act, ts, b),
                }
                std::mem::swap(&mut a, &mut b);
            }
            Layer::BatchNorm { bn, .. } => {
                let dims = a.nchw();
                bn.forward_infer_into(a.as_slice(), dims, b);
                std::mem::swap(&mut a, &mut b);
            }
            layer @ (Layer::Relu | Layer::ClippedRelu(_)) => {
                let act = activation(Some(layer)).expect("an activation layer");
                for v in a.as_mut_slice() {
                    *v = act.apply(*v);
                }
            }
            Layer::MaxPool(p) => {
                let dims = a.nchw();
                maxpool2d_into(a.as_slice(), dims, *p, b);
                std::mem::swap(&mut a, &mut b);
            }
            Layer::AvgPool(p) => {
                let dims = a.nchw();
                avgpool2d_into(a.as_slice(), dims, *p, b);
                std::mem::swap(&mut a, &mut b);
            }
            Layer::GlobalAvgPool => {
                let dims = a.nchw();
                global_avgpool_into(a.as_slice(), dims, b);
                std::mem::swap(&mut a, &mut b);
            }
            Layer::Flatten => {
                let n = a.dims()[0];
                let rest: usize = a.dims()[1..].iter().product();
                a.set_dims(&[n, rest]);
            }
            Layer::Linear { w, b: bias } => {
                let act = activation(layers.get(i + 1));
                consumed += act.is_some() as usize;
                assert_eq!(a.dims().len(), 2, "linear expects rank-2 input");
                let (n, d) = (a.dims()[0], a.dims()[1]);
                let act = act.unwrap_or(FusedAct::Identity);
                linear_into(a.as_slice(), n, d, &w.value, bias.value.as_slice(), act, ts, b);
                std::mem::swap(&mut a, &mut b);
            }
            Layer::Tanh => {
                for v in a.as_mut_slice() {
                    *v = v.tanh();
                }
            }
        }
        i += consumed;
    }
    (a, b)
}

/// The layer's variant name, for [`Network::map_dims`]' refusals.
fn kind(layer: &Layer) -> &'static str {
    match layer {
        Layer::Conv2d { .. } => "Conv2d",
        Layer::BatchNorm { .. } => "BatchNorm",
        Layer::Relu => "Relu",
        Layer::ClippedRelu(_) => "ClippedRelu",
        Layer::MaxPool(_) => "MaxPool",
        Layer::AvgPool(_) => "AvgPool",
        Layer::GlobalAvgPool => "GlobalAvgPool",
        Layer::Flatten => "Flatten",
        Layer::Linear { .. } => "Linear",
        Layer::Tanh => "Tanh",
    }
}

/// The dims `layers` turn a `(C, H, W)` map into; `at` names layer `i` in a
/// refusal.
fn layers_dims(
    layers: &[Layer],
    (mut c, mut h, mut w): MapDims,
    at: &dyn Fn(usize) -> String,
) -> Result<MapDims, String> {
    for (i, layer) in layers.iter().enumerate() {
        let refuse = |why: String| Err(format!("{} ({}) {why}", at(i), kind(layer)));
        (c, h, w) = match layer {
            Layer::Conv2d { w: weight, p, .. } => {
                let &[oc, ic, kh, kw] = weight.value.dims() else {
                    return refuse(format!("has a {:?} weight", weight.value.dims()));
                };
                if ic != c {
                    return refuse(format!("takes {ic} channels, its input has {c}"));
                }
                if (kh, kw) != (p.kernel, p.kernel) {
                    return refuse(format!(
                        "has a {kh}x{kw} weight for a {0}x{0} kernel",
                        p.kernel
                    ));
                }
                (oc, p.out_dim(h), p.out_dim(w))
            }
            Layer::BatchNorm { bn, .. } if bn.channels() != c => {
                return refuse(format!("normalizes {} channels, its input has {c}", bn.channels()));
            }
            Layer::BatchNorm { .. } | Layer::Relu | Layer::ClippedRelu(_) | Layer::Tanh => {
                (c, h, w)
            }
            Layer::MaxPool(p) | Layer::AvgPool(p) => (c, p.out_dim(h), p.out_dim(w)),
            Layer::GlobalAvgPool | Layer::Flatten | Layer::Linear { .. } => {
                return refuse("does not emit a [C, H, W] map".into());
            }
        };
        if h == 0 || w == 0 {
            return refuse("leaves an empty map".into());
        }
    }
    Ok((c, h, w))
}

impl Network {
    /// The `(C, H, W)` the inference forward emits for one `(C, H, W)`
    /// input, from the layers' hyper-parameters alone: nothing runs and
    /// nothing is allocated on success. Refuses, naming the block and the
    /// layer, a broken channel chain, a residual block whose two paths
    /// disagree, a layer that leaves the `[C, H, W]` form (global pooling,
    /// flatten, linear) and a map that shrinks to nothing.
    pub fn map_dims(&self, input: MapDims) -> Result<MapDims, String> {
        let mut dims = input;
        for (bi, block) in self.blocks.iter().enumerate() {
            dims = match block {
                Block::Seq(layers) => {
                    layers_dims(layers, dims, &|i| format!("block {bi} layer {i}"))?
                }
                Block::Residual { body, shortcut } => {
                    let main = layers_dims(body, dims, &|i| format!("block {bi} body layer {i}"))?;
                    let skip =
                        layers_dims(shortcut, dims, &|i| format!("block {bi} shortcut layer {i}"))?;
                    if main != skip {
                        return Err(format!(
                            "block {bi} (Residual): the body emits {main:?}, the shortcut {skip:?}"
                        ));
                    }
                    main
                }
            };
        }
        Ok(dims)
    }

    /// Inference forward through blocks `range` using only scratch-owned
    /// buffers. The result stays inside `s`; read it via the returned
    /// reference or copy it out at the boundary.
    ///
    /// BatchNorm applies its running statistics, folded to `a·x + b`; no
    /// contexts are kept, and nothing allocates in steady state.
    pub fn forward_infer_range_with<'s>(
        &self,
        x: &Tensor,
        range: std::ops::Range<usize>,
        s: &'s mut InferScratch,
    ) -> &'s ActBuf {
        let InferScratch { ts, ping, pong, res_in, res_tmp, bn } = s;
        ping.copy_from_tensor(x);
        let (mut a, mut b) = (ping, pong);
        for block in &self.blocks[range] {
            match block {
                Block::Seq(layers) => (a, b) = forward_layers_infer(layers, a, b, ts, bn),
                Block::Residual { body, shortcut } => {
                    res_in.copy_from(a);
                    (a, b) = forward_layers_infer(body, a, b, ts, bn);
                    let (short, _) = forward_layers_infer(shortcut, res_in, res_tmp, ts, bn);
                    a.add_assign(short);
                }
            }
        }
        a
    }

    /// Whole-network allocation-free inference (see
    /// [`Network::forward_infer_range_with`]).
    pub fn forward_infer_with<'s>(&self, x: &Tensor, s: &'s mut InferScratch) -> &'s ActBuf {
        let n = self.len();
        self.forward_infer_range_with(x, 0..n, s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adcnn_tensor::activ::ClippedRelu;
    use adcnn_tensor::conv::Conv2dParams;
    use adcnn_tensor::pool::Pool2dParams;
    use rand::{rngs::StdRng, SeedableRng};

    /// The inference forward agrees with the training forward of a copy of
    /// `net`. The training forward normalizes by batch statistics, so a net
    /// with BatchNorm agrees only once its running statistics are `x`'s own.
    fn assert_matches_training_forward(net: &Network, x: &Tensor, tol: f32) {
        let (want, _) = net.clone().forward(x);
        let mut s = InferScratch::new();
        let got = net.forward_infer_with(x, &mut s);
        assert_eq!(got.dims(), want.dims());
        assert!(got.to_tensor().approx_eq(&want, tol), "inference diverged from training forward");
    }

    #[test]
    fn matches_training_forward_on_conv_bn_relu_pool_linear() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut net = Network::new(vec![
            Block::Seq(vec![
                Layer::conv2d(1, 4, 3, Conv2dParams::same(3), &mut rng),
                Layer::batch_norm(4),
                Layer::Relu,
                Layer::MaxPool(Pool2dParams::non_overlapping(2)),
            ]),
            Block::Seq(vec![Layer::Flatten, Layer::linear(4 * 4 * 4, 3, &mut rng)]),
        ]);
        // Give the BN the statistics of `x`'s conv output as its running
        // statistics: then its folded affine is the batch normalization.
        let x = Tensor::randn([2, 1, 8, 8], 1.0, &mut rng);
        let Block::Seq(layers) = &mut net.blocks[0] else { unreachable!() };
        let (conv_out, _) = layers[0].forward(&x);
        let Layer::BatchNorm { bn, .. } = &mut layers[1] else { unreachable!() };
        let (_, batch) = bn.forward_train(&conv_out);
        (bn.running_mean, bn.running_var) = (batch.mean, batch.var);
        assert_matches_training_forward(&net, &x, 1e-4);
    }

    #[test]
    fn matches_training_forward_with_fused_conv_activations() {
        let mut rng = StdRng::seed_from_u64(8);
        let net = Network::new(vec![Block::Seq(vec![
            Layer::conv2d(2, 5, 3, Conv2dParams::same(3), &mut rng),
            Layer::ClippedRelu(ClippedRelu::new(0.1, 1.2)),
            Layer::conv2d(5, 3, 1, Conv2dParams { kernel: 1, stride: 1, pad: 0 }, &mut rng),
            Layer::Relu,
        ])]);
        let x = Tensor::randn([1, 2, 6, 6], 1.0, &mut rng);
        assert_matches_training_forward(&net, &x, 1e-5);
    }

    #[test]
    fn matches_training_forward_on_residual_blocks() {
        let mut rng = StdRng::seed_from_u64(9);
        let net = Network::new(vec![
            Block::Residual {
                body: vec![Layer::conv2d(3, 3, 3, Conv2dParams::same(3), &mut rng), Layer::Relu],
                shortcut: vec![],
            },
            Block::Residual {
                body: vec![Layer::conv2d(3, 6, 3, Conv2dParams::same(3), &mut rng)],
                shortcut: vec![Layer::conv2d(
                    3,
                    6,
                    1,
                    Conv2dParams { kernel: 1, stride: 1, pad: 0 },
                    &mut rng,
                )],
            },
            Block::Seq(vec![Layer::GlobalAvgPool]),
        ]);
        let x = Tensor::randn([2, 3, 7, 7], 1.0, &mut rng);
        assert_matches_training_forward(&net, &x, 1e-5);
    }

    #[test]
    fn matches_training_forward_with_avgpool_tanh_suffix() {
        let mut rng = StdRng::seed_from_u64(10);
        let net = Network::new(vec![Block::Seq(vec![
            Layer::conv2d(1, 2, 3, Conv2dParams::same(3), &mut rng),
            Layer::AvgPool(Pool2dParams::non_overlapping(2)),
            Layer::Flatten,
            Layer::linear(2 * 4 * 4, 6, &mut rng),
            Layer::Tanh,
        ])]);
        let x = Tensor::randn([3, 1, 8, 8], 1.0, &mut rng);
        assert_matches_training_forward(&net, &x, 1e-5);
    }

    #[test]
    fn range_split_matches_training_path_split() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut net = Network::new(vec![
            Block::Seq(vec![Layer::conv2d(1, 3, 3, Conv2dParams::same(3), &mut rng), Layer::Relu]),
            Block::Seq(vec![Layer::Flatten, Layer::linear(3 * 8 * 8, 4, &mut rng)]),
        ]);
        let x = Tensor::randn([1, 1, 8, 8], 1.0, &mut rng);
        let mut s = InferScratch::new();
        let mid = net.forward_infer_range_with(&x, 0..1, &mut s).to_tensor();
        let (want_mid, _) = net.forward_range(&x, 0..1);
        assert!(mid.approx_eq(&want_mid, 1e-5));
        let out = net.forward_infer_range_with(&mid, 1..2, &mut s).to_tensor();
        let (want_out, _) = net.forward_range(&want_mid, 1..2);
        assert!(out.approx_eq(&want_out, 1e-5));
    }

    /// `forward_infer_with` with no peephole: every layer run on its own.
    fn layer_by_layer(net: &Network, x: &Tensor) -> Tensor {
        fn each<'b>(
            layers: &[Layer],
            mut a: &'b mut ActBuf,
            mut b: &'b mut ActBuf,
            s: &mut Scratch,
            c: &mut BnCoeffs,
        ) -> (&'b mut ActBuf, &'b mut ActBuf) {
            for l in layers {
                (a, b) = forward_layers_infer(std::slice::from_ref(l), a, b, s, c);
            }
            (a, b)
        }
        let InferScratch { ts, ping, pong, res_in, res_tmp, bn } = &mut InferScratch::new();
        ping.copy_from_tensor(x);
        let (mut a, mut b) = (ping, pong);
        for block in &net.blocks {
            match block {
                Block::Seq(layers) => (a, b) = each(layers, a, b, ts, bn),
                Block::Residual { body, shortcut } => {
                    res_in.copy_from(a);
                    (a, b) = each(body, a, b, ts, bn);
                    let (short, _) = each(shortcut, res_in, res_tmp, ts, bn);
                    a.add_assign(short);
                }
            }
        }
        a.to_tensor()
    }

    /// Give every BatchNorm of `net` random statistics, so its `(a, b)` are
    /// neither 1 nor 0 and a wrong fold shows.
    fn perturb_batch_norms(net: &mut Network, rng: &mut StdRng) {
        use rand::Rng;
        for block in &mut net.blocks {
            let layers: Vec<&mut Layer> = match block {
                Block::Seq(layers) => layers.iter_mut().collect(),
                Block::Residual { body, shortcut } => body.iter_mut().chain(shortcut).collect(),
            };
            for layer in layers {
                if let Layer::BatchNorm { bn, .. } = layer {
                    for ci in 0..bn.channels() {
                        bn.gamma[ci] = rng.gen_range(-1.5..1.5);
                        bn.beta[ci] = rng.gen_range(-0.5..0.5);
                        bn.running_mean[ci] = rng.gen_range(-0.5..0.5);
                        bn.running_var[ci] = rng.gen_range(0.1..2.0);
                    }
                }
            }
        }
    }

    /// The peephole (`Conv2d → BatchNorm → ReLU` as one conv with the folded
    /// affine in its epilogue, a standalone activation as
    /// [`FusedAct::apply`]) returns the layer-by-layer bits on the three
    /// small models with BatchNorm, on a served 16×16 tile and a 32×32
    /// image (both read in place) and a 12×12 tile (panels).
    #[test]
    fn peephole_matches_layer_by_layer_bit_for_bit() {
        use crate::small::{shapes_cnn, small_fcn, small_resnet};
        let mut rng = StdRng::seed_from_u64(13);
        let mut models =
            [shapes_cnn(6, &mut rng), small_resnet(6, &mut rng), small_fcn(6, &mut rng)];
        let bits = |t: &Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for m in &mut models {
            perturb_batch_norms(&mut m.net, &mut rng);
            let prefix = Network::new(m.net.blocks[..m.separable_prefix].to_vec());
            let mut s = InferScratch::new();
            for (net, hw) in [(&prefix, 16), (&prefix, 12), (&m.net, 32)] {
                let x = Tensor::randn([1, 3, hw, hw], 1.0, &mut rng);
                let fused = net.forward_infer_with(&x, &mut s).to_tensor();
                assert_eq!(bits(&fused), bits(&layer_by_layer(net, &x)), "{} on {hw}x{hw}", m.name);
            }
        }
    }

    /// A standalone activation is the epilogue's scalar form, signed zeros
    /// and NaN included, so moving it into a GEMM epilogue changes no bit.
    #[test]
    fn standalone_activations_are_the_epilogue_form() {
        let cr = ClippedRelu::new(0.0, 1.5);
        let specials = [-0.0f32, 0.0, -1e-42, 1e-42, -1.0, 0.75, 1.5, 9.0, f32::NAN, f32::INFINITY];
        let x = Tensor::from_vec([1, 1, 1, specials.len()], specials.to_vec());
        for (layer, act) in [
            (Layer::Relu, FusedAct::Relu),
            (Layer::ClippedRelu(cr), FusedAct::Clipped { lo: 0.0, hi: 1.5 }),
        ] {
            let net = Network::new(vec![Block::Seq(vec![layer])]);
            let got = net.forward_infer_with(&x, &mut InferScratch::new()).to_tensor();
            for (g, &v) in got.as_slice().iter().zip(&specials) {
                assert_eq!(g.to_bits(), act.apply(v).to_bits(), "{act:?}({v})");
            }
        }
    }

    /// The shape pass agrees with the forward it stands in for: on every
    /// leading run of blocks of every small model and of the VGG blocks,
    /// for every grid that divides the input, it returns the dims a real
    /// tile's forward emits, or refuses a run that leaves `[C, H, W]`, or
    /// a tile the run shrinks to nothing (on a separable prefix the
    /// forward then emits an empty map).
    #[test]
    fn map_dims_is_the_forward_on_every_dividing_grid() {
        use crate::small::{shapes_cnn, small_charcnn, small_fcn, small_resnet, vgg_blocks};
        let mut rng = StdRng::seed_from_u64(14);
        let models = [
            shapes_cnn(6, &mut rng),
            small_resnet(6, &mut rng),
            small_fcn(6, &mut rng),
            small_charcnn(16, 4, &mut rng),
            vgg_blocks(10, &mut rng),
        ];
        let divisors = |n: usize| (1..=n).filter(move |d| n.is_multiple_of(*d));
        let mut s = InferScratch::new();
        for m in &models {
            let (c, h, w) = m.input;
            for blocks in 1..=m.net.len() {
                let prefix = Network::new(m.net.blocks[..blocks].to_vec());
                for (rows, cols) in divisors(h).flat_map(|r| divisors(w).map(move |c| (r, c))) {
                    let (th, tw) = (h / rows, w / cols);
                    let at = format!("{} blocks 0..{blocks} on a {rows}x{cols} grid", m.name);
                    let tile = Tensor::zeros([1, c, th, tw]);
                    match prefix.map_dims((c, th, tw)) {
                        Ok((oc, oh, ow)) => {
                            let out = prefix.forward_infer_with(&tile, &mut s);
                            assert_eq!(out.dims(), &[1, oc, oh, ow], "{at}");
                        }
                        Err(e) if e.contains("leaves an empty map") => {
                            if blocks <= m.separable_prefix {
                                let out = prefix.forward_infer_with(&tile, &mut s);
                                assert_eq!(out.numel(), 0, "{at}: {e}");
                            }
                        }
                        Err(e) => assert!(e.contains("does not emit a [C, H, W] map"), "{at}: {e}"),
                    }
                }
            }
        }
    }

    /// What the forward cannot serve as a tile, the shape pass refuses,
    /// naming the block and the layer.
    #[test]
    fn map_dims_refuses_and_names_the_layer() {
        let mut rng = StdRng::seed_from_u64(15);
        let same = Conv2dParams::same(3);
        let mut conv = |ic, oc| Layer::conv2d(ic, oc, 3, same, &mut rng);
        let cases = [
            (
                vec![Block::Seq(vec![conv(3, 8), Layer::Relu]), Block::Seq(vec![conv(4, 8)])],
                "block 1 layer 0 (Conv2d) takes 4 channels, its input has 8",
            ),
            (
                vec![Block::Seq(vec![conv(3, 8), Layer::batch_norm(6)])],
                "block 0 layer 1 (BatchNorm) normalizes 6 channels, its input has 8",
            ),
            (
                vec![Block::Residual { body: vec![conv(3, 8)], shortcut: vec![] }],
                "block 0 (Residual): the body emits (8, 8, 8), the shortcut (3, 8, 8)",
            ),
            (
                vec![Block::Seq(vec![conv(3, 8)]), Block::Seq(vec![Layer::GlobalAvgPool])],
                "block 1 layer 0 (GlobalAvgPool) does not emit a [C, H, W] map",
            ),
            (
                vec![Block::Seq(vec![conv(3, 8), Layer::Flatten])],
                "block 0 layer 1 (Flatten) does not emit a [C, H, W] map",
            ),
            (
                vec![Block::Residual {
                    body: vec![],
                    shortcut: vec![Layer::Linear {
                        w: crate::Param::new(Tensor::zeros([3, 2])),
                        b: crate::Param::new(Tensor::zeros([2])),
                    }],
                }],
                "block 0 shortcut layer 0 (Linear) does not emit a [C, H, W] map",
            ),
            (
                vec![Block::Seq(vec![Layer::MaxPool(Pool2dParams::non_overlapping(16))])],
                "block 0 layer 0 (MaxPool) leaves an empty map",
            ),
        ];
        for (blocks, want) in cases {
            assert_eq!(Network::new(blocks).map_dims((3, 8, 8)), Err(want.to_string()));
        }
    }

    #[test]
    fn second_call_reuses_capacity() {
        let mut rng = StdRng::seed_from_u64(12);
        let net = Network::new(vec![Block::Seq(vec![
            Layer::conv2d(1, 4, 3, Conv2dParams::same(3), &mut rng),
            Layer::Relu,
        ])]);
        let x = Tensor::randn([1, 1, 10, 10], 1.0, &mut rng);
        let mut s = InferScratch::new();
        net.forward_infer_with(&x, &mut s);
        let cap = s.capacity_bytes();
        net.forward_infer_with(&x, &mut s);
        assert_eq!(s.capacity_bytes(), cap, "steady-state call must not grow buffers");
    }

    /// The figure counts what the buffers hold, not the last shape's length:
    /// a smaller input through the same scratch leaves it where it was.
    #[test]
    fn capacity_bytes_does_not_fall_on_a_smaller_input() {
        let mut rng = StdRng::seed_from_u64(13);
        let net = Network::new(vec![Block::Seq(vec![
            Layer::conv2d(3, 8, 3, Conv2dParams::same(3), &mut rng),
            Layer::Relu,
        ])]);
        let mut s = InferScratch::new();
        net.forward_infer_with(&Tensor::randn([1, 3, 32, 32], 1.0, &mut rng), &mut s);
        let cap = s.capacity_bytes();
        net.forward_infer_with(&Tensor::randn([1, 3, 8, 8], 1.0, &mut rng), &mut s);
        assert!(s.capacity_bytes() >= cap, "{} < {cap}", s.capacity_bytes());
    }
}
