//! Allocation-free inference forward path.
//!
//! [`Network::forward_infer_with`] runs the network in inference mode while
//! ping-ponging between two reusable [`ActBuf`] activation buffers owned by
//! an [`InferScratch`]. After a warm-up pass on a given input shape the whole
//! forward performs zero heap allocation (proven by the counting-allocator
//! test `tests/alloc_steady_state.rs` at the workspace root).
//!
//! The training path ([`Network::forward`] / [`Network::forward_range`]) is
//! untouched: it needs per-layer contexts and owns its tensors.
//!
//! A small peephole pass fuses `Conv2d → Relu`, `Conv2d → ClippedRelu`,
//! `Linear → Relu`, and `Linear → ClippedRelu` pairs into the GEMM epilogue
//! ([`FusedAct`]), so the activation costs no extra pass over the output.

use crate::layer::Layer;
use crate::network::{Block, Network};
use adcnn_tensor::conv::conv2d_into;
use adcnn_tensor::gemm::FusedAct;
use adcnn_tensor::linear::linear_into;
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
}

impl InferScratch {
    /// Empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        InferScratch::default()
    }

    /// Bytes currently held by the activation buffers and arenas.
    pub fn capacity_bytes(&self) -> usize {
        self.ts.capacity_bytes()
            + (self.ping.numel() + self.pong.numel() + self.res_in.numel() + self.res_tmp.numel())
                * std::mem::size_of::<f32>()
    }
}

/// If `next` is a fusable activation, return its [`FusedAct`] form.
fn fusable(next: Option<&Layer>) -> Option<FusedAct> {
    match next {
        Some(Layer::Relu) => Some(FusedAct::Relu),
        Some(Layer::ClippedRelu(cr)) => Some(FusedAct::Clipped { lo: cr.lo, hi: cr.hi }),
        _ => None,
    }
}

/// Run `layers` in inference mode. Input is in `a` on entry; output is in
/// `a` on exit. `b` is the ping-pong partner.
fn forward_layers_infer(layers: &[Layer], a: &mut ActBuf, b: &mut ActBuf, ts: &mut Scratch) {
    let mut i = 0;
    while i < layers.len() {
        let mut consumed = 1;
        match &layers[i] {
            Layer::Conv2d { w, b: bias, p } => {
                let act = match fusable(layers.get(i + 1)) {
                    Some(f) => {
                        consumed = 2;
                        f
                    }
                    None => FusedAct::Identity,
                };
                let dims = a.nchw();
                conv2d_into(a.as_slice(), dims, &w.value, bias.value.as_slice(), *p, act, ts, b);
                std::mem::swap(a, b);
            }
            Layer::BatchNorm { bn, .. } => {
                let dims = a.nchw();
                bn.forward_infer_into(a.as_slice(), dims, b);
                std::mem::swap(a, b);
            }
            Layer::Relu => {
                for v in a.as_mut_slice() {
                    *v = v.max(0.0);
                }
            }
            Layer::ClippedRelu(cr) => {
                let cr = *cr;
                for v in a.as_mut_slice() {
                    *v = cr.apply(*v);
                }
            }
            Layer::Quantize(q) => {
                let q = *q;
                for v in a.as_mut_slice() {
                    *v = q.apply(*v);
                }
            }
            Layer::MaxPool(p) => {
                let dims = a.nchw();
                maxpool2d_into(a.as_slice(), dims, *p, b);
                std::mem::swap(a, b);
            }
            Layer::AvgPool(p) => {
                let dims = a.nchw();
                avgpool2d_into(a.as_slice(), dims, *p, b);
                std::mem::swap(a, b);
            }
            Layer::GlobalAvgPool => {
                let dims = a.nchw();
                global_avgpool_into(a.as_slice(), dims, b);
                std::mem::swap(a, b);
            }
            Layer::Flatten => {
                let n = a.dims()[0];
                let rest: usize = a.dims()[1..].iter().product();
                a.set_dims(&[n, rest]);
            }
            Layer::Linear { w, b: bias } => {
                let act = match fusable(layers.get(i + 1)) {
                    Some(f) => {
                        consumed = 2;
                        f
                    }
                    None => FusedAct::Identity,
                };
                assert_eq!(a.dims().len(), 2, "linear expects rank-2 input");
                let (n, d) = (a.dims()[0], a.dims()[1]);
                linear_into(a.as_slice(), n, d, &w.value, bias.value.as_slice(), act, ts, b);
                std::mem::swap(a, b);
            }
            Layer::Tanh => {
                for v in a.as_mut_slice() {
                    *v = v.tanh();
                }
            }
        }
        i += consumed;
    }
}

impl Network {
    /// Inference forward through blocks `range` using only scratch-owned
    /// buffers. The result stays inside `s`; read it via the returned
    /// reference or copy it out at the boundary.
    ///
    /// Semantically identical to
    /// `self.forward_range(x, range, false)` (BN uses running statistics,
    /// quantize applies, no contexts), but allocation-free in steady state.
    pub fn forward_infer_range_with<'s>(
        &self,
        x: &Tensor,
        range: std::ops::Range<usize>,
        s: &'s mut InferScratch,
    ) -> &'s ActBuf {
        s.ping.copy_from_tensor(x);
        for block in &self.blocks[range] {
            match block {
                Block::Seq(layers) => {
                    forward_layers_infer(layers, &mut s.ping, &mut s.pong, &mut s.ts);
                }
                Block::Residual { body, shortcut } => {
                    s.res_in.copy_from(&s.ping);
                    forward_layers_infer(body, &mut s.ping, &mut s.pong, &mut s.ts);
                    if !shortcut.is_empty() {
                        forward_layers_infer(shortcut, &mut s.res_in, &mut s.res_tmp, &mut s.ts);
                    }
                    s.ping.add_assign(&s.res_in);
                }
            }
        }
        &s.ping
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
    use crate::layer::QuantizeSte;
    use adcnn_tensor::activ::ClippedRelu;
    use adcnn_tensor::conv::Conv2dParams;
    use adcnn_tensor::pool::Pool2dParams;
    use rand::{rngs::StdRng, SeedableRng};

    fn assert_matches_infer(net: &mut Network, x: &Tensor, tol: f32) {
        let want = net.infer(x);
        let mut s = InferScratch::new();
        let got = net.forward_infer_with(x, &mut s);
        assert_eq!(got.dims(), want.dims());
        assert!(got.to_tensor().approx_eq(&want, tol), "forward_infer_with diverged from infer()");
    }

    #[test]
    fn matches_infer_on_conv_bn_relu_pool_linear() {
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
        // Put some signal into the BN running stats first.
        let warm = Tensor::randn([4, 1, 8, 8], 1.0, &mut rng);
        net.forward(&warm, true);
        let x = Tensor::randn([2, 1, 8, 8], 1.0, &mut rng);
        assert_matches_infer(&mut net, &x, 1e-5);
    }

    #[test]
    fn matches_infer_with_fused_conv_activations() {
        let mut rng = StdRng::seed_from_u64(8);
        let mut net = Network::new(vec![Block::Seq(vec![
            Layer::conv2d(2, 5, 3, Conv2dParams::same(3), &mut rng),
            Layer::ClippedRelu(ClippedRelu::new(0.1, 1.2)),
            Layer::Quantize(QuantizeSte::new(4, 1.1)),
            Layer::conv2d(5, 3, 1, Conv2dParams { kernel: 1, stride: 1, pad: 0 }, &mut rng),
            Layer::Relu,
        ])]);
        let x = Tensor::randn([1, 2, 6, 6], 1.0, &mut rng);
        assert_matches_infer(&mut net, &x, 1e-5);
    }

    #[test]
    fn matches_infer_on_residual_blocks() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut net = Network::new(vec![
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
        assert_matches_infer(&mut net, &x, 1e-5);
    }

    #[test]
    fn matches_infer_with_avgpool_tanh_suffix() {
        let mut rng = StdRng::seed_from_u64(10);
        let mut net = Network::new(vec![Block::Seq(vec![
            Layer::conv2d(1, 2, 3, Conv2dParams::same(3), &mut rng),
            Layer::AvgPool(Pool2dParams::non_overlapping(2)),
            Layer::Flatten,
            Layer::linear(2 * 4 * 4, 6, &mut rng),
            Layer::Tanh,
        ])]);
        let x = Tensor::randn([3, 1, 8, 8], 1.0, &mut rng);
        assert_matches_infer(&mut net, &x, 1e-5);
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
        let (want_mid, _) = net.forward_range(&x, 0..1, false);
        assert!(mid.approx_eq(&want_mid, 1e-5));
        let out = net.forward_infer_range_with(&mid, 1..2, &mut s).to_tensor();
        let (want_out, _) = net.forward_range(&want_mid, 1..2, false);
        assert!(out.approx_eq(&want_out, 1e-5));
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
}
