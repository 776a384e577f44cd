//! Trainable layers with explicit forward contexts.
//!
//! Every layer's `forward` returns its output plus a [`Ctx`] capturing what
//! the backward pass needs. Contexts are externalized (rather than stored in
//! the layer) so the same layer weights can process many FDSP tiles within
//! one training step and accumulate gradients across all of them.

use adcnn_tensor::activ::{self, ClippedRelu};
use adcnn_tensor::conv::{conv2d, conv2d_backward, Conv2dParams};
use adcnn_tensor::linear::{linear, linear_backward};
use adcnn_tensor::norm::{BatchNorm, BnCtx};
use adcnn_tensor::pool::{
    avgpool2d, avgpool2d_backward, global_avgpool, global_avgpool_backward, maxpool2d,
    maxpool2d_backward, MaxPoolOut, Pool2dParams,
};
use adcnn_tensor::Tensor;
use rand::Rng;

/// A learnable parameter: its value, plus the gradient accumulator and SGD
/// momentum buffer training writes.
///
/// The two training buffers do not exist until the first backward pass or
/// [`Sgd::step`](crate::Sgd::step) writes them, so a model that has never
/// trained — built, cloned, split or served — holds one `f32` per weight. A
/// buffer that does not exist yet reads as zeros, which is what a fresh one
/// holds. A clone copies whatever exists, so a model cloned mid-training
/// carries its momentum.
#[derive(Clone, Debug)]
pub struct Param {
    /// Current value.
    pub value: Tensor,
    /// Accumulated gradient (summed over tiles/microbatches since the last
    /// optimizer step); `None` until a backward pass writes it.
    grad: Option<Tensor>,
    /// SGD momentum (velocity) buffer; `None` until an optimizer step
    /// writes it.
    vel: Option<Tensor>,
}

impl Param {
    /// Wrap an initial value; the gradient and velocity come with training.
    pub fn new(value: Tensor) -> Self {
        Param { value, grad: None, vel: None }
    }

    /// The accumulated gradient, or `None` if nothing has written one yet
    /// (an all-zero gradient).
    pub fn grad(&self) -> Option<&Tensor> {
        self.grad.as_ref()
    }

    /// The gradient accumulator, created zero-filled on first use.
    pub fn grad_mut(&mut self) -> &mut Tensor {
        let dims = self.value.dims();
        self.grad.get_or_insert_with(|| Tensor::zeros(dims))
    }

    /// The momentum buffer, created zero-filled on first use.
    pub fn vel_mut(&mut self) -> &mut Tensor {
        let dims = self.value.dims();
        self.vel.get_or_insert_with(|| Tensor::zeros(dims))
    }

    /// The value, gradient and momentum buffer at once, for an optimizer
    /// step; creates whichever buffer does not exist yet.
    pub(crate) fn step_parts(&mut self) -> (&mut Tensor, &Tensor, &mut Tensor) {
        let dims = self.value.dims();
        let grad = self.grad.get_or_insert_with(|| Tensor::zeros(dims));
        let vel = self.vel.get_or_insert_with(|| Tensor::zeros(dims));
        (&mut self.value, grad, vel)
    }

    /// Zero the gradient accumulator (a no-op before the first backward).
    pub fn zero_grad(&mut self) {
        if let Some(g) = &mut self.grad {
            g.fill_zero();
        }
    }
}

/// The boundary quantizer of the training graph (paper §4.2 / Figure
/// 7(b)), as a `(bits, range)` descriptor: values in `[0, range]` round to
/// `2^bits − 1` uniform levels. Its forward is the wire quantizer
/// (`adcnn_core::compress::Quantizer`), applied where `adcnn-retrain`'s
/// partitioned model crosses the boundary; its backward is the straight-
/// through estimator, which passes full-precision gradients unchanged.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct QuantizeSte {
    /// Bit width (the paper uses 4).
    pub bits: u8,
    /// Upper end of the representable range; with a preceding clipped
    /// `ReLU[a,b]` this is `b − a`.
    pub range: f32,
}

impl QuantizeSte {
    /// Construct; panics unless `1 ≤ bits ≤ 8` (the wire quantizer's
    /// levels are bytes) and `range > 0`.
    pub fn new(bits: u8, range: f32) -> Self {
        assert!((1..=8).contains(&bits), "bits must be in 1..=8");
        assert!(range > 0.0, "range must be positive");
        QuantizeSte { bits, range }
    }
}

/// A single differentiable layer.
#[derive(Clone)]
pub enum Layer {
    /// 2-D convolution with bias.
    Conv2d {
        /// Filter weights `[OC, IC, K, K]`.
        w: Param,
        /// Bias `[OC]`.
        b: Param,
        /// Stride/padding/kernel hyper-parameters.
        p: Conv2dParams,
    },
    /// Batch normalization (learnable γ/β carried inside [`BatchNorm`]).
    BatchNorm {
        /// The normalization state (γ, β, running stats).
        bn: BatchNorm,
        /// Gradient/velocity for γ.
        g_gamma: Param,
        /// Gradient/velocity for β.
        g_beta: Param,
    },
    /// Standard ReLU.
    Relu,
    /// The paper's clipped `ReLU[a,b]` (§4.1).
    ClippedRelu(ClippedRelu),
    /// Max pooling.
    MaxPool(Pool2dParams),
    /// Average pooling.
    AvgPool(Pool2dParams),
    /// Global average pooling `[N,C,H,W] → [N,C]`.
    GlobalAvgPool,
    /// Reshape `[N,C,H,W] → [N, C·H·W]`.
    Flatten,
    /// Fully connected layer.
    Linear {
        /// Weights `[D, O]`.
        w: Param,
        /// Bias `[O]`.
        b: Param,
    },
    /// Hyperbolic tangent.
    Tanh,
}

/// Backward-pass context produced by [`Layer::forward`].
pub enum Ctx {
    /// Conv input.
    Conv(Tensor),
    /// BatchNorm saved statistics.
    Bn(BnCtx),
    /// Pre-activation input (ReLU / clipped ReLU / linear gates).
    Input(Tensor),
    /// Max-pool argmax plus input shape.
    MaxPool {
        /// Forward argmax bookkeeping.
        out: MaxPoolOut,
        /// Shape of the pool input.
        in_shape: Vec<usize>,
    },
    /// Input shape only (avg pool, global pool, flatten).
    Shape(Vec<usize>),
    /// Tanh forward output (its backward uses `y`, not `x`).
    Output(Tensor),
}

impl Layer {
    /// Convenience constructor: conv + Kaiming init.
    pub fn conv2d(ic: usize, oc: usize, k: usize, p: Conv2dParams, rng: &mut impl Rng) -> Self {
        Layer::Conv2d {
            w: Param::new(adcnn_tensor::init::kaiming_conv(oc, ic, k, rng)),
            b: Param::new(Tensor::zeros([oc])),
            p,
        }
    }

    /// Convenience constructor: identity-initialized BN over `c` channels.
    pub fn batch_norm(c: usize) -> Self {
        Layer::BatchNorm {
            bn: BatchNorm::new(c),
            g_gamma: Param::new(Tensor::zeros([c])),
            g_beta: Param::new(Tensor::zeros([c])),
        }
    }

    /// Convenience constructor: linear + Kaiming init.
    pub fn linear(d: usize, o: usize, rng: &mut impl Rng) -> Self {
        Layer::Linear {
            w: Param::new(adcnn_tensor::init::kaiming_linear(d, o, rng)),
            b: Param::new(Tensor::zeros([o])),
        }
    }

    /// Training forward: the output plus the [`Ctx`] backward needs. BN
    /// normalizes by batch statistics and updates its running statistics;
    /// inference runs through [`Network::forward_infer_range_with`].
    ///
    /// [`Network::forward_infer_range_with`]: crate::Network::forward_infer_range_with
    pub fn forward(&mut self, x: &Tensor) -> (Tensor, Ctx) {
        match self {
            Layer::Conv2d { w, b, p } => {
                (conv2d(x, &w.value, b.value.as_slice(), *p), Ctx::Conv(x.clone()))
            }
            Layer::BatchNorm { bn, .. } => {
                let (y, c) = bn.forward_train(x);
                (y, Ctx::Bn(c))
            }
            Layer::Relu => (activ::relu(x), Ctx::Input(x.clone())),
            Layer::ClippedRelu(cr) => (cr.forward(x), Ctx::Input(x.clone())),
            Layer::MaxPool(p) => {
                let out = maxpool2d(x, *p);
                let y = out.output.clone();
                (y, Ctx::MaxPool { out, in_shape: x.dims().to_vec() })
            }
            Layer::AvgPool(p) => (avgpool2d(x, *p), Ctx::Shape(x.dims().to_vec())),
            Layer::GlobalAvgPool => (global_avgpool(x), Ctx::Shape(x.dims().to_vec())),
            Layer::Flatten => {
                let dims = x.dims().to_vec();
                let rest: usize = dims[1..].iter().product();
                (x.clone().reshape([dims[0], rest]), Ctx::Shape(dims))
            }
            Layer::Linear { w, b } => {
                (linear(x, &w.value, b.value.as_slice()), Ctx::Input(x.clone()))
            }
            Layer::Tanh => {
                let y = activ::tanh(x);
                (y.clone(), Ctx::Output(y))
            }
        }
    }

    /// Backward pass: consume the forward context and upstream gradient,
    /// accumulate parameter gradients, and return the input gradient.
    pub fn backward(&mut self, ctx: &Ctx, dy: &Tensor) -> Tensor {
        match (self, ctx) {
            (Layer::Conv2d { w, b, p }, Ctx::Conv(x)) => {
                let grads = conv2d_backward(x, &w.value, dy, *p);
                w.grad_mut().add_scaled(&grads.dweight, 1.0);
                for (g, &d) in b.grad_mut().as_mut_slice().iter_mut().zip(&grads.dbias) {
                    *g += d;
                }
                grads.dinput
            }
            (Layer::BatchNorm { bn, g_gamma, g_beta }, Ctx::Bn(c)) => {
                let (dx, dgamma, dbeta) = bn.backward(c, dy);
                for (g, &d) in g_gamma.grad_mut().as_mut_slice().iter_mut().zip(&dgamma) {
                    *g += d;
                }
                for (g, &d) in g_beta.grad_mut().as_mut_slice().iter_mut().zip(&dbeta) {
                    *g += d;
                }
                dx
            }
            (Layer::Relu, Ctx::Input(x)) => activ::relu_backward(x, dy),
            (Layer::ClippedRelu(cr), Ctx::Input(x)) => cr.backward(x, dy),
            (Layer::MaxPool(_), Ctx::MaxPool { out, in_shape }) => {
                maxpool2d_backward(out, dy, in_shape)
            }
            (Layer::AvgPool(p), Ctx::Shape(s)) => avgpool2d_backward(dy, *p, s),
            (Layer::GlobalAvgPool, Ctx::Shape(s)) => global_avgpool_backward(dy, s),
            (Layer::Flatten, Ctx::Shape(s)) => dy.clone().reshape(s.as_slice()),
            (Layer::Linear { w, b }, Ctx::Input(x)) => {
                let grads = linear_backward(x, &w.value, dy);
                w.grad_mut().add_scaled(&grads.dw, 1.0);
                for (g, &d) in b.grad_mut().as_mut_slice().iter_mut().zip(&grads.db) {
                    *g += d;
                }
                grads.dx
            }
            (Layer::Tanh, Ctx::Output(y)) => activ::tanh_backward(y, dy),
            _ => panic!("layer/context mismatch in backward"),
        }
    }

    /// Visit every learnable [`Param`] in this layer. For BN, the γ/β
    /// values live in the [`BatchNorm`] and are mirrored through the Param
    /// wrappers around the visit (see the body below).
    pub fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        match self {
            Layer::Conv2d { w, b, .. } | Layer::Linear { w, b } => {
                f(w);
                f(b);
            }
            Layer::BatchNorm { bn, g_gamma, g_beta } => {
                // Mirror current values into the Param wrappers, let the
                // optimizer update them, then write back.
                g_gamma.value = Tensor::from_vec([bn.gamma.len()], bn.gamma.clone());
                g_beta.value = Tensor::from_vec([bn.beta.len()], bn.beta.clone());
                f(g_gamma);
                f(g_beta);
                bn.gamma.copy_from_slice(g_gamma.value.as_slice());
                bn.beta.copy_from_slice(g_beta.value.as_slice());
            }
            _ => {}
        }
    }

    /// Number of learnable scalars in this layer.
    pub fn param_count(&self) -> usize {
        match self {
            Layer::Conv2d { w, b, .. } | Layer::Linear { w, b } => {
                w.value.numel() + b.value.numel()
            }
            Layer::BatchNorm { bn, .. } => 2 * bn.channels(),
            _ => 0,
        }
    }

    /// Zero all gradient accumulators.
    pub fn zero_grad(&mut self) {
        match self {
            Layer::Conv2d { w, b, .. } | Layer::Linear { w, b } => {
                w.zero_grad();
                b.zero_grad();
            }
            Layer::BatchNorm { g_gamma, g_beta, .. } => {
                g_gamma.zero_grad();
                g_beta.zero_grad();
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn conv_layer_forward_backward_shapes() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut l = Layer::conv2d(3, 8, 3, Conv2dParams::same(3), &mut rng);
        let x = Tensor::randn([2, 3, 8, 8], 1.0, &mut rng);
        let (y, ctx) = l.forward(&x);
        assert_eq!(y.dims(), &[2, 8, 8, 8]);
        let dx = l.backward(&ctx, &Tensor::full(y.shape().clone(), 1.0));
        assert_eq!(dx.dims(), x.dims());
        // gradient accumulated
        if let Layer::Conv2d { w, .. } = &l {
            assert!(w.grad().expect("backward wrote the gradient").max_abs() > 0.0);
        }
    }

    #[test]
    fn zero_grad_clears_accumulators() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut l = Layer::linear(4, 2, &mut rng);
        let x = Tensor::randn([3, 4], 1.0, &mut rng);
        let (y, ctx) = l.forward(&x);
        l.backward(&ctx, &Tensor::full(y.shape().clone(), 1.0));
        l.zero_grad();
        if let Layer::Linear { w, b } = &l {
            assert_eq!(w.grad().map(Tensor::max_abs), Some(0.0));
            assert_eq!(b.grad().map(Tensor::max_abs), Some(0.0));
        }
    }

    #[test]
    fn flatten_roundtrip() {
        let mut l = Layer::Flatten;
        let x = Tensor::from_fn([2, 3, 2, 2], |i| i as f32);
        let (y, ctx) = l.forward(&x);
        assert_eq!(y.dims(), &[2, 12]);
        let dx = l.backward(&ctx, &y);
        assert!(dx.approx_eq(&x, 0.0));
    }

    #[test]
    fn grads_accumulate_across_two_tiles() {
        // The FDSP training pattern: two forward/backward passes with the
        // same layer must sum gradients.
        let mut rng = StdRng::seed_from_u64(3);
        let mut l = Layer::linear(4, 2, &mut rng);
        let x1 = Tensor::randn([1, 4], 1.0, &mut rng);
        let x2 = Tensor::randn([1, 4], 1.0, &mut rng);

        let (y1, c1) = l.forward(&x1);
        l.backward(&c1, &Tensor::full(y1.shape().clone(), 1.0));
        let g_after_one = if let Layer::Linear { w, .. } = &l {
            w.grad().unwrap().clone()
        } else {
            unreachable!()
        };

        let (y2, c2) = l.forward(&x2);
        l.backward(&c2, &Tensor::full(y2.shape().clone(), 1.0));
        let g_after_two = if let Layer::Linear { w, .. } = &l {
            w.grad().unwrap().clone()
        } else {
            unreachable!()
        };

        // second pass must have added, not replaced
        assert!(!g_after_two.approx_eq(&g_after_one, 1e-9));
    }
}
