//! Stochastic gradient descent with momentum and weight decay.
//!
//! The paper retrains with "the default setting in the PyTorch github
//! repository" (§7.1), i.e. SGD with momentum 0.9 and L2 weight decay; we
//! mirror that.

use crate::network::Network;

/// SGD hyper-parameters.
#[derive(Clone, Copy, Debug)]
pub struct Sgd {
    /// Learning rate.
    pub lr: f32,
    /// Momentum coefficient (0 disables momentum).
    pub momentum: f32,
    /// L2 weight-decay coefficient (0 disables).
    pub weight_decay: f32,
}

impl Sgd {
    /// Plain SGD.
    pub fn new(lr: f32) -> Self {
        Sgd { lr, momentum: 0.0, weight_decay: 0.0 }
    }

    /// The PyTorch-default-style configuration used for retraining.
    pub fn with_momentum(lr: f32, momentum: f32, weight_decay: f32) -> Self {
        Sgd { lr, momentum, weight_decay }
    }

    /// Apply one update step to every parameter, then zero the gradients.
    /// A parameter's first step creates its momentum buffer (and its
    /// gradient, if no backward pass has), zero-filled.
    ///
    /// Update rule (PyTorch convention):
    /// `v ← μ·v + (g + λ·w)` ; `w ← w − lr·v`.
    pub fn step(&self, net: &mut Network) {
        let lr = self.lr;
        let mu = self.momentum;
        let wd = self.weight_decay;
        net.visit_params(&mut |p| {
            let (w, g, v) = p.step_parts();
            let n = w.numel();
            debug_assert_eq!(g.numel(), n);
            let (w, g, v) = (w.as_mut_slice(), g.as_slice(), v.as_mut_slice());
            for i in 0..n {
                let grad = g[i] + wd * w[i];
                v[i] = mu * v[i] + grad;
                w[i] -= lr * v[i];
            }
        });
        net.zero_grad();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::Layer;
    use crate::network::{Block, Network};
    use adcnn_tensor::loss::mse;
    use adcnn_tensor::Tensor;
    use rand::{rngs::StdRng, SeedableRng};

    fn one_linear(rng: &mut StdRng) -> Network {
        Network::new(vec![Block::Seq(vec![Layer::linear(2, 1, rng)])])
    }

    #[test]
    fn converges_on_linear_regression() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut net = one_linear(&mut rng);
        // target function y = 2*x0 - 3*x1 + 0.5
        let xs = Tensor::randn([64, 2], 1.0, &mut rng);
        let mut ys = Tensor::zeros([64, 1]);
        for i in 0..64 {
            let y = 2.0 * xs.at(&[i, 0]) - 3.0 * xs.at(&[i, 1]) + 0.5;
            *ys.at_mut(&[i, 0]) = y;
        }
        let opt = Sgd::with_momentum(0.05, 0.9, 0.0);
        let mut final_loss = f64::MAX;
        for _ in 0..200 {
            let (pred, ctxs) = net.forward(&xs);
            let (loss, grad) = mse(&pred, &ys);
            net.backward(&ctxs, &grad);
            opt.step(&mut net);
            final_loss = loss;
        }
        assert!(final_loss < 1e-3, "final loss {final_loss}");
    }

    #[test]
    fn weight_decay_shrinks_weights() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut net = one_linear(&mut rng);
        let before: f32 = {
            let mut acc = 0.0;
            net.visit_params(&mut |p| acc += p.value.max_abs());
            acc
        };
        // No data gradient, only decay: step with zero grads.
        let opt = Sgd::with_momentum(0.1, 0.0, 0.5);
        for _ in 0..10 {
            net.zero_grad();
            opt.step(&mut net);
        }
        let after: f32 = {
            let mut acc = 0.0;
            net.visit_params(&mut |p| acc += p.value.max_abs());
            acc
        };
        assert!(after < before, "decay failed: {before} -> {after}");
    }

    #[test]
    fn step_zeroes_gradients() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut net = one_linear(&mut rng);
        let x = Tensor::randn([4, 2], 1.0, &mut rng);
        let (y, ctxs) = net.forward(&x);
        net.backward(&ctxs, &Tensor::full(y.shape().clone(), 1.0));
        Sgd::new(0.01).step(&mut net);
        net.visit_params(&mut |p| assert_eq!(p.grad().map(Tensor::max_abs), Some(0.0)));
    }

    /// Every value, as bits, in visiting order.
    fn value_bits(net: &mut Network) -> Vec<u32> {
        let mut bits = Vec::new();
        net.visit_params(&mut |p| bits.extend(p.value.as_slice().iter().map(|v| v.to_bits())));
        bits
    }

    /// Optimizer state created lazily trains bit for bit like state
    /// created up front, and a clone taken mid-training carries the
    /// momentum: it continues exactly as the original does.
    #[test]
    fn lazy_optimizer_state_trains_bit_for_bit() {
        use crate::small::shapes_cnn;
        use adcnn_tensor::loss::softmax_cross_entropy;
        let mut rng = StdRng::seed_from_u64(5);
        let mut lazy = shapes_cnn(6, &mut rng).net;
        let mut eager = lazy.clone();
        eager.visit_params(&mut |p| {
            p.grad_mut();
            p.vel_mut();
        });
        lazy.visit_params(&mut |p| assert!(p.grad().is_none(), "a fresh model has no gradient"));
        let x = Tensor::randn([4, 3, 32, 32], 1.0, &mut rng);
        let targets = [0, 3, 5, 1];
        let opt = Sgd::with_momentum(0.05, 0.9, 1e-4);
        let train_step = |net: &mut Network| {
            let (logits, ctxs) = net.forward(&x);
            net.backward(&ctxs, &softmax_cross_entropy(&logits, &targets).1);
            opt.step(net);
        };
        let mut copy = None;
        for step in 1..=3 {
            train_step(&mut lazy);
            train_step(&mut eager);
            assert_eq!(value_bits(&mut lazy), value_bits(&mut eager), "step {step}");
            if step == 1 {
                copy = Some(lazy.clone());
            } else if let Some(copy) = copy.as_mut() {
                train_step(copy);
                assert_eq!(value_bits(copy), value_bits(&mut lazy), "clone, step {step}");
            }
        }
    }

    #[test]
    fn momentum_accelerates_along_consistent_gradient() {
        // With a constant gradient, momentum accumulates: after k steps the
        // velocity approaches g/(1-mu), so displacement outpaces plain SGD.
        let mut rng = StdRng::seed_from_u64(4);
        let mut net_plain = one_linear(&mut rng);
        let mut rng2 = StdRng::seed_from_u64(4);
        let mut net_mom = one_linear(&mut rng2);

        let apply_const_grad = |net: &mut Network| {
            net.visit_params(&mut |p| {
                let ones = Tensor::full(p.value.dims(), 1.0);
                p.grad_mut().add_scaled(&ones, 1.0);
            });
        };
        let opt_plain = Sgd::new(0.01);
        let opt_mom = Sgd::with_momentum(0.01, 0.9, 0.0);
        for _ in 0..20 {
            apply_const_grad(&mut net_plain);
            opt_plain.step(&mut net_plain);
            apply_const_grad(&mut net_mom);
            opt_mom.step(&mut net_mom);
        }
        let mut w_plain = Vec::new();
        net_plain.visit_params(&mut |p| w_plain.extend_from_slice(p.value.as_slice()));
        let mut w_mom = Vec::new();
        net_mom.visit_params(&mut |p| w_mom.extend_from_slice(p.value.as_slice()));
        // momentum must have moved further in the -gradient direction
        for (a, b) in w_plain.iter().zip(&w_mom) {
            assert!(b < a, "momentum did not accelerate: {b} !< {a}");
        }
    }
}
