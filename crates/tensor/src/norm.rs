//! Batch normalization.
//!
//! §2.1 of the paper describes both forms we implement:
//! - training: normalize by batch statistics, then scale/shift by learnable
//!   `γ`, `β`, maintaining running statistics;
//! - inference: the whole layer folds to the affine `y = a·x + b` with
//!   `a = γ/σ` and `b = β − μγ/σ`, which is what Conv nodes execute.

use crate::tensor::Tensor;

/// Learnable parameters and running statistics of a BN layer over `C` channels.
#[derive(Clone, Debug)]
pub struct BatchNorm {
    /// Per-channel scale `γ`.
    pub gamma: Vec<f32>,
    /// Per-channel shift `β`.
    pub beta: Vec<f32>,
    /// Running mean `μ` (EMA over training batches).
    pub running_mean: Vec<f32>,
    /// Running variance `σ²`.
    pub running_var: Vec<f32>,
    /// EMA momentum for the running statistics.
    pub momentum: f32,
    /// Numerical-stability epsilon.
    pub eps: f32,
}

/// Saved forward state needed by [`BatchNorm::backward`].
pub struct BnCtx {
    /// Batch mean per channel.
    pub mean: Vec<f32>,
    /// Batch variance per channel.
    pub var: Vec<f32>,
    /// Normalized activations `x̂` (pre-γ/β).
    pub xhat: Tensor,
}

impl BatchNorm {
    /// Identity-initialized BN over `c` channels (`γ=1`, `β=0`).
    pub fn new(c: usize) -> Self {
        BatchNorm {
            gamma: vec![1.0; c],
            beta: vec![0.0; c],
            running_mean: vec![0.0; c],
            running_var: vec![1.0; c],
            momentum: 0.1,
            eps: 1e-5,
        }
    }

    /// Number of channels.
    pub fn channels(&self) -> usize {
        self.gamma.len()
    }

    /// Training-mode forward over `[N, C, H, W]`: normalizes by batch
    /// statistics and updates the running statistics.
    pub fn forward_train(&mut self, x: &Tensor) -> (Tensor, BnCtx) {
        let (n, c, h, w) = x.shape().nchw();
        assert_eq!(c, self.channels(), "channel mismatch");
        let count = (n * h * w) as f64;
        let mut mean = vec![0.0f32; c];
        let mut var = vec![0.0f32; c];
        let xs = x.as_slice();
        #[allow(clippy::needless_range_loop)]
        for ci in 0..c {
            let mut acc = 0.0f64;
            for ni in 0..n {
                let base = (ni * c + ci) * h * w;
                for &v in &xs[base..base + h * w] {
                    acc += v as f64;
                }
            }
            mean[ci] = (acc / count) as f32;
        }
        for ci in 0..c {
            let m = mean[ci] as f64;
            let mut acc = 0.0f64;
            for ni in 0..n {
                let base = (ni * c + ci) * h * w;
                for &v in &xs[base..base + h * w] {
                    let d = v as f64 - m;
                    acc += d * d;
                }
            }
            var[ci] = (acc / count) as f32;
        }
        for ci in 0..c {
            self.running_mean[ci] =
                (1.0 - self.momentum) * self.running_mean[ci] + self.momentum * mean[ci];
            self.running_var[ci] =
                (1.0 - self.momentum) * self.running_var[ci] + self.momentum * var[ci];
        }

        let mut xhat = Tensor::zeros(x.dims());
        let mut y = Tensor::zeros(x.dims());
        {
            let xh = xhat.as_mut_slice();
            let ys = y.as_mut_slice();
            for ni in 0..n {
                for ci in 0..c {
                    let inv_std = 1.0 / (var[ci] + self.eps).sqrt();
                    let base = (ni * c + ci) * h * w;
                    for i in base..base + h * w {
                        let xn = (xs[i] - mean[ci]) * inv_std;
                        xh[i] = xn;
                        ys[i] = self.gamma[ci] * xn + self.beta[ci];
                    }
                }
            }
        }
        (y, BnCtx { mean, var, xhat })
    }

    /// Inference-mode forward: the folded affine `y = a·x + b` from the paper.
    pub fn forward_infer(&self, x: &Tensor) -> Tensor {
        let mut y = crate::scratch::ActBuf::new();
        self.forward_infer_into(x.as_slice(), x.shape().nchw(), &mut y);
        y.to_tensor()
    }

    /// Allocation-free inference forward: [`BatchNorm::forward_infer`] on a
    /// flat `[n, c, h, w]` slice, reusing `out`'s storage. Each element is
    /// `a·x + b`, a multiply then an add, with `(a, b)` from
    /// [`BatchNorm::fold`].
    pub fn forward_infer_into(
        &self,
        x: &[f32],
        (n, c, h, w): (usize, usize, usize, usize),
        out: &mut crate::scratch::ActBuf,
    ) {
        assert_eq!(c, self.channels(), "channel mismatch");
        assert_eq!(x.len(), n * c * h * w, "input dims mismatch");
        out.reshape(&[n, c, h, w]);
        let ys = out.as_mut_slice();
        for ni in 0..n {
            for ci in 0..c {
                let (a, b) = self.fold(ci);
                let base = (ni * c + ci) * h * w;
                for i in base..base + h * w {
                    ys[i] = a * x[i] + b;
                }
            }
        }
    }

    /// Channel `ci`'s folded coefficients `(a, b)` with `a = γ/σ`,
    /// `b = β − μγ/σ` (the paper's §2.1 inference identity): the one place
    /// they are computed, for the BatchNorm pass and for a conv epilogue
    /// that folds it in (`conv2d_affine_into`).
    pub fn fold(&self, ci: usize) -> (f32, f32) {
        let inv_std = 1.0 / (self.running_var[ci] + self.eps).sqrt();
        let a = self.gamma[ci] * inv_std;
        (a, self.beta[ci] - self.running_mean[ci] * a)
    }

    /// Backward pass: returns `(dx, dgamma, dbeta)` given upstream `dy`.
    pub fn backward(&self, ctx: &BnCtx, dy: &Tensor) -> (Tensor, Vec<f32>, Vec<f32>) {
        let (n, c, h, w) = dy.shape().nchw();
        let m = (n * h * w) as f32;
        let dys = dy.as_slice();
        let xh = ctx.xhat.as_slice();

        let mut dgamma = vec![0.0f32; c];
        let mut dbeta = vec![0.0f32; c];
        for ni in 0..n {
            for ci in 0..c {
                let base = (ni * c + ci) * h * w;
                for i in base..base + h * w {
                    dgamma[ci] += dys[i] * xh[i];
                    dbeta[ci] += dys[i];
                }
            }
        }

        // dx = (γ/σ) * (dy − mean(dy) − x̂ * mean(dy·x̂))
        let mut dx = Tensor::zeros(dy.dims());
        let dxs = dx.as_mut_slice();
        for ci in 0..c {
            let inv_std = 1.0 / (ctx.var[ci] + self.eps).sqrt();
            let g = self.gamma[ci] * inv_std;
            let mean_dy = dbeta[ci] / m;
            let mean_dy_xhat = dgamma[ci] / m;
            for ni in 0..n {
                let base = (ni * c + ci) * h * w;
                for i in base..base + h * w {
                    dxs[i] = g * (dys[i] - mean_dy - xh[i] * mean_dy_xhat);
                }
            }
        }
        (dx, dgamma, dbeta)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn train_forward_normalizes() {
        let mut rng = StdRng::seed_from_u64(8);
        let x = Tensor::randn([4, 3, 5, 5], 3.0, &mut rng);
        let mut bn = BatchNorm::new(3);
        let (y, _) = bn.forward_train(&x);
        // Per channel, output should have ~zero mean and ~unit variance.
        let (n, c, h, w) = y.shape().nchw();
        for ci in 0..c {
            let mut acc = 0.0f64;
            let mut acc2 = 0.0f64;
            for ni in 0..n {
                let base = (ni * c + ci) * h * w;
                for &v in &y.as_slice()[base..base + h * w] {
                    acc += v as f64;
                    acc2 += (v as f64) * (v as f64);
                }
            }
            let cnt = (n * h * w) as f64;
            let mean = acc / cnt;
            let var = acc2 / cnt - mean * mean;
            assert!(mean.abs() < 1e-4, "mean {mean}");
            assert!((var - 1.0).abs() < 1e-2, "var {var}");
        }
    }

    #[test]
    fn folded_inference_matches_manual_affine() {
        let mut bn = BatchNorm::new(2);
        bn.running_mean = vec![1.0, -2.0];
        bn.running_var = vec![4.0, 0.25];
        bn.gamma = vec![2.0, 0.5];
        bn.beta = vec![0.1, -0.1];
        bn.eps = 0.0;
        let x = Tensor::from_vec([1, 2, 1, 2], vec![3.0, 5.0, 0.0, -2.0]);
        let y = bn.forward_infer(&x);
        // ch0: a = 2/2 = 1, b = 0.1 - 1*1 = -0.9  -> [2.1, 4.1]
        // ch1: a = 0.5/0.5 = 1, b = -0.1 + 2*1 = 1.9 -> [1.9, -0.1]
        assert!(crate::approx_eq(y.at(&[0, 0, 0, 0]), 2.1, 1e-5));
        assert!(crate::approx_eq(y.at(&[0, 0, 0, 1]), 4.1, 1e-5));
        assert!(crate::approx_eq(y.at(&[0, 1, 0, 0]), 1.9, 1e-5));
        assert!(crate::approx_eq(y.at(&[0, 1, 0, 1]), -0.1, 1e-5));
    }

    #[test]
    fn forward_infer_into_matches_forward_infer() {
        let mut rng = StdRng::seed_from_u64(12);
        let mut bn = BatchNorm::new(3);
        bn.running_mean = vec![0.5, -1.0, 2.0];
        bn.running_var = vec![1.5, 0.3, 2.2];
        bn.gamma = vec![1.1, 0.9, -0.4];
        bn.beta = vec![0.0, 0.2, -0.3];
        let x = Tensor::randn([2, 3, 4, 4], 1.0, &mut rng);
        let want = bn.forward_infer(&x);
        let mut out = crate::scratch::ActBuf::new();
        bn.forward_infer_into(x.as_slice(), (2, 3, 4, 4), &mut out);
        assert!(out.to_tensor().approx_eq(&want, 1e-6));
    }

    #[test]
    fn running_stats_converge_to_batch_stats() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut bn = BatchNorm::new(1);
        // Feed the same distribution many times; running stats approach truth.
        for _ in 0..200 {
            let x = Tensor::randn([8, 1, 4, 4], 2.0, &mut rng);
            let shifted = x.map(|v| v + 5.0);
            bn.forward_train(&shifted);
        }
        assert!((bn.running_mean[0] - 5.0).abs() < 0.2, "{}", bn.running_mean[0]);
        assert!((bn.running_var[0] - 4.0).abs() < 0.6, "{}", bn.running_var[0]);
    }

    #[test]
    fn backward_matches_finite_difference() {
        let mut rng = StdRng::seed_from_u64(10);
        let x = Tensor::randn([2, 2, 3, 3], 1.0, &mut rng);
        let mut bn = BatchNorm::new(2);
        bn.gamma = vec![1.3, 0.7];
        bn.beta = vec![0.2, -0.4];

        // loss = sum(y * mask) with a fixed random mask, to get nontrivial dy.
        let mask = Tensor::randn(x.dims(), 1.0, &mut rng);
        let loss = |bn: &BatchNorm, x: &Tensor| -> f64 {
            let mut b2 = bn.clone();
            let (y, _) = b2.forward_train(x);
            y.zip_map(&mask, |a, b| a * b).sum()
        };

        let (y, ctx) = bn.clone().forward_train(&x);
        let _ = y;
        let dy = mask.clone();
        let (dx, dgamma, dbeta) = bn.backward(&ctx, &dy);

        let eps = 1e-2f32;
        for &flat in &[0usize, 10, x.numel() - 1] {
            let mut xp = x.clone();
            xp.as_mut_slice()[flat] += eps;
            let mut xm = x.clone();
            xm.as_mut_slice()[flat] -= eps;
            let num = ((loss(&bn, &xp) - loss(&bn, &xm)) / (2.0 * eps as f64)) as f32;
            assert!(
                (num - dx.as_slice()[flat]).abs() < 3e-2,
                "dx[{flat}]: {num} vs {}",
                dx.as_slice()[flat]
            );
        }
        for ci in 0..2 {
            let mut bp = bn.clone();
            bp.gamma[ci] += eps;
            let mut bm = bn.clone();
            bm.gamma[ci] -= eps;
            let num = ((loss(&bp, &x) - loss(&bm, &x)) / (2.0 * eps as f64)) as f32;
            assert!((num - dgamma[ci]).abs() < 3e-2, "dgamma[{ci}]");
            let mut bp = bn.clone();
            bp.beta[ci] += eps;
            let mut bm = bn.clone();
            bm.beta[ci] -= eps;
            let num = ((loss(&bp, &x) - loss(&bm, &x)) / (2.0 * eps as f64)) as f32;
            assert!((num - dbeta[ci]).abs() < 3e-2, "dbeta[{ci}]");
        }
    }
}
