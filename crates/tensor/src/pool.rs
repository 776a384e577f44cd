//! Max and average pooling with backward passes.
//!
//! The paper (§3.2) keeps pooling receptive fields entirely inside one FDSP
//! tile, so pooling never needs cross-tile data. That constraint lives in
//! `adcnn-core`; here we just implement the numerics.

use crate::scratch::ActBuf;
use crate::tensor::Tensor;

/// Pooling hyper-parameters (square window).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Pool2dParams {
    /// Window edge length.
    pub kernel: usize,
    /// Stride (the paper's models all use `stride == kernel`, i.e.
    /// non-overlapping receptive fields).
    pub stride: usize,
}

impl Pool2dParams {
    /// Non-overlapping `k×k` pooling, the form used by every model in the paper.
    pub fn non_overlapping(kernel: usize) -> Self {
        Pool2dParams { kernel, stride: kernel }
    }

    /// Output spatial extent for input extent `in_dim` (floor mode, no padding).
    #[inline]
    pub fn out_dim(&self, in_dim: usize) -> usize {
        if in_dim < self.kernel {
            0
        } else {
            (in_dim - self.kernel) / self.stride + 1
        }
    }
}

/// Result of a max-pool forward: output plus the argmax indices needed by the
/// backward pass.
pub struct MaxPoolOut {
    /// Pooled `[N, C, OH, OW]` tensor.
    pub output: Tensor,
    /// For each output element, the flat index (within the input tensor) of
    /// the input element that produced it.
    pub argmax: Vec<usize>,
}

/// Max pooling over `[N, C, H, W]`.
pub fn maxpool2d(input: &Tensor, p: Pool2dParams) -> MaxPoolOut {
    let (n, c, h, w) = input.shape().nchw();
    let oh = p.out_dim(h);
    let ow = p.out_dim(w);
    let mut output = Tensor::zeros([n, c, oh, ow]);
    let mut argmax = vec![0usize; n * c * oh * ow];
    let x = input.as_slice();
    let out = output.as_mut_slice();
    let mut oidx = 0usize;
    for ni in 0..n {
        for ci in 0..c {
            let base = (ni * c + ci) * h * w;
            for oi in 0..oh {
                for oj in 0..ow {
                    let r0 = oi * p.stride;
                    let c0 = oj * p.stride;
                    let mut best = f32::NEG_INFINITY;
                    let mut best_idx = base + r0 * w + c0;
                    for ki in 0..p.kernel {
                        for kj in 0..p.kernel {
                            let idx = base + (r0 + ki) * w + (c0 + kj);
                            let v = x[idx];
                            if v > best {
                                best = v;
                                best_idx = idx;
                            }
                        }
                    }
                    out[oidx] = best;
                    argmax[oidx] = best_idx;
                    oidx += 1;
                }
            }
        }
    }
    MaxPoolOut { output, argmax }
}

/// The one forward pooling loop: each output row of every `h×w` plane of `x`
/// is the fold of its window's input rows, window elements taken in
/// `(ki, kj)` order from `init` — the order of the per-window definition, so
/// a NaN, a signed zero or a rounding step lands where it did. A row pass,
/// not a window pass: the inner loops run along contiguous rows.
fn pool_rows(
    x: &[f32],
    (h, w): (usize, usize),
    p: Pool2dParams,
    o: &mut [f32],
    init: f32,
    fold: impl Fn(f32, f32) -> f32,
) {
    let (k, s) = (p.kernel, p.stride);
    let (oh, ow) = (p.out_dim(h), p.out_dim(w));
    if oh == 0 || ow == 0 {
        return;
    }
    for (plane, oplane) in x.chunks_exact(h * w).zip(o.chunks_exact_mut(oh * ow)) {
        for (oi, orow) in oplane.chunks_exact_mut(ow).enumerate() {
            let rows = &plane[oi * s * w..(oi * s + k) * w];
            if k == 2 && s == 2 {
                // Every served model's window: both rows in one pass over
                // adjacent pairs, which LLVM turns into shuffles + `maxps`
                // (4-9x the strided pass below on the served shapes).
                let (r0, r1) = rows.split_at(w);
                for ((b, a), c) in orow.iter_mut().zip(r0.chunks_exact(2)).zip(r1.chunks_exact(2)) {
                    *b = fold(fold(fold(fold(init, a[0]), a[1]), c[0]), c[1]);
                }
                continue;
            }
            orow.fill(init);
            for row in rows.chunks_exact(w) {
                for kj in 0..k {
                    for (b, win) in orow.iter_mut().zip(row[kj..].chunks(s)) {
                        *b = fold(*b, win[0]);
                    }
                }
            }
        }
    }
}

/// Allocation-free max pooling for the inference hot path: reads a flat
/// `[n, c, h, w]` slice, writes `out` (storage reused), and skips the argmax
/// bookkeeping that only the backward pass needs.
pub fn maxpool2d_into(
    x: &[f32],
    (n, c, h, w): (usize, usize, usize, usize),
    p: Pool2dParams,
    out: &mut ActBuf,
) {
    assert_eq!(x.len(), n * c * h * w, "input dims mismatch");
    out.reshape(&[n, c, p.out_dim(h), p.out_dim(w)]);
    // The strict-`>` select is exactly `maxps`: a NaN never wins.
    let select = |best: f32, v: f32| if v > best { v } else { best };
    pool_rows(x, (h, w), p, out.as_mut_slice(), f32::NEG_INFINITY, select);
}

/// Backward of max pooling: routes each output gradient to its argmax input.
pub fn maxpool2d_backward(ctx: &MaxPoolOut, dout: &Tensor, input_shape: &[usize]) -> Tensor {
    assert_eq!(dout.numel(), ctx.argmax.len(), "dout/argmax length mismatch");
    let mut dinput = Tensor::zeros(input_shape);
    let dx = dinput.as_mut_slice();
    for (g, &idx) in dout.as_slice().iter().zip(&ctx.argmax) {
        dx[idx] += g;
    }
    dinput
}

/// Average pooling over `[N, C, H, W]`.
pub fn avgpool2d(input: &Tensor, p: Pool2dParams) -> Tensor {
    let (n, c, h, w) = input.shape().nchw();
    let mut output = Tensor::zeros([n, c, p.out_dim(h), p.out_dim(w)]);
    avgpool_rows(input.as_slice(), (h, w), p, output.as_mut_slice());
    output
}

/// Window sums by [`pool_rows`], then one multiply by `1 / k²` each.
fn avgpool_rows(x: &[f32], hw: (usize, usize), p: Pool2dParams, o: &mut [f32]) {
    pool_rows(x, hw, p, o, 0.0, |acc, v| acc + v);
    let inv = 1.0 / (p.kernel * p.kernel) as f32;
    for v in o {
        *v *= inv;
    }
}

/// Allocation-free average pooling (flat-slice input, reused output buffer).
pub fn avgpool2d_into(
    x: &[f32],
    (n, c, h, w): (usize, usize, usize, usize),
    p: Pool2dParams,
    out: &mut ActBuf,
) {
    assert_eq!(x.len(), n * c * h * w, "input dims mismatch");
    out.reshape(&[n, c, p.out_dim(h), p.out_dim(w)]);
    avgpool_rows(x, (h, w), p, out.as_mut_slice());
}

/// Backward of average pooling (only defined for non-overlapping windows,
/// which is all the paper's models use).
pub fn avgpool2d_backward(dout: &Tensor, p: Pool2dParams, input_shape: &[usize]) -> Tensor {
    assert_eq!(p.stride, p.kernel, "avgpool backward assumes non-overlapping windows");
    let mut dinput = Tensor::zeros(input_shape);
    let (n, c, h, w) = dinput.shape().nchw();
    let oh = p.out_dim(h);
    let ow = p.out_dim(w);
    let inv = 1.0 / (p.kernel * p.kernel) as f32;
    let dy = dout.as_slice();
    let dx = dinput.as_mut_slice();
    let mut oidx = 0usize;
    for ni in 0..n {
        for ci in 0..c {
            let base = (ni * c + ci) * h * w;
            for oi in 0..oh {
                for oj in 0..ow {
                    let g = dy[oidx] * inv;
                    oidx += 1;
                    for ki in 0..p.kernel {
                        for kj in 0..p.kernel {
                            dx[base + (oi * p.stride + ki) * w + (oj * p.stride + kj)] += g;
                        }
                    }
                }
            }
        }
    }
    dinput
}

/// Global average pooling: `[N, C, H, W] -> [N, C]`.
pub fn global_avgpool(input: &Tensor) -> Tensor {
    let (n, c, h, w) = input.shape().nchw();
    let inv = 1.0 / (h * w) as f32;
    let mut out = Tensor::zeros([n, c]);
    for ni in 0..n {
        for ci in 0..c {
            let base = (ni * c + ci) * h * w;
            let s: f32 = input.as_slice()[base..base + h * w].iter().sum();
            *out.at_mut(&[ni, ci]) = s * inv;
        }
    }
    out
}

/// Allocation-free global average pooling: `[n, c, h, w] -> [n, c]`.
pub fn global_avgpool_into(
    x: &[f32],
    (n, c, h, w): (usize, usize, usize, usize),
    out: &mut ActBuf,
) {
    assert_eq!(x.len(), n * c * h * w, "input dims mismatch");
    let inv = 1.0 / (h * w) as f32;
    out.reshape(&[n, c]);
    let o = out.as_mut_slice();
    for (plane, dst) in o.iter_mut().enumerate() {
        let base = plane * h * w;
        let s: f32 = x[base..base + h * w].iter().sum();
        *dst = s * inv;
    }
}

/// Backward of global average pooling.
pub fn global_avgpool_backward(dout: &Tensor, input_shape: &[usize]) -> Tensor {
    let mut dinput = Tensor::zeros(input_shape);
    let (n, c, h, w) = dinput.shape().nchw();
    let inv = 1.0 / (h * w) as f32;
    for ni in 0..n {
        for ci in 0..c {
            let g = dout.at(&[ni, ci]) * inv;
            let base = (ni * c + ci) * h * w;
            for v in &mut dinput.as_mut_slice()[base..base + h * w] {
                *v += g;
            }
        }
    }
    dinput
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maxpool_2x2_basic() {
        let x = Tensor::from_vec(
            [1, 1, 4, 4],
            vec![
                1.0, 2.0, 5.0, 6.0, //
                3.0, 4.0, 7.0, 8.0, //
                9.0, 10.0, 13.0, 14.0, //
                11.0, 12.0, 15.0, 16.0,
            ],
        );
        let out = maxpool2d(&x, Pool2dParams::non_overlapping(2));
        assert_eq!(out.output.as_slice(), &[4.0, 8.0, 12.0, 16.0]);
    }

    #[test]
    fn maxpool_backward_routes_to_argmax() {
        let x = Tensor::from_vec([1, 1, 2, 2], vec![1.0, 9.0, 3.0, 4.0]);
        let ctx = maxpool2d(&x, Pool2dParams::non_overlapping(2));
        let dout = Tensor::full([1, 1, 1, 1], 5.0);
        let dx = maxpool2d_backward(&ctx, &dout, &[1, 1, 2, 2]);
        assert_eq!(dx.as_slice(), &[0.0, 5.0, 0.0, 0.0]);
    }

    #[test]
    fn avgpool_matches_mean() {
        let x = Tensor::from_fn([1, 1, 4, 4], |i| i as f32);
        let out = avgpool2d(&x, Pool2dParams::non_overlapping(2));
        // window [0,1,4,5] -> 2.5
        assert_eq!(out.at(&[0, 0, 0, 0]), 2.5);
    }

    #[test]
    fn avgpool_backward_distributes_evenly() {
        let dout = Tensor::full([1, 1, 1, 1], 4.0);
        let dx = avgpool2d_backward(&dout, Pool2dParams::non_overlapping(2), &[1, 1, 2, 2]);
        assert_eq!(dx.as_slice(), &[1.0; 4]);
    }

    #[test]
    fn odd_input_truncates() {
        let x = Tensor::zeros([1, 1, 5, 5]);
        let out = maxpool2d(&x, Pool2dParams::non_overlapping(2));
        assert_eq!(out.output.dims(), &[1, 1, 2, 2]);
    }

    #[test]
    fn global_avgpool_roundtrip() {
        let x = Tensor::from_fn([2, 3, 2, 2], |i| i as f32);
        let y = global_avgpool(&x);
        assert_eq!(y.dims(), &[2, 3]);
        // channel 0 of image 0: elems 0..4 -> mean 1.5
        assert_eq!(y.at(&[0, 0]), 1.5);
        let dy = Tensor::full([2, 3], 4.0);
        let dx = global_avgpool_backward(&dy, &[2, 3, 2, 2]);
        assert_eq!(dx.at(&[0, 0, 0, 0]), 1.0);
    }

    #[test]
    fn into_variants_match_allocating_forms() {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(6);
        let x = Tensor::randn([2, 3, 5, 4], 1.0, &mut rng);
        let p = Pool2dParams::non_overlapping(2);
        let mut buf = ActBuf::new();

        maxpool2d_into(x.as_slice(), (2, 3, 5, 4), p, &mut buf);
        assert!(buf.to_tensor().approx_eq(&maxpool2d(&x, p).output, 0.0));

        avgpool2d_into(x.as_slice(), (2, 3, 5, 4), p, &mut buf);
        assert!(buf.to_tensor().approx_eq(&avgpool2d(&x, p), 0.0));

        global_avgpool_into(x.as_slice(), (2, 3, 5, 4), &mut buf);
        assert!(buf.to_tensor().approx_eq(&global_avgpool(&x), 0.0));
    }

    #[test]
    fn maxpool_grad_finite_difference() {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(5);
        let x = Tensor::randn([1, 2, 4, 4], 1.0, &mut rng);
        let p = Pool2dParams::non_overlapping(2);
        let ctx = maxpool2d(&x, p);
        let dout = Tensor::full(ctx.output.shape().clone(), 1.0);
        let dx = maxpool2d_backward(&ctx, &dout, x.dims());
        let eps = 1e-3f32;
        for &flat in &[0usize, 7, 15, 31] {
            let mut xp = x.clone();
            xp.as_mut_slice()[flat] += eps;
            let mut xm = x.clone();
            xm.as_mut_slice()[flat] -= eps;
            let lp = maxpool2d(&xp, p).output.sum();
            let lm = maxpool2d(&xm, p).output.sum();
            let num = ((lp - lm) / (2.0 * eps as f64)) as f32;
            assert!((num - dx.as_slice()[flat]).abs() < 1e-2);
        }
    }
}
