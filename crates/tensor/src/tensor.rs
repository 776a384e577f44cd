//! The dense `f32` tensor type.

use crate::shape::Shape;
use rand::Rng;
use std::fmt;

/// A dense, row-major, heap-allocated tensor of `f32`.
///
/// This is deliberately a simple owning container: views and broadcasting are
/// not supported; ops that need sub-regions (tile extraction, padding) copy.
/// For the feature-map sizes ADCNN works with this is cheap relative to the
/// convolution arithmetic, and it keeps ownership trivially safe across the
/// thread boundaries of the distributed runtime.
#[derive(Clone, PartialEq)]
pub struct Tensor {
    shape: Shape,
    data: Vec<f32>,
}

impl Tensor {
    /// Build a tensor from a shape and matching data buffer.
    ///
    /// Panics if `data.len() != shape.numel()`.
    pub fn from_vec(shape: impl Into<Shape>, data: Vec<f32>) -> Self {
        let shape = shape.into();
        assert_eq!(
            data.len(),
            shape.numel(),
            "data length {} does not match shape {:?}",
            data.len(),
            shape
        );
        Tensor { shape, data }
    }

    /// All-zeros tensor.
    pub fn zeros(shape: impl Into<Shape>) -> Self {
        let shape = shape.into();
        let n = shape.numel();
        Tensor { shape, data: vec![0.0; n] }
    }

    /// Tensor filled with `value`.
    pub fn full(shape: impl Into<Shape>, value: f32) -> Self {
        let shape = shape.into();
        let n = shape.numel();
        Tensor { shape, data: vec![value; n] }
    }

    /// Tensor whose elements are produced by `f(flat_index)`.
    pub fn from_fn(shape: impl Into<Shape>, mut f: impl FnMut(usize) -> f32) -> Self {
        let shape = shape.into();
        let n = shape.numel();
        let data = (0..n).map(&mut f).collect();
        Tensor { shape, data }
    }

    /// Tensor with i.i.d. samples from `N(0, std^2)` (Box–Muller, driven by
    /// the caller's RNG so experiments stay reproducible).
    pub fn randn(shape: impl Into<Shape>, std: f32, rng: &mut impl Rng) -> Self {
        let shape = shape.into();
        let n = shape.numel();
        let mut data = Vec::with_capacity(n);
        while data.len() < n {
            // Box–Muller transform: two uniforms -> two independent normals.
            let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
            let u2: f32 = rng.gen_range(0.0..1.0);
            let r = (-2.0 * u1.ln()).sqrt();
            let theta = 2.0 * std::f32::consts::PI * u2;
            data.push(r * theta.cos() * std);
            if data.len() < n {
                data.push(r * theta.sin() * std);
            }
        }
        Tensor { shape, data }
    }

    /// Tensor with i.i.d. uniform samples from `[lo, hi)`.
    pub fn rand_uniform(shape: impl Into<Shape>, lo: f32, hi: f32, rng: &mut impl Rng) -> Self {
        let shape = shape.into();
        let n = shape.numel();
        let data = (0..n).map(|_| rng.gen_range(lo..hi)).collect();
        Tensor { shape, data }
    }

    /// The tensor's shape.
    #[inline]
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Extents as a slice.
    #[inline]
    pub fn dims(&self) -> &[usize] {
        self.shape.dims()
    }

    /// Total element count.
    #[inline]
    pub fn numel(&self) -> usize {
        self.data.len()
    }

    /// Read-only view of the flat data.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the flat data.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consume the tensor, returning the flat buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Element at a multi-index.
    #[inline]
    pub fn at(&self, idx: &[usize]) -> f32 {
        self.data[self.shape.offset(idx)]
    }

    /// Mutable element at a multi-index.
    #[inline]
    pub fn at_mut(&mut self, idx: &[usize]) -> &mut f32 {
        let off = self.shape.offset(idx);
        &mut self.data[off]
    }

    /// Reinterpret with a new shape of identical element count (no copy).
    pub fn reshape(mut self, shape: impl Into<Shape>) -> Self {
        let shape = shape.into();
        assert_eq!(
            shape.numel(),
            self.data.len(),
            "reshape to {:?} changes element count from {}",
            shape,
            self.data.len()
        );
        self.shape = shape;
        self
    }

    /// Elementwise map into a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor { shape: self.shape.clone(), data: self.data.iter().map(|&x| f(x)).collect() }
    }

    /// Elementwise map in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for x in &mut self.data {
            *x = f(*x);
        }
    }

    /// Elementwise combine with another tensor of identical shape.
    pub fn zip_map(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
        assert_eq!(self.shape, other.shape, "zip_map shape mismatch");
        Tensor {
            shape: self.shape.clone(),
            data: self.data.iter().zip(&other.data).map(|(&a, &b)| f(a, b)).collect(),
        }
    }

    /// `self += alpha * other` (same shape).
    pub fn add_scaled(&mut self, other: &Tensor, alpha: f32) {
        assert_eq!(self.shape, other.shape, "add_scaled shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += alpha * b;
        }
    }

    /// Elementwise sum into a new tensor.
    pub fn add(&self, other: &Tensor) -> Tensor {
        self.zip_map(other, |a, b| a + b)
    }

    /// Multiply every element by `alpha` in place.
    pub fn scale(&mut self, alpha: f32) {
        for x in &mut self.data {
            *x *= alpha;
        }
    }

    /// Set every element to zero, keeping the allocation.
    pub fn fill_zero(&mut self) {
        self.data.fill(0.0);
    }

    /// Sum of all elements (f64 accumulator for stability).
    pub fn sum(&self) -> f64 {
        self.data.iter().map(|&x| x as f64).sum()
    }

    /// Maximum absolute element, or 0 for empty tensors.
    pub fn max_abs(&self) -> f32 {
        self.data.iter().fold(0.0f32, |m, &x| m.max(x.abs()))
    }

    /// Fraction of elements equal to exactly zero.
    pub fn sparsity(&self) -> f64 {
        if self.data.is_empty() {
            return 0.0;
        }
        let zeros = self.data.iter().filter(|&&x| x == 0.0).count();
        zeros as f64 / self.data.len() as f64
    }

    /// True if every pair of elements differs by at most `tol`
    /// (absolute or relative, whichever is looser).
    pub fn approx_eq(&self, other: &Tensor, tol: f32) -> bool {
        self.shape == other.shape
            && self.data.iter().zip(&other.data).all(|(&a, &b)| crate::approx_eq(a, b, tol))
    }

    /// Extract a spatial crop `[rows, cols]` from a `[N,C,H,W]` tensor,
    /// zero-filling any part of the window that falls outside the input.
    ///
    /// This is the primitive underneath FDSP tile extraction: the window is
    /// given by its top-left corner `(r0, c0)` (may be negative) and size
    /// `(rows, cols)`.
    pub fn crop_spatial(&self, r0: isize, c0: isize, rows: usize, cols: usize) -> Tensor {
        let (n, c, h, w) = self.shape.nchw();
        let mut out = Tensor::zeros([n, c, rows, cols]);
        // Clip the window against the map once: `rs`/`cs` are the source
        // row/column ranges that exist, `(dr, dc)` where they land.
        let (rs, dr) = clip_range(r0, rows, h);
        let (cs, dc) = clip_range(c0, cols, w);
        if rs.is_empty() || cs.is_empty() {
            return out;
        }
        let planes = self.data.chunks_exact(h * w).zip(out.data.chunks_exact_mut(rows * cols));
        for (src, dst) in planes {
            for (i, sr) in rs.clone().enumerate() {
                let d = (dr + i) * cols + dc;
                dst[d..d + cs.len()].copy_from_slice(&src[sr * w + cs.start..sr * w + cs.end]);
            }
        }
        out
    }

    /// Paste `patch` (a `[N,C,h,w]` tensor) into this `[N,C,H,W]` tensor with
    /// its top-left spatial corner at `(r0, c0)`. Out-of-range parts of the
    /// patch are dropped.
    pub fn paste_spatial(&mut self, patch: &Tensor, r0: usize, c0: usize) {
        let (n, c, h, w) = self.shape.nchw();
        let (pn, pc, ph, pw) = patch.shape.nchw();
        assert_eq!((n, c), (pn, pc), "paste_spatial N/C mismatch");
        let (rows, cols) = (ph.min(h.saturating_sub(r0)), pw.min(w.saturating_sub(c0)));
        if rows == 0 || cols == 0 {
            return;
        }
        let planes = self.data.chunks_exact_mut(h * w).zip(patch.data.chunks_exact(ph * pw));
        for (dst, src) in planes {
            for ri in 0..rows {
                let d = (r0 + ri) * w + c0;
                dst[d..d + cols].copy_from_slice(&src[ri * pw..ri * pw + cols]);
            }
        }
    }
}

/// The part of the window `[start, start + len)` that lies inside
/// `[0, extent)`, and its offset from the window's start.
fn clip_range(start: isize, len: usize, extent: usize) -> (std::ops::Range<usize>, usize) {
    let lo = start.clamp(0, extent as isize);
    let hi = start.saturating_add_unsigned(len).clamp(lo, extent as isize);
    (lo as usize..hi as usize, (lo - start) as usize)
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor({:?}, {} elems)", self.shape, self.data.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn from_vec_and_at() {
        let t = Tensor::from_vec([2, 3], vec![0.0, 1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(t.at(&[0, 2]), 2.0);
        assert_eq!(t.at(&[1, 0]), 3.0);
    }

    #[test]
    #[should_panic]
    fn from_vec_len_mismatch_panics() {
        Tensor::from_vec([2, 2], vec![1.0; 5]);
    }

    #[test]
    fn randn_moments() {
        let mut rng = StdRng::seed_from_u64(7);
        let t = Tensor::randn([100, 100], 2.0, &mut rng);
        let mean = t.sum() / t.numel() as f64;
        let var =
            t.as_slice().iter().map(|&x| (x as f64 - mean).powi(2)).sum::<f64>() / t.numel() as f64;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 4.0).abs() < 0.15, "var {var}");
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_fn([4, 3], |i| i as f32).reshape([2, 6]);
        assert_eq!(t.at(&[1, 0]), 6.0);
    }

    #[test]
    fn map_and_zip_map() {
        let a = Tensor::from_vec([3], vec![1.0, -2.0, 3.0]);
        let b = a.map(|x| x * x);
        assert_eq!(b.as_slice(), &[1.0, 4.0, 9.0]);
        let c = a.zip_map(&b, |x, y| x + y);
        assert_eq!(c.as_slice(), &[2.0, 2.0, 12.0]);
    }

    #[test]
    fn add_scaled_accumulates() {
        let mut a = Tensor::zeros([4]);
        let g = Tensor::full([4], 2.0);
        a.add_scaled(&g, -0.5);
        assert_eq!(a.as_slice(), &[-1.0; 4]);
    }

    #[test]
    fn sparsity_counts_exact_zeros() {
        let t = Tensor::from_vec([4], vec![0.0, 1.0, 0.0, -3.0]);
        assert_eq!(t.sparsity(), 0.5);
    }

    #[test]
    fn crop_inside() {
        // 1x1x4x4 ramp image.
        let t = Tensor::from_fn([1, 1, 4, 4], |i| i as f32);
        let c = t.crop_spatial(1, 1, 2, 2);
        assert_eq!(c.dims(), &[1, 1, 2, 2]);
        assert_eq!(c.as_slice(), &[5.0, 6.0, 9.0, 10.0]);
    }

    #[test]
    fn crop_out_of_range_zero_fills() {
        let t = Tensor::from_fn([1, 1, 2, 2], |i| (i + 1) as f32);
        let c = t.crop_spatial(-1, -1, 3, 3);
        // Top row and left column must be zero-padded.
        assert_eq!(c.at(&[0, 0, 0, 0]), 0.0);
        assert_eq!(c.at(&[0, 0, 1, 1]), 1.0);
        assert_eq!(c.at(&[0, 0, 2, 2]), 4.0);
    }

    #[test]
    fn paste_roundtrips_crop() {
        let t = Tensor::from_fn([1, 2, 4, 4], |i| i as f32);
        let tile = t.crop_spatial(2, 0, 2, 2);
        let mut out = Tensor::zeros([1, 2, 4, 4]);
        out.paste_spatial(&tile, 2, 0);
        for ci in 0..2 {
            for r in 2..4 {
                for c in 0..2 {
                    assert_eq!(out.at(&[0, ci, r, c]), t.at(&[0, ci, r, c]));
                }
            }
        }
    }

    #[test]
    fn approx_eq_tolerates_small_error() {
        let a = Tensor::full([3], 1.0);
        let mut b = a.clone();
        b.as_mut_slice()[1] = 1.0 + 1e-6;
        assert!(a.approx_eq(&b, 1e-5));
        b.as_mut_slice()[1] = 1.1;
        assert!(!a.approx_eq(&b, 1e-5));
    }
}
