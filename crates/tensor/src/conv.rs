//! 2-D convolution as an im2col GEMM, with a full backward pass.
//!
//! FDSP (§3.2 of the paper) is *built on* the semantics of zero padding: a
//! tile convolved with `pad = k/2` produces exactly the output the full image
//! would, except at tile borders where the halo has been replaced by zeros.
//! Getting the padding arithmetic right here is therefore load-bearing for
//! the whole reproduction; the tests include an explicit naive reference.
//!
//! The forward path never materialises the im2col matrix. Row `k` of it,
//! over `NR` adjacent outputs of one output row, is `NR` contiguous floats
//! of the zero-padded image at stride 1, so there the register tile reads
//! B where it lies (`base + off[k]`); otherwise the GEMM core asks for one
//! `KC×NR` panel at a time and `conv2d_image` gathers the patches straight
//! into the packed panel layout (one pass, image → L1). Both feed the tile
//! the same floats, so they return the same bits. The buffers — the
//! zero-padded image, the GEMM pack arena — come from a
//! [`Scratch`] (a per-thread one for the plain [`conv2d`] API, the caller's
//! own for [`conv2d_into`]), so steady-state inference re-runs the same
//! shapes with zero heap allocation. The backward pass keeps the explicit
//! `im2col` matrix; its two products (`gemm_bt`, `gemm_at`) run on the same
//! GEMM nest as the forward one.

use crate::gemm::{
    gemm_at, gemm_bt, gemm_core, tier, BRows, BSource, Epilogue, FusedAct, Panel, Tier, KC, NR,
};
use crate::scratch::{with_arena, ActBuf, Scratch};
use crate::tensor::Tensor;
use std::cell::RefCell;

/// Hyper-parameters of a conv layer application.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Conv2dParams {
    /// Filter height/width (square filters, as in all the paper's models).
    pub kernel: usize,
    /// Stride in both spatial dimensions.
    pub stride: usize,
    /// Symmetric zero padding in both spatial dimensions.
    pub pad: usize,
}

impl Conv2dParams {
    /// "Same" convolution for odd kernels at stride 1.
    pub fn same(kernel: usize) -> Self {
        assert!(kernel % 2 == 1, "same-padding requires odd kernel");
        Conv2dParams { kernel, stride: 1, pad: kernel / 2 }
    }

    /// Output spatial extent for an input extent `in_dim`.
    #[inline]
    pub fn out_dim(&self, in_dim: usize) -> usize {
        let padded = in_dim + 2 * self.pad;
        if padded < self.kernel {
            0
        } else {
            (padded - self.kernel) / self.stride + 1
        }
    }
}

/// Half-open range of output coordinates whose input sample
/// `o·stride + k_off - pad` lands inside `[0, extent)`. Everything outside
/// the range reads padding (zeros), so callers can bulk-fill instead of
/// branching per element.
#[inline]
fn valid_out_range(k_off: usize, extent: usize, out: usize, p: Conv2dParams) -> (usize, usize) {
    let shift = k_off as isize - p.pad as isize;
    let lo = if shift >= 0 { 0 } else { ((-shift) as usize).div_ceil(p.stride).min(out) };
    let max_s = extent as isize - 1 - shift;
    let hi = if max_s < 0 { lo } else { out.min((max_s as usize) / p.stride + 1).max(lo) };
    (lo, hi)
}

/// Unroll input patches into the im2col matrix `[IC*KH*KW, OH*OW]` for one
/// image `[C, H, W]` given as a flat slice.
///
/// The valid output-column span is hoisted out of the row loop per
/// `(ki, kj)`: the interior is one `copy_from_slice` at stride 1 (a strided
/// gather otherwise) and the padding margins are bulk `fill(0.0)` — no
/// per-element bounds branch.
fn im2col(input: &[f32], c: usize, h: usize, w: usize, p: Conv2dParams, col: &mut [f32]) {
    let oh = p.out_dim(h);
    let ow = p.out_dim(w);
    let k = p.kernel;
    debug_assert_eq!(col.len(), c * k * k * oh * ow);
    // col[(ci*k*k + ki*k + kj), (oi*ow + oj)] = x[ci, oi*s + ki - pad, oj*s + kj - pad]
    let mut row = 0usize;
    for ci in 0..c {
        let plane = &input[ci * h * w..(ci + 1) * h * w];
        for ki in 0..k {
            let (ilo, ihi) = valid_out_range(ki, h, oh, p);
            for kj in 0..k {
                let (jlo, jhi) = valid_out_range(kj, w, ow, p);
                // First input column read at oj = jlo (known in-range).
                let sj0 = (jlo * p.stride + kj) as isize - p.pad as isize;
                debug_assert!(jlo >= jhi || sj0 >= 0);
                let dst = &mut col[row * oh * ow..(row + 1) * oh * ow];
                dst[..ilo * ow].fill(0.0);
                dst[ihi * ow..].fill(0.0);
                for oi in ilo..ihi {
                    let si = (oi * p.stride + ki) - p.pad; // in range by construction
                    let src_row = &plane[si * w..si * w + w];
                    let drow = &mut dst[oi * ow..(oi + 1) * ow];
                    drow[..jlo].fill(0.0);
                    drow[jhi..].fill(0.0);
                    if jlo < jhi {
                        let s0 = sj0 as usize;
                        if p.stride == 1 {
                            drow[jlo..jhi].copy_from_slice(&src_row[s0..s0 + (jhi - jlo)]);
                        } else {
                            let mut sj = s0;
                            for d in &mut drow[jlo..jhi] {
                                *d = src_row[sj];
                                sj += p.stride;
                            }
                        }
                    }
                }
                row += 1;
            }
        }
    }
}

/// Scatter-add the im2col matrix back into an image (`col2im`), the adjoint
/// of [`im2col`]. Used to accumulate input gradients.
fn col2im(col: &[f32], c: usize, h: usize, w: usize, p: Conv2dParams, out: &mut [f32]) {
    let oh = p.out_dim(h);
    let ow = p.out_dim(w);
    let k = p.kernel;
    debug_assert_eq!(col.len(), c * k * k * oh * ow);
    debug_assert_eq!(out.len(), c * h * w);
    let mut row = 0usize;
    for ci in 0..c {
        let plane = &mut out[ci * h * w..(ci + 1) * h * w];
        for ki in 0..k {
            for kj in 0..k {
                let src = &col[row * oh * ow..(row + 1) * oh * ow];
                let mut idx = 0usize;
                for oi in 0..oh {
                    let si = (oi * p.stride + ki) as isize - p.pad as isize;
                    if si < 0 || si >= h as isize {
                        idx += ow;
                        continue;
                    }
                    let dst_row = &mut plane[si as usize * w..si as usize * w + w];
                    for oj in 0..ow {
                        let sj = (oj * p.stride + kj) as isize - p.pad as isize;
                        if sj >= 0 && (sj as usize) < w {
                            dst_row[sj as usize] += src[idx];
                        }
                        idx += 1;
                    }
                }
                row += 1;
            }
        }
    }
}

thread_local! {
    /// Scratch backing the allocation-implicit [`conv2d`] API; the inference
    /// hot path passes an explicit arena to [`conv2d_into`] instead.
    static CONV_TLS: RefCell<Scratch> = RefCell::new(Scratch::new());
}

/// Copy `img` (`[c, h, w]`) into `out` as `[c, h + 2·pad, w + 2·pad]` with a
/// zero border, so a patch read never needs a bounds decision.
fn pad_image(img: &[f32], c: usize, h: usize, w: usize, pad: usize, out: &mut Vec<f32>) {
    let (hp, wp) = (h + 2 * pad, w + 2 * pad);
    out.clear();
    out.resize(c * hp * wp, 0.0);
    if img.is_empty() {
        return;
    }
    for (plane, dst) in img.chunks_exact(h * w).zip(out.chunks_exact_mut(hp * wp)) {
        for (row, drow) in plane.chunks_exact(w).zip(dst[pad * wp..].chunks_exact_mut(wp)) {
            drow[pad..pad + w].copy_from_slice(row);
        }
    }
}

/// The im2col matrix of one (zero-padded) image as the GEMM nest reads it:
/// `B[(ci·ks + ki)·ks + kj, oi·ow + oj] = src[ci, oi·s + ki, oj·s + kj] =
/// src[off(k) + col(j)]`, a row term `off(k) = (ci·hp + ki)·wp + kj` plus a
/// column term `col(j) = (j / ow · wp + j % ow)·s` — no bounds decisions.
#[derive(Clone, Copy)]
struct Im2col<'a> {
    src: &'a [f32],
    p: Conv2dParams,
    /// Padded input height and width.
    hp: usize,
    wp: usize,
    /// Output width, and output pixels (`B`'s columns).
    ow: usize,
    n: usize,
}

/// `off(k)` of one k-block's rows, worked out once per k-block: on the
/// stack, since a block has at most `KC` rows.
struct RowOffsets {
    off: [usize; KC],
    kb: usize,
    /// The largest of `off[..kb]`.
    max: usize,
}

impl Im2col<'_> {
    fn row_offsets(&self, k0: usize, kb: usize) -> RowOffsets {
        let ks = self.p.kernel;
        let (mut ci, mut ki, mut kj) = (k0 / (ks * ks), k0 / ks % ks, k0 % ks);
        let mut off = [0usize; KC];
        for o in &mut off[..kb] {
            *o = (ci * self.hp + ki) * self.wp + kj;
            kj += 1;
            if kj == ks {
                (kj, ki) = (0, ki + 1);
                if ki == ks {
                    (ki, ci) = (0, ci + 1);
                }
            }
        }
        let max = off[..kb].iter().copied().max().unwrap_or(0);
        RowOffsets { off, kb, max }
    }
}

/// [`Im2col`] gathered into filled panels, for any stride and width.
struct Gather<'a>(Im2col<'a>);

impl BSource for Gather<'_> {
    type Block = RowOffsets;
    type Rows<'p>
        = Panel<'p>
    where
        Self: 'p;

    fn block(&self, k0: usize, kb: usize) -> RowOffsets {
        self.0.row_offsets(k0, kb)
    }

    fn rows<'p>(&'p self, block: &'p RowOffsets, j0: usize, panel: &'p mut [f32]) -> Panel<'p> {
        let Im2col { src, p, wp, ow, n, .. } = self.0;
        let nb = NR.min(n - j0);
        let mut col = [0usize; NR];
        for (l, o) in col.iter_mut().enumerate().take(nb) {
            let j = j0 + l;
            *o = (j / ow * wp + j % ow) * p.stride;
        }
        // Groups of 8 lanes that are contiguous in `src` (stride 1, same
        // output row) are one vector copy.
        let contiguous: [bool; NR / 8] =
            std::array::from_fn(|g| 8 * g + 8 <= nb && col[8 * g + 7] == col[8 * g] + 7);
        for (dst, &base) in panel.chunks_exact_mut(NR).zip(&block.off[..block.kb]) {
            for (g, d) in dst.chunks_exact_mut(8).enumerate() {
                if contiguous[g] {
                    d.copy_from_slice(&src[base + col[8 * g]..][..8]);
                } else {
                    for (l, dv) in (8 * g..).zip(d) {
                        *dv = if l < nb { src[base + col[l]] } else { 0.0 };
                    }
                }
            }
        }
        Panel(panel)
    }
}

/// [`Im2col`] read where it lies. At stride 1 with an output width that is
/// a multiple of [`NR`], the `NR` columns of a panel are one output row's
/// `NR` neighbours, so row `k` of the panel is the `NR` contiguous floats
/// at `base(j0) + off(k)` — no copy.
struct InPlace<'a>(Im2col<'a>);

impl<'a> InPlace<'a> {
    fn new(b: Im2col<'a>) -> Self {
        assert!(
            b.p.stride == 1 && b.ow.is_multiple_of(NR),
            "an NR-lane group must be NR neighbours of one output row"
        );
        InPlace(b)
    }
}

impl BSource for InPlace<'_> {
    type Block = RowOffsets;
    type Rows<'p>
        = ImageRows<'p>
    where
        Self: 'p;

    fn block(&self, k0: usize, kb: usize) -> RowOffsets {
        self.0.row_offsets(k0, kb)
    }

    fn rows<'p>(&'p self, block: &'p RowOffsets, j0: usize, _: &'p mut [f32]) -> ImageRows<'p> {
        let Im2col { src, wp, ow, .. } = self.0;
        let src = &src[j0 / ow * wp + j0 % ow..];
        // What `ImageRows`' `BRows` contract rests on: every row of the
        // block ends inside `src`.
        assert!(block.max + NR <= src.len(), "in-place rows out of bounds");
        ImageRows { src, off: &block.off[..block.kb] }
    }
}

/// One block of [`InPlace`] rows: row `kk` is the `NR` floats at
/// `src[off[kk]..]`.
#[derive(Clone, Copy)]
struct ImageRows<'a> {
    src: &'a [f32],
    off: &'a [usize],
}

// SAFETY: `InPlace::rows` asserted `off[kk] + NR <= src.len()` for every
// `kk` (through the block's largest offset).
unsafe impl BRows for ImageRows<'_> {
    fn kb(self) -> usize {
        self.off.len()
    }

    fn row(self, kk: usize) -> *const f32 {
        self.src.as_ptr().wrapping_add(self.off[kk])
    }
}

/// One image forward at the machine's tier, reading B in place whenever the
/// geometry allows it: on every served shape and both x86 tiers that beats
/// filling panels, even where a panel would be reused by 8 (AVX-512) or 22
/// (AVX2) row panels (DESIGN.md §9).
fn conv2d_image(
    img: &[f32],
    dims: (usize, usize, usize),
    weight: &Tensor,
    epi: Epilogue,
    p: Conv2dParams,
    scratch: &mut Scratch,
    dst: &mut [f32],
) {
    let in_place = p.stride == 1 && p.out_dim(dims.2).is_multiple_of(NR);
    conv2d_image_at(tier(), in_place, img, dims, weight, epi, p, scratch, dst);
}

/// One image forward on tier `t`: the GEMM core reads the im2col matrix
/// straight out of the (zero-padded) image — `in_place`, or gathered one
/// `KC×NR` panel at a time — with the epilogue fused into the last k-block.
/// Both ways feed the tile the same floats, so they return the same bits.
#[allow(clippy::too_many_arguments)]
fn conv2d_image_at(
    t: &Tier,
    in_place: bool,
    img: &[f32],
    (ic, h, w): (usize, usize, usize),
    weight: &Tensor,
    epi: Epilogue,
    p: Conv2dParams,
    scratch: &mut Scratch,
    dst: &mut [f32],
) {
    let (oc, ow) = (weight.dims()[0], p.out_dim(w));
    let (hp, wp) = (h + 2 * p.pad, w + 2 * p.pad);
    let Scratch { pack, pad } = scratch;
    let src: &[f32] = if p.pad == 0 {
        img
    } else {
        pad_image(img, ic, h, w, p.pad, pad);
        pad
    };
    let b = Im2col { src, p, hp, wp, ow, n: p.out_dim(h) * ow };
    let (k, a) = (ic * p.kernel * p.kernel, weight.as_slice());
    if in_place {
        gemm_core(t, oc, k, b.n, a, &InPlace::new(b), dst, 0.0, epi, pack);
    } else {
        gemm_core(t, oc, k, b.n, a, &Gather(b), dst, 0.0, epi, pack);
    }
}

/// Forward 2-D convolution.
///
/// * `input`: `[N, IC, H, W]`
/// * `weight`: `[OC, IC, KH, KW]` with `KH == KW == p.kernel`
/// * `bias`: length `OC` (may be empty for no bias)
///
/// Returns `[N, OC, OH, OW]`.
pub fn conv2d(input: &Tensor, weight: &Tensor, bias: &[f32], p: Conv2dParams) -> Tensor {
    let (n, ic, h, w) = input.shape().nchw();
    let (oc, wic, kh, kw) = weight.shape().nchw();
    assert_eq!(ic, wic, "input channels {ic} != weight channels {wic}");
    assert_eq!(kh, p.kernel, "weight kernel height mismatch");
    assert_eq!(kw, p.kernel, "weight kernel width mismatch");
    assert!(bias.is_empty() || bias.len() == oc, "bias length mismatch");

    let oh = p.out_dim(h);
    let ow = p.out_dim(w);
    let mut out = Tensor::zeros([n, oc, oh, ow]);

    // One image per rayon task: each thread borrows its own scratch arena,
    // and the batched forward dominates training time.
    let in_stride = ic * h * w;
    let out_stride = oc * oh * ow;
    let epi = Epilogue::new((!bias.is_empty()).then_some(bias), FusedAct::Identity);
    let body = |ni: usize, dst: &mut [f32]| {
        let img = &input.as_slice()[ni * in_stride..(ni + 1) * in_stride];
        with_arena(&CONV_TLS, |scratch| {
            conv2d_image(img, (ic, h, w), weight, epi, p, scratch, dst)
        });
    };
    if n > 1 {
        use rayon::prelude::*;
        out.as_mut_slice()
            .par_chunks_mut(out_stride)
            .enumerate()
            .for_each(|(ni, dst)| body(ni, dst));
    } else if n == 1 {
        body(0, out.as_mut_slice());
    }
    out
}

/// Allocation-free forward 2-D convolution for the inference hot path.
///
/// Reads a flat `[n, ic, h, w]` activation slice, writes `out` (reshaped to
/// `[n, oc, oh, ow]`, storage reused), and fuses `act` plus the optional
/// bias into the GEMM epilogue. All intermediate buffers come from
/// `scratch`; after a warm-up call at the same shape this performs zero heap
/// allocation. Images are processed serially — the tile hot path runs one
/// image per call, and worker threads are themselves the parallel axis.
#[allow(clippy::too_many_arguments)]
pub fn conv2d_into(
    input: &[f32],
    dims: (usize, usize, usize, usize),
    weight: &Tensor,
    bias: &[f32],
    p: Conv2dParams,
    act: FusedAct,
    scratch: &mut Scratch,
    out: &mut ActBuf,
) {
    conv_into(input, dims, weight, bias, None, p, act, scratch, out);
}

/// [`conv2d_into`] with a per-output-channel affine between the bias and
/// the activation: channel `c` is `act((conv + bias[c])·scale[c] +
/// shift[c])`, a multiply then an add. That is an inference BatchNorm's
/// folded `a·x + b` ([`crate::norm::BatchNorm::fold`]) computed the way
/// [`crate::norm::BatchNorm::forward_infer_into`] computes it, so a
/// `conv → BatchNorm → activation` run through here returns the three
/// layers' bits in one pass over the output instead of three.
#[allow(clippy::too_many_arguments)]
pub fn conv2d_affine_into(
    input: &[f32],
    dims: (usize, usize, usize, usize),
    weight: &Tensor,
    bias: &[f32],
    (scale, shift): (&[f32], &[f32]),
    p: Conv2dParams,
    act: FusedAct,
    scratch: &mut Scratch,
    out: &mut ActBuf,
) {
    conv_into(input, dims, weight, bias, Some((scale, shift)), p, act, scratch, out);
}

/// [`conv2d_into`] and [`conv2d_affine_into`]'s body.
#[allow(clippy::too_many_arguments)]
fn conv_into(
    input: &[f32],
    (n, ic, h, w): (usize, usize, usize, usize),
    weight: &Tensor,
    bias: &[f32],
    affine: Option<(&[f32], &[f32])>,
    p: Conv2dParams,
    act: FusedAct,
    scratch: &mut Scratch,
    out: &mut ActBuf,
) {
    assert_eq!(input.len(), n * ic * h * w, "input dims mismatch");
    let (oc, wic, kh, kw) = weight.shape().nchw();
    assert_eq!(ic, wic, "input channels {ic} != weight channels {wic}");
    assert_eq!(kh, p.kernel, "weight kernel height mismatch");
    assert_eq!(kw, p.kernel, "weight kernel width mismatch");
    assert!(bias.is_empty() || bias.len() == oc, "bias length mismatch");
    if let Some((scale, shift)) = affine {
        assert!(scale.len() == oc && shift.len() == oc, "affine length mismatch");
    }

    let oh = p.out_dim(h);
    let ow = p.out_dim(w);
    out.reshape(&[n, oc, oh, ow]);
    let in_stride = ic * h * w;
    let out_stride = oc * oh * ow;
    let epi = Epilogue { bias: (!bias.is_empty()).then_some(bias), affine, act };
    for ni in 0..n {
        let img = &input[ni * in_stride..(ni + 1) * in_stride];
        let dst = &mut out.as_mut_slice()[ni * out_stride..(ni + 1) * out_stride];
        conv2d_image(img, (ic, h, w), weight, epi, p, scratch, dst);
    }
}

/// Gradients of [`conv2d`].
pub struct Conv2dGrads {
    /// `d loss / d input`, same shape as the forward input.
    pub dinput: Tensor,
    /// `d loss / d weight`, same shape as the weight.
    pub dweight: Tensor,
    /// `d loss / d bias`, length `OC`.
    pub dbias: Vec<f32>,
}

/// Backward 2-D convolution: given `dout = d loss / d output`, produce
/// gradients w.r.t. input, weight and bias.
pub fn conv2d_backward(
    input: &Tensor,
    weight: &Tensor,
    dout: &Tensor,
    p: Conv2dParams,
) -> Conv2dGrads {
    let (n, ic, h, w) = input.shape().nchw();
    let (oc, _, _, _) = weight.shape().nchw();
    let oh = p.out_dim(h);
    let ow = p.out_dim(w);
    let (dn, doc, doh, dow) = dout.shape().nchw();
    assert_eq!((dn, doc, doh, dow), (n, oc, oh, ow), "dout shape mismatch");

    let kk = ic * p.kernel * p.kernel;
    let mut dinput = Tensor::zeros([n, ic, h, w]);
    let mut dweight = Tensor::zeros([oc, ic, p.kernel, p.kernel]);
    let mut dbias = vec![0.0f32; oc];
    let in_stride = ic * h * w;
    let out_stride = oc * oh * ow;

    // Per-image work: the input gradient slices are disjoint (parallel
    // writes), while the weight/bias gradients are summed in a reduction.
    let per_image = |ni: usize, dimg: &mut [f32]| -> (Vec<f32>, Vec<f32>) {
        let img = &input.as_slice()[ni * in_stride..(ni + 1) * in_stride];
        let dy = &dout.as_slice()[ni * out_stride..(ni + 1) * out_stride];

        let mut db = vec![0.0f32; oc];
        for co in 0..oc {
            let mut acc = 0.0f32;
            for &g in &dy[co * oh * ow..(co + 1) * oh * ow] {
                acc += g;
            }
            db[co] = acc;
        }

        // dW[oc, kk] = dy[oc, ohw] · col[kk, ohw]^T
        let mut col = vec![0.0f32; kk * oh * ow];
        im2col(img, ic, h, w, p, &mut col);
        let mut dw = vec![0.0f32; oc * kk];
        gemm_bt(oc, oh * ow, kk, dy, &col, &mut dw, 0.0);

        // dcol[kk, ohw] = W^T[kk, oc] · dy[oc, ohw]; W stored as [oc, kk].
        let mut dcol = vec![0.0f32; kk * oh * ow];
        gemm_at(kk, oc, oh * ow, weight.as_slice(), dy, &mut dcol, 0.0);
        col2im(&dcol, ic, h, w, p, dimg);
        (dw, db)
    };

    if n > 1 {
        use rayon::prelude::*;
        let partials: Vec<(Vec<f32>, Vec<f32>)> = dinput
            .as_mut_slice()
            .par_chunks_mut(in_stride)
            .enumerate()
            .map(|(ni, dimg)| per_image(ni, dimg))
            .collect();
        for (dw, db) in partials {
            for (a, b) in dweight.as_mut_slice().iter_mut().zip(&dw) {
                *a += b;
            }
            for (a, b) in dbias.iter_mut().zip(&db) {
                *a += b;
            }
        }
    } else if n == 1 {
        let (dw, db) = per_image(0, dinput.as_mut_slice());
        dweight.as_mut_slice().copy_from_slice(&dw);
        dbias.copy_from_slice(&db);
    }

    Conv2dGrads { dinput, dweight, dbias }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    /// Direct (quadruple-loop) convolution used as ground truth.
    fn conv_naive(input: &Tensor, weight: &Tensor, bias: &[f32], p: Conv2dParams) -> Tensor {
        let (n, ic, h, w) = input.shape().nchw();
        let (oc, _, k, _) = weight.shape().nchw();
        let oh = p.out_dim(h);
        let ow = p.out_dim(w);
        let mut out = Tensor::zeros([n, oc, oh, ow]);
        for ni in 0..n {
            for co in 0..oc {
                for oi in 0..oh {
                    for oj in 0..ow {
                        let mut acc = if bias.is_empty() { 0.0 } else { bias[co] };
                        for ci in 0..ic {
                            for ki in 0..k {
                                for kj in 0..k {
                                    let si = (oi * p.stride + ki) as isize - p.pad as isize;
                                    let sj = (oj * p.stride + kj) as isize - p.pad as isize;
                                    if si >= 0 && sj >= 0 && (si as usize) < h && (sj as usize) < w
                                    {
                                        acc += input.at(&[ni, ci, si as usize, sj as usize])
                                            * weight.at(&[co, ci, ki, kj]);
                                    }
                                }
                            }
                        }
                        *out.at_mut(&[ni, co, oi, oj]) = acc;
                    }
                }
            }
        }
        out
    }

    #[test]
    fn out_dim_arithmetic() {
        let p = Conv2dParams { kernel: 3, stride: 1, pad: 1 };
        assert_eq!(p.out_dim(224), 224);
        let p2 = Conv2dParams { kernel: 3, stride: 2, pad: 1 };
        assert_eq!(p2.out_dim(224), 112);
        let p3 = Conv2dParams { kernel: 7, stride: 2, pad: 3 };
        assert_eq!(p3.out_dim(224), 112);
        // Degenerate: window larger than padded input.
        let p4 = Conv2dParams { kernel: 5, stride: 1, pad: 0 };
        assert_eq!(p4.out_dim(3), 0);
    }

    #[test]
    fn matches_naive_various_shapes() {
        let mut rng = StdRng::seed_from_u64(11);
        let cases = [
            (1, 1, 5, 5, 1, 3, 1, 1),
            (2, 3, 8, 8, 4, 3, 1, 1),
            (1, 2, 9, 7, 3, 3, 2, 1),
            (1, 3, 6, 6, 2, 1, 1, 0),
            (1, 2, 8, 8, 2, 5, 1, 2),
        ];
        for (n, ic, h, w, oc, k, s, pad) in cases {
            let p = Conv2dParams { kernel: k, stride: s, pad };
            let x = Tensor::randn([n, ic, h, w], 1.0, &mut rng);
            let wt = Tensor::randn([oc, ic, k, k], 0.5, &mut rng);
            let b: Vec<f32> = (0..oc).map(|i| i as f32 * 0.1).collect();
            let got = conv2d(&x, &wt, &b, p);
            let want = conv_naive(&x, &wt, &b, p);
            assert!(
                got.approx_eq(&want, 1e-4),
                "mismatch for case {:?}",
                (n, ic, h, w, oc, k, s, pad)
            );
        }
    }

    #[test]
    fn conv2d_into_matches_conv2d() {
        let mut rng = StdRng::seed_from_u64(13);
        let cases = [(1, 3, 8, 8, 4, 3, 1, 1), (2, 2, 9, 7, 3, 3, 2, 1), (1, 3, 6, 6, 2, 1, 1, 0)];
        let mut scratch = Scratch::new();
        let mut out = ActBuf::new();
        for (n, ic, h, w, oc, k, s, pad) in cases {
            let p = Conv2dParams { kernel: k, stride: s, pad };
            let x = Tensor::randn([n, ic, h, w], 1.0, &mut rng);
            let wt = Tensor::randn([oc, ic, k, k], 0.5, &mut rng);
            let b: Vec<f32> = (0..oc).map(|i| i as f32 * 0.1).collect();
            let want = conv2d(&x, &wt, &b, p);
            conv2d_into(
                x.as_slice(),
                (n, ic, h, w),
                &wt,
                &b,
                p,
                FusedAct::Identity,
                &mut scratch,
                &mut out,
            );
            assert_eq!(out.dims(), want.dims());
            assert!(out.to_tensor().approx_eq(&want, 1e-5));
        }
    }

    /// A rayon worker can re-enter `conv2d` while its arena is borrowed
    /// further up the stack (see `with_arena`); the nested call must run on
    /// its own buffer and return the same bits.
    #[test]
    fn conv2d_under_a_held_arena_borrow_matches_the_plain_call() {
        let mut rng = StdRng::seed_from_u64(14);
        let p = Conv2dParams::same(3);
        let x = Tensor::randn([1, 3, 8, 8], 1.0, &mut rng);
        let wt = Tensor::randn([4, 3, 3, 3], 0.5, &mut rng);
        let want = conv2d(&x, &wt, &[], p);
        let got = CONV_TLS.with(|s| {
            let _held = s.borrow_mut();
            conv2d(&x, &wt, &[], p)
        });
        let bits = |t: &Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&got), bits(&want));
    }

    #[test]
    fn conv2d_into_fused_relu_matches_post_relu() {
        let mut rng = StdRng::seed_from_u64(17);
        let p = Conv2dParams::same(3);
        let x = Tensor::randn([1, 3, 7, 7], 1.0, &mut rng);
        let wt = Tensor::randn([4, 3, 3, 3], 0.5, &mut rng);
        let b = vec![0.1f32; 4];
        let want = conv2d(&x, &wt, &b, p).map(|v| v.max(0.0));
        let mut scratch = Scratch::new();
        let mut out = ActBuf::new();
        conv2d_into(x.as_slice(), (1, 3, 7, 7), &wt, &b, p, FusedAct::Relu, &mut scratch, &mut out);
        assert!(out.to_tensor().approx_eq(&want, 1e-5));
    }

    /// In-place rows and filled panels feed the tile the same floats, so on
    /// every FMA tier of this CPU both return the same bits — and every tier
    /// the narrowest one's — over M across each tier's row panels, output
    /// widths on and off `NR`, K on both sides of `KC`, pad 0/1, stride 1/2,
    /// every activation after the bias, with and without the BatchNorm
    /// affine. (Shapes off stride 1 or off `NR` have only the panel path.)
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn in_place_rows_match_panel_rows_on_every_tier() {
        let tiers = crate::gemm::x86_tiers();
        let acts = [FusedAct::Identity, FusedAct::Relu, FusedAct::Clipped { lo: -0.5, hi: 1.0 }];
        let mut rng = StdRng::seed_from_u64(0x1A);
        let mut scratch = Scratch::new();
        let mut in_place_cases = 0;
        for m in [1, 6, 15, 16, 17, 32, 33, 64] {
            for ow in [8, 16, 17, 32] {
                for ic in [3, 16, 32, 64] {
                    for (pad, stride) in [(0, 1), (1, 1), (0, 2), (1, 2)] {
                        let p = Conv2dParams { kernel: 3, stride, pad };
                        // Two output rows, so column panels cross rows.
                        let (h, w) = (stride + 3 - 2 * pad, (ow - 1) * stride + 3 - 2 * pad);
                        let x = Tensor::randn([ic, h, w], 1.0, &mut rng);
                        let wt = Tensor::randn([m, ic, 3, 3], 0.3, &mut rng);
                        let [bias, scale, shift] =
                            [0; 3].map(|_| Tensor::randn([m], 1.0, &mut rng).as_slice().to_vec());
                        let eligible = stride == 1 && ow.is_multiple_of(NR);
                        in_place_cases += eligible as usize;
                        for act in acts {
                            for affine in [None, Some((&scale[..], &shift[..]))] {
                                let epi = Epilogue { bias: Some(&bias), affine, act };
                                let mut run = |t: &Tier, in_place: bool| {
                                    let mut y = vec![f32::NAN; m * 2 * ow];
                                    let (img, dims) = (x.as_slice(), (ic, h, w));
                                    conv2d_image_at(
                                        t,
                                        in_place,
                                        img,
                                        dims,
                                        &wt,
                                        epi,
                                        p,
                                        &mut scratch,
                                        &mut y,
                                    );
                                    y.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
                                };
                                let want = run(&tiers[0], false);
                                for t in &tiers {
                                    let case = format!(
                                        "{} m={m} ow={ow} ic={ic} pad={pad} s={stride} {act:?} \
                                         affine={}",
                                        t.name,
                                        affine.is_some()
                                    );
                                    assert_eq!(run(t, false), want, "panel: {case}");
                                    if eligible {
                                        assert_eq!(run(t, true), want, "in place: {case}");
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        assert_eq!(in_place_cases, 8 * 2 * 4 * 2);
    }

    #[test]
    fn degenerate_zero_output_dim() {
        // Window larger than the padded input: 0×0 output, no panic.
        let p = Conv2dParams { kernel: 5, stride: 1, pad: 0 };
        let x = Tensor::full([1, 2, 3, 3], 1.0);
        let wt = Tensor::full([2, 2, 5, 5], 1.0);
        let y = conv2d(&x, &wt, &[], p);
        assert_eq!(y.dims(), &[1, 2, 0, 0]);
        let mut scratch = Scratch::new();
        let mut out = ActBuf::new();
        conv2d_into(
            x.as_slice(),
            (1, 2, 3, 3),
            &wt,
            &[],
            p,
            FusedAct::Relu,
            &mut scratch,
            &mut out,
        );
        assert_eq!(out.dims(), &[1, 2, 0, 0]);
    }

    #[test]
    fn identity_kernel_passthrough() {
        // 1x1 conv with identity weight reproduces the input channel.
        let x = Tensor::from_fn([1, 1, 4, 4], |i| i as f32);
        let w = Tensor::from_vec([1, 1, 1, 1], vec![1.0]);
        let y = conv2d(&x, &w, &[], Conv2dParams { kernel: 1, stride: 1, pad: 0 });
        assert!(y.approx_eq(&x, 0.0));
    }

    #[test]
    fn zero_padding_semantics_at_border() {
        // A 3x3 all-ones kernel over an all-ones image: interior outputs are 9,
        // edges 6, corners 4 — exactly the zero-padding behaviour FDSP relies on.
        let x = Tensor::full([1, 1, 5, 5], 1.0);
        let w = Tensor::full([1, 1, 3, 3], 1.0);
        let y = conv2d(&x, &w, &[], Conv2dParams::same(3));
        assert_eq!(y.at(&[0, 0, 2, 2]), 9.0);
        assert_eq!(y.at(&[0, 0, 0, 2]), 6.0);
        assert_eq!(y.at(&[0, 0, 0, 0]), 4.0);
    }

    /// Central finite difference of the scalar loss `sum(conv(x, w))`.
    fn grad_check(n: usize, ic: usize, h: usize, w: usize, oc: usize, p: Conv2dParams) {
        let mut rng = StdRng::seed_from_u64(42);
        let x = Tensor::randn([n, ic, h, w], 1.0, &mut rng);
        let wt = Tensor::randn([oc, ic, p.kernel, p.kernel], 0.5, &mut rng);
        let b: Vec<f32> = vec![0.05; oc];

        let y = conv2d(&x, &wt, &b, p);
        // loss = sum(y) => dout = ones
        let dout = Tensor::full(y.shape().clone(), 1.0);
        let grads = conv2d_backward(&x, &wt, &dout, p);

        let eps = 1e-2f32;
        let loss = |x: &Tensor, wt: &Tensor, b: &[f32]| -> f64 { conv2d(x, wt, b, p).sum() };

        // check a scattering of input grads
        for &flat in &[0usize, x.numel() / 2, x.numel() - 1] {
            let mut xp = x.clone();
            xp.as_mut_slice()[flat] += eps;
            let mut xm = x.clone();
            xm.as_mut_slice()[flat] -= eps;
            let num = ((loss(&xp, &wt, &b) - loss(&xm, &wt, &b)) / (2.0 * eps as f64)) as f32;
            let ana = grads.dinput.as_slice()[flat];
            assert!((num - ana).abs() < 2e-2, "dinput[{flat}]: num {num} vs ana {ana}");
        }
        // weight grads
        for &flat in &[0usize, wt.numel() / 2, wt.numel() - 1] {
            let mut wp = wt.clone();
            wp.as_mut_slice()[flat] += eps;
            let mut wm = wt.clone();
            wm.as_mut_slice()[flat] -= eps;
            let num = ((loss(&x, &wp, &b) - loss(&x, &wm, &b)) / (2.0 * eps as f64)) as f32;
            let ana = grads.dweight.as_slice()[flat];
            assert!((num - ana).abs() < 2e-2, "dweight[{flat}]: num {num} vs ana {ana}");
        }
        // bias grad: d sum(y) / d b[o] = OH*OW*N
        let (_, _, yh, yw) = y.shape().nchw();
        for co in 0..oc {
            let expect = (n * yh * yw) as f32;
            assert!((grads.dbias[co] - expect).abs() < 1e-2);
        }
    }

    #[test]
    fn gradients_match_finite_difference_same_pad() {
        grad_check(1, 2, 6, 6, 3, Conv2dParams::same(3));
    }

    #[test]
    fn gradients_match_finite_difference_strided() {
        grad_check(2, 2, 7, 7, 2, Conv2dParams { kernel: 3, stride: 2, pad: 1 });
    }

    #[test]
    fn gradients_match_finite_difference_no_pad() {
        grad_check(1, 1, 5, 5, 1, Conv2dParams { kernel: 3, stride: 1, pad: 0 });
    }
}
