//! Blocked, packed, rayon-parallel single-precision matrix multiply.
//!
//! The convolution path reduces to `C = A · B` where `A` is the filter
//! matrix `[OC, IC·KH·KW]` and `B` is the unrolled input
//! `[IC·KH·KW, OH·OW]`. The core never needs `B` as a matrix: it asks a
//! *panel source* for one `KC×NR` k-major panel at a time — row-major rows
//! for [`gemm`]/[`gemm_fused`]/[`gemm_at`], rows of the stored transpose for
//! [`gemm_bt`], image patches for `conv2d` (one-pass im2col→panel) — and
//! consumes the panel while it is still in L1.
//!
//! One loop nest serves all three products. The entries: [`gemm`] and
//! [`gemm_fused`] (`A·B`; `m == 1` takes the fully-connected row kernel
//! instead), `conv2d` through `gemm_core`, and the backward pass's
//! [`gemm_bt`] (`A·Bᵀ`) and [`gemm_at`] (`Aᵀ·B`), which differ from [`gemm`]
//! only in the panel source and in the layout `A` is packed from.
//! [`gemm_unpacked`] is the seed's kernel, kept as the reference baseline
//! for tests and benches.
//!
//! Loop nest (BLIS `jr`/`ir` order), per k-block of at most `KC` steps:
//!
//! ```text
//! pack A once per call  -> MR-wide k-major panels        (streams from L2)
//! for each NR-wide column panel j:                        (B panel: L1)
//!     fill the KC×NR B panel from the source
//!     for each MR-wide row panel i:
//!         MR×NR register tile: acc = Σ_k a[i,k]·b[k,j]   (registers)
//!         first k-block stores, later ones add, the last applies
//!         bias + activation before the store
//! ```
//!
//! Blocking, per tier (also DESIGN.md §9). The nest above is one source,
//! generic over the tile's row count `MR`; `gemm_core` probes the CPU once
//! ([`simd_tier`]) and enters it at the tier's `MR` with the tier's kernel —
//! the one dispatch point, per call, not per tile. `NR = 16` and `KC = 256`
//! are the same for every tier, so a B panel is 16 KB whatever runs and no
//! panel source knows the tier:
//!
//! ```text
//! tier       MR×NR   accumulators        + B row, broadcast   A panel
//! avx512f    16×16   16 ZMM (of 32)      1 ZMM, folded        16 KB
//! avx2+fma    6×16   12 YMM (of 16)      2 YMM, 1 YMM          6 KB
//! scalar      6×16   locals              -                     6 KB
//! ```
//!
//! The build targets baseline x86-64 (SSE2), so both x86 kernels are
//! `#[target_feature]` functions behind the runtime probe; everything else
//! runs the portable tile.
//!
//! **Determinism.** Every output element is the same operation sequence —
//! one multiply-add chain over `k` ascending from zero within a k-block,
//! k-blocks combined in order, then `+ bias`, then the activation — whatever
//! its position in the register tile, whether the tile is interior or an
//! edge (edges run the same kernel on a zero-padded temp tile), whatever
//! `m`/`n`, the thread count, or what the pack arena held before. So a
//! sub-range of rows or columns multiplied alone reproduces the full
//! product's bits (through [`gemm`]/[`gemm_fused`] for `m ≥ 2`: `m == 1` is
//! the fully-connected kernel `gemm_row1` with its own order). The sequence
//! does not mention the tile's shape either, and both x86 tiers fuse the
//! multiply-add: **the AVX-512 and the AVX2 tier return the same bits** on
//! every entry, so FMA-capable machines of different vector width are
//! interchangeable workers. The portable tile rounds the product before the
//! add and agrees with them to rounding only.

use crate::scratch::{with_arena, Scratch};
use rayon::prelude::*;
use std::cell::RefCell;
use std::sync::OnceLock;

/// Microkernel column count (output columns per register tile), the same
/// for every tier: a `KC×NR` panel row is one ZMM vector or two YMM.
pub const NR: usize = 16;
/// Tile edge for the k-dimension blocking: one `KC×NR` B panel (16 KB) plus
/// one `KC×MR` A panel (6 KB or 16 KB) sit in L1 while a tile is computed.
pub const KC: usize = 256;

/// `(a_panel, b_panel, c, ldc, accumulate, fin)`: one `MR×NR` register tile
/// over one k-block, `acc = a_panel ⊗ b_panel`, then `c = acc` or `c += acc`
/// (`accumulate`), then `c = act(c + bias)` if `fin`. `c` starts at the
/// tile's first element, rows `ldc` apart. A kernel checks its slices
/// itself; what makes the call unsafe is the CPU feature it was compiled for.
type Kernel = unsafe fn(&[f32], &[f32], &mut [f32], usize, bool, Finish);

/// Bias (one per tile row) and activation applied on the last k-block.
type Finish<'a> = Option<(&'a [f32], FusedAct)>;

/// A register tile this build has a kernel for. Only [`tier`] makes one
/// outside tests, after probing `kernel`'s CPU feature.
struct Tier {
    name: &'static str,
    /// Microkernel row count (output rows accumulated per register tile).
    mr: usize,
    kernel: Kernel,
}

/// The widest tile the CPU runs, probed once. The crate builds against
/// baseline x86-64 (SSE2 only), so this has to be a *runtime* dispatch; it
/// is one per [`gemm_core`] call.
fn tier() -> &'static Tier {
    static TIER: OnceLock<Tier> = OnceLock::new();
    TIER.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        {
            use std::arch::is_x86_feature_detected as has;
            if has!("avx512f") {
                return Tier { name: "avx512f", mr: 16, kernel: x86::microkernel512 };
            }
            if has!("avx2") && has!("fma") {
                return Tier { name: "avx2+fma", mr: 6, kernel: x86::microkernel };
            }
        }
        Tier { name: "scalar", mr: 6, kernel: microkernel_portable::<6> }
    })
}

/// The SIMD tier every product of this module runs at on this machine:
/// `"avx512f"`, `"avx2+fma"` or `"scalar"`.
pub fn simd_tier() -> &'static str {
    tier().name
}

/// Rows of that tier's register tile (columns are [`NR`]).
pub fn tile_rows() -> usize {
    tier().mr
}

/// One call of the machine's register tile outside the nest, for
/// `examples/gemm_shapes.rs` to time: `c[tile_rows() × NR] = a_panel ⊗
/// b_panel` over `b_panel.len() / NR` k-steps, panels k-major as the nest
/// packs them.
pub fn register_tile(a_panel: &[f32], b_panel: &[f32], c: &mut [f32]) {
    // SAFETY: `tier()` probed the kernel's CPU feature.
    unsafe { (tier().kernel)(a_panel, b_panel, c, NR, false, None) }
}

/// Below this work threshold the parallel dispatch overhead outweighs the
/// speedup, so we stay single-threaded.
const PAR_FLOP_THRESHOLD: usize = 1 << 16;

/// Activation fused into the GEMM epilogue (applied on the last k-block
/// write-back, together with the optional per-row bias).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FusedAct {
    /// No activation.
    Identity,
    /// `max(0, x)`.
    Relu,
    /// The paper's shifted clipped ReLU: `0` below `lo`, `x - lo` inside
    /// `[lo, hi]`, saturating at `hi - lo` (the values of
    /// [`crate::activ::ClippedRelu::apply`]).
    Clipped { lo: f32, hi: f32 },
}

impl FusedAct {
    /// Apply the activation to one element.
    ///
    /// Written as the select sequence the vector epilogue executes
    /// (`maxps`, `minps`, `subps`: `max(a, b)` is `a > b ? a : b`), so the
    /// two agree bit for bit, `-0.0` and NaN included: ReLU of `-0.0` and
    /// anything clipped at `lo` are `+0.0`.
    #[inline(always)]
    pub fn apply(self, x: f32) -> f32 {
        match self {
            FusedAct::Identity => x,
            FusedAct::Relu => {
                if x > 0.0 {
                    x
                } else {
                    0.0
                }
            }
            FusedAct::Clipped { lo, hi } => {
                let t = if x > lo { x } else { lo };
                let t = if t < hi { t } else { hi };
                t - lo
            }
        }
    }
}

thread_local! {
    /// Per-thread pack arena backing the scratch-less public [`gemm`]; the
    /// allocation-free path passes an explicit [`Scratch`] instead.
    static PACK_TLS: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

/// Number of worker threads the parallel dispatch sees (rayon's pool size;
/// benches report it alongside throughput numbers).
pub fn current_threads() -> usize {
    rayon::current_num_threads()
}

/// `c[m×n] = a[m×k] · b[k×n] + beta · c`.
///
/// All matrices are dense row-major slices. Panics if the slice lengths do
/// not match the stated dimensions. Uses a per-thread pack arena; steady
/// state allocates nothing once it has grown to the largest shape seen on
/// the thread.
pub fn gemm(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32], beta: f32) {
    with_arena(&PACK_TLS, |pack| {
        gemm_rowmajor(m, k, n, a, b, c, beta, None, FusedAct::Identity, pack)
    });
}

/// Fused-epilogue GEMM with caller-provided pack scratch:
/// `c = act(a·b + bias)`, row `i` of `c` offset by `bias[i]`.
///
/// This is the inference hot-path entry: `beta` is fixed at 0, the pack
/// arena comes from the worker's [`Scratch`], and bias + activation are
/// applied in the last k-block write-back instead of a separate pass.
#[allow(clippy::too_many_arguments)]
pub fn gemm_fused(
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    bias: Option<&[f32]>,
    act: FusedAct,
    scratch: &mut Scratch,
) {
    gemm_rowmajor(m, k, n, a, b, c, 0.0, bias, act, &mut scratch.pack);
}

/// `c *= beta`, with `beta == 0` overwriting (stale NaNs must not survive).
fn scale(c: &mut [f32], beta: f32) {
    if beta == 0.0 {
        c.fill(0.0);
    } else if beta != 1.0 {
        for x in c.iter_mut() {
            *x *= beta;
        }
    }
}

/// [`gemm`]/[`gemm_fused`] body: `b` is a row-major `[k, n]` matrix.
#[allow(clippy::too_many_arguments)]
fn gemm_rowmajor(
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    beta: f32,
    bias: Option<&[f32]>,
    act: FusedAct,
    pack: &mut Vec<f32>,
) {
    assert_eq!(b.len(), k * n, "B dims mismatch");
    if m == 1 && k > 0 && n > 0 {
        // Single-row (fully-connected) case: no point packing; split the N
        // dimension across threads instead so large layers still parallelize.
        assert_eq!(a.len(), k, "A dims mismatch");
        assert_eq!(c.len(), n, "C dims mismatch");
        let b0 = bias.map_or(0.0, |bs| {
            assert_eq!(bs.len(), 1, "bias dims mismatch");
            bs[0]
        });
        scale(c, beta);
        if n * k >= PAR_FLOP_THRESHOLD && rayon::current_num_threads() > 1 {
            let chunk = n.div_ceil(rayon::current_num_threads() * 4).max(NR);
            c.par_chunks_mut(chunk)
                .enumerate()
                .for_each(|(ci, ccols)| gemm_row1(ci * chunk, k, n, a, b, ccols, b0, act));
        } else {
            gemm_row1(0, k, n, a, b, c, b0, act);
        }
        return;
    }
    gemm_core(m, k, n, a, &rowmajor_panels(b, n), c, beta, bias, act, pack);
}

/// Panel source for a row-major `[k, n]` `B`. Whole NR-wide rows are one
/// fixed-size copy; the ragged last panel is decided once per panel, not
/// per k.
fn rowmajor_panels(b: &[f32], n: usize) -> impl Fn(usize, usize, &mut [f32]) + Sync + '_ {
    move |k0, j0, panel| {
        let rows = b[k0 * n + j0..].chunks(n);
        if n - j0 >= NR {
            for (dst, src) in panel.chunks_exact_mut(NR).zip(rows) {
                dst.copy_from_slice(&src[..NR]);
            }
        } else {
            let nb = n - j0;
            for (dst, src) in panel.chunks_exact_mut(NR).zip(rows) {
                dst[..nb].copy_from_slice(&src[..nb]);
                dst[nb..].fill(0.0);
            }
        }
    }
}

/// The nest's `A` operand as the caller stores it.
pub(crate) enum ASrc<'a> {
    /// `[m, k]` row-major.
    RowMajor(&'a [f32]),
    /// `[k, m]` row-major, i.e. `Aᵀ` as stored.
    KMajor(&'a [f32]),
}

impl<'a> From<&'a [f32]> for ASrc<'a> {
    fn from(a: &'a [f32]) -> Self {
        ASrc::RowMajor(a)
    }
}

/// The one GEMM core: behind [`gemm`], [`gemm_fused`] and `conv2d` forward,
/// [`gemm_bt`] and [`gemm_at`] backward.
///
/// `a` is the `A` operand in either stored layout (a plain slice is
/// `[m, k]` row-major). `fill_b(k0, j0, panel)` writes rows `k0..k0 + panel.len() / NR` of
/// columns `j0..j0 + NR` of `B` into `panel` (k-major, `NR` floats per
/// k-step, columns at or beyond `n` zero). It is called once per (k-block,
/// column panel) and row-block task, and the panel is consumed from L1
/// before the next one is filled, so `B` is never materialised.
///
/// `pack` is the grow-only arena: the packed `A` panels, then one B panel
/// per row-block task.
#[allow(clippy::too_many_arguments)]
pub(crate) fn gemm_core<'a, F>(
    m: usize,
    k: usize,
    n: usize,
    a: impl Into<ASrc<'a>>,
    fill_b: &F,
    c: &mut [f32],
    beta: f32,
    bias: Option<&[f32]>,
    act: FusedAct,
    pack: &mut Vec<f32>,
) where
    F: Fn(usize, usize, &mut [f32]) + Sync,
{
    let a = a.into();
    let (ASrc::RowMajor(stored) | ASrc::KMajor(stored)) = a;
    assert_eq!(stored.len(), m * k, "A dims mismatch");
    assert_eq!(c.len(), m * n, "C dims mismatch");
    if let Some(bs) = bias {
        assert_eq!(bs.len(), m, "bias dims mismatch");
    }
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 {
        // Degenerate reduction: the product is zero, but the epilogue still
        // owes bias + activation.
        scale(c, beta);
        if bias.is_some() || act != FusedAct::Identity {
            for (i, crow) in c.chunks_mut(n).enumerate() {
                let badd = bias.map_or(0.0, |bs| bs[i]);
                for cv in crow.iter_mut() {
                    *cv = act.apply(*cv + badd);
                }
            }
        }
        return;
    }
    if beta != 0.0 {
        scale(c, beta);
    }

    let (first_stores, t) = (beta == 0.0, tier());
    match t.mr {
        16 => gemm_nest::<16, F>(m, k, n, a, fill_b, c, first_stores, bias, act, pack, t.kernel),
        6 => gemm_nest::<6, F>(m, k, n, a, fill_b, c, first_stores, bias, act, pack, t.kernel),
        mr => unreachable!("no nest instantiated for a {mr}-row tile"),
    }
}

/// [`gemm_core`] past its checks, instantiated at one tier's row count:
/// `kernel` is an `MR`-row tile whose CPU feature the caller has probed, `k`
/// is not zero and `c` is already scaled by `beta` (`first_stores`: by zero,
/// so the first k-block overwrites it).
#[allow(clippy::too_many_arguments)]
fn gemm_nest<const MR: usize, F: Fn(usize, usize, &mut [f32]) + Sync>(
    m: usize,
    k: usize,
    n: usize,
    a: ASrc,
    fill_b: &F,
    c: &mut [f32],
    first_stores: bool,
    bias: Option<&[f32]>,
    act: FusedAct,
    pack: &mut Vec<f32>,
    kernel: Kernel,
) {
    // Contiguous row blocks, each a multiple of MR rows, one per task.
    let mp = m.div_ceil(MR);
    let threads = rayon::current_num_threads();
    let tasks = if m * n * k >= PAR_FLOP_THRESHOLD && threads > 1 { threads.min(mp) } else { 1 };
    let rows = mp.div_ceil(tasks) * MR;

    let a_len = k * mp * MR;
    let kc = KC.min(k);
    // Every element read below is written first (`pack_a`, `fill_b`), so the
    // arena is only ever grown, never cleared.
    pack.resize(a_len + tasks * kc * NR, 0.0);
    let (a_pack, b_panels) = pack.split_at_mut(a_len);
    match a {
        ASrc::RowMajor(a) => pack_a::<MR>(m, k, a, a_pack),
        ASrc::KMajor(a_t) => pack_a_kmajor::<MR>(m, k, a_t, a_pack),
    }
    let a_pack = &*a_pack;

    let nest = Nest::<MR> { m, k, n, a_pack, first_stores, bias, act, kernel };
    if tasks == 1 {
        nest.run(0, c, b_panels, fill_b);
    } else {
        c.par_chunks_mut(rows * n)
            .zip(b_panels.par_chunks_mut(kc * NR))
            .enumerate()
            .for_each(|(t, (cblock, b_panel))| nest.run(t * rows, cblock, b_panel, fill_b));
    }
}

/// Interleave `a` (`[m, k]` row-major) into `KC`-step blocks of `MR`-row
/// panels: the block for steps `k0..k0+kb` starts at `k0 · mp · MR`; within
/// it panel `p` (rows `p·MR..`) is `kb·MR` contiguous floats in k-major
/// order, so the tile reads one `MR`-vector per k-step. Rows past `m` in the
/// last panel are written as zeros, so no element keeps an earlier call's
/// value.
fn pack_a<const MR: usize>(m: usize, k: usize, a: &[f32], pack: &mut [f32]) {
    static ZERO: [f32; KC] = [0.0; KC];
    let mp = m.div_ceil(MR);
    let mut k0 = 0;
    while k0 < k {
        let kb = KC.min(k - k0);
        let block = &mut pack[k0 * mp * MR..(k0 + kb) * mp * MR];
        for (p, panel) in block.chunks_exact_mut(kb * MR).enumerate() {
            let rows: [&[f32]; MR] = std::array::from_fn(|r| {
                if p * MR + r < m {
                    &a[(p * MR + r) * k + k0..][..kb]
                } else {
                    &ZERO[..kb]
                }
            });
            for (kk, dst) in panel.chunks_exact_mut(MR).enumerate() {
                for (d, row) in dst.iter_mut().zip(&rows) {
                    *d = row[kk];
                }
            }
        }
        k0 += kb;
    }
}

/// [`pack_a`] for `a_t` (`[k, m]` row-major): a k-step's `MR` floats are
/// already contiguous in row `k` of `a_t`, so the pack is a copy.
fn pack_a_kmajor<const MR: usize>(m: usize, k: usize, a_t: &[f32], pack: &mut [f32]) {
    let mp = m.div_ceil(MR);
    for k0 in (0..k).step_by(KC) {
        let kb = KC.min(k - k0);
        let block = &mut pack[k0 * mp * MR..(k0 + kb) * mp * MR];
        for (p, panel) in block.chunks_exact_mut(kb * MR).enumerate() {
            let mb = MR.min(m - p * MR);
            for (dst, row) in panel.chunks_exact_mut(MR).zip(a_t[k0 * m..].chunks_exact(m)) {
                dst[..mb].copy_from_slice(&row[p * MR..][..mb]);
                dst[mb..].fill(0.0);
            }
        }
    }
}

/// One call's loop nest, shared by every row-block task.
struct Nest<'a, const MR: usize> {
    m: usize,
    k: usize,
    n: usize,
    a_pack: &'a [f32],
    /// `beta == 0`: the first k-block overwrites `C` instead of adding.
    first_stores: bool,
    bias: Option<&'a [f32]>,
    act: FusedAct,
    /// An `MR`-row tile; [`gemm_nest`]'s caller probed its CPU feature.
    kernel: Kernel,
}

impl<const MR: usize> Nest<'_, MR> {
    /// Compute output rows `i0..i0 + cblock.len() / n` (`i0` a multiple of
    /// `MR`) into `cblock`: per k-block, B panels outermost (each filled
    /// once into `b_panel` and kept in L1), A panels innermost.
    fn run<F: Fn(usize, usize, &mut [f32])>(
        &self,
        i0: usize,
        cblock: &mut [f32],
        b_panel: &mut [f32],
        fill_b: &F,
    ) {
        let (n, mp) = (self.n, self.m.div_ceil(MR));
        let rows = cblock.len() / n;
        let mut k0 = 0;
        while k0 < self.k {
            let kb = KC.min(self.k - k0);
            let accumulate = k0 > 0 || !self.first_stores;
            let last = k0 + kb == self.k;
            let a_block = &self.a_pack[(k0 * mp + i0 / MR * kb) * MR..];
            let b_panel = &mut b_panel[..kb * NR];
            for j0 in (0..n).step_by(NR) {
                fill_b(k0, j0, b_panel);
                let nb = NR.min(n - j0);
                for (r0, a_panel) in (0..rows).step_by(MR).zip(a_block.chunks_exact(kb * MR)) {
                    let mb = MR.min(rows - r0);
                    let mut bias = [0.0f32; MR];
                    if let (true, Some(bs)) = (last, self.bias) {
                        bias[..mb].copy_from_slice(&bs[i0 + r0..][..mb]);
                    }
                    let fin = last.then_some((&bias[..], self.act));
                    let ctile = &mut cblock[r0 * n + j0..];
                    // SAFETY (both calls): `kernel`'s CPU feature was probed.
                    if mb == MR && nb == NR {
                        unsafe { (self.kernel)(a_panel, b_panel, ctile, n, accumulate, fin) };
                    } else {
                        // Edge: the same kernel on a zero-padded temp tile,
                        // so edge elements get the interior's exact ops.
                        let mut tmp = [[0.0f32; NR]; MR];
                        let tmp = tmp.as_flattened_mut();
                        if accumulate {
                            for (trow, crow) in
                                tmp.chunks_exact_mut(NR).zip(ctile.chunks(n)).take(mb)
                            {
                                trow[..nb].copy_from_slice(&crow[..nb]);
                            }
                        }
                        unsafe { (self.kernel)(a_panel, b_panel, tmp, NR, accumulate, fin) };
                        for (trow, crow) in tmp.chunks_exact(NR).zip(ctile.chunks_mut(n)).take(mb) {
                            crow[..nb].copy_from_slice(&trow[..nb]);
                        }
                    }
                }
            }
            k0 += kb;
        }
    }
}

/// The portable register tile (non-x86 / no-FMA fallback), a safe [`Kernel`]:
/// accumulators live in locals across the k-block.
fn microkernel_portable<const MR: usize>(
    a_panel: &[f32],
    b_panel: &[f32],
    c: &mut [f32],
    ldc: usize,
    accumulate: bool,
    fin: Finish,
) {
    let mut acc = [[0.0f32; NR]; MR];
    for (arow, brow) in a_panel.chunks_exact(MR).zip(b_panel.chunks_exact(NR)) {
        for (accr, &ar) in acc.iter_mut().zip(arow) {
            for (av, &bv) in accr.iter_mut().zip(brow) {
                *av += ar * bv;
            }
        }
    }
    for (r, accr) in acc.iter().enumerate() {
        for (cv, &av) in c[r * ldc..r * ldc + NR].iter_mut().zip(accr) {
            let v = if accumulate { *cv + av } else { av };
            *cv = fin.map_or(v, |(bias, act)| act.apply(v + bias[r]));
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{Finish, FusedAct, NR};
    use std::arch::x86_64::*;

    /// Rows of the AVX2 tile.
    const MR: usize = 6;
    /// YMM vectors per tile row.
    const NV: usize = NR / 8;
    /// Rows of the AVX-512 tile, each one ZMM vector.
    const MR512: usize = 16;
    // The accumulators, one broadcast and the B row must fit the 16 YMM
    // (32 ZMM) registers, or the tile spills.
    const _: () = assert!(NV * 8 == NR && MR * NV + NV < 16, "tile exceeds the YMM file");
    const _: () = assert!(NR == 16 && MR512 + 2 <= 32, "tile exceeds the ZMM file");

    /// AVX2+FMA register tile: `MR × NV` YMM accumulators, each one FMA
    /// chain over the k-block (`MR·NV = 12` independent chains cover the
    /// FMA latency), held in registers from the first k-step to the store.
    /// The epilogue is vector ops only; its `max`/`min`/`sub` sequence is
    /// the one [`FusedAct::apply`] spells out.
    ///
    /// # Safety
    /// The CPU must have `avx2` and `fma`.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn microkernel(
        a_panel: &[f32],
        b_panel: &[f32],
        c: &mut [f32],
        ldc: usize,
        accumulate: bool,
        fin: Finish,
    ) {
        let kb = b_panel.len() / NR;
        // Every pointer access below stays inside these three bounds.
        assert!(a_panel.len() >= kb * MR && c.len() >= (MR - 1) * ldc + NR, "tile out of bounds");
        let (mut a, mut b, c) = (a_panel.as_ptr(), b_panel.as_ptr(), c.as_mut_ptr());
        let mut acc = [[_mm256_setzero_ps(); NV]; MR];
        for _ in 0..kb {
            let bv: [__m256; NV] = std::array::from_fn(|h| _mm256_loadu_ps(b.add(8 * h)));
            for (r, accr) in acc.iter_mut().enumerate() {
                let ar = _mm256_broadcast_ss(&*a.add(r));
                for (av, &bh) in accr.iter_mut().zip(&bv) {
                    *av = _mm256_fmadd_ps(ar, bh, *av);
                }
            }
            a = a.add(MR);
            b = b.add(NR);
        }
        for (r, accr) in acc.iter().enumerate() {
            for (h, &av) in accr.iter().enumerate() {
                let p = c.add(r * ldc + 8 * h);
                let mut v = if accumulate { _mm256_add_ps(_mm256_loadu_ps(p), av) } else { av };
                if let Some((bias, act)) = fin {
                    v = _mm256_add_ps(v, _mm256_set1_ps(bias[r]));
                    v = match act {
                        FusedAct::Identity => v,
                        FusedAct::Relu => _mm256_max_ps(v, _mm256_setzero_ps()),
                        FusedAct::Clipped { lo, hi } => {
                            let lo = _mm256_set1_ps(lo);
                            let t = _mm256_min_ps(_mm256_max_ps(v, lo), _mm256_set1_ps(hi));
                            _mm256_sub_ps(t, lo)
                        }
                    };
                }
                _mm256_storeu_ps(p, v);
            }
        }
    }

    /// AVX-512 register tile: [`microkernel`] with sixteen ZMM rows — per
    /// k-step one load of the B row and sixteen broadcast-FMAs, sixteen
    /// independent chains for two FMA ports of latency 4. Each element is
    /// the same FMA chain and the same epilogue ops as in the AVX2 tile, so
    /// the two agree bit for bit.
    ///
    /// # Safety
    /// The CPU must have `avx512f`.
    #[target_feature(enable = "avx512f")]
    pub unsafe fn microkernel512(
        a_panel: &[f32],
        b_panel: &[f32],
        c: &mut [f32],
        ldc: usize,
        accumulate: bool,
        fin: Finish,
    ) {
        const MR: usize = MR512;
        let kb = b_panel.len() / NR;
        // Every pointer access below stays inside these three bounds.
        assert!(a_panel.len() >= kb * MR && c.len() >= (MR - 1) * ldc + NR, "tile out of bounds");
        let (mut a, mut b, c) = (a_panel.as_ptr(), b_panel.as_ptr(), c.as_mut_ptr());
        let mut acc = [_mm512_setzero_ps(); MR];
        for _ in 0..kb {
            let bv = _mm512_loadu_ps(b);
            // A k-step is one new cache line of the A panel, which streams
            // from L2: ask for it 16 steps early (+9 % on the VGG convs).
            // A prefetch past the arena's end is a no-op, never a fault.
            _mm_prefetch::<_MM_HINT_T0>(a.wrapping_add(16 * MR).cast());
            for (r, av) in acc.iter_mut().enumerate() {
                *av = _mm512_fmadd_ps(_mm512_set1_ps(*a.add(r)), bv, *av);
            }
            a = a.add(MR);
            b = b.add(NR);
        }
        for (r, &av) in acc.iter().enumerate() {
            let p = c.add(r * ldc);
            let mut v = if accumulate { _mm512_add_ps(_mm512_loadu_ps(p), av) } else { av };
            if let Some((bias, act)) = fin {
                v = _mm512_add_ps(v, _mm512_set1_ps(bias[r]));
                v = match act {
                    FusedAct::Identity => v,
                    FusedAct::Relu => _mm512_max_ps(v, _mm512_setzero_ps()),
                    FusedAct::Clipped { lo, hi } => {
                        let lo = _mm512_set1_ps(lo);
                        let t = _mm512_min_ps(_mm512_max_ps(v, lo), _mm512_set1_ps(hi));
                        _mm512_sub_ps(t, lo)
                    }
                };
            }
            _mm512_storeu_ps(p, v);
        }
    }
}

/// `m == 1` kernel over the column span `j0..j0+ccols.len()`: k-blocked axpy
/// with zero-skip (the seed kernel's shape), then the fused epilogue.
#[allow(clippy::too_many_arguments)]
fn gemm_row1(
    j0: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    ccols: &mut [f32],
    bias0: f32,
    act: FusedAct,
) {
    let jb = ccols.len();
    let mut k0 = 0;
    while k0 < k {
        let kb = KC.min(k - k0);
        for kk in 0..kb {
            let aik = a[k0 + kk];
            if aik == 0.0 {
                continue;
            }
            let brow = &b[(k0 + kk) * n + j0..(k0 + kk) * n + j0 + jb];
            for (cj, &bj) in ccols.iter_mut().zip(brow) {
                *cj += aik * bj;
            }
        }
        k0 += kb;
    }
    if bias0 != 0.0 || act != FusedAct::Identity {
        for cv in ccols.iter_mut() {
            *cv = act.apply(*cv + bias0);
        }
    }
}

/// The seed's unpacked row kernel, kept as the benchmark baseline so
/// `examples/gemm_shapes.rs` can report the packed kernel's speedup against
/// it (`BENCH_gemm.json`).
pub fn gemm_unpacked(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32], beta: f32) {
    assert_eq!(a.len(), m * k, "A dims mismatch");
    assert_eq!(b.len(), k * n, "B dims mismatch");
    assert_eq!(c.len(), m * n, "C dims mismatch");

    scale(c, beta);
    if m == 0 || n == 0 || k == 0 {
        return;
    }

    let flops = m * n * k;
    if flops >= PAR_FLOP_THRESHOLD && m > 1 {
        c.par_chunks_mut(n).enumerate().for_each(|(i, crow)| unpacked_row(i, k, n, a, b, crow));
    } else {
        for (i, crow) in c.chunks_mut(n).enumerate() {
            unpacked_row(i, k, n, a, b, crow);
        }
    }
}

/// Accumulate one output row: `crow += a[i, :] · b` (seed kernel body).
#[inline]
fn unpacked_row(i: usize, k: usize, n: usize, a: &[f32], b: &[f32], crow: &mut [f32]) {
    let arow = &a[i * k..(i + 1) * k];
    // k-blocking keeps the active B panel hot in cache.
    let mut k0 = 0;
    while k0 < k {
        let kb = KC.min(k - k0);
        for kk in 0..kb {
            let aik = arow[k0 + kk];
            if aik == 0.0 {
                continue;
            }
            let brow = &b[(k0 + kk) * n..(k0 + kk) * n + n];
            // This inner loop autovectorizes: c[j] += aik * b[kk, j].
            for (cj, &bj) in crow.iter_mut().zip(brow) {
                *cj += aik * bj;
            }
        }
        k0 += kb;
    }
}

/// `c[m×n] = a_tᵀ · b[k×n] + beta·c` with `A` stored transposed (`a_t` is
/// `[k, m]` row-major): the backward pass's `dcol = Wᵀ·dY` and `dW = Xᵀ·dY`.
/// The same nest as [`gemm`]; only the `A` pack reads the other layout.
pub fn gemm_at(m: usize, k: usize, n: usize, a_t: &[f32], b: &[f32], c: &mut [f32], beta: f32) {
    assert_eq!(b.len(), k * n, "B dims mismatch");
    let (a, fill) = (ASrc::KMajor(a_t), rowmajor_panels(b, n));
    with_arena(&PACK_TLS, |pack| {
        gemm_core(m, k, n, a, &fill, c, beta, None, FusedAct::Identity, pack)
    });
}

/// `c[m×n] = a[m×k] · b_tᵀ + beta·c` with `B` stored transposed (`b_t` is
/// `[n, k]` row-major): the backward pass's `dW = dY·colᵀ` and `dX = dY·Wᵀ`.
/// The same nest as [`gemm`] behind a transposing panel source.
pub fn gemm_bt(m: usize, k: usize, n: usize, a: &[f32], b_t: &[f32], c: &mut [f32], beta: f32) {
    assert_eq!(b_t.len(), n * k, "B^T dims mismatch");
    let fill = bt_panels(b_t, k, n);
    with_arena(&PACK_TLS, |pack| {
        gemm_core(m, k, n, a, &fill, c, beta, None, FusedAct::Identity, pack)
    });
}

/// Panel source for a `B` stored transposed (`b_t` is `[n, k]` row-major):
/// column `jj` of the panel is row `j0 + jj` of `b_t` over the k-block, read
/// contiguously; columns at or beyond `n` are zero.
fn bt_panels(b_t: &[f32], k: usize, n: usize) -> impl Fn(usize, usize, &mut [f32]) + Sync + '_ {
    move |k0, j0, panel| {
        let kb = panel.len() / NR;
        let nb = NR.min(n - j0);
        for (jj, src) in b_t[j0 * k..].chunks_exact(k).take(nb).enumerate() {
            for (dst, &v) in panel.chunks_exact_mut(NR).zip(&src[k0..k0 + kb]) {
                dst[jj] = v;
            }
        }
        if nb < NR {
            panel.chunks_exact_mut(NR).for_each(|dst| dst[nb..].fill(0.0));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn naive(m: usize, k: usize, n: usize, a: &[f32], b: &[f32]) -> Vec<f32> {
        let mut c = vec![0.0; m * n];
        for i in 0..m {
            for kk in 0..k {
                for j in 0..n {
                    c[i * n + j] += a[i * k + kk] * b[kk * n + j];
                }
            }
        }
        c
    }

    fn rand_vec(n: usize, rng: &mut StdRng) -> Vec<f32> {
        (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect()
    }

    #[test]
    fn matches_naive_small() {
        let mut rng = StdRng::seed_from_u64(1);
        for &(m, k, n) in &[(1, 1, 1), (2, 3, 4), (5, 7, 3), (8, 8, 8)] {
            let a = rand_vec(m * k, &mut rng);
            let b = rand_vec(k * n, &mut rng);
            let mut c = vec![0.0; m * n];
            gemm(m, k, n, &a, &b, &mut c, 0.0);
            let want = naive(m, k, n, &a, &b);
            for (x, y) in c.iter().zip(&want) {
                assert!((x - y).abs() < 1e-4, "{x} vs {y}");
            }
        }
    }

    #[test]
    fn matches_naive_large_parallel() {
        let mut rng = StdRng::seed_from_u64(2);
        let (m, k, n) = (64, 300, 50);
        let a = rand_vec(m * k, &mut rng);
        let b = rand_vec(k * n, &mut rng);
        let mut c = vec![0.0; m * n];
        gemm(m, k, n, &a, &b, &mut c, 0.0);
        let want = naive(m, k, n, &a, &b);
        for (x, y) in c.iter().zip(&want) {
            assert!((x - y).abs() < 1e-3, "{x} vs {y}");
        }
    }

    #[test]
    fn matches_unpacked_across_shapes() {
        // Shapes chosen to cross every blocking boundary: MR/NR remainders,
        // multiple KC blocks, and the single-row N-split path.
        let mut rng = StdRng::seed_from_u64(7);
        for &(m, k, n) in
            &[(1, 700, 300), (3, 5, 9), (4, 256, 8), (5, 257, 9), (13, 520, 33), (16, 300, 64)]
        {
            let a = rand_vec(m * k, &mut rng);
            let b = rand_vec(k * n, &mut rng);
            let mut c1 = vec![0.0; m * n];
            let mut c2 = vec![0.0; m * n];
            gemm(m, k, n, &a, &b, &mut c1, 0.0);
            gemm_unpacked(m, k, n, &a, &b, &mut c2, 0.0);
            for (x, y) in c1.iter().zip(&c2) {
                assert!((x - y).abs() < 1e-3, "({m},{k},{n}): {x} vs {y}");
            }
        }
    }

    #[test]
    fn fused_epilogue_matches_separate_passes() {
        let mut rng = StdRng::seed_from_u64(8);
        let (m, k, n) = (6, 40, 19);
        let a = rand_vec(m * k, &mut rng);
        let b = rand_vec(k * n, &mut rng);
        let bias: Vec<f32> = (0..m).map(|i| i as f32 * 0.1 - 0.2).collect();
        for act in [FusedAct::Identity, FusedAct::Relu, FusedAct::Clipped { lo: -0.5, hi: 0.8 }] {
            let mut fused = vec![0.0; m * n];
            let mut scratch = Scratch::new();
            gemm_fused(m, k, n, &a, &b, &mut fused, Some(&bias), act, &mut scratch);

            let mut want = vec![0.0; m * n];
            gemm(m, k, n, &a, &b, &mut want, 0.0);
            for (i, row) in want.chunks_mut(n).enumerate() {
                for v in row.iter_mut() {
                    *v = act.apply(*v + bias[i]);
                }
            }
            for (x, y) in fused.iter().zip(&want) {
                assert!((x - y).abs() < 1e-4, "{act:?}: {x} vs {y}");
            }
        }
    }

    /// A register tile's kernel behind slices: `(a_panel, b_panel, c, ldc,
    /// accumulate, fin)`, `fin`'s bias one float per tile row.
    #[cfg(target_arch = "x86_64")]
    type TileFn = fn(&[f32], &[f32], &mut [f32], usize, bool, Option<(&[f32], FusedAct)>);
    #[cfg(target_arch = "x86_64")]
    type FillFn<'a> = &'a (dyn Fn(usize, usize, &mut [f32]) + Sync);
    /// The whole nest at one tier, [`gemm_core`]'s arguments.
    #[cfg(target_arch = "x86_64")]
    #[rustfmt::skip]
    type CoreFn = fn(usize, usize, usize, ASrc, FillFn, &mut [f32], f32, Option<&[f32]>, FusedAct, &mut Vec<f32>);

    /// One FMA tier this CPU has, with `MR` erased so that the per-tier
    /// tests are loops over [`x86_tiers`] instead of generic functions.
    #[cfg(target_arch = "x86_64")]
    struct TierUnderTest {
        name: &'static str,
        mr: usize,
        kernel: TileFn,
        /// The portable tile at the same `mr`.
        portable: TileFn,
        core: CoreFn,
    }

    /// The table the per-tier tests walk: every FMA tier of this CPU, the
    /// narrowest first.
    #[cfg(target_arch = "x86_64")]
    fn x86_tiers() -> Vec<TierUnderTest> {
        use std::arch::is_x86_feature_detected as has;
        /// `gemm_core` after its preamble (`beta` is 0 or 1 here, and a zero
        /// `k` leaves `c` alone), at `MR` rows.
        macro_rules! core_at {
            ($mr:literal, $kernel:expr) => {
                |m, k, n, a, fill, c, beta, bias, act, pack| {
                    let fill = |k0: usize, j0: usize, panel: &mut [f32]| fill(k0, j0, panel);
                    gemm_nest::<$mr, _>(m, k, n, a, &fill, c, beta == 0.0, bias, act, pack, $kernel)
                }
            };
        }
        let mut tiers = Vec::new();
        if has!("avx2") && has!("fma") {
            tiers.push(TierUnderTest {
                name: "avx2+fma",
                mr: 6,
                // SAFETY (here and below): the probe just passed.
                kernel: |a, b, c, ldc, acc, fin| unsafe {
                    x86::microkernel(a, b, c, ldc, acc, fin)
                },
                portable: microkernel_portable::<6>,
                core: core_at!(6, x86::microkernel),
            });
        }
        if has!("avx512f") {
            tiers.push(TierUnderTest {
                name: "avx512f",
                mr: 16,
                kernel: |a, b, c, ldc, acc, fin| unsafe {
                    x86::microkernel512(a, b, c, ldc, acc, fin)
                },
                portable: microkernel_portable::<16>,
                core: core_at!(16, x86::microkernel512),
            });
        }
        tiers
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn x86_tile_matches_portable_tile() {
        let mut rng = StdRng::seed_from_u64(10);
        for t in x86_tiers() {
            for act in [FusedAct::Identity, FusedAct::Relu, FusedAct::Clipped { lo: -0.5, hi: 2.0 }]
            {
                for accumulate in [false, true] {
                    for with_fin in [false, true] {
                        // Random packed panels for one full k-block.
                        let (ap, bp) = (rand_vec(KC * t.mr, &mut rng), rand_vec(KC * NR, &mut rng));
                        let bias = rand_vec(t.mr, &mut rng);
                        let fin = with_fin.then_some((&bias[..], act));
                        let mut fast = rand_vec(t.mr * NR, &mut rng);
                        let mut slow = fast.clone();
                        (t.kernel)(&ap, &bp, &mut fast, NR, accumulate, fin);
                        (t.portable)(&ap, &bp, &mut slow, NR, accumulate, fin);
                        for (x, y) in fast.iter().zip(&slow) {
                            let tol = 1e-4 * y.abs().max(1.0);
                            let tier = t.name;
                            assert!(
                                (x - y).abs() <= tol,
                                "{tier} {act:?} acc={accumulate}: {x} vs {y}"
                            );
                        }
                    }
                }
            }
        }
    }

    /// The vector epilogue and [`FusedAct::apply`] agree bit for bit. A
    /// product that underflows makes every accumulator `-0.0`, and
    /// `-0.0 + bias == bias` exactly, so the bias row carries any value —
    /// signed zeros, the clip bounds, infinities, NaN — to the activation.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn vector_epilogue_matches_apply_bit_for_bit() {
        let (lo, hi) = (0.0f32, 2.0f32);
        let specials = [
            -0.0,
            0.0,
            lo,
            hi,
            f32::MIN_POSITIVE,
            -f32::MIN_POSITIVE,
            1e-42,
            -1e-42,
            hi + f32::EPSILON,
            1.0,
            -1.0,
            3.5,
            f32::MAX,
            f32::MIN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            0.3,
        ];
        for t in x86_tiers() {
            let (ap, bp) = (vec![-1e-30f32; t.mr], [1e-30f32; NR]);
            for act in [FusedAct::Identity, FusedAct::Relu, FusedAct::Clipped { lo, hi }] {
                for vals in specials.chunks(t.mr) {
                    let mut bias = vec![0.0f32; t.mr];
                    bias[..vals.len()].copy_from_slice(vals);
                    let mut c = vec![7.0f32; t.mr * NR];
                    (t.kernel)(&ap, &bp, &mut c, NR, false, Some((&bias, act)));
                    for (crow, &x) in c.chunks(NR).zip(&bias) {
                        let want = act.apply(x);
                        for got in crow {
                            let tier = t.name;
                            assert_eq!(
                                got.to_bits(),
                                want.to_bits(),
                                "{tier} {act:?}({x}): {got} vs {want}"
                            );
                        }
                    }
                }
            }
        }
        // What the contract promises of the zeros themselves.
        assert_eq!(FusedAct::Relu.apply(-0.0).to_bits(), 0);
        assert_eq!(FusedAct::Clipped { lo, hi }.apply(-0.0).to_bits(), 0);
        assert_eq!(FusedAct::Clipped { lo: 0.5, hi }.apply(0.25).to_bits(), 0);
    }

    /// Every FMA tier of this CPU serves the narrowest one's bits, on every
    /// entry of the nest: both stored layouts of `A`, the row-major and the
    /// transposing panel source, stored and accumulated first k-blocks, every
    /// epilogue — over shapes that cross each tier's row-panel remainders,
    /// the column-panel remainder and the k-block boundary, and on the nine
    /// shapes of `results/BENCH_gemm.json`.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn tiers_agree_bit_for_bit() {
        let tiers = x86_tiers();
        let Some((narrow, wider)) = tiers.split_first().filter(|(_, w)| !w.is_empty()) else {
            eprintln!("tiers_agree_bit_for_bit: skipped, fewer than two FMA tiers (no avx512f)");
            return;
        };
        let mut shapes = vec![
            (64, 27, 1024),
            (64, 576, 1024),
            (128, 576, 256),
            (128, 1152, 256),
            (128, 1152, 64),
            (16, 27, 256),
            (16, 144, 256),
            (32, 144, 256),
            (32, 288, 256),
        ];
        for m in [1, 5, 6, 7, 15, 16, 17, 33] {
            for k in [0, 1, 27, 255, 256, 257, 513] {
                shapes.extend([1, 15, 16, 17, 100].map(|n| (m, k, n)));
            }
        }
        let acts = [FusedAct::Identity, FusedAct::Relu, FusedAct::Clipped { lo: -0.5, hi: 2.0 }];
        let mut rng = StdRng::seed_from_u64(21);
        let mut pack = Vec::new();
        for (m, k, n) in shapes {
            // Random data has no layout: the same floats serve as `[m, k]`
            // and `[k, m]`, as `[k, n]` and `[n, k]`.
            let (a, b) = (rand_vec(m * k, &mut rng), rand_vec(k * n, &mut rng));
            let (bias, c0) = (rand_vec(m, &mut rng), rand_vec(m * n, &mut rng));
            let (rowmajor, transposed) = (rowmajor_panels(&b, n), bt_panels(&b, k, n));
            let entries: [(&str, bool, FillFn); 3] = [
                ("A·B", false, &rowmajor),
                ("Aᵀ·B", true, &rowmajor),
                ("A·Bᵀ", false, &transposed),
            ];
            for (entry, kmajor, fill) in entries {
                for beta in [0.0, 1.0] {
                    for act in acts {
                        let mut run = |t: &TierUnderTest| {
                            let a = if kmajor { ASrc::KMajor(&a) } else { ASrc::RowMajor(&a) };
                            let mut c = c0.clone();
                            (t.core)(m, k, n, a, fill, &mut c, beta, Some(&bias), act, &mut pack);
                            c
                        };
                        let want = run(narrow);
                        for t in wider {
                            let got = run(t);
                            let diff =
                                want.iter().zip(&got).position(|(x, y)| x.to_bits() != y.to_bits());
                            assert_eq!(
                                diff, None,
                                "{entry} ({m},{k},{n}) beta={beta} {act:?}: {} differs from {}",
                                t.name, narrow.name
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn fused_single_row_applies_epilogue() {
        let mut rng = StdRng::seed_from_u64(9);
        let (k, n) = (30, 700);
        let a = rand_vec(k, &mut rng);
        let b = rand_vec(k * n, &mut rng);
        let bias = [0.3f32];
        let act = FusedAct::Relu;
        let mut fused = vec![0.0; n];
        let mut scratch = Scratch::new();
        gemm_fused(1, k, n, &a, &b, &mut fused, Some(&bias), act, &mut scratch);

        let mut want = vec![0.0; n];
        gemm(1, k, n, &a, &b, &mut want, 0.0);
        for v in want.iter_mut() {
            *v = act.apply(*v + bias[0]);
        }
        for (x, y) in fused.iter().zip(&want) {
            assert!((x - y).abs() < 1e-4, "{x} vs {y}");
        }
    }

    #[test]
    fn zero_k_fused_is_activated_bias() {
        let mut c = vec![7.0; 6]; // beta=0 clears this first
        let mut scratch = Scratch::new();
        let bias = [1.0f32, -2.0];
        gemm_fused(2, 0, 3, &[], &[], &mut c, Some(&bias), FusedAct::Relu, &mut scratch);
        assert_eq!(c, vec![1.0, 1.0, 1.0, 0.0, 0.0, 0.0]);
    }

    #[test]
    fn beta_accumulates() {
        let a = vec![1.0, 0.0, 0.0, 1.0]; // identity 2x2
        let b = vec![1.0, 2.0, 3.0, 4.0];
        let mut c = vec![10.0; 4];
        gemm(2, 2, 2, &a, &b, &mut c, 1.0);
        assert_eq!(c, vec![11.0, 12.0, 13.0, 14.0]);
    }

    /// A rayon worker can re-enter `gemm` while its pack arena is borrowed
    /// further up the stack (see `with_arena`); the nested call must run on
    /// its own buffer and return the same bits.
    #[test]
    fn gemm_under_a_held_arena_borrow_matches_the_plain_call() {
        let mut rng = StdRng::seed_from_u64(5);
        let (m, k, n) = (7, 30, 19);
        let a = rand_vec(m * k, &mut rng);
        let b = rand_vec(k * n, &mut rng);
        let mut want = vec![0.0; m * n];
        gemm(m, k, n, &a, &b, &mut want, 0.0);
        let mut got = vec![0.0; m * n];
        PACK_TLS.with(|p| {
            let _held = p.borrow_mut();
            gemm(m, k, n, &a, &b, &mut got, 0.0);
        });
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&got), bits(&want));
    }

    #[test]
    fn gemm_at_matches_explicit_transpose() {
        let mut rng = StdRng::seed_from_u64(3);
        let (m, k, n) = (6, 9, 5);
        let a = rand_vec(m * k, &mut rng); // logical A [m,k]
        let b = rand_vec(k * n, &mut rng);
        // store A transposed as [k, m]
        let mut at = vec![0.0; k * m];
        for i in 0..m {
            for kk in 0..k {
                at[kk * m + i] = a[i * k + kk];
            }
        }
        let mut c1 = vec![0.0; m * n];
        let mut c2 = vec![0.0; m * n];
        gemm(m, k, n, &a, &b, &mut c1, 0.0);
        gemm_at(m, k, n, &at, &b, &mut c2, 0.0);
        for (x, y) in c1.iter().zip(&c2) {
            assert!((x - y).abs() < 1e-4);
        }
    }

    #[test]
    fn gemm_bt_matches_explicit_transpose() {
        let mut rng = StdRng::seed_from_u64(4);
        let (m, k, n) = (4, 7, 6);
        let a = rand_vec(m * k, &mut rng);
        let b = rand_vec(k * n, &mut rng); // logical B [k,n]
        let mut bt = vec![0.0; n * k];
        for kk in 0..k {
            for j in 0..n {
                bt[j * k + kk] = b[kk * n + j];
            }
        }
        let mut c1 = vec![0.0; m * n];
        let mut c2 = vec![0.0; m * n];
        gemm(m, k, n, &a, &b, &mut c1, 0.0);
        gemm_bt(m, k, n, &a, &bt, &mut c2, 0.0);
        for (x, y) in c1.iter().zip(&c2) {
            assert!((x - y).abs() < 1e-4);
        }
    }

    #[test]
    fn zero_dims_are_noops() {
        let mut c: Vec<f32> = vec![];
        gemm(0, 3, 0, &[], &[], &mut c, 0.0);
        let mut c2 = vec![5.0; 4];
        gemm(2, 0, 2, &[], &[], &mut c2, 1.0);
        assert_eq!(c2, vec![5.0; 4]);
    }
}
