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
//! Loop nest (BLIS `jr`/`ir` order), per row-block task and k-block of at
//! most `KC` steps:
//!
//! ```text
//! pack the task's rows of this k-block of A -> MR-wide k-major panels (L2)
//! for each NR-wide column panel j:                        (B panel: L1)
//!     fill the KC×NR B panel from the source
//!     for each MR-wide row panel i:
//!         MR×NR register tile: acc = Σ_k a[i,k]·b[k,j]   (registers)
//!         first k-block stores, later ones add, the last applies
//!         bias (+ a per-row affine) + activation before the store
//! ```
//!
//! A source may also skip the fill: the tile is generic over how it finds
//! B's row `k` (`BRows`), and a stride-1 convolution whose output rows
//! hold whole column panels hands it the zero-padded image itself, row `k`
//! at `base + off[k]` (`conv2d_image`). A filled panel is reused once per
//! row panel, so when `m` spans one or two of them the copy costs about
//! what the FMAs do; reading in place removes it. Same pack, same blocking,
//! same tile source, same epilogue: the two ways return the same bits.
//!
//! Blocking, per tier (also DESIGN.md §9). The nest above is one source,
//! generic over the tile's row count `MR`; the CPU is probed once
//! ([`simd_tier`]) and `gemm_core` enters the nest at that tier's `MR` with
//! its kernel — the one dispatch point, per call, not per tile. `NR = 16`
//! and `KC = 256` are the same for every tier, so a B panel is 16 KB
//! whatever runs and no panel source knows the tier:
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
//! k-blocks combined in order, then `+ bias`, then (if asked) `· scale` and
//! `+ shift` as a separate multiply and add, then the activation — whatever
//! its position in the register tile, whether the tile is interior or an
//! edge (edges run the same kernel on a zero-padded temp tile), whether B's
//! rows came from a panel or in place, whatever
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
/// one `KC×MR` A panel (6 KB or 16 KB) sit in L1 while a tile is computed,
/// and the pack arena holds one k-block of `A`: `⌈m/MR⌉·MR·KC + tasks·KC·NR`
/// floats.
pub const KC: usize = 256;

/// How a register tile finds row `kk` of its k-block of `B`: `NR` floats
/// starting at `row(kk)`. Every kernel is generic over it, so a tier has one
/// kernel source and each way of addressing B its own monomorphised copy,
/// with no per-k branch.
///
/// # Safety
/// For every `kk < self.kb()`, `self.row(kk)` points at `NR` readable `f32`s
/// that outlive `self`: the kernels read them without a check.
pub(crate) unsafe trait BRows: Copy {
    /// k-steps in the block.
    fn kb(self) -> usize;
    /// The first float of row `kk`.
    fn row(self, kk: usize) -> *const f32;
}

/// A filled k-major panel: row `kk` is the `NR` floats at `kk·NR`.
#[derive(Clone, Copy)]
pub(crate) struct Panel<'a>(pub(crate) &'a [f32]);

// SAFETY: for `kk < len / NR`, row `kk` ends at `(kk + 1)·NR ≤ len`.
unsafe impl BRows for Panel<'_> {
    fn kb(self) -> usize {
        self.0.len() / NR
    }

    fn row(self, kk: usize) -> *const f32 {
        self.0.as_ptr().wrapping_add(kk * NR)
    }
}

/// The nest's `B` operand, handed out one k-block, then one column panel
/// of that block, at a time.
pub(crate) trait BSource: Sync {
    /// What the source works out once per k-block and row-block task.
    type Block;
    /// What the tile reads the rows through.
    type Rows<'p>: BRows
    where
        Self: 'p;

    /// Rows `k0..k0 + kb` of `B`.
    fn block(&self, k0: usize, kb: usize) -> Self::Block;

    /// Columns `j0..j0 + NR` of `block` (columns at or beyond `n` read as
    /// zero). `panel` is the calling task's `kb×NR` buffer: a source fills
    /// it and returns it as a [`Panel`], or leaves it and points at `B`
    /// where `B` already lies.
    fn rows<'p>(
        &'p self,
        block: &'p Self::Block,
        j0: usize,
        panel: &'p mut [f32],
    ) -> Self::Rows<'p>;
}

/// A panel source: `fill(k0, j0, panel)` writes rows `k0..k0 + panel.len()
/// / NR` k-major, `NR` floats per k-step.
impl<F: Fn(usize, usize, &mut [f32]) + Sync + ?Sized> BSource for F {
    type Block = usize;
    type Rows<'p>
        = Panel<'p>
    where
        Self: 'p;

    fn block(&self, k0: usize, _kb: usize) -> usize {
        k0
    }

    fn rows<'p>(&'p self, &k0: &'p usize, j0: usize, panel: &'p mut [f32]) -> Panel<'p> {
        self(k0, j0, panel);
        Panel(panel)
    }
}

/// What the last k-block applies to the accumulator before its store:
/// `act((acc + bias)·scale + shift)`, row `i` of the product taking entry
/// `i` of each slice. A missing bias adds `0.0`; `affine` is `(scale,
/// shift)`, a multiply then an add (never fused), which is an inference
/// BatchNorm's folded `a·x + b` exactly.
#[derive(Clone, Copy)]
pub(crate) struct Epilogue<'a> {
    pub(crate) bias: Option<&'a [f32]>,
    pub(crate) affine: Option<(&'a [f32], &'a [f32])>,
    pub(crate) act: FusedAct,
}

impl<'a> Epilogue<'a> {
    /// Bias and activation only.
    pub(crate) fn new(bias: Option<&'a [f32]>, act: FusedAct) -> Self {
        Epilogue { bias, affine: None, act }
    }

    /// The epilogue of row `i` on one element, in the vector tiles' order.
    #[inline(always)]
    fn apply(&self, i: usize, x: f32) -> f32 {
        let x = x + self.bias.map_or(0.0, |b| b[i]);
        let x = match self.affine {
            Some((scale, shift)) => x * scale[i] + shift[i],
            None => x,
        };
        self.act.apply(x)
    }
}

/// The epilogue a tile applies on the last k-block, its slices one entry
/// per tile row (the bias always present), or `None` before that block.
type Finish<'a> = Option<Epilogue<'a>>;

/// A register tile: over one k-block (`b.kb()` steps) `acc = a_panel ⊗ b`,
/// then `c = acc` or `c += acc` (`accumulate`), then the epilogue if `fin`.
/// `c` starts at the tile's first element, rows `ldc` apart. A kernel
/// checks `a_panel` and `c` itself; `b` is checked by its [`BRows`] type.
trait Tile<const MR: usize> {
    /// # Safety
    /// The CPU has the target features the tile was compiled for.
    unsafe fn tile<R: BRows>(
        a_panel: &[f32],
        b: R,
        c: &mut [f32],
        ldc: usize,
        accumulate: bool,
        fin: Finish,
    );
}

/// The instruction set a [`Tier`]'s tile is compiled for.
#[derive(Clone, Copy, Debug)]
enum Isa {
    #[cfg(target_arch = "x86_64")]
    Avx512,
    #[cfg(target_arch = "x86_64")]
    Avx2,
    Portable,
}

/// A register tile this build has a kernel for. Only [`tier`] makes one
/// outside tests, after probing its CPU feature.
pub(crate) struct Tier {
    pub(crate) name: &'static str,
    /// Microkernel row count (output rows accumulated per register tile).
    mr: usize,
    isa: Isa,
}

/// The tiers this build has tiles for.
#[cfg(target_arch = "x86_64")]
const AVX512: Tier = Tier { name: "avx512f", mr: 16, isa: Isa::Avx512 };
#[cfg(target_arch = "x86_64")]
const AVX2: Tier = Tier { name: "avx2+fma", mr: 6, isa: Isa::Avx2 };
const PORTABLE: Tier = Tier { name: "scalar", mr: 6, isa: Isa::Portable };

/// The widest tile the CPU runs, probed once. The crate builds against
/// baseline x86-64 (SSE2 only), so this has to be a *runtime* dispatch; it
/// is one per [`gemm_core`] call.
pub(crate) fn tier() -> &'static Tier {
    static TIER: OnceLock<Tier> = OnceLock::new();
    TIER.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        {
            use std::arch::is_x86_feature_detected as has;
            if has!("avx512f") {
                return AVX512;
            }
            if has!("avx2") && has!("fma") {
                return AVX2;
            }
        }
        PORTABLE
    })
}

/// Every FMA tier this CPU runs, the narrowest first: the table the
/// per-tier tests walk, so that they are loops instead of generic functions.
#[cfg(all(test, target_arch = "x86_64"))]
pub(crate) fn x86_tiers() -> Vec<Tier> {
    use std::arch::is_x86_feature_detected as has;
    let mut tiers = Vec::new();
    if has!("avx2") && has!("fma") {
        tiers.push(AVX2);
    }
    if has!("avx512f") {
        tiers.push(AVX512);
    }
    tiers
}

impl Tier {
    /// This tier's register tile.
    ///
    /// # Safety
    /// As [`Tile::tile`]; [`tier`] probed the feature.
    unsafe fn tile<R: BRows>(
        &self,
        a_panel: &[f32],
        b: R,
        c: &mut [f32],
        ldc: usize,
        accumulate: bool,
        fin: Finish,
    ) {
        match self.isa {
            #[cfg(target_arch = "x86_64")]
            Isa::Avx512 => x86::Avx512::tile(a_panel, b, c, ldc, accumulate, fin),
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2 => x86::Avx2::tile(a_panel, b, c, ldc, accumulate, fin),
            Isa::Portable => <Portable as Tile<6>>::tile(a_panel, b, c, ldc, accumulate, fin),
        }
    }
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
    unsafe { tier().tile(a_panel, Panel(b_panel), c, NR, false, None) }
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
    let (fill, epi) = (rowmajor_panels(b, n), Epilogue::new(bias, act));
    gemm_core(tier(), m, k, n, a, &fill, c, beta, epi, pack);
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
/// [`gemm_bt`] and [`gemm_at`] backward, on tier `t` — the machine's
/// [`tier`], or one a test's probe vouches the CPU runs.
///
/// `a` is the `A` operand in either stored layout (a plain slice is
/// `[m, k]` row-major). `b` hands out `B` one k-block, then one column
/// panel of it, at a time ([`BSource`]), per row-block task; a filled panel
/// is consumed from L1 before the next one is filled, so `B` is never
/// materialised.
///
/// `pack` is the grow-only arena, per row-block task one k-block of its
/// packed `A` panels then one B panel: at most `⌈m/MR⌉·MR·KC + tasks·KC·NR`
/// floats. Products big enough to split run one task per thread.
#[allow(clippy::too_many_arguments)]
pub(crate) fn gemm_core<'a, S: BSource + ?Sized>(
    t: &Tier,
    m: usize,
    k: usize,
    n: usize,
    a: impl Into<ASrc<'a>>,
    b: &S,
    c: &mut [f32],
    beta: f32,
    epi: Epilogue,
    pack: &mut Vec<f32>,
) {
    let (threads, mp) = (rayon::current_num_threads(), m.div_ceil(t.mr));
    let tasks = if m * n * k >= PAR_FLOP_THRESHOLD && threads > 1 { threads.min(mp) } else { 1 };
    gemm_tasks(t, tasks, m, k, n, a.into(), b, c, beta, epi, pack);
}

/// [`gemm_core`] split into `tasks` (at least one) contiguous row blocks.
#[allow(clippy::too_many_arguments)]
fn gemm_tasks<S: BSource + ?Sized>(
    t: &Tier,
    tasks: usize,
    m: usize,
    k: usize,
    n: usize,
    a: ASrc,
    b: &S,
    c: &mut [f32],
    beta: f32,
    epi: Epilogue,
    pack: &mut Vec<f32>,
) {
    let (ASrc::RowMajor(stored) | ASrc::KMajor(stored)) = a;
    assert_eq!(stored.len(), m * k, "A dims mismatch");
    assert_eq!(c.len(), m * n, "C dims mismatch");
    if let Some(bs) = epi.bias {
        assert_eq!(bs.len(), m, "bias dims mismatch");
    }
    if let Some((scale, shift)) = epi.affine {
        assert!(scale.len() == m && shift.len() == m, "affine dims mismatch");
    }
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 {
        // Degenerate reduction: the product is zero, but the epilogue still
        // owes bias, affine and activation.
        scale(c, beta);
        if epi.bias.is_some() || epi.affine.is_some() || epi.act != FusedAct::Identity {
            for (i, crow) in c.chunks_mut(n).enumerate() {
                for cv in crow.iter_mut() {
                    *cv = epi.apply(i, *cv);
                }
            }
        }
        return;
    }
    if beta != 0.0 {
        scale(c, beta);
    }

    let nest = Nest { m, k, n, a, first_stores: beta == 0.0, epi };
    match t.isa {
        #[cfg(target_arch = "x86_64")]
        Isa::Avx512 => gemm_nest::<16, x86::Avx512, S>(&nest, tasks, b, c, pack),
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 => gemm_nest::<6, x86::Avx2, S>(&nest, tasks, b, c, pack),
        Isa::Portable => gemm_nest::<6, Portable, S>(&nest, tasks, b, c, pack),
    }
}

/// `nest` past [`gemm_tasks`]' checks, at one tier's `MR`-row tile `T`
/// (its CPU feature probed): `k > 0`, and `c` is already scaled by `beta`.
fn gemm_nest<const MR: usize, T: Tile<MR>, S: BSource + ?Sized>(
    nest: &Nest,
    tasks: usize,
    b: &S,
    c: &mut [f32],
    pack: &mut Vec<f32>,
) {
    // Contiguous row blocks, each a multiple of MR rows, one per task (the
    // last may be short, and `tasks` past the row panels get none). A task's
    // arena is one k-block of its rows' A panels, then its B panel.
    let (m, n, kc, mp) = (nest.m, nest.n, KC.min(nest.k), nest.m.div_ceil(MR));
    let rows = mp.div_ceil(tasks) * MR;
    let tasks = m.div_ceil(rows);
    // Every element read below is written first (`pack_a`, a panel
    // source), so the arena is only ever grown, never cleared.
    pack.resize(mp * MR * kc + tasks * kc * NR, 0.0);
    if tasks == 1 {
        nest.run::<MR, T, S>(0, c, pack, b);
    } else {
        c.par_chunks_mut(rows * n)
            .zip(pack.par_chunks_mut((rows + NR) * kc))
            .enumerate()
            .for_each(|(t, (cblock, arena))| nest.run::<MR, T, S>(t * rows, cblock, arena, b));
    }
}

/// One call's loop nest, shared by every row-block task.
struct Nest<'a> {
    m: usize,
    k: usize,
    n: usize,
    a: ASrc<'a>,
    /// `beta == 0`: the first k-block overwrites `C` instead of adding.
    first_stores: bool,
    epi: Epilogue<'a>,
}

impl Nest<'_> {
    /// Interleave rows `i0..` of `A`, k-steps `k0..k0 + kb`, into `dst`'s
    /// `MR`-row panels: panel `p` (rows `i0 + p·MR..`) is `kb·MR`
    /// contiguous floats in k-major order, so the tile reads one
    /// `MR`-vector per k-step. Rows past `m` in the last panel are written
    /// as zeros, so no element keeps an earlier call's value.
    fn pack_a<const MR: usize>(&self, i0: usize, k0: usize, kb: usize, dst: &mut [f32]) {
        static ZERO: [f32; KC] = [0.0; KC];
        let (m, k) = (self.m, self.k);
        for (r0, panel) in (i0..).step_by(MR).zip(dst.chunks_exact_mut(kb * MR)) {
            let mb = MR.min(m - r0);
            match self.a {
                ASrc::RowMajor(a) => {
                    let rows: [&[f32]; MR] = std::array::from_fn(|r| {
                        if r < mb {
                            &a[(r0 + r) * k + k0..][..kb]
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
                // A k-step's `MR` floats are already contiguous in row `k`
                // of `Aᵀ`, so the pack is a copy.
                ASrc::KMajor(a_t) => {
                    let rows = a_t[k0 * m..].chunks_exact(m);
                    for (dst, row) in panel.chunks_exact_mut(MR).zip(rows) {
                        dst[..mb].copy_from_slice(&row[r0..][..mb]);
                        dst[mb..].fill(0.0);
                    }
                }
            }
        }
    }

    /// Compute output rows `i0..i0 + cblock.len() / n` (`i0` a multiple of
    /// `MR`) into `cblock` with tile `T`, whose CPU feature [`gemm_nest`]'s
    /// caller probed: per k-block, pack the block's A panels of these rows
    /// into the front of `arena`, then B's column panels outermost (each
    /// filled once into the rest of `arena` and kept in L1, or read in
    /// place), A panels innermost.
    fn run<const MR: usize, T: Tile<MR>, S: BSource + ?Sized>(
        &self,
        i0: usize,
        cblock: &mut [f32],
        arena: &mut [f32],
        b: &S,
    ) {
        let n = self.n;
        let rows = cblock.len() / n;
        let padded = rows.div_ceil(MR) * MR;
        let (a_pack, b_panel) = arena.split_at_mut(padded * KC.min(self.k));
        let mut k0 = 0;
        while k0 < self.k {
            let kb = KC.min(self.k - k0);
            let accumulate = k0 > 0 || !self.first_stores;
            let last = k0 + kb == self.k;
            let a_block = &mut a_pack[..padded * kb];
            self.pack_a::<MR>(i0, k0, kb, a_block);
            let b_block = b.block(k0, kb);
            for j0 in (0..n).step_by(NR) {
                let b_rows = b.rows(&b_block, j0, &mut b_panel[..kb * NR]);
                let nb = NR.min(n - j0);
                for (r0, a_panel) in (0..rows).step_by(MR).zip(a_block.chunks_exact(kb * MR)) {
                    let mb = MR.min(rows - r0);
                    // The epilogue's rows of this tile; rows past `mb` are
                    // computed into the temp tile and dropped.
                    let (mut bias, mut scale, mut shift) =
                        ([0.0f32; MR], [0.0f32; MR], [0.0f32; MR]);
                    let fin = if last {
                        let rows_of = |v: &[f32], dst: &mut [f32; MR]| {
                            dst[..mb].copy_from_slice(&v[i0 + r0..][..mb])
                        };
                        if let Some(bs) = self.epi.bias {
                            rows_of(bs, &mut bias);
                        }
                        if let Some((sc, sh)) = self.epi.affine {
                            rows_of(sc, &mut scale);
                            rows_of(sh, &mut shift);
                        }
                        let affine = self.epi.affine.map(|_| (&scale[..], &shift[..]));
                        Some(Epilogue { bias: Some(&bias[..]), affine, act: self.epi.act })
                    } else {
                        None
                    };
                    let ctile = &mut cblock[r0 * n + j0..];
                    // SAFETY (both calls): `T`'s CPU feature was probed.
                    if mb == MR && nb == NR {
                        unsafe { T::tile(a_panel, b_rows, ctile, n, accumulate, fin) };
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
                        unsafe { T::tile(a_panel, b_rows, tmp, NR, accumulate, fin) };
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

/// The portable register tile (non-x86 / no-FMA fallback): accumulators
/// live in locals across the k-block.
struct Portable;

impl<const MR: usize> Tile<MR> for Portable {
    unsafe fn tile<R: BRows>(
        a_panel: &[f32],
        b: R,
        c: &mut [f32],
        ldc: usize,
        accumulate: bool,
        fin: Finish,
    ) {
        let mut acc = [[0.0f32; NR]; MR];
        for (kk, arow) in a_panel.chunks_exact(MR).take(b.kb()).enumerate() {
            // SAFETY: `kk < b.kb()`, so the row is `NR` readable floats.
            let brow = unsafe { std::slice::from_raw_parts(b.row(kk), NR) };
            for (accr, &ar) in acc.iter_mut().zip(arow) {
                for (av, &bv) in accr.iter_mut().zip(brow) {
                    *av += ar * bv;
                }
            }
        }
        for (r, accr) in acc.iter().enumerate() {
            for (cv, &av) in c[r * ldc..r * ldc + NR].iter_mut().zip(accr) {
                let v = if accumulate { *cv + av } else { av };
                *cv = fin.map_or(v, |f| f.apply(r, v));
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{BRows, Finish, FusedAct, Tile, NR};
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

    /// The AVX2+FMA tile, [`microkernel`].
    pub struct Avx2;
    /// The AVX-512 tile, [`microkernel512`].
    pub struct Avx512;

    impl Tile<MR> for Avx2 {
        unsafe fn tile<R: BRows>(
            a_panel: &[f32],
            b: R,
            c: &mut [f32],
            ldc: usize,
            accumulate: bool,
            fin: Finish,
        ) {
            microkernel(a_panel, b, c, ldc, accumulate, fin)
        }
    }

    impl Tile<MR512> for Avx512 {
        unsafe fn tile<R: BRows>(
            a_panel: &[f32],
            b: R,
            c: &mut [f32],
            ldc: usize,
            accumulate: bool,
            fin: Finish,
        ) {
            microkernel512(a_panel, b, c, ldc, accumulate, fin)
        }
    }

    /// AVX2+FMA register tile: `MR × NV` YMM accumulators, each one FMA
    /// chain over the k-block (`MR·NV = 12` independent chains cover the
    /// FMA latency), held in registers from the first k-step to the store.
    /// The epilogue is vector ops only; its `max`/`min`/`sub` sequence is
    /// the one [`FusedAct::apply`] spells out.
    ///
    /// # Safety
    /// The CPU must have `avx2` and `fma`.
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn microkernel<R: BRows>(
        a_panel: &[f32],
        b: R,
        c: &mut [f32],
        ldc: usize,
        accumulate: bool,
        fin: Finish,
    ) {
        let kb = b.kb();
        // Every pointer access below stays inside these bounds and `b`'s.
        assert!(a_panel.len() >= kb * MR && c.len() >= (MR - 1) * ldc + NR, "tile out of bounds");
        let (mut a, c) = (a_panel.as_ptr(), c.as_mut_ptr());
        let mut acc = [[_mm256_setzero_ps(); NV]; MR];
        for kk in 0..kb {
            let brow = b.row(kk);
            let bv: [__m256; NV] = std::array::from_fn(|h| _mm256_loadu_ps(brow.add(8 * h)));
            for (r, accr) in acc.iter_mut().enumerate() {
                let ar = _mm256_broadcast_ss(&*a.add(r));
                for (av, &bh) in accr.iter_mut().zip(&bv) {
                    *av = _mm256_fmadd_ps(ar, bh, *av);
                }
            }
            a = a.add(MR);
        }
        for (r, accr) in acc.iter().enumerate() {
            for (h, &av) in accr.iter().enumerate() {
                let p = c.add(r * ldc + 8 * h);
                let mut v = if accumulate { _mm256_add_ps(_mm256_loadu_ps(p), av) } else { av };
                if let Some(f) = fin {
                    v = _mm256_add_ps(v, _mm256_set1_ps(f.bias.map_or(0.0, |bs| bs[r])));
                    if let Some((scale, shift)) = f.affine {
                        v = _mm256_mul_ps(v, _mm256_set1_ps(scale[r]));
                        v = _mm256_add_ps(v, _mm256_set1_ps(shift[r]));
                    }
                    v = match f.act {
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
    unsafe fn microkernel512<R: BRows>(
        a_panel: &[f32],
        b: R,
        c: &mut [f32],
        ldc: usize,
        accumulate: bool,
        fin: Finish,
    ) {
        const MR: usize = MR512;
        let kb = b.kb();
        // Every pointer access below stays inside these bounds and `b`'s.
        assert!(a_panel.len() >= kb * MR && c.len() >= (MR - 1) * ldc + NR, "tile out of bounds");
        let (mut a, c) = (a_panel.as_ptr(), c.as_mut_ptr());
        let mut acc = [_mm512_setzero_ps(); MR];
        for kk in 0..kb {
            let bv = _mm512_loadu_ps(b.row(kk));
            // A k-step is one new cache line of the A panel, which streams
            // from L2: ask for it 16 steps early (+9 % on the VGG convs).
            // A prefetch past the arena's end is a no-op, never a fault.
            _mm_prefetch::<_MM_HINT_T0>(a.wrapping_add(16 * MR).cast());
            for (r, av) in acc.iter_mut().enumerate() {
                *av = _mm512_fmadd_ps(_mm512_set1_ps(*a.add(r)), bv, *av);
            }
            a = a.add(MR);
        }
        for (r, &av) in acc.iter().enumerate() {
            let p = c.add(r * ldc);
            let mut v = if accumulate { _mm512_add_ps(_mm512_loadu_ps(p), av) } else { av };
            if let Some(f) = fin {
                v = _mm512_add_ps(v, _mm512_set1_ps(f.bias.map_or(0.0, |bs| bs[r])));
                if let Some((scale, shift)) = f.affine {
                    v = _mm512_mul_ps(v, _mm512_set1_ps(scale[r]));
                    v = _mm512_add_ps(v, _mm512_set1_ps(shift[r]));
                }
                v = match f.act {
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
    let epi = Epilogue::new(None, FusedAct::Identity);
    with_arena(&PACK_TLS, |pack| gemm_core(tier(), m, k, n, a, &fill, c, beta, epi, pack));
}

/// `c[m×n] = a[m×k] · b_tᵀ + beta·c` with `B` stored transposed (`b_t` is
/// `[n, k]` row-major): the backward pass's `dW = dY·colᵀ` and `dX = dY·Wᵀ`.
/// The same nest as [`gemm`] behind a transposing panel source.
pub fn gemm_bt(m: usize, k: usize, n: usize, a: &[f32], b_t: &[f32], c: &mut [f32], beta: f32) {
    assert_eq!(b_t.len(), n * k, "B^T dims mismatch");
    let (fill, epi) = (bt_panels(b_t, k, n), Epilogue::new(None, FusedAct::Identity));
    with_arena(&PACK_TLS, |pack| gemm_core(tier(), m, k, n, a, &fill, c, beta, epi, pack));
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

    #[cfg(target_arch = "x86_64")]
    type FillFn<'a> = &'a (dyn Fn(usize, usize, &mut [f32]) + Sync);

    /// The portable tile at `mr` rows, the x86 tiles' reference.
    #[cfg(target_arch = "x86_64")]
    fn portable_tile(mr: usize, a: &[f32], b: &[f32], c: &mut [f32], acc: bool, fin: Finish) {
        // SAFETY: the portable tile needs no CPU feature.
        unsafe {
            match mr {
                6 => <Portable as Tile<6>>::tile(a, Panel(b), c, NR, acc, fin),
                16 => <Portable as Tile<16>>::tile(a, Panel(b), c, NR, acc, fin),
                _ => unreachable!("no portable tile at {mr} rows"),
            }
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn x86_tile_matches_portable_tile() {
        let mut rng = StdRng::seed_from_u64(10);
        for t in x86_tiers() {
            for act in [FusedAct::Identity, FusedAct::Relu, FusedAct::Clipped { lo: -0.5, hi: 2.0 }]
            {
                for accumulate in [false, true] {
                    for (with_fin, with_affine) in [(false, false), (true, false), (true, true)] {
                        // Random packed panels for one full k-block.
                        let (ap, bp) = (rand_vec(KC * t.mr, &mut rng), rand_vec(KC * NR, &mut rng));
                        let bias = rand_vec(t.mr, &mut rng);
                        let (scale, shift) = (rand_vec(t.mr, &mut rng), rand_vec(t.mr, &mut rng));
                        let affine = with_affine.then_some((&scale[..], &shift[..]));
                        let fin = with_fin.then_some(Epilogue { bias: Some(&bias), affine, act });
                        let mut fast = rand_vec(t.mr * NR, &mut rng);
                        let mut slow = fast.clone();
                        // SAFETY: `x86_tiers` probed the tier.
                        unsafe { t.tile(&ap, Panel(&bp), &mut fast, NR, accumulate, fin) };
                        portable_tile(t.mr, &ap, &bp, &mut slow, accumulate, fin);
                        for (x, y) in fast.iter().zip(&slow) {
                            let tol = 1e-4 * y.abs().max(1.0);
                            let tier = t.name;
                            assert!(
                                (x - y).abs() <= tol,
                                "{tier} {act:?} acc={accumulate} affine={with_affine}: {x} vs {y}"
                            );
                        }
                    }
                }
            }
        }
    }

    /// The vector epilogue and [`Epilogue::apply`] (so [`FusedAct::apply`])
    /// agree bit for bit. A product that underflows makes every accumulator
    /// `-0.0`, and `-0.0 + bias == bias` exactly, so the bias row carries any
    /// value — signed zeros, the clip bounds, infinities, NaN — to the
    /// affine and the activation.
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
            1.0 + f32::EPSILON,
            -1.0,
            3.5,
            f32::MAX,
            f32::MIN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            0.3,
        ];
        // Affines that keep, flip and scale the specials, and one whose
        // multiply-add rounds differently fused: `(1 + ε)(1 − ε) − 1` is 0
        // as a multiply then an add, `−ε²` as one FMA.
        let affines =
            [(1.0f32, 0.0f32), (-1.0, -0.0), (0.5, 1.0), (3.0, -2.0), (1.0 - f32::EPSILON, -1.0)];
        for t in x86_tiers() {
            let (ap, bp) = (vec![-1e-30f32; t.mr], [1e-30f32; NR]);
            for act in [FusedAct::Identity, FusedAct::Relu, FusedAct::Clipped { lo, hi }] {
                for affine in [None].into_iter().chain(affines.map(Some)) {
                    let (scale, shift) =
                        affine.map_or((vec![], vec![]), |(a, b)| (vec![a; t.mr], vec![b; t.mr]));
                    let affine = affine.map(|_| (&scale[..], &shift[..]));
                    for vals in specials.chunks(t.mr) {
                        let mut bias = vec![0.0f32; t.mr];
                        bias[..vals.len()].copy_from_slice(vals);
                        let epi = Epilogue { bias: Some(&bias), affine, act };
                        let mut c = vec![7.0f32; t.mr * NR];
                        // SAFETY: `x86_tiers` probed the tier.
                        unsafe { t.tile(&ap, Panel(&bp), &mut c, NR, false, Some(epi)) };
                        for (r, crow) in c.chunks(NR).enumerate() {
                            let want = epi.apply(r, -0.0);
                            for got in crow {
                                let (tier, x, ab) =
                                    (t.name, bias[r], affine.map(|(a, b)| (a[r], b[r])));
                                assert_eq!(
                                    got.to_bits(),
                                    want.to_bits(),
                                    "{tier} {act:?} affine {ab:?} ({x}): {got} vs {want}"
                                );
                            }
                        }
                    }
                }
            }
        }
        // What the contract promises of the zeros themselves.
        assert_eq!(FusedAct::Relu.apply(-0.0).to_bits(), 0);
        assert_eq!(FusedAct::Clipped { lo, hi }.apply(-0.0).to_bits(), 0);
        assert_eq!(FusedAct::Clipped { lo: 0.5, hi }.apply(0.25).to_bits(), 0);
        // The affine is a multiply then an add, never one rounding.
        let (x, a, b) = (1.0f32 + f32::EPSILON, 1.0f32 - f32::EPSILON, -1.0f32);
        let epi = Epilogue { bias: None, affine: Some((&[a], &[b])), act: FusedAct::Identity };
        assert_eq!(epi.apply(0, x).to_bits(), (x * a + b).to_bits());
        assert_ne!(epi.apply(0, x).to_bits(), x.mul_add(a, b).to_bits());
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
        // Each activation, and ReLU after the affine.
        let epilogues = [
            (FusedAct::Identity, false),
            (FusedAct::Relu, false),
            (FusedAct::Clipped { lo: -0.5, hi: 2.0 }, false),
            (FusedAct::Relu, true),
        ];
        let mut rng = StdRng::seed_from_u64(21);
        let mut pack = Vec::new();
        for (m, k, n) in shapes {
            // Random data has no layout: the same floats serve as `[m, k]`
            // and `[k, m]`, as `[k, n]` and `[n, k]`.
            let (a, b) = (rand_vec(m * k, &mut rng), rand_vec(k * n, &mut rng));
            let (bias, c0) = (rand_vec(m, &mut rng), rand_vec(m * n, &mut rng));
            let (scale, shift) = (rand_vec(m, &mut rng), rand_vec(m, &mut rng));
            let (rowmajor, transposed) = (rowmajor_panels(&b, n), bt_panels(&b, k, n));
            let entries: [(&str, bool, FillFn); 3] = [
                ("A·B", false, &rowmajor),
                ("Aᵀ·B", true, &rowmajor),
                ("A·Bᵀ", false, &transposed),
            ];
            for (entry, kmajor, fill) in entries {
                for beta in [0.0, 1.0] {
                    for (act, with_affine) in epilogues {
                        let affine = with_affine.then_some((&scale[..], &shift[..]));
                        let epi = Epilogue { bias: Some(&bias), affine, act };
                        let mut run = |t: &Tier| {
                            let a = if kmajor { ASrc::KMajor(&a) } else { ASrc::RowMajor(&a) };
                            let mut c = c0.clone();
                            gemm_core(t, m, k, n, a, fill, &mut c, beta, epi, &mut pack);
                            c
                        };
                        let want = run(narrow);
                        for t in wider {
                            let got = run(t);
                            let diff =
                                want.iter().zip(&got).position(|(x, y)| x.to_bits() != y.to_bits());
                            assert_eq!(
                                diff, None,
                                "{entry} ({m},{k},{n}) beta={beta} {act:?} affine={with_affine}: \
                                 {} differs from {}",
                                t.name, narrow.name
                            );
                        }
                    }
                }
            }
        }
    }

    /// Split into 2 or 3 row-block tasks, each packing its own rows of `A`
    /// into its own slice of the arena, the product keeps the one-task bits
    /// on every tier, for both stored layouts of `A` and across row-panel
    /// and k-block remainders. The build's `rayon` may report one thread, so
    /// the split is asked for directly.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn row_block_tasks_pack_their_own_rows() {
        let mut rng = StdRng::seed_from_u64(22);
        let n = 37;
        for t in x86_tiers() {
            for m in [17, 40, 128] {
                for k in [27, 300, 777] {
                    let (a, b) = (rand_vec(m * k, &mut rng), rand_vec(k * n, &mut rng));
                    let (bias, c0) = (rand_vec(m, &mut rng), rand_vec(m * n, &mut rng));
                    let fill = rowmajor_panels(&b, n);
                    for (kmajor, beta) in [(false, 0.0), (true, 0.0), (false, 1.0), (true, 1.0)] {
                        let epi = Epilogue::new(Some(&bias), FusedAct::Relu);
                        // A stale arena: every element read must be written first.
                        let mut pack = vec![f32::NAN; 1 << 16];
                        let mut run = |tasks| {
                            let a = if kmajor { ASrc::KMajor(&a) } else { ASrc::RowMajor(&a) };
                            let mut c = c0.clone();
                            gemm_tasks(&t, tasks, m, k, n, a, &fill, &mut c, beta, epi, &mut pack);
                            c.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
                        };
                        let want = run(1);
                        for tasks in [2, 3] {
                            assert!(
                                run(tasks) == want,
                                "{} ({m},{k},{n}) kmajor={kmajor} beta={beta}: {tasks} tasks \
                                 differ from one",
                                t.name
                            );
                        }
                    }
                }
            }
        }
    }

    /// The pack arena holds one k-block of `A`'s panels, not all of `A`:
    /// after a fresh call it is at most `⌈m/MR⌉·MR·KC + KC·NR` floats (one
    /// task), on VGG's deepest served conv and on a `gemm_fused` four
    /// k-blocks deep with a ragged last row panel.
    #[test]
    fn pack_arena_is_one_k_block_deep() {
        use crate::conv::{conv2d_into, Conv2dParams};
        use crate::scratch::ActBuf;
        use crate::tensor::Tensor;
        let mut rng = StdRng::seed_from_u64(23);
        let bound = |m: usize| m.div_ceil(tile_rows()) * tile_rows() * KC + KC * NR;

        let (oc, ic, hw) = (128, 128, 16);
        let x = rand_vec(ic * hw * hw, &mut rng);
        let w = Tensor::from_vec([oc, ic, 3, 3], rand_vec(oc * ic * 9, &mut rng));
        let (mut scratch, mut out) = (Scratch::new(), ActBuf::new());
        let (dims, p) = ((1, ic, hw, hw), Conv2dParams::same(3));
        conv2d_into(&x, dims, &w, &[0.1; 128], p, FusedAct::Relu, &mut scratch, &mut out);
        let cap = scratch.pack.capacity();
        assert!(cap <= bound(oc), "conv ({oc}, {ic}, {hw}²): arena {cap} > {}", bound(oc));

        let (m, k, n) = (40, 3 * KC + 5, 19);
        let (a, b) = (rand_vec(m * k, &mut rng), rand_vec(k * n, &mut rng));
        let (mut scratch, mut c) = (Scratch::new(), vec![0.0; m * n]);
        gemm_fused(m, k, n, &a, &b, &mut c, None, FusedAct::Identity, &mut scratch);
        let cap = scratch.pack.capacity();
        assert!(cap <= bound(m), "gemm_fused ({m},{k},{n}): arena {cap} > {}", bound(m));
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
