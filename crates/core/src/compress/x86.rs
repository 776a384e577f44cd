//! The codec's vector tier (AVX-512 BW + VBMI + VBMI2, and BMI2): clip +
//! quantize 16 floats a step, the RLE encoder 64 levels a step, the decoder
//! 32 payload bytes a step. Each writes what the scalar codec writes — the
//! same levels, the same bytes, the same verdict and the same `f32` bits —
//! and hands the cases its blocks do not cover (a run longer than 8, a
//! varint that continues, a block that would overshoot `n`) to a scalar
//! loop. The build targets baseline x86-64, so every function here is a
//! `#[target_feature]` function behind the one probe, [`available`]; this
//! is the crate's only `unsafe`.

use super::Quantizer;
use adcnn_tensor::activ::ClippedRelu;
use std::arch::x86_64::*;
use std::sync::OnceLock;

/// Whether this CPU runs the tier, probed once per process.
pub(super) fn available() -> bool {
    static HAS: OnceLock<bool> = OnceLock::new();
    *HAS.get_or_init(|| {
        use std::arch::is_x86_feature_detected as has;
        has!("avx512f")
            && has!("avx512bw")
            && has!("avx512vbmi")
            && has!("avx512vbmi2")
            && has!("bmi2")
    })
}

/// The low `k` bits set, `k <= 64`.
#[inline(always)]
fn low(k: usize) -> u64 {
    if k >= 64 {
        u64::MAX
    } else {
        (1u64 << k) - 1
    }
}

/// Every other bit, from bit 0 / from bit 1.
const EVEN: u64 = 0x5555_5555_5555_5555;
const ODD: u64 = 0xAAAA_AAAA_AAAA_AAAA;

/// `[j + add; 64]` (wrapping): `vpermb` reads the low 6 bits of an index,
/// so `add = 64 − s` is "the byte `s` places back".
const fn iota(add: u8) -> [u8; 64] {
    let mut t = [0u8; 64];
    let mut j = 0;
    while j < 64 {
        t[j] = (j as u8).wrapping_add(add);
        j += 1;
    }
    t
}

/// `vpermt2b` indices that interleave bytes `base..base + 32` of the first
/// source with the same bytes of the second (`64 +`).
const fn interleave(base: u8) -> [u8; 64] {
    let mut t = [0u8; 64];
    let mut k = 0;
    while k < 32 {
        t[2 * k] = base + k as u8;
        t[2 * k + 1] = 64 + base + k as u8;
        k += 1;
    }
    t
}

/// `t[q] = q / 8`: each of 8 bytes spread over an 8-slot group.
const fn spread() -> [u8; 64] {
    let mut t = [0u8; 64];
    let mut q = 0;
    while q < 64 {
        t[q] = (q / 8) as u8;
        q += 1;
    }
    t
}

/// `[16, 1]` repeated: `vpmaddubsw` by it packs a nibble pair into a byte.
const fn pack_pairs() -> [u8; 64] {
    let mut t = [1u8; 64];
    let mut k = 0;
    while k < 32 {
        t[2 * k] = 16;
        k += 1;
    }
    t
}

/// Per 128-bit lane, the slot mask of a length nibble `L` (`L + 1` zeros,
/// `(2 << L) − 1`) for `L` in 0..8; a continuation never gets here.
const fn run_slots() -> [u8; 64] {
    let mut t = [0u8; 64];
    let mut q = 0;
    while q < 64 {
        let l = q % 16;
        t[q] = if l < 8 { ((2u32 << l) - 1) as u8 } else { 0 };
        q += 1;
    }
    t
}

static IOTA1: [u8; 64] = iota(1);
static BACK1: [u8; 64] = iota(63);
static BACK2: [u8; 64] = iota(62);
static BACK4: [u8; 64] = iota(60);
static PAIRS_LO: [u8; 64] = interleave(0);
static PAIRS_HI: [u8; 64] = interleave(32);
static SPREAD: [u8; 64] = spread();
static PACK: [u8; 64] = pack_pairs();
static RUN_SLOTS: [u8; 64] = run_slots();

/// One of the tables above as a vector.
#[inline]
#[target_feature(enable = "avx512f")]
fn vector(t: &[u8; 64]) -> __m512i {
    // SAFETY: `t` is 64 readable bytes.
    unsafe { _mm512_loadu_si512(t.as_ptr().cast()) }
}

/// `Quantizer::level` of each `xs[i]` (after `clip`'s `apply`, if any)
/// into `out[i]`, 16 lanes a step: the same selects, `/ range`, `· max`
/// and `2²³` rounding in the same order, so each level is the scalar one.
///
/// # Safety
/// [`available`] returned `true`.
#[target_feature(enable = "avx512f,avx512bw,avx512vbmi,avx512vbmi2,bmi2")]
pub(super) unsafe fn quantize(q: Quantizer, clip: Option<ClippedRelu>, xs: &[f32], out: &mut [u8]) {
    assert_eq!(xs.len(), out.len(), "one level per value");
    let range = _mm512_set1_ps(q.range);
    let max = _mm512_set1_ps((q.level_count() - 1) as f32);
    let (zero, two23, half) =
        (_mm512_setzero_ps(), _mm512_set1_ps(8_388_608.0), _mm512_set1_ps(0.5));
    let mut i = 0;
    while i < xs.len() {
        let m = low(xs.len() - i) as u16;
        // SAFETY: the mask covers `xs[i..]` only, and masked-off lanes are
        // neither read nor written.
        let mut x = _mm512_maskz_loadu_ps(m, xs.as_ptr().add(i));
        if let Some(cr) = clip {
            // `ClippedRelu::apply`: above `hi` → `hi − lo`; from `lo` →
            // `x − lo`; below it (and NaN) → 0.
            let (lo, hi) = (_mm512_set1_ps(cr.lo), _mm512_set1_ps(cr.hi));
            let from_lo = _mm512_cmp_ps_mask::<_CMP_GE_OQ>(x, lo);
            let above = _mm512_cmp_ps_mask::<_CMP_GT_OQ>(x, hi);
            x = _mm512_maskz_sub_ps(from_lo, x, lo);
            x = _mm512_mask_mov_ps(x, above, _mm512_set1_ps(cr.hi - cr.lo));
        }
        x = _mm512_maskz_mov_ps(_mm512_cmp_ps_mask::<_CMP_GT_OQ>(x, zero), x);
        x = _mm512_mask_mov_ps(range, _mm512_cmp_ps_mask::<_CMP_LT_OQ>(x, range), x);
        let y = _mm512_mul_ps(_mm512_div_ps(x, range), max);
        let t = _mm512_add_ps(y, two23);
        let down =
            _mm512_cmp_ps_mask::<_CMP_GE_OQ>(_mm512_sub_ps(y, _mm512_sub_ps(t, two23)), half);
        let l = _mm512_and_si512(_mm512_castps_si512(t), _mm512_set1_epi32(0xff));
        let l = _mm512_mask_add_epi32(l, down, l, _mm512_set1_epi32(1));
        _mm512_mask_cvtepi32_storeu_epi8(out.as_mut_ptr().add(i).cast(), m, l);
        i += 16;
    }
}

/// Bit `j` set where `levels[i + j]` is zero, for `i + j < levels.len()`.
///
/// # Safety
/// [`available`] returned `true`; `i <= levels.len()`.
#[inline]
#[target_feature(enable = "avx512f,avx512bw,avx512vbmi,avx512vbmi2,bmi2")]
unsafe fn zeros_at(levels: &[u8], i: usize) -> (u64, __m512i) {
    let live = low(levels.len() - i);
    // SAFETY: the mask covers `levels[i..]` only; masked-off bytes are not read.
    let v = _mm512_maskz_loadu_epi8(live, levels.as_ptr().add(i).cast());
    (_mm512_testn_epi8_mask(v, v) & live, v)
}

/// `RleCodec::encode_into`, 64 levels a step.
///
/// A block starts where no zero run is open. Its zero mask gives each run's
/// first and last zero; a prefix max over the first zeros' positions (three
/// `vpermb` + `vpmaxub` steps, a run here being at most 8 long) gives each
/// run its `run − 1` at its last zero. Every level contributes its token
/// byte (the literal, or 0 at a run's last zero) and every run end its
/// length byte: two `vpermt2b` interleave them, `vpcompressb` keeps the
/// ones that exist, one nibble per byte, into `out`. The block stops short
/// of a run that reaches its end (it may go on) and of the first run longer
/// than 8, which the scalar varint writes when a block starts on it. Last,
/// nibble pairs are packed in place (`vpmaddubsw` + `vpmovwb`), high first.
///
/// # Safety
/// [`available`] returned `true`.
#[target_feature(enable = "avx512f,avx512bw,avx512vbmi,avx512vbmi2,bmi2")]
pub(super) unsafe fn encode_into(levels: &[u8], out: &mut Vec<u8>) {
    let n = levels.len();
    // At most two nibbles per level, plus the 128 bytes a block's two
    // full-width stores may write past its last nibble.
    out.clear();
    out.resize(2 * n + 128, 0);
    let nib = out.as_mut_ptr();
    let (iota1, back1, back2, back4) =
        (vector(&IOTA1), vector(&BACK1), vector(&BACK2), vector(&BACK4));
    let (pairs_lo, pairs_hi) = (vector(&PAIRS_LO), vector(&PAIRS_HI));
    // `w <= 2 * i` throughout: no level costs more than two nibbles.
    let (mut i, mut w) = (0usize, 0usize);
    while i < n {
        let (z, v) = zeros_at(levels, i);
        if z & 0x1ff == 0x1ff {
            // A run of nine or more starts here: count it 64 levels a step
            // and write the varint as the scalar codec does.
            let mut run = 0;
            loop {
                let t = zeros_at(levels, i + run).0.trailing_ones() as usize;
                run += t;
                if t < 64 {
                    break;
                }
            }
            // SAFETY (every write below): `w <= 2 * i`, and a run of
            // `run >= 9` zeros costs at most `1 + 21 <= 2 * run` nibbles.
            *nib.add(w) = 0;
            w += 1;
            let mut rem = run - 1;
            loop {
                let group = (rem & 0x7) as u8;
                rem >>= 3;
                *nib.add(w) = if rem > 0 { group | 0x8 } else { group };
                w += 1;
                if rem == 0 {
                    break;
                }
            }
            i += run;
            continue;
        }
        // Stop before a run that reaches the block's end (the next block
        // starts on it; bit 63 is clear past `n`, so at the stream's end
        // every run closes here) and before a run of nine or more.
        let mut take = (n - i).min(64) - (!z).leading_zeros() as usize;
        let zp = z & low(take);
        let nine = {
            let a = zp & (zp >> 1);
            let b = a & (a >> 2);
            (b & (b >> 4)) & (zp >> 8)
        };
        if nine != 0 {
            // Its lowest bit is that run's first zero.
            take = nine.trailing_zeros() as usize;
        }
        let keep = low(take);
        let z = z & keep;
        let (first, last) = (z & !(z << 1), z & !(z >> 1));
        let s = _mm512_maskz_mov_epi8(first, iota1);
        let s = _mm512_max_epu8(s, _mm512_maskz_permutexvar_epi8(!1, back1, s));
        let s = _mm512_max_epu8(s, _mm512_maskz_permutexvar_epi8(!3, back2, s));
        let s = _mm512_max_epu8(s, _mm512_maskz_permutexvar_epi8(!0xf, back4, s));
        // `run − 1` at each run's last zero.
        let runs = _mm512_sub_epi8(iota1, s);
        let tokens = (!z & keep) | last;
        let m = _pdep_u64(tokens, EVEN) | _pdep_u64(last, ODD);
        let pairs = _mm512_permutex2var_epi8(v, pairs_lo, runs);
        // SAFETY: `w + 64 <= 2 * i + 64`, inside `out`.
        _mm512_storeu_si512(nib.add(w).cast(), _mm512_maskz_compress_epi8(m, pairs));
        w += m.count_ones() as usize;
        if take > 32 {
            let m = _pdep_u64(tokens >> 32, EVEN) | _pdep_u64(last >> 32, ODD);
            let pairs = _mm512_permutex2var_epi8(v, pairs_hi, runs);
            // SAFETY: `w + 64 <= 2 * i + 128`, inside `out`.
            _mm512_storeu_si512(nib.add(w).cast(), _mm512_maskz_compress_epi8(m, pairs));
            w += m.count_ones() as usize;
        }
        i += take;
    }
    // Pack in place: byte `k` reads nibble bytes `2k` and `2k + 1`, which
    // no earlier store has reached. A zero after an odd last nibble leaves
    // its byte's low half zero.
    // SAFETY: `w <= 2 * n`; each step reads `2k + 64 <= 2 * n + 64` bytes
    // and writes `k + 32 <= n + 32`, all inside `out`.
    *nib.add(w) = 0;
    let bytes = w.div_ceil(2);
    let pack = vector(&PACK);
    let mut k = 0;
    while k < bytes {
        let x = _mm512_loadu_si512(nib.add(2 * k).cast());
        _mm256_storeu_si256(nib.add(k).cast(), _mm512_cvtepi16_epi8(_mm512_maddubs_epi16(x, pack)));
        k += 32;
    }
    out.truncate(bytes);
}

/// What a decoded level becomes: the level itself (`u8`,
/// `RleCodec::decode`) or its value (`f32`, `decompress_into`).
pub(crate) trait Lane: Copy {
    /// `out[i] = table[levels[i]]` for `i < out.len()`; panics if
    /// `out.len() > 512`.
    ///
    /// # Safety
    /// [`available`] returned `true`.
    unsafe fn map(levels: &[u8; 512], table: &[Self; 16], out: &mut [Self]);
}

impl Lane for u8 {
    #[target_feature(enable = "avx512f,avx512bw,avx512vbmi,avx512vbmi2,bmi2")]
    unsafe fn map(levels: &[u8; 512], table: &[u8; 16], out: &mut [u8]) {
        assert!(out.len() <= levels.len(), "a block holds at most 512 levels");
        let t = _mm512_broadcast_i32x4(_mm_loadu_si128(table.as_ptr().cast()));
        for (q, chunk) in out.chunks_mut(64).enumerate() {
            // SAFETY: `64 q + 64 <= 512`; the store is masked to `chunk`.
            let l = _mm512_loadu_si512(levels.as_ptr().add(64 * q).cast());
            let v = _mm512_shuffle_epi8(t, l);
            _mm512_mask_storeu_epi8(chunk.as_mut_ptr().cast(), low(chunk.len()), v);
        }
    }
}

impl Lane for f32 {
    #[target_feature(enable = "avx512f,avx512bw,avx512vbmi,avx512vbmi2,bmi2")]
    unsafe fn map(levels: &[u8; 512], table: &[f32; 16], out: &mut [f32]) {
        assert!(out.len() <= levels.len(), "a block holds at most 512 levels");
        let t = _mm512_loadu_ps(table.as_ptr());
        for (q, chunk) in out.chunks_mut(16).enumerate() {
            // SAFETY: `16 q + 16 <= 512`; the store is masked to `chunk`.
            let l = _mm512_cvtepu8_epi32(_mm_loadu_si128(levels.as_ptr().add(16 * q).cast()));
            let v = _mm512_permutexvar_ps(l, t);
            _mm512_mask_storeu_ps(chunk.as_mut_ptr(), low(chunk.len()) as u16, v);
        }
    }
}

/// `RleCodec::decode_mapped`, 32 payload bytes (64 nibbles) a step.
///
/// Which nibbles are zero tokens and which are the length nibbles after
/// them is simdjson's escape problem (a backslash escapes the next
/// character, which may be a backslash): one subtract and a few logic ops
/// on the zero mask, with the "last nibble was a zero token" bit carried
/// from block to block. A literal then stands for one level and a length
/// nibble `L` for `L + 1` zeros: each nibble becomes an 8-slot group, the
/// groups are `vpcompressb`'d into a block of at most 512 levels, and the
/// levels go through the table 16 (or 64) a step. A block holding a varint
/// that continues, or one that would overshoot `out`, goes to the scalar
/// token loop, which keeps the three rejections (truncated token, varint
/// past 63 bits, run past `out.len()`).
///
/// # Safety
/// [`available`] returned `true`.
#[target_feature(enable = "avx512f,avx512bw,avx512vbmi,avx512vbmi2,bmi2")]
pub(super) unsafe fn decode_mapped<T: Lane>(
    data: &[u8],
    table: &[T; 16],
    out: &mut [T],
) -> Option<()> {
    let n = out.len();
    let nibble =
        |i: usize| data.get(i / 2).map(|&b| if i.is_multiple_of(2) { b >> 4 } else { b & 0x0f });
    let (slots, spread) = (vector(&RUN_SLOTS), vector(&SPREAD));
    let mut levels = [0u8; 512];
    // `pos` counts nibbles; `after_zero`: the nibble at `pos` is the length
    // of a zero token the last block ended on.
    let (mut pos, mut filled, mut after_zero) = (0usize, 0usize, false);
    while filled < n {
        let avail = (data.len() - pos / 2).min(32);
        if pos.is_multiple_of(2) && avail > 0 {
            // SAFETY: the mask covers `data[pos / 2..][..avail]` only.
            let bytes = _mm512_maskz_loadu_epi8(low(avail), data.as_ptr().add(pos / 2).cast());
            let w = _mm512_cvtepu8_epi16(_mm512_castsi512_si256(bytes));
            let hi_lo = _mm512_slli_epi16::<8>(_mm512_and_si512(w, _mm512_set1_epi16(0x0f)));
            let nib = _mm512_or_si512(_mm512_srli_epi16::<4>(w), hi_lo);
            let live = low(2 * avail);
            let zero = _mm512_testn_epi8_mask(nib, nib) & live;
            let carry = after_zero as u64;
            let potential = zero & !carry;
            let code = (((potential << 1) | ODD).wrapping_sub(potential)) ^ ODD;
            let len = (code ^ (zero | carry)) & live;
            let zero_tokens = code & zero;
            let lit = live & !(zero | len);
            let continues = _mm512_test_epi8_mask(nib, _mm512_set1_epi8(0x8)) & len;
            if continues == 0 {
                let keep = _mm512_maskz_shuffle_epi8(len, slots, nib);
                let keep = _mm512_mask_mov_epi8(keep, lit, _mm512_set1_epi8(1));
                let groups = std::mem::transmute::<__m512i, [u64; 8]>(keep);
                let count: usize = groups.iter().map(|g| g.count_ones() as usize).sum();
                if count <= n - filled {
                    let vals = _mm512_maskz_mov_epi8(lit, nib);
                    let mut k = 0;
                    for (j, &g) in groups.iter().enumerate() {
                        let idx = _mm512_add_epi8(spread, _mm512_set1_epi8(8 * j as i8));
                        let slots = _mm512_permutexvar_epi8(idx, vals);
                        // SAFETY: `k + 64 <= 7 * 64 + 64`, inside `levels`.
                        _mm512_storeu_si512(
                            levels.as_mut_ptr().add(k).cast(),
                            _mm512_maskz_compress_epi8(g, slots),
                        );
                        k += g.count_ones() as usize;
                    }
                    T::map(&levels, table, &mut out[filled..filled + count]);
                    filled += count;
                    pos += 2 * avail;
                    after_zero = (zero_tokens >> (2 * avail - 1)) & 1 == 1;
                    continue;
                }
            }
        }
        // The scalar token loop, to this block's end and a byte boundary.
        let until = pos + 64;
        while filled < n && (pos < until || pos % 2 == 1) {
            if !after_zero {
                let tok = nibble(pos)?;
                pos += 1;
                if tok != 0 {
                    out[filled] = table[tok as usize];
                    filled += 1;
                    continue;
                }
            }
            after_zero = false;
            let (mut rem, mut shift) = (0usize, 0u32);
            loop {
                let g = nibble(pos)? as usize;
                pos += 1;
                if shift > 60 {
                    return None; // varint overflow
                }
                rem |= (g & 0x7) << shift;
                shift += 3;
                if g & 0x8 == 0 {
                    break;
                }
            }
            let end = filled.checked_add(rem + 1).filter(|&e| e <= n)?;
            out[filled..end].fill(table[0]);
            filled = end;
        }
    }
    Some(())
}
