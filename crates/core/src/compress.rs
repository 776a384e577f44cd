//! The §4 communication-reduction pipeline.
//!
//! Conv-node outputs pass through three stages before hitting the network:
//!
//! 1. **Clipped `ReLU[a,b]`** (§4.1, [`adcnn_tensor::activ::ClippedRelu`]):
//!    zeroes everything below `a` and saturates above `b`, producing sparse
//!    activations bounded to `[0, b−a]`.
//! 2. **4-bit linear quantization** (§4.2, [`Quantizer`]): non-zero values
//!    are rounded to one of 15 uniform levels; zero stays level 0.
//! 3. **Run-length encoding** (§4.3, [`RleCodec`]): zero runs collapse to
//!    run tokens in a nibble stream.
//!
//! [`compress`]/[`decompress`] run the full pipeline with exact byte
//! accounting, and [`wire_bits_estimate`] is the closed-form size model the
//! discrete-event simulator uses at Raspberry-Pi-cluster scale (validated
//! against the real codec in this module's tests).
//!
//! The three hot loops — quantization, the RLE encoder and the RLE decoder
//! — run a block per step on CPUs with AVX-512 BW + VBMI + VBMI2 and BMI2
//! (`x86`, probed once per process) and the scalar loops (`scalar`)
//! everywhere else. Both write the same levels, bytes and `f32` bits and
//! give the same verdict on every payload (DESIGN.md §9).

use adcnn_tensor::activ::ClippedRelu;
use bytes::Bytes;
use serde::Serialize;

mod scalar;
#[cfg(target_arch = "x86_64")]
mod x86;

#[cfg(target_arch = "x86_64")]
use x86::Lane;
/// What a decoded level becomes (`u8` or `f32`); the vector tier's
/// per-type table step lives in `x86`.
#[cfg(not(target_arch = "x86_64"))]
trait Lane: Copy {}
#[cfg(not(target_arch = "x86_64"))]
impl<T: Copy> Lane for T {}

/// Linear quantizer over `[0, range]` with `2^bits − 1` non-zero levels.
///
/// Level 0 is reserved for exact zero so that the sparsity created by the
/// clipped ReLU survives quantization and can be run-length encoded.
#[derive(Clone, Copy, Debug, PartialEq, Serialize)]
pub struct Quantizer {
    /// Bit width; the paper uses 4.
    pub bits: u8,
    /// Representable range `[0, range]`; with a preceding `ReLU[a,b]` this
    /// is `b − a`.
    pub range: f32,
}

impl Quantizer {
    /// Construct; panics unless `1 ≤ bits ≤ 8` and `range > 0`.
    pub fn new(bits: u8, range: f32) -> Self {
        assert!((1..=8).contains(&bits), "bits must be in 1..=8 for the wire codec");
        assert!(range > 0.0, "range must be positive");
        Quantizer { bits, range }
    }

    /// The paper's configuration: 4 bits over the clipped ReLU's range.
    pub fn paper_default(cr: ClippedRelu) -> Self {
        Quantizer::new(4, cr.range())
    }

    /// Number of levels including zero (`2^bits`).
    #[inline]
    pub fn level_count(&self) -> u32 {
        1u32 << self.bits
    }

    /// Quantize one value to its level index (0 = zero): clamp into
    /// `[0, range]` (a NaN clamps to 0), scale to `[0, 2^bits − 1]`, round
    /// half away from zero.
    #[inline]
    pub fn level(&self, x: f32) -> u8 {
        let max = (self.level_count() - 1) as f32;
        // Selects, not `clamp`: they vectorise, and NaN falls to 0 here
        // instead of riding through the rounding below.
        let x = if x > 0.0 { x } else { 0.0 };
        let x = if x < self.range { x } else { self.range };
        round_half_away(x / self.range * max)
    }

    /// Reconstruct the value of a level index.
    #[inline]
    pub fn value(&self, level: u8) -> f32 {
        let max = (self.level_count() - 1) as f32;
        level.min(max as u8) as f32 * self.range / max
    }

    /// Quantize a slice to level indices.
    pub fn quantize(&self, xs: &[f32]) -> Vec<u8> {
        let mut out = Vec::new();
        self.quantize_into(xs, &mut out);
        out
    }

    /// Quantize into a reusable buffer (clears `out` first; capacity is
    /// kept, so steady-state calls do not allocate).
    pub fn quantize_into(&self, xs: &[f32], out: &mut Vec<u8>) {
        self.quantize_with(xs, out, None);
    }

    /// The one quantization loop: `out[i] = level(clip(xs[i]))` (no clip
    /// when `None`) into a pre-sized buffer, 16 lanes a step where the CPU
    /// has the codec's vector tier, else branch-free so LLVM runs it four
    /// (or eight) lanes at a time.
    #[inline]
    fn quantize_with(&self, xs: &[f32], out: &mut Vec<u8>, clip: Option<ClippedRelu>) {
        out.resize(xs.len(), 0);
        #[cfg(target_arch = "x86_64")]
        if x86::available() {
            // SAFETY: the probe found the tier's CPU features.
            return unsafe { x86::quantize(*self, clip, xs, out) };
        }
        match clip {
            Some(cr) => self.quantize_scalar(xs, out, |x| cr.apply(x)),
            None => self.quantize_scalar(xs, out, |x| x),
        }
    }

    /// The scalar loop, on CPUs without the vector tier.
    #[inline]
    fn quantize_scalar(&self, xs: &[f32], out: &mut [u8], pre: impl Fn(f32) -> f32) {
        for (l, &x) in out.iter_mut().zip(xs) {
            *l = self.level(pre(x));
        }
    }

    /// Dequantize level indices back to floats.
    pub fn dequantize(&self, levels: &[u8]) -> Vec<f32> {
        levels.iter().map(|&l| self.value(l)).collect()
    }

    /// Largest round-trip error: half a quantization step.
    pub fn max_error(&self) -> f32 {
        self.range / (self.level_count() - 1) as f32 / 2.0
    }
}

/// `f32::round(y) as u8` for `0 ≤ y ≤ 255` without the libm call: adding 2²³
/// leaves `y` rounded to an integer (ties to even) in the low mantissa bits,
/// and the exact remainder `y − that` is `0.5` only on a tie that went down —
/// which half-away-from-zero sends up. Equal to `f32::round` on every float
/// in `[0, 255]` (swept exhaustively, see the tests).
#[inline]
fn round_half_away(y: f32) -> u8 {
    const TWO_23: f32 = 8_388_608.0;
    let t = y + TWO_23;
    let tie_went_down = y - (t - TWO_23) >= 0.5;
    ((t.to_bits() & 0xff) + tie_went_down as u32) as u8
}

/// Nibble-oriented run-length codec for quantized 4-bit level streams.
///
/// Token grammar:
/// - nibble `v ∈ 1..=15`: a literal non-zero level `v`;
/// - nibble `0` followed by a **varint run length**: nibbles whose low 3
///   bits carry data (little-endian groups) and whose high bit means
///   "continue"; the decoded value is `run − 1`.
///
/// So a run of 1–8 zeros costs 2 nibbles, up to 64 costs 3, and the length
/// is unbounded — matching the paper's "consecutive zeros are stored as a
/// single counter" (§4.3) without a cap that would floor the compression
/// ratio. The nibble stream is packed high-nibble-first into bytes.
#[derive(Clone, Copy, Debug, Default)]
pub struct RleCodec;

impl RleCodec {
    /// Encode a level stream (values must fit in a nibble, i.e. `<= 15`).
    pub fn encode(&self, levels: &[u8]) -> Bytes {
        let mut out = Vec::new();
        self.encode_into(levels, &mut out);
        Bytes::from(out)
    }

    /// [`RleCodec::encode`] into a reusable byte buffer (cleared first,
    /// capacity kept). Produces exactly the same bytes as `encode`.
    pub fn encode_into(&self, levels: &[u8], out: &mut Vec<u8>) {
        // The two tiers pack a wider level differently; neither may see one.
        debug_assert!(levels.iter().all(|&l| l <= 15), "a level does not fit in a nibble");
        #[cfg(target_arch = "x86_64")]
        if x86::available() {
            // SAFETY: the probe found the tier's CPU features.
            return unsafe { x86::encode_into(levels, out) };
        }
        scalar::encode_into(levels, out)
    }

    /// Decode `n` levels from an encoded stream.
    ///
    /// Returns `None` on malformed input (truncated run token, varint
    /// overflow, or a run that overshoots `n`).
    pub fn decode(&self, data: &[u8], n: usize) -> Option<Vec<u8>> {
        let mut levels = vec![0u8; n];
        self.decode_mapped(data, &std::array::from_fn(|l| l as u8), &mut levels)?;
        Some(levels)
    }

    /// The one decoder: fill `out` with `out.len()` decoded levels, each
    /// mapped through `table` (the identity for [`decode`](Self::decode),
    /// the quantizer's values for [`decompress_into`]). `None` on the same
    /// malformed inputs as `decode`; `out` is then unspecified. 64 nibbles a
    /// step where the CPU has the vector tier, the scalar loop elsewhere.
    fn decode_mapped<T: Lane>(&self, data: &[u8], table: &[T; 16], out: &mut [T]) -> Option<()> {
        #[cfg(target_arch = "x86_64")]
        if x86::available() {
            // SAFETY: the probe found the tier's CPU features.
            return unsafe { x86::decode_mapped(data, table, out) };
        }
        scalar::decode_mapped(data, table, out)
    }
}

/// Result of compressing one activation buffer.
#[derive(Clone, Debug)]
pub struct Compressed {
    /// The encoded payload.
    pub payload: Bytes,
    /// Number of source elements (needed to decode).
    pub elems: usize,
    /// The quantizer used (needed to dequantize).
    pub quantizer: Quantizer,
}

impl Compressed {
    /// Payload size in bits.
    pub fn wire_bits(&self) -> u64 {
        self.payload.len() as u64 * 8
    }

    /// Compression ratio versus raw 32-bit floats (e.g. `0.03` = 33×
    /// smaller), the metric of the paper's Table 2.
    pub fn ratio_vs_f32(&self) -> f64 {
        self.wire_bits() as f64 / (self.elems as f64 * 32.0)
    }
}

/// Run the full §4 pipeline on activations that already passed the clipped
/// ReLU (values in `[0, quantizer.range]`). The nibble RLE codec carries at
/// most 4-bit levels, so `quantizer.bits` must be ≤ 4.
pub fn compress(xs: &[f32], quantizer: Quantizer) -> Compressed {
    assert!(
        quantizer.bits <= 4,
        "the nibble RLE wire codec carries at most 4-bit levels (got {})",
        quantizer.bits
    );
    let levels = quantizer.quantize(xs);
    let payload = RleCodec.encode(&levels);
    Compressed { payload, elems: xs.len(), quantizer }
}

/// Invert [`compress`] up to quantization error.
pub fn decompress(c: &Compressed) -> Option<Vec<f32>> {
    // Defense in depth for payloads that arrived over a real wire: the
    // declared element count sizes the decode buffer, so cap it before
    // allocating (`TileResult::to_tensor` re-checks it against the shape,
    // but this function is also a public entry point).
    if c.elems > crate::wire::MAX_TILE_ELEMS {
        return None;
    }
    let mut values = vec![0.0f32; c.elems];
    decompress_into(c, &mut values)?;
    Some(values)
}

/// [`decompress`] into a caller-owned buffer of exactly `c.elems` floats
/// (`None` otherwise, before anything is written): no intermediate level
/// vector, no allocation. A malformed payload leaves `out` unspecified —
/// decode into a buffer of your own and copy on success.
pub fn decompress_into(c: &Compressed, out: &mut [f32]) -> Option<()> {
    if out.len() != c.elems {
        return None;
    }
    let values: [f32; 16] = std::array::from_fn(|l| c.quantizer.value(l as u8));
    RleCodec.decode_mapped(&c.payload, &values, out)
}

/// Apply the clipped ReLU then the full pipeline (convenience for the
/// runtime's Conv-node path).
pub fn clip_and_compress(xs: &[f32], cr: ClippedRelu, bits: u8) -> Compressed {
    let clipped: Vec<f32> = xs.iter().map(|&x| cr.apply(x)).collect();
    compress(&clipped, Quantizer::new(bits, cr.range()))
}

/// Reusable buffers for the allocation-free compression path.
///
/// One per worker thread; `levels` holds the quantized indices, `bytes` the
/// RLE-encoded payload. Both grow to their high-water mark and stay put, so
/// steady-state [`compress_into`] / [`clip_and_compress_into`] calls perform
/// zero heap allocation.
#[derive(Clone, Debug, Default)]
pub struct CompressScratch {
    /// Quantized level indices (one per source element).
    pub levels: Vec<u8>,
    /// RLE-encoded payload bytes.
    pub bytes: Vec<u8>,
}

impl CompressScratch {
    /// Empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        CompressScratch::default()
    }
}

/// [`compress`] into reusable buffers. Returns the encoded payload slice
/// (valid until the next call); it is byte-identical to
/// `compress(xs, quantizer).payload`.
pub fn compress_into<'s>(xs: &[f32], quantizer: Quantizer, s: &'s mut CompressScratch) -> &'s [u8] {
    assert!(
        quantizer.bits <= 4,
        "the nibble RLE wire codec carries at most 4-bit levels (got {})",
        quantizer.bits
    );
    quantizer.quantize_into(xs, &mut s.levels);
    RleCodec.encode_into(&s.levels, &mut s.bytes);
    &s.bytes
}

/// [`clip_and_compress`] into reusable buffers, with the clipped ReLU fused
/// into the quantization pass (no intermediate clipped `Vec<f32>`).
pub fn clip_and_compress_into<'s>(
    xs: &[f32],
    cr: ClippedRelu,
    quantizer: Quantizer,
    s: &'s mut CompressScratch,
) -> &'s [u8] {
    assert!(
        quantizer.bits <= 4,
        "the nibble RLE wire codec carries at most 4-bit levels (got {})",
        quantizer.bits
    );
    quantizer.quantize_with(xs, &mut s.levels, Some(cr));
    RleCodec.encode_into(&s.levels, &mut s.bytes);
    &s.bytes
}

/// Closed-form wire-size estimate (bits) for `elems` activations at
/// `sparsity` (fraction of exact zeros), matching [`RleCodec`]'s format:
/// one nibble per non-zero, and per zero-run one token nibble plus one
/// length nibble for every 3 bits of `run − 1` (two nibbles for a run of
/// 1–8, three up to 64). Assumes the worst reasonable case of uniformly
/// scattered zeros, which upper-bounds clustered real activations.
pub fn wire_bits_estimate(elems: u64, sparsity: f64, _bits: u8) -> u64 {
    assert!((0.0..=1.0).contains(&sparsity), "sparsity must be in [0,1]");
    let nonzero = elems as f64 * (1.0 - sparsity);
    let zeros = elems as f64 * sparsity;
    // For uniformly scattered zeros the expected number of maximal zero runs
    // is zeros·(1 − sparsity); run lengths are geometric with mean
    // 1/(1 − sparsity), and a run of length r costs 1 + varint(r − 1)
    // nibbles (3 bits of length per varint nibble).
    let runs = (zeros * (1.0 - sparsity)).max(if zeros > 0.0 { 1.0 } else { 0.0 });
    let mean_run = if runs > 0.0 { zeros / runs } else { 0.0 };
    let varint_nibbles =
        if mean_run <= 1.0 { 1.0 } else { ((mean_run - 1.0).log2() / 3.0).floor() + 1.0 };
    let nibbles = nonzero + runs * (1.0 + varint_nibbles);
    (nibbles * 4.0).ceil() as u64
}

/// Invert [`wire_bits_estimate`]: the activation sparsity at which the §4
/// pipeline reaches a target `compressed/original` ratio (Table 2 reports
/// such ratios per model; the simulator calibrates per-model sparsities from
/// them). Binary search; panics if the target is unreachable (`<= 0`).
pub fn sparsity_for_ratio(target_ratio: f64, bits: u8) -> f64 {
    assert!(target_ratio > 0.0 && target_ratio < 1.0, "ratio must be in (0,1)");
    let n = 1_000_000u64;
    let ratio_at = |s: f64| wire_bits_estimate(n, s, bits) as f64 / (n as f64 * 32.0);
    let (mut lo, mut hi) = (0.0f64, 1.0f64);
    for _ in 0..60 {
        let mid = 0.5 * (lo + hi);
        if ratio_at(mid) > target_ratio {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    0.5 * (lo + hi)
}

/// Compression statistics for a whole feature map, as reported in Table 2.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct CompressionStats {
    /// Raw size at 32-bit floats, bits.
    pub original_bits: u64,
    /// Encoded size, bits.
    pub compressed_bits: u64,
    /// Fraction of exact zeros after the clipped ReLU.
    pub sparsity: f64,
}

impl CompressionStats {
    /// `compressed / original`, the Table 2 metric.
    pub fn ratio(&self) -> f64 {
        self.compressed_bits as f64 / self.original_bits as f64
    }
}

/// Measure the pipeline end to end on a raw (pre-activation) buffer.
pub fn measure(xs: &[f32], cr: ClippedRelu, bits: u8) -> CompressionStats {
    let clipped: Vec<f32> = xs.iter().map(|&x| cr.apply(x)).collect();
    let zeros = clipped.iter().filter(|&&x| x == 0.0).count();
    let c = compress(&clipped, Quantizer::new(bits, cr.range()));
    CompressionStats {
        original_bits: xs.len() as u64 * 32,
        compressed_bits: c.wire_bits(),
        sparsity: zeros as f64 / xs.len().max(1) as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    #[test]
    fn quantizer_levels_roundtrip_exactly() {
        let q = Quantizer::new(4, 1.8);
        for l in 0..16u8 {
            assert_eq!(q.level(q.value(l)), l);
        }
    }

    #[test]
    fn quantizer_error_bounded() {
        let q = Quantizer::new(4, 2.0);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..1000 {
            let x: f32 = rng.gen_range(0.0..2.0);
            let err = (q.value(q.level(x)) - x).abs();
            assert!(err <= q.max_error() + 1e-6);
        }
    }

    #[test]
    fn round_half_away_matches_round_around_every_integer_and_tie() {
        for half_steps in 0..=510u32 {
            let y0 = half_steps as f32 * 0.5;
            for ulps in -64i32..=64 {
                let y = f32::from_bits((y0.to_bits() as i32 + ulps).max(0) as u32);
                if y <= 255.0 {
                    assert_eq!(round_half_away(y), y.round() as u8, "y = {y:e}");
                }
            }
        }
    }

    /// Every `f32` in `[0, 255]`: 1 132 396 545 values.
    #[test]
    #[ignore = "1.1 G evaluations"]
    fn round_half_away_matches_round_on_every_float_up_to_255() {
        for bits in 0..=255.0f32.to_bits() {
            let y = f32::from_bits(bits);
            assert_eq!(round_half_away(y), y.round() as u8, "y = {y:e} ({bits:#x})");
        }
    }

    #[test]
    fn quantizer_zero_is_exact() {
        let q = Quantizer::new(4, 1.0);
        assert_eq!(q.level(0.0), 0);
        assert_eq!(q.value(0), 0.0);
    }

    /// Outside `[0, range]` values clamp to the end levels, and a value
    /// halfway between two levels rounds to a neighbour.
    #[test]
    fn quantizer_clamps_and_rounds_to_a_neighbour() {
        let q = Quantizer::new(4, 1.8);
        assert_eq!((q.level(99.0), q.level(f32::INFINITY)), (15, 15));
        assert_eq!((q.level(-5.0), q.level(f32::NEG_INFINITY)), (0, 0));
        let step = 1.8 / 15.0;
        for l in 0..15u8 {
            let mid = q.level((l as f32 + 0.5) * step);
            assert!(mid == l || mid == l + 1, "half-step above level {l} went to {mid}");
        }
    }

    #[test]
    fn figure6_example_pipeline() {
        // Figure 6 of the paper: ReLU[0.2, 2] on a 4x4 ofmap, then 4-bit
        // quantization, then RLE. We verify the pipeline end to end on a
        // map with the same character (mostly sub-threshold values).
        let cr = ClippedRelu::new(0.2, 2.0);
        let raw = vec![
            0.1, 0.05, 1.0, 0.0, //
            0.15, 2.5, 0.12, 0.0, //
            0.0, 0.18, 0.9, 0.05, //
            0.1, 0.0, 0.0, 1.4,
        ];
        let stats = measure(&raw, cr, 4);
        assert!(stats.sparsity >= 0.7, "sparsity {}", stats.sparsity);
        assert!(stats.ratio() < 0.5, "ratio {}", stats.ratio());
        let c = clip_and_compress(&raw, cr, 4);
        let back = decompress(&c).unwrap();
        let q = Quantizer::new(4, cr.range());
        for (x, y) in raw.iter().zip(&back) {
            let want = cr.apply(*x);
            assert!((want - y).abs() <= q.max_error() + 1e-6);
        }
    }

    #[test]
    fn rle_all_zero_is_tiny() {
        let levels = vec![0u8; 4096];
        let enc = RleCodec.encode(&levels);
        // one zero nibble + varint(4095) = 4 nibbles -> 5 nibbles -> 3 bytes
        assert_eq!(enc.len(), 3);
        assert_eq!(RleCodec.decode(&enc, 4096).unwrap(), levels);
    }

    #[test]
    fn rle_varint_run_boundaries() {
        // runs of 8 (1-nibble varint), 9 (2-nibble), 64, 65, 513
        for run in [1usize, 8, 9, 64, 65, 512, 513, 100_000] {
            let mut levels = vec![0u8; run];
            levels.push(9);
            let enc = RleCodec.encode(&levels);
            assert_eq!(RleCodec.decode(&enc, run + 1).unwrap(), levels, "run {run}");
        }
    }

    #[test]
    fn sparsity_for_ratio_inverts_estimate() {
        for target in [0.011, 0.02, 0.032, 0.043, 0.056] {
            let s = sparsity_for_ratio(target, 4);
            let n = 1_000_000u64;
            let achieved = wire_bits_estimate(n, s, 4) as f64 / (n as f64 * 32.0);
            assert!(
                (achieved - target).abs() / target < 0.05,
                "target {target}: sparsity {s} gives {achieved}"
            );
            assert!(s > 0.8 && s < 1.0, "implausible sparsity {s} for {target}");
        }
    }

    #[test]
    fn rle_all_nonzero_is_half_byte_each() {
        let levels: Vec<u8> = (0..100).map(|i| (i % 15 + 1) as u8).collect();
        let enc = RleCodec.encode(&levels);
        assert_eq!(enc.len(), 50);
        assert_eq!(RleCodec.decode(&enc, 100).unwrap(), levels);
    }

    #[test]
    fn rle_rejects_truncation() {
        let levels = vec![5u8, 0, 0, 0, 7];
        let enc = RleCodec.encode(&levels);
        let cut = &enc[..enc.len() - 1];
        // decoding the full length from a truncated buffer must fail
        assert!(RleCodec.decode(cut, 5).is_none() || cut.is_empty());
    }

    #[test]
    fn rle_mixed_runs() {
        let mut levels = vec![0u8; 40];
        levels[3] = 7;
        levels[20] = 15;
        levels[21] = 1;
        let enc = RleCodec.encode(&levels);
        assert_eq!(RleCodec.decode(&enc, 40).unwrap(), levels);
        assert!(enc.len() < 40 / 2);
    }

    #[test]
    fn high_sparsity_hits_paper_table2_ratios() {
        // Table 2: after pruning the Conv-node outputs shrink to
        // 0.011x–0.056x of the raw f32 size. Check our codec lands in that
        // regime at the sparsities the clipped ReLU produces (~95–99%).
        let mut rng = StdRng::seed_from_u64(2);
        let n = 100_000;
        for (sparsity, lo, hi) in [(0.95, 0.01, 0.07), (0.99, 0.004, 0.03)] {
            let xs: Vec<f32> = (0..n)
                .map(|_| if rng.gen_bool(sparsity) { 0.0 } else { rng.gen_range(0.1..1.0) })
                .collect();
            let c = compress(&xs, Quantizer::new(4, 1.0));
            let r = c.ratio_vs_f32();
            assert!((lo..hi).contains(&r), "sparsity {sparsity}: ratio {r}");
        }
    }

    #[test]
    fn wire_estimate_tracks_real_codec() {
        let mut rng = StdRng::seed_from_u64(3);
        let n = 50_000usize;
        for sparsity in [0.5, 0.9, 0.97] {
            let xs: Vec<f32> = (0..n)
                .map(|_| if rng.gen_bool(sparsity) { 0.0 } else { rng.gen_range(0.1..1.0) })
                .collect();
            let real = compress(&xs, Quantizer::new(4, 1.0)).wire_bits() as f64;
            let est = wire_bits_estimate(n as u64, sparsity, 4) as f64;
            let err = (est - real).abs() / real;
            assert!(err < 0.35, "sparsity {sparsity}: est {est} vs real {real} ({err})");
        }
    }

    #[test]
    fn measure_reports_consistent_fields() {
        let cr = ClippedRelu::new(0.0, 1.0);
        let xs = vec![0.5f32; 64];
        let s = measure(&xs, cr, 4);
        assert_eq!(s.original_bits, 64 * 32);
        assert_eq!(s.sparsity, 0.0);
        assert!(s.compressed_bits > 0);
    }

    #[test]
    fn into_paths_are_byte_identical() {
        let mut rng = StdRng::seed_from_u64(4);
        let cr = ClippedRelu::new(0.2, 2.0);
        let q = Quantizer::new(4, cr.range());
        let mut s = CompressScratch::new();
        for n in [0usize, 1, 7, 100, 4096] {
            let xs: Vec<f32> = (0..n)
                .map(|_| if rng.gen_bool(0.8) { 0.0 } else { rng.gen_range(-1.0..3.0) })
                .collect();
            let want = compress(&xs, q);
            let got = compress_into(&xs, q, &mut s);
            assert_eq!(got, &want.payload[..], "compress_into diverged at n={n}");
            let want_clip = clip_and_compress(&xs, cr, 4);
            let got_clip = clip_and_compress_into(&xs, cr, q, &mut s);
            assert_eq!(got_clip, &want_clip.payload[..], "clip path diverged at n={n}");
        }
    }

    #[test]
    fn scratch_reuse_does_not_grow_capacity() {
        let mut rng = StdRng::seed_from_u64(5);
        let xs: Vec<f32> = (0..10_000).map(|_| rng.gen_range(0.0..1.0)).collect();
        let q = Quantizer::new(4, 1.0);
        let mut s = CompressScratch::new();
        compress_into(&xs, q, &mut s);
        let (lc, bc) = (s.levels.capacity(), s.bytes.capacity());
        for _ in 0..3 {
            compress_into(&xs, q, &mut s);
        }
        assert_eq!((s.levels.capacity(), s.bytes.capacity()), (lc, bc));
    }

    proptest! {
        #[test]
        fn prop_rle_roundtrip(levels in proptest::collection::vec(0u8..16, 0..600)) {
            let enc = RleCodec.encode(&levels);
            let dec = RleCodec.decode(&enc, levels.len()).unwrap();
            prop_assert_eq!(dec, levels);
        }

        #[test]
        fn prop_pipeline_error_bounded(xs in proptest::collection::vec(-2.0f32..4.0, 1..300)) {
            let cr = ClippedRelu::new(0.2, 2.0);
            let c = clip_and_compress(&xs, cr, 4);
            let back = decompress(&c).unwrap();
            let q = Quantizer::new(4, cr.range());
            for (x, y) in xs.iter().zip(&back) {
                prop_assert!((cr.apply(*x) - y).abs() <= q.max_error() + 1e-6);
            }
        }

        #[test]
        fn prop_encoding_size_bounded(levels in proptest::collection::vec(0u8..16, 0..2000)) {
            // Worst case is alternating zero/non-zero: 1.5 nibbles/element.
            let enc = RleCodec.encode(&levels);
            let nibble_bound = (3 * levels.len()) / 2 + 2;
            prop_assert!(enc.len() <= nibble_bound / 2 + 1,
                "len {} for {} levels", enc.len(), levels.len());
        }
    }
}
