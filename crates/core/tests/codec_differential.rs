//! Differential tests for the §4 wire pipeline: the quantizer's rounding
//! rule, the nibble RLE packer and its decoder, each against a reference
//! kept in this file — `(x / range * max).round()`, a push-per-nibble
//! packer, a get-per-nibble decoder — through the public entry points
//! only. A payload byte or an output bit that differs fails.
//!
//! The public entry points run the codec's vector tier where the CPU has
//! it (AVX-512 BW + VBMI + VBMI2, and BMI2). The scalar RLE loops are
//! compiled here from their own source file and called directly, so one
//! run on such a CPU checks both paths against the references, and against
//! each other; elsewhere both calls are the scalar codec, and the tests say
//! so.

use adcnn_core::compress::{
    clip_and_compress, clip_and_compress_into, compress, compress_into, decompress,
    CompressScratch, Compressed, Quantizer, RleCodec,
};
use adcnn_core::wire::{make_result_from_parts, TileKey, TileResult, MAX_TILE_ELEMS};
use adcnn_tensor::activ::ClippedRelu;
use bytes::Bytes;
use rand::{rngs::StdRng, Rng, SeedableRng};

#[path = "../src/compress/scalar.rs"]
mod scalar;

/// The rounding rule the wire format was defined with.
fn level_ref(bits: u8, range: f32, x: f32) -> u8 {
    let max = ((1u32 << bits) - 1) as f32;
    (x.clamp(0.0, range) / range * max).round() as u8
}

/// Push-per-nibble packer: high nibble first, a trailing odd nibble leaves
/// the low half zero.
fn encode_ref(levels: &[u8]) -> Vec<u8> {
    fn push(out: &mut Vec<u8>, half: &mut bool, nib: u8) {
        assert!(nib <= 15);
        if *half {
            *out.last_mut().unwrap() |= nib;
        } else {
            out.push(nib << 4);
        }
        *half = !*half;
    }
    let (mut out, mut half) = (Vec::new(), false);
    let mut i = 0;
    while i < levels.len() {
        if levels[i] != 0 {
            push(&mut out, &mut half, levels[i]);
            i += 1;
            continue;
        }
        let start = i;
        while i < levels.len() && levels[i] == 0 {
            i += 1;
        }
        push(&mut out, &mut half, 0);
        let mut rem = i - start - 1;
        loop {
            let group = (rem & 7) as u8;
            rem >>= 3;
            push(&mut out, &mut half, if rem > 0 { group | 8 } else { group });
            if rem == 0 {
                break;
            }
        }
    }
    out
}

/// Get-per-nibble decoder with the three rejections: truncated token,
/// varint past 63 bits, run past `n`.
fn decode_ref(data: &[u8], n: usize) -> Option<Vec<u8>> {
    let nibble =
        |i: usize| data.get(i / 2).map(|b| if i.is_multiple_of(2) { b >> 4 } else { b & 15 });
    let mut levels = Vec::new();
    let mut i = 0;
    while levels.len() < n {
        let tok = nibble(i)?;
        i += 1;
        if tok != 0 {
            levels.push(tok);
            continue;
        }
        let (mut rem, mut shift) = (0usize, 0u32);
        loop {
            let g = nibble(i)?;
            i += 1;
            if shift > 60 {
                return None;
            }
            rem |= ((g & 7) as usize) << shift;
            shift += 3;
            if g & 8 == 0 {
                break;
            }
        }
        if levels.len() + rem + 1 > n {
            return None;
        }
        levels.resize(levels.len() + rem + 1, 0);
    }
    Some(levels)
}

/// Pack raw nibbles (for hand-built malformed streams).
fn pack(nibbles: &[u8]) -> Vec<u8> {
    nibbles.chunks(2).map(|p| (p[0] << 4) | p.get(1).copied().unwrap_or(0)).collect()
}

fn step(x: f32, ulps: i32) -> f32 {
    // Only called on positive finite values far from 0 and from infinity.
    f32::from_bits((x.to_bits() as i32 + ulps) as u32)
}

fn bits_of(xs: &[f32]) -> Vec<u32> {
    xs.iter().map(|v| v.to_bits()).collect()
}

/// Values no activation should hold but a hostile or broken producer can.
fn specials(range: f32) -> Vec<f32> {
    vec![
        0.0,
        -0.0,
        f32::NAN,
        -f32::NAN,
        f32::from_bits(0x7fc0_00ff),
        f32::from_bits(0x7f80_0001),
        f32::from_bits(0xffc0_0a5a),
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::from_bits(1),
        f32::from_bits(0x007f_ffff),
        -f32::from_bits(1),
        f32::MIN_POSITIVE,
        -f32::MIN_POSITIVE,
        f32::MAX,
        f32::MIN,
        range,
        -range,
        step(range, 1),
        step(range, -1),
        range * 0.5,
        range * 2.0,
        1e-30,
        -1e-30,
    ]
}

/// Every `x` whose `y = x / range * max` lies within 64 ulps of an integer
/// or a half-integer level boundary, the specials, and `randoms` seeded
/// draws (uniform over a span wider than `[0, range]`, then raw bit
/// patterns).
fn candidates(bits: u8, range: f32, randoms: usize, seed: u64) -> Vec<f32> {
    let max = (1u32 << bits) - 1;
    let mut xs = specials(range);
    for half_steps in 1..=2 * max {
        let y = half_steps as f32 * 0.5;
        let x0 = y * range / max as f32;
        xs.extend((-64..=64).map(|d| step(x0, d)));
    }
    xs.extend((1..=64).map(f32::from_bits));
    let mut rng = StdRng::seed_from_u64(seed);
    for i in 0..randoms {
        xs.push(if i % 4 == 3 {
            f32::from_bits(rng.gen::<u32>())
        } else {
            rng.gen_range(-0.25 * range..1.25 * range)
        });
    }
    xs
}

const RANGES: [f32; 5] = [1.0, 1.8, 2.0, 0.37, 15.0];

#[test]
fn level_matches_round_half_away_for_every_bit_width() {
    for bits in 1..=8u8 {
        for (ri, &range) in RANGES.iter().enumerate() {
            let q = Quantizer::new(bits, range);
            let xs = candidates(bits, range, 25_000, 0xC0DE + bits as u64 * 8 + ri as u64);
            let want: Vec<u8> = xs.iter().map(|&x| level_ref(bits, range, x)).collect();
            for (&x, &w) in xs.iter().zip(&want) {
                assert_eq!(q.level(x), w, "bits {bits} range {range} x {x:e} ({:#x})", x.to_bits());
            }
            assert_eq!(q.quantize(&xs), want, "quantize, bits {bits} range {range}");
            let mut out = vec![9u8; 3];
            q.quantize_into(&xs, &mut out);
            assert_eq!(out, want, "quantize_into, bits {bits} range {range}");
        }
    }
}

#[test]
fn compress_paths_match_the_reference_bytes_on_boundary_values() {
    // 4 widths x 5 ranges x 2 clips x 25 000 draws = 1 M seeded randoms on
    // top of the boundary candidates.
    let mut s = CompressScratch::new();
    for bits in 1..=4u8 {
        for (ri, &range) in RANGES.iter().enumerate() {
            for lo in [0.0f32, 0.2] {
                let cr = ClippedRelu::new(lo, lo + range);
                // `hi - lo` need not give `range` back exactly; the wire
                // quantizer is defined over `cr.range()`.
                let q = Quantizer::new(bits, cr.range());
                let seed = 0xFACE + bits as u64 * 16 + ri as u64 * 2 + (lo > 0.0) as u64;
                let mut xs = candidates(bits, q.range, 25_000, seed);
                if lo > 0.0 {
                    // Shift the boundary candidates to where the clip puts
                    // them back, and keep the unshifted ones too.
                    let shifted: Vec<f32> = xs.iter().map(|&x| x + lo).collect();
                    xs.extend(shifted);
                }
                let levels: Vec<u8> =
                    xs.iter().map(|&x| level_ref(bits, q.range, cr.apply(x))).collect();
                let want = encode_ref(&levels);
                let got = clip_and_compress_into(&xs, cr, q, &mut s);
                assert_eq!(
                    got,
                    &want[..],
                    "clip_and_compress_into bits {bits} range {range} lo {lo}"
                );
                assert_eq!(s.levels, levels, "scratch levels bits {bits} range {range} lo {lo}");
                assert_eq!(
                    &clip_and_compress(&xs, cr, bits).payload[..],
                    &want[..],
                    "clip_and_compress bits {bits} range {range} lo {lo}"
                );

                let plain: Vec<u8> = xs.iter().map(|&x| level_ref(bits, q.range, x)).collect();
                let want = encode_ref(&plain);
                assert_eq!(compress_into(&xs, q, &mut s), &want[..], "compress_into");
                assert_eq!(&compress(&xs, q).payload[..], &want[..], "compress");
            }
        }
    }
}

/// The full sweep: every `f32` in `[0, 255]` through the 8-bit quantizer
/// (`y` spans `[0, 255]`), every `f32` in `[0, 15]` through the 4-bit one,
/// and every `f32` in `[0, 1]` through the 1-bit one over range 1, where
/// `y == x` exactly. About 3.3 G evaluations; run once per change to the
/// rounding rule with `--ignored`.
#[test]
#[ignore = "3.3 G evaluations, minutes"]
fn level_matches_round_half_away_on_every_float() {
    let mut total = 0u64;
    for (bits, range) in [(8u8, 255.0f32), (4, 15.0), (1, 1.0)] {
        let q = Quantizer::new(bits, range);
        for b in 0..=range.to_bits() {
            let x = f32::from_bits(b);
            assert_eq!(q.level(x), level_ref(bits, range, x), "bits {bits} x {x:e} ({b:#x})");
        }
        total += range.to_bits() as u64 + 1;
    }
    println!("swept {total} floats, 0 mismatches");
}

/// A level stream of length `n` with about `sparsity` zeros.
fn level_stream(n: usize, sparsity: f64, rng: &mut StdRng) -> Vec<u8> {
    (0..n).map(|_| if rng.gen_bool(sparsity) { 0 } else { rng.gen_range(1u8..16) }).collect()
}

/// Zero runs of the lengths where the varint grows a nibble (8 | 9, 64 | 65,
/// 4096 | 4097), at the start, between literals and at the end.
fn run_streams() -> Vec<Vec<u8>> {
    let mut streams = Vec::new();
    for run in [1usize, 7, 8, 9, 63, 64, 65, 511, 512, 513, 4096, 4097] {
        let zeros = vec![0u8; run];
        streams.push(zeros.clone());
        streams.push([&zeros[..], &[9]].concat());
        streams.push([&[3][..], &zeros[..]].concat());
        streams.push([&[3][..], &zeros[..], &[9, 1]].concat());
        streams.push([&[15, 3][..], &zeros[..], &[9], &zeros[..], &[1]].concat());
    }
    streams
}

fn all_streams() -> Vec<Vec<u8>> {
    let mut rng = StdRng::seed_from_u64(0x5EED);
    let mut streams = run_streams();
    for &sparsity in &[0.0, 0.14, 0.37, 0.9, 1.0] {
        for &n in &[0usize, 1, 2, 3, 777, 1024, 1025, 8192] {
            streams.push(level_stream(n, sparsity, &mut rng));
        }
    }
    streams
}

#[test]
fn encoder_writes_the_reference_bytes_and_decoder_inverts_them() {
    let q = Quantizer::new(4, 1.8);
    let mut out = vec![0xAAu8; 7];
    for levels in all_streams() {
        let n = levels.len();
        let want = encode_ref(&levels);
        assert_eq!(&RleCodec.encode(&levels)[..], &want[..], "encode, n {n}");
        RleCodec.encode_into(&levels, &mut out);
        assert_eq!(out, want, "encode_into, n {n}");

        assert_eq!(decode_ref(&want, n).as_deref(), Some(&levels[..]), "reference inverts, n {n}");
        assert_eq!(RleCodec.decode(&want, n).as_deref(), Some(&levels[..]), "decode, n {n}");

        let values: Vec<f32> = levels.iter().map(|&l| q.value(l)).collect();
        let c = Compressed { payload: Bytes::from(want.clone()), elems: n, quantizer: q };
        let back = decompress(&c).expect("healthy payload");
        assert_eq!(bits_of(&back), bits_of(&values), "decompress, n {n}");

        if n.is_multiple_of(4) && n > 0 {
            let shape = [1, 4, 1, n / 4];
            let res =
                make_result_from_parts(TileKey { image_id: 1, tile_id: 0 }, shape, n, &want, q);
            let t = res.to_tensor().expect("healthy result");
            assert_eq!(t.dims(), &shape);
            assert_eq!(bits_of(t.as_slice()), bits_of(&values), "to_tensor, n {n}");
        }
    }
}

#[test]
fn decoder_maps_levels_through_the_quantizer_of_any_width() {
    // The nibble stream can carry levels the declared width cannot: a 2-bit
    // quantizer clamps them to its top level, an 8-bit one scales them.
    let levels: Vec<u8> = (0..64).map(|i| (i % 16) as u8).collect();
    let payload = Bytes::from(encode_ref(&levels));
    for bits in 1..=8u8 {
        let q = Quantizer::new(bits, 2.0);
        let want: Vec<f32> = levels.iter().map(|&l| q.value(l)).collect();
        let c = Compressed { payload: payload.clone(), elems: 64, quantizer: q };
        assert_eq!(bits_of(&decompress(&c).unwrap()), bits_of(&want), "bits {bits}");
    }
}

/// All three decode entry points on the same bytes.
fn decodes(data: &[u8], n: usize) -> [bool; 3] {
    let q = Quantizer::new(4, 1.0);
    let payload = Compressed { payload: Bytes::copy_from_slice(data), elems: n, quantizer: q };
    let res = TileResult {
        key: TileKey { image_id: 0, tile_id: 0 },
        shape: [1, 1, 1, n],
        payload: payload.clone(),
    };
    [RleCodec.decode(data, n).is_some(), decompress(&payload).is_some(), res.to_tensor().is_some()]
}

#[test]
fn a_stream_truncated_at_any_byte_is_rejected() {
    let mut rng = StdRng::seed_from_u64(0x7A11);
    let mut streams = vec![level_stream(300, 0.37, &mut rng), level_stream(301, 0.9, &mut rng)];
    streams.push([&[5u8][..], &vec![0u8; 4097][..], &[7]].concat());
    streams.push(vec![0u8; 70_000]);
    for levels in streams {
        let n = levels.len();
        let enc = encode_ref(&levels);
        assert_eq!(decodes(&enc, n), [true; 3], "the whole stream decodes");
        for cut in 0..enc.len() {
            assert_eq!(decode_ref(&enc[..cut], n), None);
            assert_eq!(decodes(&enc[..cut], n), [false; 3], "n {n} cut at byte {cut}");
        }
    }
}

#[test]
fn overlong_varints_and_overshooting_runs_are_rejected() {
    // A zero token followed by 22 run nibbles: the 22nd would shift past 63
    // bits whatever it holds.
    for last in [0x0u8, 0x7, 0x8, 0xF] {
        let mut nibbles = vec![0u8];
        nibbles.extend([0x8u8; 21]);
        nibbles.push(last);
        nibbles.extend([1u8; 8]);
        let data = pack(&nibbles);
        assert_eq!(decode_ref(&data, 16), None);
        assert_eq!(decodes(&data, 16), [false; 3], "22-nibble varint ending {last:#x}");
    }
    // 21 run nibbles is the longest legal varint; all-ones it asks for 2^63
    // zeros, far past any `n`.
    let mut nibbles = vec![0u8];
    nibbles.extend([0xFu8; 20]);
    nibbles.push(0x7);
    let data = pack(&nibbles);
    assert_eq!(decode_ref(&data, 1 << 20), None);
    assert_eq!(decodes(&data, 1 << 20), [false; 3], "2^63-zero run");

    // A run one longer than what is left, at the start, in the middle and
    // as the last token.
    for (levels, n) in [
        (vec![0u8; 10], 9usize),
        ([&[4u8, 4][..], &[0u8; 65][..]].concat(), 66),
        ([&[4u8; 31][..], &[0u8; 2][..]].concat(), 32),
        ([&[0u8; 8][..], &[6u8][..], &[0u8; 9][..]].concat(), 17),
    ] {
        let enc = encode_ref(&levels);
        assert_eq!(decode_ref(&enc, n), None);
        assert_eq!(decodes(&enc, n), [false; 3], "run overshooting n = {n}");
        assert_eq!(decodes(&enc, levels.len()), [true; 3]);
    }
    // An empty stream holds zero levels and nothing else.
    assert_eq!(decodes(&[], 0), [true; 3]);
    assert_eq!(decodes(&[], 1), [false; 3]);
}

#[test]
fn declared_sizes_are_checked_before_the_payload_is_read() {
    let q = Quantizer::new(4, 1.0);
    let key = TileKey { image_id: 3, tile_id: 1 };
    let levels = vec![7u8; 32];
    let good = make_result_from_parts(key, [1, 2, 4, 4], 32, &encode_ref(&levels), q);
    assert!(good.to_tensor().is_some());

    // `elems` that is not the shape product, either way round.
    for elems in [0usize, 16, 31, 33, 64] {
        let mut bad = good.clone();
        bad.payload.elems = elems;
        assert!(bad.to_tensor().is_none(), "elems {elems} for a 32-element shape");
    }
    for shape in [[1, 2, 4, 5], [1, 2, 4, 3], [1, 3, 4, 4], [2, 2, 4, 4], [0, 2, 4, 4]] {
        let mut bad = good.clone();
        bad.shape = shape;
        assert!(bad.to_tensor().is_none(), "shape {shape:?} for 32 elements");
    }

    // A shape product over the cap, with a matching `elems` and a payload
    // that really is that many zeros: still refused, before any buffer of
    // that size exists.
    let over = MAX_TILE_ELEMS + 1;
    let zeros = Bytes::from(encode_ref(&vec![0u8; over]));
    let huge = TileResult {
        key,
        shape: [1, 1, 1, over],
        payload: Compressed { payload: zeros.clone(), elems: over, quantizer: q },
    };
    assert!(huge.to_tensor().is_none(), "shape product over MAX_TILE_ELEMS");
    assert!(decompress(&huge.payload).is_none(), "elems over MAX_TILE_ELEMS");
    let mut wrap = huge.clone();
    wrap.shape = [usize::MAX, 2, 1, 1];
    assert!(wrap.to_tensor().is_none(), "shape product overflow");

    // At the cap the same payload shape is accepted.
    let at = Compressed {
        payload: Bytes::from(encode_ref(&vec![0u8; MAX_TILE_ELEMS])),
        elems: MAX_TILE_ELEMS,
        quantizer: q,
    };
    assert_eq!(decompress(&at).map(|v| v.len()), Some(MAX_TILE_ELEMS));
}

/// Whether the public entry points run the vector tier on this CPU: the
/// probe the codec makes, repeated.
fn vector_tier() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::is_x86_feature_detected as has;
        has!("avx512f")
            && has!("avx512bw")
            && has!("avx512vbmi")
            && has!("avx512vbmi2")
            && has!("bmi2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    false
}

fn paths_checked() -> &'static str {
    if vector_tier() {
        "checked the vector and the scalar path"
    } else {
        "this CPU has no AVX-512 VBMI2: checked only the scalar path"
    }
}

/// The scalar encoder, called directly.
fn encode_scalar(levels: &[u8]) -> Vec<u8> {
    let mut out = vec![0x5Au8; 3];
    scalar::encode_into(levels, &mut out);
    out
}

/// Both decoders on the same bytes, as levels and as `f32` values: the
/// public one (vector tier where the CPU has it) and the scalar one. They
/// must give the same verdict, and on `Some` the same levels and bits.
fn decode_both(data: &[u8], n: usize, q: Quantizer) -> Option<Vec<u8>> {
    let identity: [u8; 16] = std::array::from_fn(|l| l as u8);
    let mut levels = vec![0u8; n];
    let scalar_levels = scalar::decode_mapped(data, &identity, &mut levels).map(|()| levels);
    let public_levels = RleCodec.decode(data, n);
    assert_eq!(public_levels, scalar_levels, "levels, n {n}, payload {data:02x?}");

    let values: [f32; 16] = std::array::from_fn(|l| q.value(l as u8));
    let mut out = vec![f32::NAN; n];
    let scalar_values = scalar::decode_mapped(data, &values, &mut out).map(|()| bits_of(&out));
    let c = Compressed { payload: Bytes::copy_from_slice(data), elems: n, quantizer: q };
    let public_values = decompress(&c).map(|v| bits_of(&v));
    assert_eq!(public_values, scalar_values, "f32 bits, n {n}, payload {data:02x?}");
    public_levels
}

/// Level streams for the block paths: every zero share at every length
/// around a 64-level block, runs of the lengths where a block stops or
/// hands over (8 | 9, 64 | 65, > 512) at every offset across a block edge,
/// and bursty streams whose runs straddle blocks.
fn block_streams() -> Vec<Vec<u8>> {
    let mut rng = StdRng::seed_from_u64(0xB10C);
    let mut streams = Vec::new();
    for &share in &[0.0, 0.137, 0.37, 0.9, 1.0] {
        for &n in &[0usize, 1, 63, 64, 65, 127, 1024, 8192] {
            for _ in 0..3 {
                streams.push(level_stream(n, share, &mut rng));
            }
        }
    }
    for run in [8usize, 9, 64, 65, 513, 1500] {
        for lead in [0usize, 1, 7, 31, 32, 55, 56, 57, 62, 63, 64, 65, 120] {
            let head = level_stream(lead, 0.3, &mut rng);
            let zeros = vec![0u8; run];
            streams.push([&head[..], &zeros[..]].concat());
            streams.push([&head[..], &zeros[..], &[4]].concat());
            streams.push([&head[..], &zeros[..], &[4], &zeros[..], &[0, 0, 2]].concat());
            let tail = level_stream(70, 0.5, &mut rng);
            streams.push([&head[..], &zeros[..], &tail[..]].concat());
        }
    }
    for _ in 0..3000 {
        // Alternate bursts of zeros (1..=80 long) and of mixed levels.
        let n = rng.gen_range(0..700);
        let mut levels = Vec::with_capacity(n);
        while levels.len() < n {
            if rng.gen_bool(0.5) {
                let longest = if rng.gen_bool(0.2) { 80 } else { 10 };
                let run = rng.gen_range(1..=longest);
                levels.extend(std::iter::repeat_n(0u8, run));
            } else {
                let share = rng.gen_range(0.0..0.8);
                let len = rng.gen_range(1..40);
                levels.extend(level_stream(len, share, &mut rng));
            }
        }
        levels.truncate(n);
        streams.push(levels);
    }
    streams
}

#[test]
fn vector_and_scalar_codecs_match_the_references_on_block_edges() {
    let q = Quantizer::new(4, 1.8);
    let mut out = Vec::new();
    for levels in block_streams() {
        let n = levels.len();
        let want = encode_ref(&levels);
        RleCodec.encode_into(&levels, &mut out);
        assert_eq!(out, want, "public encoder, n {n}");
        assert_eq!(encode_scalar(&levels), want, "scalar encoder, n {n}");
        assert_eq!(decode_ref(&want, n).as_deref(), Some(&levels[..]), "reference, n {n}");
        assert_eq!(decode_both(&want, n, q).as_deref(), Some(&levels[..]), "decoders, n {n}");
    }
    println!("{}", paths_checked());
}

#[test]
fn vector_and_scalar_decoders_give_one_verdict_on_malformed_payloads() {
    let q = Quantizer::new(4, 2.0);
    let mut rng = StdRng::seed_from_u64(0xBAD);
    let mut streams = vec![
        level_stream(300, 0.37, &mut rng),
        level_stream(1024, 0.9, &mut rng),
        level_stream(129, 0.137, &mut rng),
        [&[5u8][..], &vec![0u8; 600][..], &[7], &vec![0u8; 9][..], &[1]].concat(),
    ];
    streams.extend((0..40).map(|i| level_stream(60 + 7 * i, 0.5, &mut rng)));
    let mut checked = 0usize;
    let mut check = |data: &[u8], n: usize| {
        let want = decode_ref(data, n);
        assert_eq!(decode_both(data, n, q), want, "verdict vs reference, n {n}");
        checked += 1;
    };
    for levels in &streams {
        let n = levels.len();
        let enc = encode_ref(levels);
        for cut in 0..enc.len() {
            check(&enc[..cut], n);
        }
        for bit in 0..8 * enc.len().min(96) {
            let mut bad = enc.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            check(&bad, n);
            check(&bad, n + 1);
        }
        for pad in [&[0u8][..], &[0xff], &[0x00; 40], &[0x12, 0x34, 0x80, 0x08]] {
            check(&[&enc[..], pad].concat(), n);
        }
        check(&enc, n + 1);
        if n > 0 {
            check(&enc, n - 1);
        }
    }
    // Random bytes: varints that continue, overflow or overshoot anywhere.
    for _ in 0..2000 {
        let len = rng.gen_range(0..80);
        let data: Vec<u8> = (0..len).map(|_| rng.gen::<u32>() as u8).collect();
        check(&data, rng.gen_range(0..400));
    }
    println!("{} on {checked} payloads", paths_checked());
}

#[test]
fn quantizer_lanes_match_the_scalar_level_at_every_position() {
    // NaN, ±inf and exact ties at every lane of a 16-float step, in
    // buffers of every length across two steps.
    let cr = ClippedRelu::new(0.2, 2.0);
    let q = Quantizer::new(4, cr.range());
    let step = cr.range() / 15.0;
    let mut specials = specials(q.range);
    specials.extend((0..=30).map(|h| h as f32 * 0.5 * step));
    specials.extend((0..=30).map(|h| h as f32 * 0.5 * step + cr.lo));
    let mut s = CompressScratch::new();
    for len in 0..=40usize {
        for (k, &x) in specials.iter().enumerate() {
            let xs: Vec<f32> = (0..len).map(|i| if (i + k) % 5 == 0 { x } else { -x }).collect();
            let plain: Vec<u8> = xs.iter().map(|&x| q.level(x)).collect();
            let mut got = Vec::new();
            q.quantize_into(&xs, &mut got);
            assert_eq!(got, plain, "quantize_into, len {len}, x {x:e}");
            assert_eq!(plain, xs.iter().map(|&x| level_ref(4, q.range, x)).collect::<Vec<_>>());

            let clipped: Vec<u8> = xs.iter().map(|&x| q.level(cr.apply(x))).collect();
            let payload = clip_and_compress_into(&xs, cr, q, &mut s);
            assert_eq!(payload, &encode_scalar(&clipped)[..], "clip path, len {len}, x {x:e}");
            assert_eq!(s.levels, clipped, "clip levels, len {len}, x {x:e}");
        }
    }
    println!("{}", paths_checked());
}

#[test]
fn served_boundary_tiles_give_one_payload_on_both_paths() {
    use adcnn_core::fdsp::TileGrid;
    use adcnn_nn::infer::InferScratch;
    use adcnn_nn::small::{shapes_cnn, vgg_blocks};
    use adcnn_tensor::Tensor;

    let cr = ClippedRelu::new(0.0, 2.0);
    let q = Quantizer::paper_default(cr);
    let mut rng = StdRng::seed_from_u64(0x7113);
    let (mut s, mut scratch) = (CompressScratch::new(), InferScratch::new());
    let mut tiles = 0;
    for (model, images) in [(shapes_cnn(10, &mut rng), 4), (vgg_blocks(10, &mut rng), 1)] {
        let (c, h, w) = model.input;
        let grid = TileGrid::new(2, 2);
        for _ in 0..images {
            let image = Tensor::randn([1, c, h, w], 1.0, &mut rng);
            for tile in grid.extract(&image) {
                let act = model.net.forward_infer_range_with(
                    &tile,
                    0..model.separable_prefix,
                    &mut scratch,
                );
                let xs = act.as_slice();
                let levels: Vec<u8> = xs.iter().map(|&x| q.level(cr.apply(x))).collect();
                let want = encode_ref(&levels);
                assert_eq!(encode_scalar(&levels), want, "{} scalar", model.name);
                assert_eq!(clip_and_compress_into(xs, cr, q, &mut s), &want[..], "{}", model.name);
                let back = decode_both(&want, xs.len(), q).expect("a served payload decodes");
                assert_eq!(back, levels, "{}", model.name);
                tiles += 1;
            }
        }
    }
    println!("{} on {tiles} served tiles", paths_checked());
}
