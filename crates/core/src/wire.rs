//! Central ↔ Conv node message format (§6.1, Figure 8).
//!
//! Every tile travels with its image ID `i_id` and tile ID `t_id` so the
//! Central node can reassemble partial results and attribute them to the
//! right input, and so late results (after `T_L`) can be discarded safely.

use crate::compress::{Compressed, Quantizer};
use adcnn_tensor::Tensor;
use bytes::{BufMut, Bytes, BytesMut};
use serde::Serialize;

// Little-endian cursor reads for the decode paths. Each returns `None` on
// a truncated input instead of panicking — the decoders below never index
// past what actually arrived.
fn rd_u8(b: &mut &[u8]) -> Option<u8> {
    let (&v, rest) = b.split_first()?;
    *b = rest;
    Some(v)
}

fn rd_u32(b: &mut &[u8]) -> Option<u32> {
    let (head, rest) = b.split_at_checked(4)?;
    *b = rest;
    Some(u32::from_le_bytes(head.try_into().unwrap()))
}

fn rd_u64(b: &mut &[u8]) -> Option<u64> {
    let (head, rest) = b.split_at_checked(8)?;
    *b = rest;
    Some(u64::from_le_bytes(head.try_into().unwrap()))
}

fn rd_f32(b: &mut &[u8]) -> Option<f32> {
    rd_u32(b).map(f32::from_bits)
}

/// Upper bound on the element count of any tile crossing the wire.
///
/// Decoders must reject a frame whose declared shape or element count
/// exceeds this *before* allocating for it: a hostile 16-byte header must
/// not be able to request a multi-gigabyte buffer. 2^24 elements (64 MiB
/// of f32) is an order of magnitude above any boundary map this codebase
/// produces, so legitimate traffic never hits the cap.
pub const MAX_TILE_ELEMS: usize = 1 << 24;

/// Checked product of a shape's dimensions, capped at
/// [`MAX_TILE_ELEMS`]. `None` on overflow or over-cap — the two ways a
/// corrupt header turns a product into an allocation bomb.
pub fn checked_numel(shape: &[usize]) -> Option<usize> {
    let n = shape.iter().try_fold(1usize, |acc, &d| acc.checked_mul(d))?;
    (n <= MAX_TILE_ELEMS).then_some(n)
}

/// Identifies one tile of one input image.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize)]
pub struct TileKey {
    /// Input-image sequence number (`i_id`).
    pub image_id: u64,
    /// Tile index within the image (`t_id`, row-major).
    pub tile_id: u32,
}

/// Central → Conv: one input tile to process.
#[derive(Clone, Debug)]
pub struct TileTask {
    /// Which tile of which image this is.
    pub key: TileKey,
    /// Tile activations `[1, C, th, tw]` as raw f32 (input images are not
    /// compressed — they are small relative to intermediate maps).
    pub tile: Tensor,
}

impl TileTask {
    /// Serialized size in bits (payload + header), for transfer modelling.
    pub fn wire_bits(&self) -> u64 {
        self.tile.numel() as u64 * 32 + HEADER_BITS
    }

    /// Append the explicit wire encoding: key, shape, then the tile's raw
    /// f32 data, all little-endian. The transport layer length-prefixes
    /// the result; this function owns only the message body.
    pub fn encode_into(&self, buf: &mut BytesMut) {
        buf.put_u64_le(self.key.image_id);
        buf.put_u32_le(self.key.tile_id);
        let dims = self.tile.dims();
        assert_eq!(dims.len(), 4, "tile tasks are [1,C,H,W]");
        for &d in dims {
            buf.put_u32_le(d as u32);
        }
        put_f32s_le(buf, self.tile.as_slice());
    }

    /// Decode an [`encode_into`](Self::encode_into) body. `None` on any
    /// structural defect: truncated header, shape product overflow or over
    /// [`MAX_TILE_ELEMS`], or a data section that does not match the
    /// declared shape. Never panics, never allocates more than the
    /// (already length-capped) input it was handed.
    pub fn decode(mut body: &[u8]) -> Option<TileTask> {
        let b = &mut body;
        let image_id = rd_u64(b)?;
        let tile_id = rd_u32(b)?;
        let mut shape = [0usize; 4];
        for d in &mut shape {
            *d = rd_u32(b)? as usize;
        }
        let tile = tensor_from_bytes(&shape, b)?;
        Some(TileTask { key: TileKey { image_id, tile_id }, tile })
    }
}

/// Conv → Central: the compressed intermediate result for one tile.
#[derive(Clone, Debug)]
pub struct TileResult {
    /// Which tile of which image this answers.
    pub key: TileKey,
    /// Output tile shape `[1, C, oh, ow]` before compression.
    pub shape: [usize; 4],
    /// Compressed payload (§4 pipeline).
    pub payload: Compressed,
}

/// Fixed per-message header: image id (64) + tile id (32) + shape (4×32) +
/// element count (32) + quantizer params (8 + 32).
pub const HEADER_BITS: u64 = 64 + 32 + 4 * 32 + 32 + 8 + 32;

impl TileResult {
    /// Wire size in bits including the header.
    pub fn wire_bits(&self) -> u64 {
        self.payload.wire_bits() + HEADER_BITS
    }

    /// Decode the payload back into a tensor (zero-filled on decode failure
    /// is *not* done here — corrupt payloads surface as `None` so the
    /// caller can apply the paper's zero-fill policy explicitly).
    ///
    /// Validation happens *before* the payload is decompressed: the shape
    /// product is computed with checked arithmetic, capped at
    /// [`MAX_TILE_ELEMS`], and must match the declared element count. A
    /// hostile header therefore cannot trigger an unbounded allocation —
    /// the payload is only read once the output size is known sane.
    pub fn to_tensor(&self) -> Option<Tensor> {
        let mut values = vec![0.0f32; self.checked_elems()?];
        crate::compress::decompress_into(&self.payload, &mut values)?;
        Some(Tensor::from_vec(self.shape, values))
    }

    /// [`to_tensor`](Self::to_tensor) into a caller-owned buffer of exactly
    /// the declared element count, with the same checks in the same order
    /// and no allocation: the Central node's steady-state decode. `None`
    /// leaves `out` unspecified, so decode into a buffer of your own and
    /// paste from it only on success.
    pub fn decode_into(&self, out: &mut [f32]) -> Option<()> {
        self.checked_elems()?;
        crate::compress::decompress_into(&self.payload, out)
    }

    /// The declared element count, if the shape product is sane (checked
    /// arithmetic, at most [`MAX_TILE_ELEMS`]) and agrees with it.
    fn checked_elems(&self) -> Option<usize> {
        checked_numel(&self.shape).filter(|&n| n == self.payload.elems)
    }

    /// Append the explicit wire encoding: key, shape, element count,
    /// quantizer parameters, then the RLE payload, all little-endian (the
    /// layout [`HEADER_BITS`] has modelled since the first PR). The
    /// transport layer length-prefixes the result.
    pub fn encode_into(&self, buf: &mut BytesMut) {
        buf.put_u64_le(self.key.image_id);
        buf.put_u32_le(self.key.tile_id);
        for &d in &self.shape {
            buf.put_u32_le(d as u32);
        }
        buf.put_u32_le(self.payload.elems as u32);
        buf.put_u8(self.payload.quantizer.bits);
        buf.put_f32_le(self.payload.quantizer.range);
        buf.put_slice(&self.payload.payload);
    }

    /// Decode an [`encode_into`](Self::encode_into) body.
    ///
    /// Returns `None` only on defects that make the message meaningless:
    /// a truncated header or quantizer parameters outside the codec's
    /// domain (`bits ∉ 1..=8`, non-finite or non-positive `range`). A
    /// frame whose *payload* is corrupt — wrong element count for the
    /// shape, truncated RLE stream — still decodes to a `TileResult`, so
    /// the Central node can attribute it to its tile and surface the
    /// failed [`to_tensor`](Self::to_tensor) as a corrupt-result
    /// lifecycle event (the same path `corrupt_prob` injection takes)
    /// instead of silently dropping a tile it could still recover.
    pub fn decode(mut body: &[u8]) -> Option<TileResult> {
        let b = &mut body;
        let image_id = rd_u64(b)?;
        let tile_id = rd_u32(b)?;
        let mut shape = [0usize; 4];
        for d in &mut shape {
            *d = rd_u32(b)? as usize;
        }
        let elems = rd_u32(b)? as usize;
        let bits = rd_u8(b)?;
        let range = rd_f32(b)?;
        if !(1..=8).contains(&bits) || !range.is_finite() || range <= 0.0 {
            return None;
        }
        Some(TileResult {
            key: TileKey { image_id, tile_id },
            shape,
            payload: Compressed {
                payload: Bytes::copy_from_slice(b),
                elems,
                quantizer: Quantizer { bits, range },
            },
        })
    }
}

/// Append `values` as little-endian f32s, a block at a time: the conversion
/// of a block is one vector copy on a little-endian machine, and the buffer
/// grows by blocks instead of by elements.
fn put_f32s_le(buf: &mut BytesMut, values: &[f32]) {
    let mut block = [0u8; 1024];
    for chunk in values.chunks(block.len() / 4) {
        for (dst, v) in block.chunks_exact_mut(4).zip(chunk) {
            dst.copy_from_slice(&v.to_le_bytes());
        }
        buf.put_slice(&block[..chunk.len() * 4]);
    }
}

/// Serialize a tensor's raw f32 data (little endian) for transport.
pub fn tensor_to_bytes(t: &Tensor) -> Bytes {
    let mut buf = BytesMut::with_capacity(t.numel() * 4);
    put_f32s_le(&mut buf, t.as_slice());
    buf.freeze()
}

/// Inverse of [`tensor_to_bytes`] given the shape. `None` when the data
/// length does not match the shape — including when the shape itself is
/// hostile (product overflow or over [`MAX_TILE_ELEMS`]): the checks run
/// on checked arithmetic *before* any allocation.
pub fn tensor_from_bytes(shape: &[usize], data: &[u8]) -> Option<Tensor> {
    let n = checked_numel(shape)?;
    if data.len() != n.checked_mul(4)? {
        return None;
    }
    let values = data
        .chunks_exact(4)
        .map(|c| f32::from_le_bytes(c.try_into().expect("chunks_exact(4) yields 4 bytes")))
        .collect();
    Some(Tensor::from_vec(shape, values))
}

/// Build a [`TileResult`] by compressing an output tile.
pub fn make_result(key: TileKey, tile: &Tensor, quantizer: Quantizer) -> TileResult {
    let dims = tile.dims();
    assert_eq!(dims.len(), 4, "tile results are [1,C,H,W]");
    TileResult {
        key,
        shape: [dims[0], dims[1], dims[2], dims[3]],
        payload: crate::compress::compress(tile.as_slice(), quantizer),
    }
}

/// Build a [`TileResult`] from an already-encoded payload (the worker's
/// zero-allocation path: quantize + RLE run in reusable scratch buffers and
/// only this one `Bytes` copy is made per shipped tile).
///
/// Panics unless `elems` matches the shape product — the encode-side half
/// of the contract [`TileResult::to_tensor`] enforces on decode. A result
/// built here is guaranteed internally consistent, so any mismatch seen
/// at the Central node is transit corruption, not a producer bug.
pub fn make_result_from_parts(
    key: TileKey,
    shape: [usize; 4],
    elems: usize,
    encoded: &[u8],
    quantizer: Quantizer,
) -> TileResult {
    assert_eq!(
        checked_numel(&shape),
        Some(elems),
        "result payload element count must match its shape"
    );
    TileResult {
        key,
        shape,
        payload: Compressed { payload: Bytes::copy_from_slice(encoded), elems, quantizer },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adcnn_tensor::activ::ClippedRelu;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn tensor_bytes_roundtrip() {
        let mut rng = StdRng::seed_from_u64(1);
        let t = Tensor::randn([1, 3, 4, 5], 1.0, &mut rng);
        let b = tensor_to_bytes(&t);
        assert_eq!(b.len(), 60 * 4);
        let back = tensor_from_bytes(&[1, 3, 4, 5], &b).unwrap();
        assert!(back.approx_eq(&t, 0.0));
    }

    #[test]
    fn tensor_from_bytes_rejects_bad_length() {
        assert!(tensor_from_bytes(&[2, 2], &[0u8; 15]).is_none());
    }

    #[test]
    fn result_roundtrip_within_quant_error() {
        let cr = ClippedRelu::new(0.1, 1.1);
        let q = Quantizer::paper_default(cr);
        let mut rng = StdRng::seed_from_u64(2);
        let raw = Tensor::randn([1, 4, 6, 6], 0.5, &mut rng);
        let clipped = cr.forward(&raw);
        let key = TileKey { image_id: 7, tile_id: 3 };
        let res = make_result(key, &clipped, q);
        assert_eq!(res.key, key);
        let back = res.to_tensor().unwrap();
        assert!(back.approx_eq(&clipped, q.max_error() + 1e-6));
    }

    #[test]
    fn result_from_parts_matches_make_result() {
        use crate::compress::{compress_into, CompressScratch};
        let cr = ClippedRelu::new(0.0, 1.0);
        let q = Quantizer::paper_default(cr);
        let mut rng = StdRng::seed_from_u64(3);
        let tile = cr.forward(&Tensor::randn([1, 3, 5, 5], 0.7, &mut rng));
        let key = TileKey { image_id: 1, tile_id: 4 };
        let want = make_result(key, &tile, q);
        let mut s = CompressScratch::new();
        let enc = compress_into(tile.as_slice(), q, &mut s);
        let got = make_result_from_parts(key, [1, 3, 5, 5], tile.numel(), enc, q);
        assert_eq!(got.key, want.key);
        assert_eq!(got.shape, want.shape);
        assert_eq!(&got.payload.payload[..], &want.payload.payload[..]);
        assert_eq!(got.payload.elems, want.payload.elems);
        assert!(got.to_tensor().unwrap().approx_eq(&want.to_tensor().unwrap(), 0.0));
    }

    #[test]
    fn wire_bits_accounts_header() {
        let q = Quantizer::new(4, 1.0);
        let t = Tensor::zeros([1, 1, 8, 8]);
        let res = make_result(TileKey { image_id: 0, tile_id: 0 }, &t, q);
        assert!(res.wire_bits() >= HEADER_BITS);
        assert_eq!(res.wire_bits(), res.payload.wire_bits() + HEADER_BITS);
    }

    #[test]
    fn task_wire_bits() {
        let t = TileTask {
            key: TileKey { image_id: 1, tile_id: 2 },
            tile: Tensor::zeros([1, 3, 28, 28]),
        };
        assert_eq!(t.wire_bits(), 3 * 28 * 28 * 32 + HEADER_BITS);
    }

    #[test]
    fn tile_keys_order_by_image_then_tile() {
        let a = TileKey { image_id: 1, tile_id: 9 };
        let b = TileKey { image_id: 2, tile_id: 0 };
        assert!(a < b);
    }

    #[test]
    fn task_encode_decode_roundtrip() {
        let mut rng = StdRng::seed_from_u64(11);
        let task = TileTask {
            key: TileKey { image_id: 81, tile_id: 5 },
            tile: Tensor::randn([1, 3, 8, 8], 1.0, &mut rng),
        };
        let mut buf = BytesMut::new();
        task.encode_into(&mut buf);
        let back = TileTask::decode(&buf).unwrap();
        assert_eq!(back.key, task.key);
        assert!(back.tile.approx_eq(&task.tile, 0.0));
    }

    #[test]
    fn result_encode_decode_roundtrip() {
        let cr = ClippedRelu::new(0.0, 1.0);
        let q = Quantizer::paper_default(cr);
        let mut rng = StdRng::seed_from_u64(12);
        let tile = cr.forward(&Tensor::randn([1, 4, 6, 6], 0.5, &mut rng));
        let res = make_result(TileKey { image_id: 3, tile_id: 2 }, &tile, q);
        let mut buf = BytesMut::new();
        res.encode_into(&mut buf);
        let back = TileResult::decode(&buf).unwrap();
        assert_eq!(back.key, res.key);
        assert_eq!(back.shape, res.shape);
        assert_eq!(back.payload.elems, res.payload.elems);
        assert_eq!(&back.payload.payload[..], &res.payload.payload[..]);
        assert!(back.to_tensor().unwrap().approx_eq(&res.to_tensor().unwrap(), 0.0));
    }

    #[test]
    fn checked_numel_rejects_overflow_and_cap() {
        assert_eq!(checked_numel(&[1, 2, 3, 4]), Some(24));
        assert_eq!(checked_numel(&[]), Some(1));
        assert_eq!(checked_numel(&[usize::MAX, 2]), None, "product overflow");
        assert_eq!(checked_numel(&[MAX_TILE_ELEMS, 2]), None, "over cap");
        assert_eq!(checked_numel(&[1, 1, 1, MAX_TILE_ELEMS]), Some(MAX_TILE_ELEMS));
    }

    #[test]
    fn tensor_from_bytes_rejects_hostile_shapes_without_allocating() {
        // Overflowing product: `n * 4` would wrap to a small number in
        // unchecked arithmetic and admit a tiny buffer for a huge shape.
        let wrap = usize::MAX / 4 + 1;
        assert!(tensor_from_bytes(&[wrap, 4], &[0u8; 16]).is_none());
        // Over-cap product: structurally fine, but a decoder must not be
        // talked into a multi-gigabyte allocation by 16 header bytes.
        assert!(tensor_from_bytes(&[1, 1, MAX_TILE_ELEMS, 2], &[0u8; 16]).is_none());
    }

    #[test]
    fn to_tensor_rejects_elems_shape_mismatch_before_decompress() {
        let q = Quantizer::new(4, 1.0);
        let good =
            make_result(TileKey { image_id: 0, tile_id: 0 }, &Tensor::zeros([1, 1, 4, 4]), q);
        // Declared element count inconsistent with the shape: reject.
        let mut bad = good.clone();
        bad.payload.elems = 17;
        assert!(bad.to_tensor().is_none());
        // Hostile shape whose product overflows: reject, no panic.
        let mut bad = good.clone();
        bad.shape = [usize::MAX, usize::MAX, 2, 2];
        assert!(bad.to_tensor().is_none());
        // Huge-but-consistent claim: capped before any allocation.
        let mut bad = good.clone();
        bad.shape = [1, 1, MAX_TILE_ELEMS, 2];
        bad.payload.elems = 2 * MAX_TILE_ELEMS;
        assert!(bad.to_tensor().is_none());
    }

    #[test]
    #[should_panic(expected = "element count must match")]
    fn make_result_from_parts_validates_elems() {
        make_result_from_parts(
            TileKey { image_id: 0, tile_id: 0 },
            [1, 1, 4, 4],
            17, // shape says 16
            &[0u8; 4],
            Quantizer::new(4, 1.0),
        );
    }

    #[test]
    fn result_decode_keeps_corrupt_payloads_for_the_lifecycle() {
        // A frame with a readable key but an elems/shape mismatch must
        // *decode* (so the Central node can attribute it) and then fail
        // `to_tensor` (so it surfaces as a corrupt-result event).
        let mut buf = BytesMut::new();
        buf.put_u64_le(9); // image
        buf.put_u32_le(1); // tile
        for d in [1u32, 2, 4, 4] {
            buf.put_u32_le(d);
        }
        buf.put_u32_le(99); // elems ≠ 32
        buf.put_u8(4);
        buf.put_f32_le(1.0);
        buf.put_slice(&[0x11, 0x22]);
        let res = TileResult::decode(&buf).expect("structurally readable");
        assert_eq!(res.key, TileKey { image_id: 9, tile_id: 1 });
        assert!(res.to_tensor().is_none(), "mismatched payload must fail to decode");
    }

    #[test]
    fn result_decode_rejects_out_of_domain_quantizers() {
        let encode = |bits: u8, range: f32| {
            let mut buf = BytesMut::new();
            buf.put_u64_le(0);
            buf.put_u32_le(0);
            for d in [1u32, 1, 2, 2] {
                buf.put_u32_le(d);
            }
            buf.put_u32_le(4);
            buf.put_u8(bits);
            buf.put_f32_le(range);
            buf
        };
        assert!(TileResult::decode(&encode(4, 1.0)).is_some());
        assert!(TileResult::decode(&encode(0, 1.0)).is_none());
        assert!(TileResult::decode(&encode(9, 1.0)).is_none());
        assert!(TileResult::decode(&encode(4, 0.0)).is_none());
        assert!(TileResult::decode(&encode(4, f32::NAN)).is_none());
        assert!(TileResult::decode(&encode(4, f32::INFINITY)).is_none());
    }

    mod fuzz {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Arbitrary bytes through every decode path: never panic,
            /// never allocate beyond the input's own (capped) size. A
            /// successful `TileResult::decode` must also survive
            /// `to_tensor` without panicking.
            #[test]
            fn decoders_never_panic_on_arbitrary_bytes(body in proptest::collection::vec(any::<u8>(), 0..256)) {
                let _ = TileTask::decode(&body);
                if let Some(res) = TileResult::decode(&body) {
                    let _ = res.to_tensor();
                }
            }

            /// Bit-flipped *valid* result frames: the adversarial case a
            /// lossy link actually produces. Decode may fail or succeed,
            /// `to_tensor` may fail, but nothing panics and an accepted
            /// tensor always matches its declared shape.
            #[test]
            fn flipped_result_frames_never_panic(byte in 0usize..64, bit in 0u8..8) {
                let q = Quantizer::new(4, 1.0);
                let good = make_result(
                    TileKey { image_id: 1, tile_id: 0 },
                    &Tensor::full([1, 1, 4, 4], 0.5),
                    q,
                );
                let mut buf = BytesMut::new();
                good.encode_into(&mut buf);
                let idx = byte % buf.len();
                buf[idx] ^= 1 << bit;
                if let Some(res) = TileResult::decode(&buf) {
                    if let Some(t) = res.to_tensor() {
                        prop_assert_eq!(t.numel(), checked_numel(&res.shape).unwrap());
                    }
                }
            }

            /// Hostile headers with huge declared shapes/element counts
            /// must be rejected before any proportional allocation.
            #[test]
            fn huge_declared_shapes_are_rejected(
                d0 in any::<u32>(),
                d1 in any::<u32>(),
                d2 in any::<u32>(),
                d3 in any::<u32>(),
                elems in any::<u32>(),
            ) {
                let mut buf = BytesMut::new();
                buf.put_u64_le(0);
                buf.put_u32_le(0);
                for d in [d0, d1, d2, d3] {
                    buf.put_u32_le(d);
                }
                buf.put_u32_le(elems);
                buf.put_u8(4);
                buf.put_f32_le(1.0);
                buf.put_slice(&[0u8; 8]);
                if let Some(res) = TileResult::decode(&buf) {
                    let n = res.shape.iter().map(|&d| d as u128).product::<u128>();
                    if n > MAX_TILE_ELEMS as u128 || res.payload.elems as u128 != n {
                        prop_assert!(res.to_tensor().is_none());
                    }
                }
            }
        }
    }
}
