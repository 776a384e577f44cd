//! The scalar RLE codec: the loops every CPU runs, the vector tier's
//! fallback on CPUs without it, and the reference it is tested against.
//! Self-contained (no crate paths), so `tests/codec_differential.rs`
//! compiles this same file and calls it directly.

/// Writes a nibble stream into a pre-sized byte buffer, high nibble first
/// (a trailing odd nibble leaves the low half zero) — the wire format of
/// `RleCodec`. The cursor and the half-filled byte live in locals; the
/// buffer is touched once per finished byte.
struct NibblePacker<'a> {
    out: &'a mut [u8],
    /// Bytes finished so far.
    len: usize,
    /// The high nibble waiting for its low half.
    pending: Option<u8>,
}

impl NibblePacker<'_> {
    #[inline]
    fn push(&mut self, nib: u8) {
        debug_assert!(nib <= 15);
        match self.pending.take() {
            Some(high) => {
                self.out[self.len] = high | nib;
                self.len += 1;
            }
            None => self.pending = Some(nib << 4),
        }
    }

    /// Flush a trailing odd nibble; the number of bytes written.
    fn finish(mut self) -> usize {
        if let Some(high) = self.pending {
            self.out[self.len] = high;
            self.len += 1;
        }
        self.len
    }
}

/// `RleCodec::encode_into`: `levels` (each `<= 15`) as the nibble stream,
/// into `out` (cleared first, capacity kept).
pub(crate) fn encode_into(levels: &[u8], out: &mut Vec<u8>) {
    // Worst case is a lone zero between literals: two nibbles for one
    // level, so one byte per level (+1 for the odd nibble) always fits.
    out.clear();
    out.resize(levels.len() + 1, 0);
    let mut packer = NibblePacker { out, len: 0, pending: None };
    let mut i = 0usize;
    while i < levels.len() {
        let v = levels[i];
        debug_assert!(v <= 15, "level {v} does not fit in a nibble");
        if v != 0 {
            packer.push(v);
            i += 1;
            continue;
        }
        let start = i;
        while i < levels.len() && levels[i] == 0 {
            i += 1;
        }
        packer.push(0);
        let mut rem = i - start - 1;
        loop {
            let group = (rem & 0x7) as u8;
            rem >>= 3;
            packer.push(if rem > 0 { group | 0x8 } else { group });
            if rem == 0 {
                break;
            }
        }
    }
    let len = packer.finish();
    out.truncate(len);
}

/// `RleCodec::decode_mapped`: fill `out` with `out.len()` decoded levels,
/// each mapped through `table`. `None` on a truncated token, a varint past
/// 63 bits or a run past `out.len()`; `out` is then unspecified.
///
/// Whether a nibble is a literal or a zero token is a coin flip the branch
/// predictor loses, so the two common tokens — a literal, a run of 1–8 —
/// are told apart by selects: `out` starts as all zeros, a literal lands
/// on the cursor and steps it by one, a zero token leaves it alone and the
/// length nibble after it steps it by the run. Only a longer run (a varint
/// that continues) takes a branch.
pub(crate) fn decode_mapped<T: Copy>(data: &[u8], table: &[T; 16], out: &mut [T]) -> Option<()> {
    out.fill(table[0]);
    let mut nibbles = data.iter().flat_map(|&b| [b >> 4, b & 0x0f]);
    let (mut filled, mut after_zero) = (0usize, false);
    while filled < out.len() {
        let nib = nibbles.next()? as usize;
        if after_zero && nib & 0x8 != 0 {
            let (mut rem, mut shift) = (nib & 0x7, 3u32);
            loop {
                let g = nibbles.next()? as usize;
                if shift > 60 {
                    return None; // varint overflow
                }
                rem |= (g & 0x7) << shift;
                shift += 3;
                if g & 0x8 == 0 {
                    break;
                }
            }
            filled = filled.checked_add(rem + 1)?;
            after_zero = false;
            continue;
        }
        let literal = usize::from(!after_zero & (nib != 0));
        out[filled] = table[nib * literal];
        filled += literal + usize::from(after_zero) * (nib + 1);
        after_zero = !after_zero & (nib == 0);
    }
    // A run that overshot `out` left the cursor past its end.
    (filled == out.len()).then_some(())
}
