//! Offline stand-in for `bytes` (see ../README.md): `Bytes` is an
//! `Arc<Vec<u8>>` plus a window (clone and `slice` are O(1), as in the
//! published crate), `BytesMut` is a plain `Vec<u8>`.

use std::ops::{Bound, Deref, DerefMut, RangeBounds};
use std::sync::Arc;

/// A cheaply cloneable, immutable byte buffer.
#[derive(Clone, Default, PartialEq, Eq, Hash)]
pub struct Bytes {
    data: Arc<Vec<u8>>,
    start: usize,
    end: usize,
}

impl Bytes {
    /// An empty buffer.
    pub fn new() -> Self {
        Bytes::default()
    }

    /// Copy `data` into a new buffer.
    pub fn copy_from_slice(data: &[u8]) -> Self {
        Bytes::from(data.to_vec())
    }

    /// Number of bytes in view.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// True when no bytes are in view.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// A sub-window sharing the same storage; panics when out of bounds.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Bytes {
        let lo = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let hi = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => self.len(),
        };
        assert!(lo <= hi && hi <= self.len(), "slice {lo}..{hi} out of bounds of {}", self.len());
        Bytes { data: self.data.clone(), start: self.start + lo, end: self.start + hi }
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        let end = v.len();
        Bytes { data: Arc::new(v), start: 0, end }
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data[self.start..self.end]
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl std::fmt::Debug for Bytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Bytes({} B)", self.len())
    }
}

/// A growable byte buffer.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BytesMut(Vec<u8>);

impl BytesMut {
    /// An empty buffer.
    pub fn new() -> Self {
        BytesMut::default()
    }

    /// An empty buffer with room for `cap` bytes.
    pub fn with_capacity(cap: usize) -> Self {
        BytesMut(Vec::with_capacity(cap))
    }

    /// Append `data`.
    pub fn extend_from_slice(&mut self, data: &[u8]) {
        self.0.extend_from_slice(data);
    }

    /// Drop the contents, keep the capacity.
    pub fn clear(&mut self) {
        self.0.clear();
    }

    /// Turn into an immutable [`Bytes`].
    pub fn freeze(self) -> Bytes {
        Bytes::from(self.0)
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.0
    }
}

impl DerefMut for BytesMut {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.0
    }
}

impl AsRef<[u8]> for BytesMut {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

/// Little-endian appends.
pub trait BufMut {
    /// Append raw bytes.
    fn put_slice(&mut self, src: &[u8]);

    /// Append one byte.
    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }

    /// Append a `u32`, little endian.
    fn put_u32_le(&mut self, v: u32) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Append a `u64`, little endian.
    fn put_u64_le(&mut self, v: u64) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Append an `f32`, little endian.
    fn put_f32_le(&mut self, v: f32) {
        self.put_slice(&v.to_le_bytes());
    }
}

impl BufMut for BytesMut {
    fn put_slice(&mut self, src: &[u8]) {
        self.0.extend_from_slice(src);
    }
}

impl BufMut for Vec<u8> {
    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
    }
}
