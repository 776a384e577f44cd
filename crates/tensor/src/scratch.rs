//! Reusable scratch memory for the inference hot path.
//!
//! The steady-state tile loop of a Conv node runs the same network shape on
//! every tile, so every intermediate buffer it needs — the packed GEMM
//! panels, the zero-padded conv input, the per-layer activation maps — has a
//! fixed size after the first tile. [`Scratch`] and [`ActBuf`] own those
//! buffers and hand out grow-only views, so after a warm-up pass the whole
//! forward path performs zero heap allocation (see
//! `tests/alloc_steady_state.rs` at the workspace root for the
//! counting-allocator proof).
//!
//! Ownership rules (also documented in DESIGN.md §"Performance
//! architecture"):
//!
//! - Each worker thread owns one `Scratch` (and the `InferScratch` wrapper
//!   in `adcnn-nn` that embeds it). Scratch is never shared across threads.
//! - Ops *borrow* buffers for the duration of one call and must not assume
//!   contents survive between calls.
//! - Buffers only ever grow; `clear()`/`resize()` keep capacity.

use crate::tensor::Tensor;
use std::cell::RefCell;
use std::thread::LocalKey;

/// Run `f` on this thread's arena — or on a fresh buffer when the thread
/// already holds the arena further up its stack. That happens under rayon:
/// a worker waiting on a job stolen from inside `f` runs other jobs of the
/// enclosing parallel loop meanwhile (the next image of a batch), and those
/// arrive here again. Rare, so the re-entrant call pays its own allocation.
pub(crate) fn with_arena<T: Default, R>(
    arena: &'static LocalKey<RefCell<T>>,
    f: impl FnOnce(&mut T) -> R,
) -> R {
    arena.with(|cell| match cell.try_borrow_mut() {
        Ok(mut held) => f(&mut held),
        Err(_) => f(&mut T::default()),
    })
}

/// Arena of reusable buffers for convolution / GEMM internals.
///
/// `pack` holds the GEMM's packed operands — per row-block task, one
/// k-block of its `MR`-wide A panels and one `KC×NR` B panel, at most
/// `⌈m/MR⌉·MR·KC + tasks·KC·NR` floats — and `pad` the zero-padded copy of
/// the image a padded convolution gathers its patches from. They are
/// separate fields (not a bump allocator) because `conv2d` needs both alive
/// at once. There is no im2col matrix: patches go straight into the B
/// panel, or the tile reads them where they lie.
#[derive(Clone, Debug, Default)]
pub struct Scratch {
    pub(crate) pack: Vec<f32>,
    pub(crate) pad: Vec<f32>,
}

impl Scratch {
    /// Empty arena; buffers grow on first use.
    pub fn new() -> Self {
        Scratch::default()
    }

    /// Bytes currently held across all buffers (capacity, not length).
    pub fn capacity_bytes(&self) -> usize {
        (self.pack.capacity() + self.pad.capacity()) * std::mem::size_of::<f32>()
    }
}

/// A reusable activation buffer: flat `f32` storage plus its current dims.
///
/// This is the ping/pong unit of the allocation-free forward path: layers
/// read one `ActBuf` and write the next, and the pair is swapped (pointer
/// swap, no copy) between layers. Unlike [`Tensor`] it is deliberately
/// mutable-in-shape so one buffer can serve every layer of a network.
#[derive(Clone, Debug, Default)]
pub struct ActBuf {
    data: Vec<f32>,
    dims: Vec<usize>,
}

impl ActBuf {
    /// Empty buffer; storage grows on first `reshape`.
    pub fn new() -> Self {
        ActBuf::default()
    }

    /// Resize to hold `dims`, growing storage if needed (contents are
    /// unspecified afterwards — every writer fills the whole buffer).
    pub fn reshape(&mut self, dims: &[usize]) {
        let n: usize = dims.iter().product();
        self.data.resize(n, 0.0);
        self.dims.clear();
        self.dims.extend_from_slice(dims);
    }

    /// Replace the dims without touching data (used by `Flatten`, which is
    /// a pure reinterpretation). Panics if the element count changes.
    pub fn set_dims(&mut self, dims: &[usize]) {
        assert_eq!(
            dims.iter().product::<usize>(),
            self.data.len(),
            "set_dims changes element count"
        );
        self.dims.clear();
        self.dims.extend_from_slice(dims);
    }

    /// Current dims.
    #[inline]
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Interpret as `[N, C, H, W]`; panics unless rank 4.
    #[inline]
    pub fn nchw(&self) -> (usize, usize, usize, usize) {
        assert_eq!(self.dims.len(), 4, "expected rank-4 ActBuf, got {:?}", self.dims);
        (self.dims[0], self.dims[1], self.dims[2], self.dims[3])
    }

    /// Element count.
    #[inline]
    pub fn numel(&self) -> usize {
        self.data.len()
    }

    /// Bytes of storage held (capacity, not the current shape's length).
    pub fn capacity_bytes(&self) -> usize {
        self.data.capacity() * std::mem::size_of::<f32>()
    }

    /// Flat data view.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable flat data view.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Fill from a tensor (reuses storage).
    pub fn copy_from_tensor(&mut self, t: &Tensor) {
        self.reshape(t.dims());
        self.data.copy_from_slice(t.as_slice());
    }

    /// Fill from another `ActBuf` (reuses storage).
    pub fn copy_from(&mut self, other: &ActBuf) {
        self.reshape(&other.dims);
        self.data.copy_from_slice(&other.data);
    }

    /// `self += other` elementwise; shapes must match.
    pub fn add_assign(&mut self, other: &ActBuf) {
        assert_eq!(self.dims, other.dims, "add_assign shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// Materialize as an owning [`Tensor`] (allocates — boundary use only).
    pub fn to_tensor(&self) -> Tensor {
        Tensor::from_vec(self.dims.as_slice(), self.data.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reshape_grows_and_keeps_capacity() {
        let mut b = ActBuf::new();
        b.reshape(&[2, 8]);
        assert_eq!(b.numel(), 16);
        let cap = b.as_slice().as_ptr();
        b.reshape(&[1, 4]); // shrink: same storage
        assert_eq!(b.numel(), 4);
        b.reshape(&[2, 8]);
        assert_eq!(b.as_slice().as_ptr(), cap, "shrink/regrow must not reallocate");
    }

    #[test]
    fn copy_roundtrip_tensor() {
        let t = Tensor::from_fn([2, 3], |i| i as f32);
        let mut b = ActBuf::new();
        b.copy_from_tensor(&t);
        assert_eq!(b.dims(), &[2, 3]);
        assert!(b.to_tensor().approx_eq(&t, 0.0));
    }

    #[test]
    fn set_dims_is_reinterpret_only() {
        let mut b = ActBuf::new();
        b.reshape(&[2, 6]);
        b.as_mut_slice()[11] = 7.0;
        b.set_dims(&[3, 4]);
        assert_eq!(b.as_slice()[11], 7.0);
    }

    #[test]
    #[should_panic]
    fn set_dims_rejects_count_change() {
        let mut b = ActBuf::new();
        b.reshape(&[2, 2]);
        b.set_dims(&[5]);
    }

    #[test]
    fn add_assign_sums() {
        let mut a = ActBuf::new();
        a.reshape(&[3]);
        a.as_mut_slice().copy_from_slice(&[1.0, 2.0, 3.0]);
        let mut b = ActBuf::new();
        b.reshape(&[3]);
        b.as_mut_slice().copy_from_slice(&[10.0, 20.0, 30.0]);
        a.add_assign(&b);
        assert_eq!(a.as_slice(), &[11.0, 22.0, 33.0]);
    }
}
