//! Offline stand-in for `rayon` (see ../README.md): every "parallel"
//! iterator is the sequential `std` one, and the pool has one thread, so
//! the program's `current_num_threads() > 1` dispatch never takes its
//! parallel branch.

/// The pool size the program's GEMM dispatch sees.
pub fn current_num_threads() -> usize {
    1
}

pub mod prelude {
    //! `use rayon::prelude::*` brings these into scope.

    /// `par_chunks` / `par_chunks_mut` as their sequential equivalents;
    /// the adaptors the program chains (`enumerate`, `map`, `for_each`,
    /// `collect`) are then `Iterator`'s.
    pub trait ParallelSliceMut<T> {
        /// Sequential `chunks_mut`.
        fn par_chunks_mut(&mut self, chunk_size: usize) -> std::slice::ChunksMut<'_, T>;
    }

    impl<T> ParallelSliceMut<T> for [T] {
        fn par_chunks_mut(&mut self, chunk_size: usize) -> std::slice::ChunksMut<'_, T> {
            self.chunks_mut(chunk_size)
        }
    }

    /// Shared-slice counterpart of [`ParallelSliceMut`].
    pub trait ParallelSlice<T> {
        /// Sequential `chunks`.
        fn par_chunks(&self, chunk_size: usize) -> std::slice::Chunks<'_, T>;
    }

    impl<T> ParallelSlice<T> for [T] {
        fn par_chunks(&self, chunk_size: usize) -> std::slice::Chunks<'_, T> {
            self.chunks(chunk_size)
        }
    }
}
