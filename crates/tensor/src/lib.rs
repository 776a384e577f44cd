//! # adcnn-tensor
//!
//! Dense `f32` tensor library underpinning the ADCNN reproduction.
//!
//! The paper's experiments ran on PyTorch; this crate is the from-scratch
//! substitute. It provides exactly what a CNN inference + retraining stack
//! needs and nothing more:
//!
//! - [`Tensor`]: a row-major, heap-allocated N-d array of `f32`.
//! - [`gemm`]: packed, register-tiled, rayon-parallel matrix multiply with
//!   optional fused bias+activation epilogues.
//! - [`conv`]: 2-D convolution (im2col gemm, patches packed in one pass) with
//!   full backward pass.
//! - [`scratch`]: reusable arenas ([`scratch::Scratch`],
//!   [`scratch::ActBuf`]) backing the allocation-free inference hot path.
//! - [`pool`]: max/average pooling with backward.
//! - [`norm`]: batch normalization (training and folded inference forms).
//! - [`activ`]: ReLU and the paper's clipped `ReLU[a,b]` (§4.1), softmax.
//! - [`linear`]: fully connected layers.
//! - [`loss`]: softmax cross-entropy and MSE.
//! - [`init`]: Kaiming/Xavier weight initialization.
//!
//! Layout convention: activations are `[N, C, H, W]`; convolution weights are
//! `[OC, IC, KH, KW]`; linear weights are `[IN, OUT]`.

pub mod activ;
pub mod conv;
pub mod gemm;
pub mod init;
pub mod linear;
pub mod loss;
pub mod norm;
pub mod pool;
pub mod scratch;
pub mod shape;
pub mod tensor;

pub use conv::{conv2d, conv2d_backward, Conv2dParams};
pub use scratch::{ActBuf, Scratch};
pub use shape::Shape;
pub use tensor::Tensor;

/// Approximate float comparison used across the workspace's tests.
#[inline]
pub fn approx_eq(a: f32, b: f32, tol: f32) -> bool {
    let diff = (a - b).abs();
    diff <= tol || diff <= tol * a.abs().max(b.abs())
}
