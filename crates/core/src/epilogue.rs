//! Run-time operands of a fused convolution epilogue.
//!
//! [`EpilogueOps`] and its separate-pass reference [`apply_epilogue`] live in
//! `wino_tensor::epilogue` (the prepared GEMM convolution fuses them too) and
//! are re-exported here. Every backend accepts one (see
//! [`crate::engine::ConvBackend::conv2d_epilogue`]); the Winograd kernels
//! ([`crate::winograd`], [`crate::int_winograd`]) fuse it in-register into
//! their output transformation.
//!
//! On the integer path the output requantization sits between steps 1 and 2
//! of the element-wise contract: the bias rides the requantization
//! (`quantize(v + bias[c])`, the accelerator's epilogue datapath), codes are
//! clamped for the pre-add ReLU, then dequantized into the output scale
//! before the residual is added in FP32. For bias-free tails this is exactly
//! what separate-node execution computes, so fused and separate runs stay
//! bitwise identical; a biased tail matches float-domain separate execution
//! within the output quantization step (the bias lands before the round
//! instead of after the dequantize), pinned by the executor's error-bound
//! tests.

pub use wino_tensor::epilogue::{add_bias, apply_epilogue, EpilogueOps};
