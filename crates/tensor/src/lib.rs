//! Dense tensor and reference CNN operator substrate.
//!
//! This crate provides the numerical foundation used by the rest of the
//! workspace: an owned, contiguous, row-major [`Tensor`] container generic over
//! its element type, 4-D NCHW convolution layers (the direct reference and the
//! prepared GEMM convolution), pooling, batch normalisation, fully connected
//! layers and activation functions.
//!
//! The paper evaluates its quantization algorithm on PyTorch models; this crate
//! plays the role of that substrate so that the Winograd and tap-wise
//! quantization code in `wino-core` has a trusted reference convolution to be
//! validated against.
//!
//! # Example
//!
//! ```
//! use wino_tensor::{Tensor, ConvParams, conv2d_direct};
//!
//! # fn main() {
//! let x = Tensor::<f32>::filled(&[1, 3, 8, 8], 1.0);
//! let w = Tensor::<f32>::filled(&[4, 3, 3, 3], 0.5);
//! let p = ConvParams::new(3, 1, 1);
//! let y = conv2d_direct(&x, &w, None, p);
//! assert_eq!(y.dims(), &[1, 4, 8, 8]);
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod activation;
pub mod conv;
pub mod epilogue;
pub mod gemm;
pub mod im2col;
pub mod init;
pub mod linear;
pub mod norm;
pub mod parallel;
pub mod pool;
pub mod resize;
pub mod shape;
pub mod simd;
pub mod tensor;

pub use activation::{relu, relu_inplace, softmax_rows};
pub use conv::{conv2d_direct, conv2d_direct_i8, ConvParams};
pub use epilogue::{add_bias, apply_epilogue, EpilogueOps};
pub use gemm::{
    gemm_f32, gemm_f32_b_panel_elems, gemm_f32_into, gemm_f32_into_with, gemm_i16_b_panel_elems,
    gemm_i16_i32_into, gemm_i16_i32_into_with, gemm_i8_b_panel_elems, gemm_i8_i32,
    gemm_i8_i32_into, gemm_i8_i32_into_with, gemm_packed_i32_into, Gemm, PackedCode, PackedWeights,
    PanelLayout,
};
pub use im2col::{conv2d_im2col, im2col, PreparedGemmConv};
pub use init::{kaiming_normal, normal, uniform, TensorInit};
pub use linear::linear_forward;
pub use norm::BatchNorm2d;
pub use parallel::{
    max_threads, parallel_chunks_mut, parallel_for_each, parallel_map, set_max_threads,
    split_ranges,
};
pub use pool::{avg_pool2d, global_avg_pool, max_pool2d};
pub use resize::{
    batch_slice, concat_batch, concat_channels, concat_channels_into, upsample_nearest,
    upsample_nearest_into,
};
pub use shape::{conv_output_hw, Shape4};
pub use tensor::{Element, Tensor, TensorError};
