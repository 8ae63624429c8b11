//! The built-in [`ConvBackend`] implementations.
//!
//! Five paths share the engine contract: the direct reference, im2col + GEMM
//! (the accelerator's baseline kernel), float Winograd F2 and F4, and the
//! integer tap-wise Winograd pipeline of the paper. All of them run on the
//! same NCHW/OIHW tensors, so they can be swapped per layer by the
//! [`crate::engine::Planner`] and cross-checked against each other in tests.

use crate::engine::ConvBackend;
use crate::epilogue::{add_bias, EpilogueOps};
use crate::int_winograd::{IntWinogradConv, WinogradQuantConfig};
use crate::matrices::{TileSize, WinogradMatrices};
use crate::quant::QuantParams;
use crate::tapwise::TapwiseScales;
use crate::winograd::PreparedWinogradConv;
use wino_nets::Kernel;
use wino_tensor::{conv2d_direct, conv2d_im2col, ConvParams, PreparedGemmConv, Tensor};

/// The naive direct convolution — the ground truth every other backend is
/// validated against. Never chosen by the planner.
#[derive(Debug, Clone, Copy, Default)]
pub struct DirectBackend;

impl ConvBackend for DirectBackend {
    fn name(&self) -> &'static str {
        "direct"
    }

    fn kernel(&self) -> Option<Kernel> {
        None
    }

    fn supports(&self, _params: ConvParams) -> bool {
        true
    }

    fn conv2d(
        &self,
        x: &Tensor<f32>,
        w: &Tensor<f32>,
        bias: Option<&Tensor<f32>>,
        params: ConvParams,
    ) -> Tensor<f32> {
        conv2d_direct(x, w, bias, params)
    }
}

/// The GEMM convolution ([`PreparedGemmConv`]) — the accelerator's im2col +
/// Cube Unit baseline kernel and the engine's universal fallback. Packs the
/// weights on every call; the graph executor keeps them prepared instead.
#[derive(Debug, Clone, Copy, Default)]
pub struct Im2colGemmBackend;

impl ConvBackend for Im2colGemmBackend {
    fn name(&self) -> &'static str {
        "im2col-gemm"
    }

    fn kernel(&self) -> Option<Kernel> {
        Some(Kernel::Im2col)
    }

    fn supports(&self, _params: ConvParams) -> bool {
        true
    }

    fn conv2d(
        &self,
        x: &Tensor<f32>,
        w: &Tensor<f32>,
        bias: Option<&Tensor<f32>>,
        params: ConvParams,
    ) -> Tensor<f32> {
        conv2d_im2col(x, w, bias, params)
    }

    fn conv2d_epilogue(
        &self,
        x: &Tensor<f32>,
        w: &Tensor<f32>,
        params: ConvParams,
        ops: &EpilogueOps,
    ) -> Tensor<f32> {
        // The whole tail runs on each finished block of output rows.
        PreparedGemmConv::prepare(w, params).forward(x, ops)
    }
}

/// FP32 Winograd convolution on F2 or F4 tiles (F6 is accepted as a reference
/// configuration but maps to no accelerator kernel).
#[derive(Debug, Clone, Copy)]
pub struct WinogradBackend {
    tile: TileSize,
}

impl WinogradBackend {
    /// A backend for the given tile size.
    pub fn new(tile: TileSize) -> Self {
        Self { tile }
    }

    /// The F(2×2, 3×3) backend.
    pub fn f2() -> Self {
        Self::new(TileSize::F2)
    }

    /// The F(4×4, 3×3) backend.
    pub fn f4() -> Self {
        Self::new(TileSize::F4)
    }

    /// The tile size this backend runs.
    pub fn tile(&self) -> TileSize {
        self.tile
    }
}

impl ConvBackend for WinogradBackend {
    fn name(&self) -> &'static str {
        match self.tile {
            TileSize::F2 => "winograd-f2",
            TileSize::F4 => "winograd-f4",
            TileSize::F6 => "winograd-f6",
        }
    }

    fn kernel(&self) -> Option<Kernel> {
        match self.tile {
            TileSize::F2 => Some(Kernel::WinogradF2),
            TileSize::F4 => Some(Kernel::WinogradF4),
            TileSize::F6 => None,
        }
    }

    fn supports(&self, params: ConvParams) -> bool {
        // The Winograd paths implement the paper's target layer: 3×3, unit
        // stride, "same" padding of one.
        params.is_winograd_eligible() && params.padding == 1
    }

    fn conv2d(
        &self,
        x: &Tensor<f32>,
        w: &Tensor<f32>,
        bias: Option<&Tensor<f32>>,
        params: ConvParams,
    ) -> Tensor<f32> {
        assert!(
            self.supports(params),
            "winograd backend: unsupported geometry {params:?}"
        );
        // The bias rides in the tap-major output epilogue instead of a second
        // pass over the feature map.
        PreparedWinogradConv::prepare(w, self.tile).forward_fused(x, bias, false)
    }

    fn conv2d_epilogue(
        &self,
        x: &Tensor<f32>,
        w: &Tensor<f32>,
        params: ConvParams,
        ops: &EpilogueOps,
    ) -> Tensor<f32> {
        assert!(
            self.supports(params),
            "winograd backend: unsupported geometry {params:?}"
        );
        // The whole tail — bias, residual, ReLUs — rides the tap-major
        // output transformation in-register.
        PreparedWinogradConv::prepare(w, self.tile).forward_with_epilogue(x, ops)
    }
}

/// The integer tap-wise Winograd pipeline (the paper's contribution) behind
/// the FP32 engine contract.
///
/// Scales are calibrated per call from the live activations and weights
/// ([`TapwiseScales::calibrate`]), the input is quantized to
/// `cfg.spatial_bits`, the integer pipeline runs, and the int8 output is
/// dequantized; an optional bias is applied in FP32 after dequantization.
/// This trades calibration cost for drop-in correctness — a deployment would
/// calibrate offline and cache the prepared [`IntWinogradConv`].
#[derive(Debug, Clone, Copy)]
pub struct IntWinogradTapwiseBackend {
    cfg: WinogradQuantConfig,
}

impl IntWinogradTapwiseBackend {
    /// A backend running the given quantization configuration.
    pub fn new(cfg: WinogradQuantConfig) -> Self {
        assert!(
            cfg.tile != TileSize::F6,
            "integer pipeline supports F2 and F4 only (F6 has non-integer B/A matrices)"
        );
        Self { cfg }
    }

    /// The pipeline configuration.
    pub fn config(&self) -> WinogradQuantConfig {
        self.cfg
    }
}

impl ConvBackend for IntWinogradTapwiseBackend {
    fn name(&self) -> &'static str {
        "int-winograd-tapwise"
    }

    fn kernel(&self) -> Option<Kernel> {
        match self.cfg.tile {
            TileSize::F2 => Some(Kernel::WinogradF2),
            TileSize::F4 => Some(Kernel::WinogradF4),
            TileSize::F6 => None,
        }
    }

    fn supports(&self, params: ConvParams) -> bool {
        params.is_winograd_eligible() && params.padding == 1
    }

    fn conv2d(
        &self,
        x: &Tensor<f32>,
        w: &Tensor<f32>,
        bias: Option<&Tensor<f32>>,
        params: ConvParams,
    ) -> Tensor<f32> {
        assert!(
            self.supports(params),
            "int winograd backend: unsupported geometry {params:?}"
        );
        let mats = WinogradMatrices::for_tile(self.cfg.tile);
        let scales = TapwiseScales::calibrate(w, x, &mats, self.cfg.wino_bits, self.cfg.mode);
        let input_params =
            QuantParams::from_max(x.abs_max(), self.cfg.spatial_bits).to_power_of_two();
        let xq: Tensor<i8> = x.map(|v| input_params.quantize(v) as i8);
        let output_max = estimate_output_max(x, w);
        let conv = IntWinogradConv::prepare(w, &scales, input_params, output_max, self.cfg);
        let mut y = conv.forward(&xq).dequantize();
        if let Some(b) = bias {
            add_bias(&mut y, b);
        }
        y
    }

    fn conv2d_epilogue(
        &self,
        x: &Tensor<f32>,
        w: &Tensor<f32>,
        params: ConvParams,
        ops: &EpilogueOps,
    ) -> Tensor<f32> {
        assert!(
            self.supports(params),
            "int winograd backend: unsupported geometry {params:?}"
        );
        let mats = WinogradMatrices::for_tile(self.cfg.tile);
        let scales = TapwiseScales::calibrate(w, x, &mats, self.cfg.wino_bits, self.cfg.mode);
        let input_params =
            QuantParams::from_max(x.abs_max(), self.cfg.spatial_bits).to_power_of_two();
        let xq: Tensor<i8> = x.map(|v| input_params.quantize(v) as i8);
        // The bias rides the requant stage, so the output quantizer must
        // cover conv + bias.
        let output_max =
            estimate_output_max(x, w) + ops.bias.map_or(0.0, wino_tensor::Tensor::abs_max);
        let conv = IntWinogradConv::prepare(w, &scales, input_params, output_max, self.cfg);
        // Bias, requantization, residual and ReLUs all fuse into the integer
        // scatter stage.
        conv.forward_epilogue(&xq, ops)
    }
}

/// A *statistical* estimate of the output dynamic range used to build the
/// output quantizer: the geometric mean of the per-output-pixel worst case
/// `|x|_max · Σ|w|` (which never clips but wastes most of the int8 code space
/// on zero-mean signals) and the random-signal expectation
/// `|x|_max · sqrt(Σ|w|)`.
///
/// Adversarially correlated inputs and weights (e.g. all-positive constants)
/// can exceed this estimate and clip; a deployment should instead calibrate
/// the true output maximum offline and pass it to
/// [`IntWinogradConv::prepare`] directly.
pub(crate) fn estimate_output_max(x: &Tensor<f32>, w: &Tensor<f32>) -> f32 {
    let (c_out, c_in, kh, kw) = (w.dims()[0], w.dims()[1], w.dims()[2], w.dims()[3]);
    let mut worst_l1 = 0.0_f32;
    for co in 0..c_out {
        let mut l1 = 0.0_f32;
        for ci in 0..c_in {
            for ky in 0..kh {
                for kx in 0..kw {
                    l1 += w.at4(co, ci, ky, kx).abs();
                }
            }
        }
        worst_l1 = worst_l1.max(l1);
    }
    // The full L1 bound is extremely loose for random-ish signals; the square
    // root interpolation keeps headroom while preserving output resolution.
    let bound = x.abs_max() * worst_l1;
    let expected = x.abs_max() * worst_l1.sqrt();
    (bound * expected).sqrt().max(f32::EPSILON)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wino_tensor::normal;

    fn layer() -> (Tensor<f32>, Tensor<f32>, Tensor<f32>, ConvParams) {
        let x = normal(&[1, 4, 10, 10], 0.0, 1.0, 70);
        let w = normal(&[6, 4, 3, 3], 0.0, 0.3, 71);
        let b = normal(&[6], 0.0, 0.2, 72);
        (x, w, b, ConvParams::same_3x3())
    }

    #[test]
    fn float_backends_agree_with_direct() {
        let (x, w, b, p) = layer();
        let reference = conv2d_direct(&x, &w, Some(&b), p);
        for backend in [
            Box::new(Im2colGemmBackend) as Box<dyn ConvBackend>,
            Box::new(WinogradBackend::f2()),
            Box::new(WinogradBackend::f4()),
        ] {
            let y = backend.conv2d(&x, &w, Some(&b), p);
            assert!(
                y.relative_error(&reference) < 1e-4,
                "{} disagrees with direct",
                backend.name()
            );
        }
    }

    #[test]
    fn int_backend_tracks_reference_within_quant_noise() {
        let (x, w, b, p) = layer();
        let reference = conv2d_direct(&x, &w, Some(&b), p);
        let backend =
            IntWinogradTapwiseBackend::new(WinogradQuantConfig::tapwise_po2(TileSize::F4, 10));
        let y = backend.conv2d(&x, &w, Some(&b), p);
        let err = y.relative_error(&reference);
        assert!(err < 0.25, "int8/10 tap-wise backend error {err}");
    }

    #[test]
    fn winograd_backend_rejects_strided() {
        let b = WinogradBackend::f4();
        assert!(!b.supports(ConvParams::new(3, 2, 1)));
        assert!(!b.supports(ConvParams::pointwise()));
        assert!(b.supports(ConvParams::same_3x3()));
    }

    #[test]
    #[should_panic(expected = "F2 and F4 only")]
    fn int_backend_rejects_f6() {
        let _ = IntWinogradTapwiseBackend::new(WinogradQuantConfig {
            tile: TileSize::F6,
            ..WinogradQuantConfig::default()
        });
    }
}
