//! Integer-only Winograd inference pipeline.
//!
//! This module implements the datapath the paper's accelerator executes:
//!
//! 1. spatial int8 activations are transformed with the integer `Bᵀ · x · B`,
//!    exact in `i16` lanes (`|Bᵀ·x·B| ≤ 128·‖Bᵀ‖∞²`, checked at prepare), by
//!    the hand-factored shift-and-add engines of [`wino_tensor::simd`]: the
//!    column pass on whole NCHW rows, the row pass on tile lanes spanning the
//!    strip group (thin layers lane both over channels),
//! 2. each tap is re-quantized to `wino_bits` with the tap-wise scale `S_B`
//!    through `f32` (divide, round half-even, clamp), the codes landing
//!    directly in the tap GEMM's packed activation panel,
//! 3. weights, pre-transformed offline with `G · f · Gᵀ`, quantized tap-wise
//!    with `S_G` and packed **once** into the GEMM microkernel's panel layout,
//!    are multiplied elementwise and accumulated over the input channels in
//!    `i32` (the Cube Unit's batched MatMul) — `i8` codes at ≤ 8
//!    Winograd-domain bits, `i16` above,
//! 4. the accumulator is rescaled once per tap with `S_BG` into `f32` and
//!    transformed back with `Aᵀ · M · A` in `f32`, one register-blocked pass
//!    per lane block,
//! 5. the spatial-domain output is re-quantized to int8.
//!
//! The accelerator's shift-only requantization (step 2) and integer
//! `Aᵀ · M · A` (step 4) change the codes and are not implemented.

use crate::epilogue::{apply_epilogue, EpilogueOps};
use crate::matrices::{TileSize, WinogradMatrices};
use crate::quant::{QuantBits, QuantParams};
use crate::scratch::{
    strip_group_len, with_tap_scratch, CodePanels, IntStageLens, Parked, StageLanes,
};
use crate::tapwise::{ScaleMode, TapwiseScales};
use crate::transform::{weight_transform, TileGrid};
use crate::winograd::{
    kernel_block_span, thin_layer_lanes_channels, INPUT_STAGE_SYM, MERGE_SYM, OUTPUT_STAGE_SYM,
    TAP_GEMM_SYM,
};
use serde::{Deserialize, Serialize};
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use wino_tensor::simd::{self, KernelVariant, OutputLanes, PanelSlot, TileLanes};
use wino_tensor::{
    gemm_packed_i32_into, parallel_map, split_ranges, Element, PackedCode, PackedWeights,
    PanelLayout, Tensor,
};
use wino_trace::{Phase, PhaseClock, PhaseProbe};

/// Largest input-tile area on the integer path (F4: `t = 6`), sizing the
/// fixed per-tap scale table.
const INT_MAX_TT: usize = 36;

/// Process-wide count of [`IntWinogradConv::prepare`] invocations.
static PREPARE_CALLS: AtomicUsize = AtomicUsize::new(0);

/// How many times [`IntWinogradConv::prepare`] has run in this process.
///
/// A diagnostics hook for caching layers (and their tests): the graph
/// executor promises to prepare each 3×3 node exactly once across repeated
/// runs, which a test can pin down by differencing this counter. The counter
/// only ever increases; compare deltas, not absolute values.
pub fn prepare_call_count() -> usize {
    PREPARE_CALLS.load(Ordering::Relaxed)
}

/// Configuration of the quantized Winograd pipeline (one row of Table II).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WinogradQuantConfig {
    /// Winograd tile size.
    pub tile: TileSize,
    /// Bit-width of spatial-domain activations and weights (8 in the paper).
    pub spatial_bits: QuantBits,
    /// Bit-width inside the Winograd domain (8, 9 or 10).
    pub wino_bits: QuantBits,
    /// Whether each tap has its own scale (`true`) or one scalar is shared per
    /// transformation (`false`, the pre-existing approach the paper improves).
    pub tapwise: bool,
    /// Whether scales are unrestricted FP32 or powers of two.
    pub mode: ScaleMode,
}

impl WinogradQuantConfig {
    /// The paper's preferred configuration: tap-wise power-of-two scales with
    /// `wino_bits` bits in the Winograd domain (8 or 10).
    pub fn tapwise_po2(tile: TileSize, wino_bits: u8) -> Self {
        Self {
            tile,
            spatial_bits: QuantBits::int8(),
            wino_bits: QuantBits::new(wino_bits),
            tapwise: true,
            mode: ScaleMode::PowerOfTwo,
        }
    }

    /// The naive baseline: a single FP32 scale shared by all taps.
    pub fn uniform_float(tile: TileSize, wino_bits: u8) -> Self {
        Self {
            tile,
            spatial_bits: QuantBits::int8(),
            wino_bits: QuantBits::new(wino_bits),
            tapwise: false,
            mode: ScaleMode::Float,
        }
    }
}

impl Default for WinogradQuantConfig {
    fn default() -> Self {
        Self::tapwise_po2(TileSize::F4, 8)
    }
}

/// Output of the integer pipeline: int8 codes plus their scale.
#[derive(Debug, Clone, PartialEq)]
pub struct IntWinogradOutput {
    /// Quantized output feature map codes.
    pub codes: Tensor<i8>,
    /// Scale such that `float ≈ codes · scale`.
    pub scale: f32,
}

impl IntWinogradOutput {
    /// Dequantizes the output to FP32.
    pub fn dequantize(&self) -> Tensor<f32> {
        self.codes.map(|c| f32::from(c) * self.scale)
    }
}

/// A 3×3 convolution layer prepared for integer Winograd execution.
///
/// Construction performs the offline work (weight transformation and tap-wise
/// weight quantization); [`IntWinogradConv::forward`] then runs integer-only
/// inference on quantized activations.
#[derive(Debug, Clone)]
pub struct IntWinogradConv {
    cfg: WinogradQuantConfig,
    mats: WinogradMatrices,
    c_out: usize,
    c_in: usize,
    /// Quantized Winograd-domain weight codes, `[C_out, C_in, t, t]` (`i16`
    /// is exact: Winograd-domain bit-widths are at most 16). Read only by
    /// the per-tile reference path, and the source the channel-laned panels
    /// are packed from.
    wq: Tensor<i16>,
    /// The same codes as the per-tap GEMM weight operands, packed once into
    /// the active kernel variant's panel layout — `i8` codes at `wino_bits`
    /// ≤ 8, `i16` above.
    taps: TapWeights,
    /// Tap-wise scales of the quantized weights.
    weight_scales: Tensor<f32>,
    /// Tap-wise scales applied to the *integer* transformed input
    /// (`S_B` expressed in the quantized-activation domain).
    input_tap_scales: Tensor<f32>,
    /// Scale of the spatial int8 input activations.
    input_scale: f32,
    /// Quantizer of the spatial-domain output.
    output_params: QuantParams,
    /// Optional per-phase profiling sink (attached by the graph executor).
    probe: Option<Arc<PhaseProbe>>,
}

/// A Winograd-domain code type of the tap GEMM: `i8` or `i16`.
trait TapCode: PackedCode + Parked<CodePanels> {
    /// Narrows a quantized weight code (already inside `wino_bits`).
    fn from_code(code: i16) -> Self;
}

impl TapCode for i8 {
    fn from_code(code: i16) -> i8 {
        code as i8
    }
}

impl TapCode for i16 {
    fn from_code(code: i16) -> i16 {
        code
    }
}

/// The `t²` per-tap GEMM weight operands in one code type.
#[derive(Debug, Clone)]
struct TapPanels<T> {
    /// Left-packed `W[tap]` (`[C_out × C_in]`): the GEMM lanes over tiles,
    /// `M[tap] = W[tap] · V[tap]`.
    tile_lanes: Vec<PackedWeights<T>>,
    /// Right-packed `W[tap]ᵀ` (`[C_in × C_out]`): the GEMM lanes over output
    /// channels, `M'[tap] = V'[tap] · W'[tap]` (thin layers). Built lazily on
    /// the first thin-layer forward — most prepared layers never run it, and
    /// an eager copy would double every node's panel footprint.
    channel_lanes: OnceLock<Vec<PackedWeights<T>>>,
}

impl<T: TapCode> TapPanels<T> {
    /// Packs the tile-laned operands; the channel-laned ones wait for a
    /// thin-layer forward.
    fn pack(wq: &[i16], c_out: usize, c_in: usize, tt: usize) -> Self {
        Self {
            tile_lanes: pack_taps(wq, c_out, c_in, tt, false),
            channel_lanes: OnceLock::new(),
        }
    }
}

/// The tap GEMM weights, specialised on `cfg.wino_bits`.
#[derive(Debug, Clone)]
enum TapWeights {
    /// ≤ 8 Winograd-domain bits: `i8` codes (`vpdpbusd` / `sdot` /
    /// `vpmaddwd`-pair kernels).
    I8(TapPanels<i8>),
    /// 9–16 bits: `i16` codes.
    I16(TapPanels<i16>),
}

/// Packs each tap's weight matrix out of the `[C_out, C_in, t², ]` codes
/// `wq`: left operands `[C_out × C_in]` when `channel_lanes` is false, right
/// operands `[C_in × C_out]` otherwise.
fn pack_taps<T: TapCode>(
    wq: &[i16],
    c_out: usize,
    c_in: usize,
    tt: usize,
    channel_lanes: bool,
) -> Vec<PackedWeights<T>> {
    // One pass over the codes into tap-major row-major matrices, then one
    // contiguous pack per tap.
    let mut mats = vec![T::default(); wq.len()];
    for (i, tile) in wq.chunks_exact(tt).enumerate() {
        let (co, ci) = (i / c_in, i % c_in);
        let at = if channel_lanes {
            ci * c_out + co
        } else {
            co * c_in + ci
        };
        for (tap, &code) in tile.iter().enumerate() {
            mats[tap * c_out * c_in + at] = T::from_code(code);
        }
    }
    let variant = simd::active();
    mats.chunks_exact((c_out * c_in).max(1))
        .map(|mat| {
            if channel_lanes {
                PackedWeights::pack_right(variant, mat, c_in, c_out)
            } else {
                PackedWeights::pack_left(variant, mat, c_out, c_in)
            }
        })
        .collect()
}

/// One tap-major work item's output: its tile-row strips and their
/// `[strip][c_out][row][w]` values. The merge takes the grouping from here
/// rather than recomputing it (it depends on the worker-thread setting).
type StripBuf<O> = (Range<usize>, Vec<O>);

/// The scatter-stage emit of the tap-major pipeline, split in two so the
/// expensive part vectorizes: [`TapEmit::stage`] requantizes an output
/// channel's contiguous lanes (the divide/round/clamp the phase profile charges to the
/// epilogue) through the [`wino_tensor::simd`] primitives, and
/// [`TapEmit::finish`] applies the scalar tail — residual add and post-ReLU,
/// the steps that need the strided global NCHW index — as each staged element
/// is scattered to its output row.
trait TapEmit: Sync {
    type Out: Element + Parked<StageLanes>;
    /// Vectorized requantization of output channel `co`'s `[m² rows][tile
    /// lanes]` block: `dst[i] = requant(src[i])`.
    fn stage(&self, co: usize, dst: &mut [Self::Out], src: &[f32]);
    /// Scalar tail applied as the staged element lands on NCHW index `idx`.
    fn finish(&self, staged: Self::Out, idx: usize) -> Self::Out;
}

/// Emit int8 output codes: `quantize(v + bias[co])`. The fused ReLU is a
/// `lo = 0` clamp, exactly `max(0, code)` because the output scale is
/// positive; bias-free this is bit-identical to the per-tile reference.
struct CodeEmit<'a> {
    params: QuantParams,
    bias: Option<&'a [f32]>,
    relu: bool,
}

impl TapEmit for CodeEmit<'_> {
    type Out = i8;
    fn stage(&self, co: usize, dst: &mut [i8], src: &[f32]) {
        let lo = if self.relu {
            0
        } else {
            self.params.bits.min_value()
        };
        simd::quantize_f32_i8(
            dst,
            src,
            self.params.scale,
            self.bias.map_or(0.0, |b| b[co]),
            lo,
            self.params.bits.max_value(),
        );
    }
    fn finish(&self, staged: i8, _idx: usize) -> i8 {
        staged
    }
}

/// Emit dequantized FP32 directly: requantize and scale back in one staged
/// pass — bitwise identical to emitting codes and dequantizing afterwards
/// (see [`simd::requant_f32`]).
struct DequantEmit<'a> {
    params: QuantParams,
    bias: Option<&'a [f32]>,
    relu: bool,
}

impl TapEmit for DequantEmit<'_> {
    type Out = f32;
    fn stage(&self, co: usize, dst: &mut [f32], src: &[f32]) {
        let lo = if self.relu {
            0
        } else {
            self.params.bits.min_value()
        };
        simd::requant_f32(
            dst,
            src,
            self.params.scale,
            self.bias.map_or(0.0, |b| b[co]),
            lo,
            self.params.bits.max_value(),
        );
    }
    fn finish(&self, staged: f32, _idx: usize) -> f32 {
        staged
    }
}

/// Emit a residual-fused FP32 tail: requantize + pre-add code clamp +
/// dequantize in the vectorized stage, then the residual add and post-ReLU
/// (which need the global index) in the scalar finish. One struct serves
/// both the borrowed ([`IntWinogradConv::forward_epilogue`]) and the owned
/// ([`IntWinogradConv::forward_epilogue_into`]) path, so their element-wise
/// expressions cannot drift apart.
struct ResidualEmit<'a> {
    params: QuantParams,
    bias: Option<&'a [f32]>,
    pre_add_relu: bool,
    relu: bool,
    res: &'a [f32],
}

impl TapEmit for ResidualEmit<'_> {
    type Out = f32;
    fn stage(&self, co: usize, dst: &mut [f32], src: &[f32]) {
        let lo = if self.pre_add_relu {
            0
        } else {
            self.params.bits.min_value()
        };
        simd::requant_f32(
            dst,
            src,
            self.params.scale,
            self.bias.map_or(0.0, |b| b[co]),
            lo,
            self.params.bits.max_value(),
        );
    }
    fn finish(&self, staged: f32, idx: usize) -> f32 {
        let f = staged + self.res[idx];
        if self.relu {
            f.max(0.0)
        } else {
            f
        }
    }
}

/// The largest magnitude `Bᵀ · d · B` can reach on int8 tiles:
/// `128 · ‖Bᵀ‖∞²` (F2: 512, F4: 12 800). The transform engines run in `i16`
/// lanes, so this must stay inside `i16` for the integers to be exact.
fn int_lane_bound(mats: &WinogradMatrices) -> f32 {
    let t = mats.input_tile();
    let row_sum = |r: usize| (0..t).map(|k| mats.bt.at2(r, k).abs()).sum::<f32>();
    let norm = (0..t).map(row_sum).fold(0.0, f32::max);
    128.0 * norm * norm
}

/// One forward call's fused input stage: gather, integer `Bᵀ · x · B` and
/// tap-wise requantization of a strip group in one go, from the NCHW rows
/// straight into the tap GEMMs' activation panels. Public so the equivalence
/// suite can drive the stage on its own, under any kernel variant.
#[derive(Debug, Clone, Copy)]
pub struct InputStage<'a> {
    /// The kernel variant of every primitive the stage calls.
    pub variant: KernelVariant,
    /// The int8 NCHW input.
    pub x: &'a [i8],
    /// Its `[n, c_in, h, w]`.
    pub dims: [usize; 4],
    /// Output tile edge `m` (2 or 4).
    pub m: usize,
    /// Lanes over channels (thin layers) instead of over tiles.
    pub lane_channels: bool,
    /// Layout of the activation panels.
    pub layout: PanelLayout,
    /// Whether codes are stored sign-flipped ([`PackedWeights::act_flip`]).
    pub flip: bool,
    /// `S_B` per tap, row-major `t × t`.
    pub scales: &'a [f32],
    /// The `wino_bits` clamp `(lo, hi)`.
    pub clamp: (i32, i32),
}

impl InputStage<'_> {
    /// Codes the stage writes for `ntiles` tiles: the `t²` activation
    /// panels, plus (channel lanes) the contiguous row a tile's codes are
    /// quantized into before they are dealt into the panel's `K` groups.
    fn panel_elems(&self, ntiles: usize) -> usize {
        let (t, c_in) = (self.m + 2, self.dims[1]);
        let code_row = if self.lane_channels { c_in } else { 0 };
        t * t * self.layout.elems(c_in, ntiles) + code_row
    }

    /// The staging a group of `ntiles` tiles needs.
    fn staging(&self, ntiles: usize) -> IntStageLens {
        let [n, c_in, h, w] = self.dims;
        IntStageLens::new(self.lane_channels, self.m + 2, c_in, n * h * w, w, ntiles)
    }

    /// The `t²` activation panels (each `layout.elems(c_in, tiles)` codes,
    /// padding zeroed) of the tile-row strips `strips`, on freshly allocated
    /// staging.
    pub fn codes<T: PackedCode>(&self, strips: Range<usize>) -> Vec<T> {
        let (t, ntiles) = (self.m + 2, strips.len() * self.dims[3].div_ceil(self.m));
        let lens = self.staging(ntiles);
        let mut v = vec![T::default(); self.panel_elems(ntiles)];
        self.run(
            strips,
            &mut v,
            &mut vec![0; lens.lanes],
            &mut vec![0; lens.px],
        );
        v.truncate(t * t * self.layout.elems(self.dims[1], ntiles));
        v
    }

    /// Fills `v` ([`InputStage::panel_elems`] long) with the codes of the
    /// tile-row strips `strips`, on [`IntStageLens`]-sized staging: the
    /// per-tile reference's codes on every kernel variant (exact integer
    /// steps, the canonical requantization expression).
    fn run<T: PackedCode>(
        &self,
        strips: Range<usize>,
        v: &mut [T],
        lanes: &mut [i16],
        px: &mut [i8],
    ) {
        let [_, c_in, h, w] = self.dims;
        let (m, t, variant) = (self.m, self.m + 2, self.variant);
        let grid = TileGrid::new(h, w, m, 1);
        let ntiles = strips.len() * grid.tiles_w;
        let lens = self.staging(ntiles);
        let v_tap = self.layout.elems(c_in, ntiles);
        let (lo, hi) = self.clamp;
        let strip_at = |s: usize| (s / grid.tiles_h, s % grid.tiles_h);
        // Input row/column `tile · m + d − 1`, if inside the image.
        let inside = |tile: usize, d: usize, len: usize| {
            let i = (tile * m + d).wrapping_sub(1);
            (i < len).then_some(i)
        };
        // Row pass of tile row `r`: its `t` lane rows (`stride` apart, `n`
        // lanes each; F2 uses four of the six slots) into `taps`.
        let row_pass = |rows: &[i16], r: usize, stride: usize, n: usize, taps: &mut [i16]| {
            let src: [&[i16]; 6] = std::array::from_fn(|k| &rows[(r * t + k % t) * stride..][..n]);
            simd::wino_bt_pass_with(variant, &src[..t], taps, n);
        };

        if self.lane_channels {
            // The planes transposed once into `[pixel][c_in]`: every pixel
            // of a tile is then a contiguous row of channel lanes.
            let (zero, planes) = px.split_at_mut(c_in);
            zero.fill(0);
            for (at, lanes) in planes.chunks_exact_mut(c_in).enumerate() {
                let (ni, pixel) = (at / (h * w), at % (h * w));
                for (ci, code) in lanes.iter_mut().enumerate() {
                    *code = self.x[(ni * c_in + ci) * h * w + pixel];
                }
            }
            let (zero, planes) = (&*zero, &*planes);
            let (tile, taps) = lanes.split_at_mut(t * t * c_in);
            let (panels, codes) = v.split_at_mut(t * t * v_tap);
            for (si, s) in strips.enumerate() {
                let (ni, ty) = strip_at(s);
                for tx in 0..grid.tiles_w {
                    // Column pass: `tile[r][dx]` from the pixels of column dx.
                    for dx in 0..t {
                        let mut src = [zero; 6];
                        if let Some(ix) = inside(tx, dx, w) {
                            for (dy, row) in src.iter_mut().enumerate().take(t) {
                                if let Some(iy) = inside(ty, dy, h) {
                                    *row = &planes[((ni * h + iy) * w + ix) * c_in..][..c_in];
                                }
                            }
                        }
                        let dst = &mut tile[dx * c_in..];
                        simd::wino_bt_pass_with(variant, &src[..t], dst, t * c_in);
                    }
                    // Row pass, then each tap's channel lanes dealt into
                    // the `K` groups of this tile's panel row.
                    for r in 0..t {
                        row_pass(tile, r, c_in, c_in, taps);
                        for (c, lanes) in taps.chunks_exact(c_in).enumerate() {
                            let (tap, slot) = (r * t + c, PanelSlot::CONTIGUOUS);
                            let scale = self.scales[tap];
                            T::quantize_into_panel(
                                variant, codes, lanes, scale, lo, hi, self.flip, slot,
                            );
                            let panel = &mut panels[tap * v_tap..(tap + 1) * v_tap];
                            self.layout
                                .write_k_lanes(panel, si * grid.tiles_w + tx, codes);
                        }
                    }
                }
            }
            return;
        }

        let (rows, rest) = lanes.split_at_mut(t * lens.row_len);
        let (tile_lanes, taps) = rest.split_at_mut(t * t * lens.lane_stride);
        // Left border, right border and tile padding stay zero: the column
        // pass only ever rewrites the `w` pixels of each row.
        rows.fill(0);
        px[..w].fill(0);
        let zero = &px[..w];
        let at = TileLanes {
            m,
            tiles: grid.tiles_w,
            row_len: lens.row_len,
            stride: lens.lane_stride,
        };
        for ci in 0..c_in {
            for (si, s) in strips.clone().enumerate() {
                let (ni, ty) = strip_at(s);
                let plane = &self.x[(ni * c_in + ci) * h * w..][..h * w];
                // Column pass on the strip's `t` image rows as they lie
                // (rows outside the image are zero), lanes over pixels...
                let mut src = [zero; 6];
                for (dy, row) in src.iter_mut().enumerate().take(t) {
                    if let Some(iy) = inside(ty, dy, h) {
                        *row = &plane[iy * w..][..w];
                    }
                }
                simd::wino_bt_pass_with(variant, &src[..t], &mut rows[1..], lens.row_len);
                // ...then the strip's tiles join the group's tile lanes.
                let dst = &mut tile_lanes[si * grid.tiles_w..];
                simd::wino_deinterleave_with(variant, rows, dst, at);
            }
            // Row pass over the whole group's lanes, each tap's row
            // quantized where the tap GEMM reads channel `ci` of each tile.
            let (k_group_at, slot) = self.layout.slot(c_in, ci);
            for r in 0..t {
                row_pass(tile_lanes, r, lens.lane_stride, ntiles, taps);
                for (c, lanes) in taps.chunks_exact(ntiles).take(t).enumerate() {
                    let tap = r * t + c;
                    let panel = &mut v[tap * v_tap + k_group_at..(tap + 1) * v_tap];
                    let scale = self.scales[tap];
                    T::quantize_into_panel(variant, panel, lanes, scale, lo, hi, self.flip, slot);
                }
            }
        }
    }
}

impl IntWinogradConv {
    /// Prepares a layer for integer Winograd inference.
    ///
    /// * `weights` — FP32 OIHW 3×3 weights,
    /// * `scales` — calibrated tap-wise scales in the FP32 domain
    ///   (from [`TapwiseScales::calibrate`]),
    /// * `input_params` — quantizer of the spatial int8 input,
    /// * `output_max` — calibrated maximum of the FP32 output, used to build
    ///   the output quantizer,
    /// * `cfg` — pipeline configuration. Only `F2` and `F4` are supported on
    ///   the integer path (the F6 `B`/`A` matrices are not integer).
    ///
    /// # Panics
    ///
    /// Panics for `TileSize::F6` or mismatched weight shapes.
    pub fn prepare(
        weights: &Tensor<f32>,
        scales: &TapwiseScales,
        input_params: QuantParams,
        output_max: f32,
        cfg: WinogradQuantConfig,
    ) -> Self {
        PREPARE_CALLS.fetch_add(1, Ordering::Relaxed);
        assert!(
            cfg.tile != TileSize::F6,
            "integer pipeline supports F2 and F4 only (F6 has non-integer B/A matrices)"
        );
        assert_eq!(weights.rank(), 4, "weights must be OIHW");
        assert_eq!(weights.dims()[2], 3);
        assert_eq!(weights.dims()[3], 3);
        let mats = WinogradMatrices::for_tile(cfg.tile);
        let t = mats.input_tile();
        let (c_out, c_in) = (weights.dims()[0], weights.dims()[1]);
        // The transform engines are hand-factored forms of these matrices
        // in `i16` lanes: another matrix must fail here, not wrap silently.
        let bound = int_lane_bound(&mats);
        assert!(
            bound <= f32::from(i16::MAX),
            "{}: |BT·d·B| up to {bound} overflows the i16 transform lanes",
            cfg.tile
        );
        assert_eq!(
            Some(mats.at.as_slice()),
            simd::wino_output_matrix(t),
            "{}: AT differs from the output transform engine's",
            cfg.tile
        );

        // Offline weight transformation + tap-wise quantization.
        let tt = t * t;
        let mut wq = Tensor::<i16>::zeros(&[c_out, c_in, t, t]);
        for (i, codes) in wq.as_mut_slice().chunks_exact_mut(tt).enumerate() {
            let (co, ci) = (i / c_in, i % c_in);
            let mut k = Tensor::<f32>::zeros(&[3, 3]);
            for ky in 0..3 {
                for kx in 0..3 {
                    k.set2(ky, kx, weights.at4(co, ci, ky, kx));
                }
            }
            let u = weight_transform(&k, &mats);
            let q = scales.weight.quantize_tile(&u);
            for (code, &v) in codes.iter_mut().zip(q.as_slice()) {
                *code = v as i16;
            }
        }
        // The tap GEMM operands, packed once for the active kernel variant.
        // Activation codes are clamped to `wino_bits`, weight codes to the
        // calibrated weight bit-width; both must fit the code type.
        let taps = if cfg.wino_bits.bits().max(scales.weight.bits().bits()) <= 8 {
            TapWeights::I8(TapPanels::pack(wq.as_slice(), c_out, c_in, tt))
        } else {
            TapWeights::I16(TapPanels::pack(wq.as_slice(), c_out, c_in, tt))
        };
        // S_B in the integer-activation domain: the float calibration observed
        // Bᵀ·x_float·B = input_scale · Bᵀ·x_q·B, so divide by the input scale.
        let input_tap_scales = scales.input.scales().map(|s| {
            let v = s / input_params.scale;
            match cfg.mode {
                ScaleMode::Float => v,
                ScaleMode::PowerOfTwo => 2.0_f32.powi(v.log2().round() as i32),
            }
        });

        let output_params = match cfg.mode {
            ScaleMode::PowerOfTwo => {
                QuantParams::from_max(output_max, cfg.spatial_bits).to_power_of_two()
            }
            ScaleMode::Float => QuantParams::from_max(output_max, cfg.spatial_bits),
        };

        Self {
            cfg,
            mats,
            c_out,
            c_in,
            wq,
            taps,
            weight_scales: scales.weight.scales().clone(),
            input_tap_scales,
            input_scale: input_params.scale,
            output_params,
            probe: None,
        }
    }

    /// Attaches a phase probe: every tap-major forward accumulates its
    /// per-phase block timings there (only while `wino_trace::Detail::Full`
    /// is active).
    pub fn set_probe(&mut self, probe: Arc<PhaseProbe>) {
        self.probe = Some(probe);
    }

    /// The attached phase probe, if any.
    pub fn probe(&self) -> Option<&Arc<PhaseProbe>> {
        self.probe.as_ref()
    }

    /// The pipeline configuration.
    pub fn config(&self) -> &WinogradQuantConfig {
        &self.cfg
    }

    /// The output quantizer (useful for chaining layers).
    pub fn output_params(&self) -> QuantParams {
        self.output_params
    }

    /// Runs integer-only inference on an int8 NCHW input.
    ///
    /// The tap-major pipeline: tiles of a strip group are transformed and
    /// requantized straight into the tap GEMM's packed activation panel
    /// (`i8` codes at ≤ 8 Winograd-domain bits, `i16` above), each tap runs
    /// one integer GEMM against the weights packed at prepare (the Cube
    /// Unit's batched MatMul) — laned over tiles, or over output channels
    /// for thin layers — and the accumulators are rescaled and
    /// back-transformed per tile. Bit-identical to
    /// [`IntWinogradConv::forward_per_tile`] (integer accumulation is exact
    /// under reordering and the float epilogue is evaluated in the same
    /// order).
    ///
    /// # Panics
    ///
    /// Panics if the channel count differs from the prepared weights.
    pub fn forward(&self, x: &Tensor<i8>) -> IntWinogradOutput {
        self.forward_fused(x, false)
    }

    /// [`IntWinogradConv::forward`] with an optional ReLU fused into the
    /// output epilogue: negative output codes are clamped to zero before they
    /// are stored, which is exactly `relu(dequantize(codes))` because the
    /// output scale is positive. The graph executor uses this to run a
    /// `conv → relu` pair as one node.
    ///
    /// # Panics
    ///
    /// Panics if the channel count differs from the prepared weights.
    pub fn forward_fused(&self, x: &Tensor<i8>, relu: bool) -> IntWinogradOutput {
        if !self.tap_major_is_exact() {
            // i32 tap accumulators could overflow at this bit-width × channel
            // count; run the i64-accumulating per-tile path instead.
            let mut out = self.forward_per_tile(x);
            if relu {
                out.codes = out.codes.map(|c| c.max(0));
            }
            return out;
        }
        let params = self.output_params;
        let codes = self.forward_tap_major_with(
            x,
            &CodeEmit {
                params,
                bias: None,
                relu,
            },
        );
        IntWinogradOutput {
            codes,
            scale: params.scale,
        }
    }

    /// Runs the integer pipeline with a full [`EpilogueOps`] tail and returns
    /// the **dequantized** FP32 output directly: the bias add, the output
    /// requantization, any pre-residual ReLU (a code clamp), the
    /// dequantization into the output scale, the residual add and the
    /// post-residual ReLU all happen in the scatter stage before the single
    /// store. A `conv → add → relu` residual tail therefore never
    /// materializes the int8 pre-activation map, its dequantized FP32 copy,
    /// or the separate sum tensor.
    ///
    /// Without a bias this is bitwise identical to
    /// `forward_fused(…).dequantize()` followed by [`apply_epilogue`] (the
    /// separate-node execution), because every elementwise step runs in the
    /// same order on the same values; pinned by the unit tests and
    /// `tests/epilogue_fusion.rs`. A bias rides the requantization
    /// (`quantize(v + bias)` — the accelerator's epilogue datapath), so a
    /// biased tail matches float-domain separate execution within the output
    /// quantization step rather than bitwise.
    ///
    /// # Panics
    ///
    /// Panics if the channel count, residual shape or bias length disagrees
    /// with the prepared weights.
    pub fn forward_epilogue(&self, x: &Tensor<i8>, epi: &EpilogueOps) -> Tensor<f32> {
        if !self.tap_major_is_exact() {
            let mut y = self.forward_per_tile(x).dequantize();
            apply_epilogue(&mut y, epi);
            return y;
        }
        let params = self.output_params;
        let bias = epi.bias.map(|b| {
            assert_eq!(b.len(), self.c_out, "bias length mismatch");
            b.as_slice()
        });
        let Some(res) = epi.residual else {
            // No residual: pre- and post-ReLU coincide, and the staged
            // requant + dequantize emits the fused FP32 output in one pass.
            return self.forward_tap_major_with(
                x,
                &DequantEmit {
                    params,
                    bias,
                    relu: epi.pre_add_relu || epi.relu,
                },
            );
        };
        assert_eq!(x.rank(), 4, "input must be NCHW");
        assert_eq!(
            res.dims(),
            &[x.dims()[0], self.c_out, x.dims()[2], x.dims()[3]],
            "residual shape mismatch"
        );
        self.forward_tap_major_with(
            x,
            &ResidualEmit {
                params,
                bias,
                pre_add_relu: epi.pre_add_relu,
                relu: epi.relu,
                res: res.as_slice(),
            },
        )
    }

    /// [`IntWinogradConv::forward_epilogue`] with an **owned** residual: the
    /// fused FP32 output is written into the residual's own buffer (read in
    /// the scatter phase, overwritten in the merge), so the tail allocates
    /// no third activation. Bitwise identical to the borrowing path.
    ///
    /// # Panics
    ///
    /// Panics if the channel count, residual shape or bias length disagrees
    /// with the prepared weights.
    pub fn forward_epilogue_into(
        &self,
        x: &Tensor<i8>,
        bias: Option<&Tensor<f32>>,
        pre_add_relu: bool,
        relu: bool,
        residual: Tensor<f32>,
    ) -> Tensor<f32> {
        if !self.tap_major_is_exact() {
            let mut y = self.forward_per_tile(x).dequantize();
            apply_epilogue(
                &mut y,
                &EpilogueOps {
                    bias,
                    residual: Some(&residual),
                    pre_add_relu,
                    relu,
                },
            );
            return y;
        }
        assert_eq!(x.rank(), 4, "input must be NCHW");
        assert_eq!(
            residual.dims(),
            &[x.dims()[0], self.c_out, x.dims()[2], x.dims()[3]],
            "residual shape mismatch"
        );
        let bias = bias.map(|b| {
            assert_eq!(b.len(), self.c_out, "bias length mismatch");
            b.as_slice()
        });
        let bufs = {
            let emit = ResidualEmit {
                params: self.output_params,
                bias,
                pre_add_relu,
                relu,
                res: residual.as_slice(),
            };
            self.tap_major_strip_bufs(x, &emit)
        };
        let mut y = residual;
        self.tap_major_merge(&bufs, &mut y);
        y
    }

    /// Whether the tap-major pipeline's `i32` accumulators are exact for a
    /// layer with `c_in` input channels at `wino_bits` — the static form of
    /// [`IntWinogradConv::tap_major_is_exact`], usable before any prepared
    /// state exists (the graph executor's in-place fusion decision).
    pub fn i32_exact_for(c_in: usize, wino_bits: QuantBits) -> bool {
        let wb = u32::from(wino_bits.bits());
        (c_in as i64) << (2 * wb - 2) <= i64::from(i32::MAX)
    }

    /// The tap-major integer pipeline, generic over the scatter-stage
    /// [`TapEmit`]: int8 codes for [`IntWinogradConv::forward_fused`],
    /// epilogue-fused FP32 for [`IntWinogradConv::forward_epilogue`].
    /// Callers must have checked [`IntWinogradConv::tap_major_is_exact`].
    fn forward_tap_major_with<E: TapEmit>(&self, x: &Tensor<i8>, emit: &E) -> Tensor<E::Out> {
        let bufs = self.tap_major_strip_bufs(x, emit);
        let mut y = Tensor::<E::Out>::zeros(&[x.dims()[0], self.c_out, x.dims()[2], x.dims()[3]]);
        self.tap_major_merge(&bufs, &mut y);
        y
    }

    /// Whether a `batch × … × h × w` forward lanes its tap GEMMs over output
    /// channels rather than tiles — the float path's thin-layer predicate
    /// (`PreparedWinogradConv::lanes_channels`): too few tiles to fill the
    /// microkernel's `N` lanes, enough output channels to fill them the
    /// transposed way (the 512×512×7 ResNet shape at batch 1).
    fn lanes_channels(&self, batch: usize, h: usize, w: usize) -> bool {
        let m = self.mats.output_tile();
        thin_layer_lanes_channels(batch * h.div_ceil(m) * w.div_ceil(m), self.c_out)
    }

    /// Strips per tap-major work item: the code panel (1 or 2 bytes per
    /// code) plus the `i32` accumulator panel inside the scratch budget.
    fn strip_group(&self, tiles_w: usize) -> usize {
        let t = self.mats.input_tile();
        let code_bytes = match self.taps {
            TapWeights::I8(_) => 1,
            TapWeights::I16(_) => 2,
        };
        let acc_bytes = std::mem::size_of::<i32>();
        strip_group_len(tiles_w, self.c_in, self.c_out, t * t, code_bytes, acc_bytes)
    }

    /// The parallel phase of the tap-major pipeline, dispatched on the code
    /// type the weights were packed in.
    fn tap_major_strip_bufs<E: TapEmit>(&self, x: &Tensor<i8>, emit: &E) -> Vec<StripBuf<E::Out>> {
        match &self.taps {
            TapWeights::I8(panels) => self.strip_bufs_with(x, emit, panels),
            TapWeights::I16(panels) => self.strip_bufs_with(x, emit, panels),
        }
    }

    /// The parallel phase of the tap-major pipeline: gather + integer
    /// transforms, one GEMM per tap, rescale + back-transformation, and the
    /// `emit` scatter into per-group strip buffers. Split from the merge so
    /// an in-place caller ([`IntWinogradConv::forward_epilogue_into`]) can
    /// read the residual here and hand its buffer to the merge afterwards.
    fn strip_bufs_with<E: TapEmit, T: TapCode>(
        &self,
        x: &Tensor<i8>,
        emit: &E,
        panels: &TapPanels<T>,
    ) -> Vec<StripBuf<E::Out>> {
        assert_eq!(x.rank(), 4, "input must be NCHW");
        assert_eq!(x.dims()[1], self.c_in, "channel mismatch");
        let (n, h, w) = (x.dims()[0], x.dims()[2], x.dims()[3]);
        let (c_in, c_out) = (self.c_in, self.c_out);
        let m = self.mats.output_tile();
        let t = self.mats.input_tile();
        let tt = t * t;
        let grid = TileGrid::new(h, w, m, 1);

        // Per-tap rescale S_BG, hoisted with the exact expression of the
        // per-tile path so the epilogue stays bit-identical.
        let mut sbg = [0.0_f32; INT_MAX_TT];
        for r in 0..t {
            for c in 0..t {
                sbg[r * t + c] = self.input_scale
                    * self.input_tap_scales.at2(r, c)
                    * self.weight_scales.at2(r, c);
            }
        }

        // Tile-laned: M[tap] = W[tap] · V[tap] (`[C_out × C_in] · [C_in ×
        // tiles]`). Channel-laned (thin layers): M'[tap] = V'[tap] · W'[tap]
        // (`[tiles × C_in] · [C_in × C_out]`), so the handful of tiles are the
        // GEMM's rows and `c_out` fills the vector lanes a 4-tile call would
        // leave empty — in both transforms as well, which lane over channels
        // too. Integer sums are exact, so both give the same bits.
        let lane_channels = self.lanes_channels(n, h, w);
        let weights: &[PackedWeights<T>] = if lane_channels {
            panels
                .channel_lanes
                .get_or_init(|| pack_taps(self.wq.as_slice(), c_out, c_in, tt, true))
        } else {
            &panels.tile_lanes
        };
        // Where the codes of one tap go: its GEMM activation panel, in the
        // kernel's own layout (sign-flipped to u8 if the kernel wants that).
        let bits = self.cfg.wino_bits;
        let input = InputStage {
            variant: simd::active(),
            x: x.as_slice(),
            dims: [n, c_in, h, w],
            m,
            lane_channels,
            layout: weights[0].act_layout(),
            flip: weights[0].act_flip(),
            scales: self.input_tap_scales.as_slice(),
            clamp: (bits.min_value(), bits.max_value()),
        };

        let strips = n * grid.tiles_h;
        let ranges = split_ranges(strips, self.strip_group(grid.tiles_w));
        parallel_map(ranges.len(), |gi| {
            let range = ranges[gi].clone();
            let ntiles = range.len() * grid.tiles_w;
            let buf_len: usize = range
                .clone()
                .map(|s| c_out * m.min(h - (s % grid.tiles_h) * m) * w)
                .sum();
            let mut buf = vec![E::Out::default(); buf_len];
            with_tap_scratch(|scr| {
                let mut clock = PhaseClock::start();
                let probe = self.probe.as_deref();
                let v_tap = weights[0].act_elems(ntiles);
                let m_tap = c_out * ntiles;
                let ea_len = m * m * ntiles;
                let p = scr.int_panels::<T, E::Out>(
                    input.panel_elems(ntiles),
                    tt * m_tap,
                    input.staging(ntiles),
                    if lane_channels {
                        c_out * ea_len
                    } else {
                        ea_len
                    },
                    ea_len,
                );
                let (v, mm, ea, stage) = (p.v, p.m, p.ea, p.stage);

                // --- gather + integer transform + tap-wise requantization,
                //     fused: NCHW rows in, GEMM panels out ---
                let input_sp = kernel_block_span(&INPUT_STAGE_SYM, "wino_input_stage", probe);
                input.run(range.clone(), v, p.lanes, p.px);
                clock.lap(Phase::InputTransform);
                drop(input_sp);

                // --- one integer GEMM per tap (the batched MatMul), the
                //     accumulator tiles stored straight into M ---
                let gemm_sp = kernel_block_span(&TAP_GEMM_SYM, "wino_tap_gemm", probe);
                for (tap, wt) in weights.iter().enumerate() {
                    gemm_packed_i32_into(
                        &mut mm[tap * m_tap..(tap + 1) * m_tap],
                        wt,
                        &v[tap * v_tap..(tap + 1) * v_tap],
                        ntiles,
                    );
                }
                clock.lap(Phase::TapGemm);
                drop(gemm_sp);

                // --- per-tap rescale + back-transformation (one register
                //     block per lane vector), epilogue ---
                let output_sp = kernel_block_span(&OUTPUT_STAGE_SYM, "wino_output_stage", probe);
                let lanes = OutputLanes {
                    t,
                    n: if lane_channels { c_out } else { ntiles },
                    tap_stride: m_tap,
                    lane_stride: if lane_channels { ea_len } else { 1 },
                    rc_stride: ntiles,
                };
                if lane_channels {
                    // The GEMM left `M'[tap][tile][co]`: lane each tile's
                    // rows over `co` as they lie, landing every channel's
                    // `[m²][tile]` block where the tile-laned loop builds it.
                    for tile in 0..ntiles {
                        let (acc, dst) = (&mm[tile * c_out..], &mut ea[tile..]);
                        simd::wino_output_stage_with(input.variant, acc, &sbg, dst, lanes);
                    }
                    clock.lap(Phase::OutputTransform);
                }
                for co in 0..c_out {
                    let ea = if lane_channels {
                        &ea[co * ea_len..(co + 1) * ea_len]
                    } else {
                        let acc = &mm[co * ntiles..];
                        simd::wino_output_stage_with(input.variant, acc, &sbg, ea, lanes);
                        clock.lap(Phase::OutputTransform);
                        &ea[..ea_len]
                    };
                    // Vectorized requantization over the channel's
                    // contiguous lanes (the expensive part of the epilogue),
                    // then the cheap strided scatter; `finish` sees the
                    // global NCHW index so a fused residual can be read
                    // before the store.
                    emit.stage(co, stage, ea);
                    let mut strip_off = 0usize;
                    for (si, s) in range.clone().enumerate() {
                        let ni = s / grid.tiles_h;
                        let ty = s % grid.tiles_h;
                        let strip_h = m.min(h - ty * m);
                        let base = strip_off + co * strip_h * w;
                        strip_off += c_out * strip_h * w;
                        let out_plane = (ni * c_out + co) * h * w;
                        for tx in 0..grid.tiles_w {
                            let tile_idx = si * grid.tiles_w + tx;
                            let cols = m.min(w - tx * m);
                            for r in 0..strip_h {
                                let row = base + r * w + tx * m;
                                let out_row = out_plane + (ty * m + r) * w + tx * m;
                                for c in 0..cols {
                                    let staged = stage[(r * m + c) * ntiles + tile_idx];
                                    buf[row + c] = emit.finish(staged, out_row + c);
                                }
                            }
                        }
                    }
                    clock.lap(Phase::Epilogue);
                }
                drop(output_sp);
                if let Some(p) = probe {
                    clock.flush(p);
                }
            });
            (range, buf)
        })
    }

    /// The sequential merge of the tap-major strip buffers into `y`, which
    /// may be a fresh tensor or (for in-place residual accumulation) the
    /// residual operand itself — every element is overwritten, and the
    /// scatter phase has already read everything it needed.
    fn tap_major_merge<O: Element>(&self, bufs: &[StripBuf<O>], y: &mut Tensor<O>) {
        let merge_sp = kernel_block_span(&MERGE_SYM, "wino_merge", self.probe.as_deref());
        let mut merge_clock = PhaseClock::start();
        let (h, w) = (y.dims()[2], y.dims()[3]);
        let m = self.mats.output_tile();
        let grid = TileGrid::new(h, w, m, 1);
        let y_s = y.as_mut_slice();
        for (range, buf) in bufs {
            let mut off = 0usize;
            for s in range.clone() {
                let ni = s / grid.tiles_h;
                let ty = s % grid.tiles_h;
                let strip_h = m.min(h - ty * m);
                for co in 0..self.c_out {
                    for dy in 0..strip_h {
                        let oy = ty * m + dy;
                        let dst = ((ni * self.c_out + co) * h + oy) * w;
                        let src = off + (co * strip_h + dy) * w;
                        y_s[dst..dst + w].copy_from_slice(&buf[src..src + w]);
                    }
                }
                off += self.c_out * strip_h * w;
            }
        }
        merge_clock.lap(Phase::Scatter);
        if let Some(p) = self.probe.as_deref() {
            merge_clock.flush(p);
        }
        drop(merge_sp);
    }

    /// Whether the tap-major `i32` accumulators are provably exact: the worst
    /// case `C_in · 2^(2·(wino_bits − 1))` must stay inside `i32`. True for
    /// every configuration the paper uses (8–10 bits); exotic calibrations
    /// beyond that fall back to the `i64`-accumulating per-tile path.
    fn tap_major_is_exact(&self) -> bool {
        Self::i32_exact_for(self.c_in, self.cfg.wino_bits)
    }

    /// The original per-tile integer forward pass (scalar elementwise
    /// multiply–accumulate per tile, `i64` accumulators).
    ///
    /// Kept as the numerical reference: [`IntWinogradConv::forward`] must be
    /// bit-identical to this path (pinned by the equivalence tests), and the
    /// `tap_major_vs_per_tile` bench group measures one against the other.
    /// Also the fallback when [`IntWinogradConv::forward`] cannot prove its
    /// `i32` accumulators exact.
    ///
    /// # Panics
    ///
    /// Panics if the channel count differs from the prepared weights.
    pub fn forward_per_tile(&self, x: &Tensor<i8>) -> IntWinogradOutput {
        assert_eq!(x.rank(), 4, "input must be NCHW");
        assert_eq!(x.dims()[1], self.c_in, "channel mismatch");
        let (n, h, w) = (x.dims()[0], x.dims()[2], x.dims()[3]);
        let m = self.mats.output_tile();
        let t = self.mats.input_tile();
        let grid = TileGrid::new(h, w, m, 1);

        let (wino_lo, wino_hi) = (
            self.cfg.wino_bits.min_value(),
            self.cfg.wino_bits.max_value(),
        );

        // Tile rows of distinct (batch, ty) pairs produce disjoint output rows;
        // process them in parallel into private strip buffers, then merge.
        let strips = n * grid.tiles_h;
        // `Bᵀ` and `Aᵀ` as the integers they are (exact for F2/F4).
        let ints = |m: &Tensor<f32>| m.as_slice().iter().map(|&v| v as i32).collect::<Vec<_>>();
        let (bt_ref, at_ref) = (&ints(&self.mats.bt), &ints(&self.mats.at));
        let strip_bufs = parallel_map(strips, |s| {
            let ni = s / grid.tiles_h;
            let ty = s % grid.tiles_h;
            let strip_h = m.min(h - ty * m);
            let mut buf = vec![0_i8; self.c_out * strip_h * w];
            let mut v_tiles: Vec<Vec<i32>> = vec![vec![0; t * t]; self.c_in];
            // Scratch is allocated once per strip and reused across tiles and
            // channels — per-tile allocations would serialise the parallel
            // workers on the allocator (see the float path in winograd.rs).
            let mut d = vec![0_i32; t * t];
            let mut tmp_i = vec![0_i64; t * t];
            let mut acc = vec![0_i64; t * t];
            let mut mfl = vec![0.0_f32; t * t];
            let mut tmp_f = vec![0.0_f32; m * t];
            {
                let bt_i = bt_ref;
                let at_i = at_ref;
                for tx in 0..grid.tiles_w {
                    // --- input transformation (integer, then tap-wise requant) ---
                    for (ci, vt) in v_tiles.iter_mut().enumerate() {
                        // Extract the int8 tile with zero padding.
                        d.fill(0);
                        let y0 = (ty * m) as isize - 1;
                        let x0 = (tx * m) as isize - 1;
                        for dy in 0..t {
                            let iy = y0 + dy as isize;
                            if iy < 0 || iy >= h as isize {
                                continue;
                            }
                            for dx in 0..t {
                                let ix = x0 + dx as isize;
                                if ix < 0 || ix >= w as isize {
                                    continue;
                                }
                                d[dy * t + dx] = i32::from(x.at4(ni, ci, iy as usize, ix as usize));
                            }
                        }
                        // tmp_i = BT * d ; v = tmp_i * B  (all exact i32)
                        for r in 0..t {
                            for c in 0..t {
                                let mut s = 0_i64;
                                for k in 0..t {
                                    s += i64::from(bt_i[r * t + k]) * i64::from(d[k * t + c]);
                                }
                                tmp_i[r * t + c] = s;
                            }
                        }
                        for r in 0..t {
                            for c in 0..t {
                                let mut s = 0_i64;
                                for k in 0..t {
                                    // (BT d) B  =>  sum_k tmp[r,k] * B[k,c] = tmp[r,k]*BT[c,k]
                                    s += tmp_i[r * t + k] * i64::from(bt_i[c * t + k]);
                                }
                                // tap-wise requantization to wino_bits, in
                                // the exact expression of the vectorized
                                // `simd::quantize_i32_i8_panel` (ties-to-even,
                                // float-domain clamp) so the tap-major path
                                // stays bit-identical to this reference
                                let sc = self.input_tap_scales.at2(r, c);
                                vt[r * t + c] = ((s as f32) / sc)
                                    .round_ties_even()
                                    .max(wino_lo as f32)
                                    .min(wino_hi as f32)
                                    as i32;
                            }
                        }
                    }

                    // --- elementwise multiply + channel accumulation (i32) ---
                    for co in 0..self.c_out {
                        acc.fill(0);
                        let w_co = &self.wq.as_slice()[co * self.c_in * t * t..];
                        for (vt, wt) in v_tiles.iter().zip(w_co.chunks_exact(t * t)) {
                            for ((a, &v), &wcode) in acc.iter_mut().zip(vt).zip(wt) {
                                *a += i64::from(v) * i64::from(wcode);
                            }
                        }

                        // --- per-tap rescale with S_BG, back-transformation ---
                        // float value of acc[r,c] = input_scale * sB_int[r,c] * sG[r,c] * acc
                        for r in 0..t {
                            for c in 0..t {
                                let sbg = self.input_scale
                                    * self.input_tap_scales.at2(r, c)
                                    * self.weight_scales.at2(r, c);
                                mfl[r * t + c] = acc[r * t + c] as f32 * sbg;
                            }
                        }
                        // out = AT * M * A using the integer AT (values exact in f32)
                        for r in 0..m {
                            for c in 0..t {
                                let mut s = 0.0_f32;
                                for k in 0..t {
                                    s += at_i[r * t + k] as f32 * mfl[k * t + c];
                                }
                                tmp_f[r * t + c] = s;
                            }
                        }
                        for r in 0..m {
                            for c in 0..m {
                                let mut s = 0.0_f32;
                                for k in 0..t {
                                    s += tmp_f[r * t + k] * at_i[c * t + k] as f32;
                                }
                                let ox = tx * m + c;
                                if r < strip_h && ox < w {
                                    let code = self.output_params.quantize(s) as i8;
                                    buf[(co * strip_h + r) * w + ox] = code;
                                }
                            }
                        }
                    }
                }
            }
            buf
        });

        let mut y = Tensor::<i8>::zeros(&[n, self.c_out, h, w]);
        let y_s = y.as_mut_slice();
        for (s, buf) in strip_bufs.iter().enumerate() {
            let ni = s / grid.tiles_h;
            let ty = s % grid.tiles_h;
            let strip_h = m.min(h - ty * m);
            for co in 0..self.c_out {
                for dy in 0..strip_h {
                    let oy = ty * m + dy;
                    let dst = ((ni * self.c_out + co) * h + oy) * w;
                    let src = (co * strip_h + dy) * w;
                    y_s[dst..dst + w].copy_from_slice(&buf[src..src + w]);
                }
            }
        }
        IntWinogradOutput {
            codes: y,
            scale: self.output_params.scale,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wino_tensor::{conv2d_direct, normal, ConvParams};

    fn quantize_input(x: &Tensor<f32>, bits: QuantBits) -> (Tensor<i8>, QuantParams) {
        let p = QuantParams::from_max(x.abs_max(), bits).to_power_of_two();
        (x.map(|v| p.quantize(v) as i8), p)
    }

    fn run_pipeline(tile: TileSize, wino_bits: u8) -> (Tensor<f32>, Tensor<f32>) {
        let x = normal(&[1, 4, 12, 12], 0.0, 1.0, 200);
        let w = normal(&[6, 4, 3, 3], 0.0, 0.3, 201);
        let reference = conv2d_direct(&x, &w, None, ConvParams::same_3x3());

        let cfg = WinogradQuantConfig::tapwise_po2(tile, wino_bits);
        let mats = WinogradMatrices::for_tile(tile);
        let scales = TapwiseScales::calibrate(&w, &x, &mats, cfg.wino_bits, cfg.mode);
        let (xq, xp) = quantize_input(&x, cfg.spatial_bits);
        let conv = IntWinogradConv::prepare(&w, &scales, xp, reference.abs_max(), cfg);
        let out = conv.forward(&xq);
        (out.dequantize(), reference)
    }

    #[test]
    fn f2_integer_pipeline_tracks_fp32_reference() {
        let (y, reference) = run_pipeline(TileSize::F2, 8);
        let err = y.relative_error(&reference);
        assert!(err < 0.08, "F2 int8 relative error {err}");
    }

    #[test]
    fn f4_integer_pipeline_tracks_fp32_reference() {
        let (y, reference) = run_pipeline(TileSize::F4, 8);
        let err = y.relative_error(&reference);
        assert!(err < 0.25, "F4 int8 relative error {err}");
    }

    #[test]
    fn f4_with_10_bit_winograd_domain_is_better() {
        let (y8, reference) = run_pipeline(TileSize::F4, 8);
        let (y10, _) = run_pipeline(TileSize::F4, 10);
        assert!(
            y10.relative_error(&reference) < y8.relative_error(&reference),
            "int8/10 should reduce the error"
        );
    }

    #[test]
    fn tap_major_forward_is_bit_identical_to_per_tile() {
        let x = normal(&[2, 5, 13, 9], 0.0, 1.0, 210);
        let w = normal(&[7, 5, 3, 3], 0.0, 0.3, 211);
        for tile in [TileSize::F2, TileSize::F4] {
            for bits in [8u8, 10u8] {
                let cfg = WinogradQuantConfig::tapwise_po2(tile, bits);
                let mats = WinogradMatrices::for_tile(tile);
                let scales = TapwiseScales::calibrate(&w, &x, &mats, cfg.wino_bits, cfg.mode);
                let (xq, xp) = quantize_input(&x, cfg.spatial_bits);
                let conv = IntWinogradConv::prepare(&w, &scales, xp, 8.0, cfg);
                let fast = conv.forward(&xq);
                let slow = conv.forward_per_tile(&xq);
                assert_eq!(fast, slow, "{tile}/int{bits}: tap-major codes drifted");
            }
        }
    }

    #[test]
    fn fused_relu_equals_relu_on_dequantized_output() {
        let x = normal(&[1, 4, 12, 12], 0.0, 1.0, 220);
        let w = normal(&[6, 4, 3, 3], 0.0, 0.3, 221);
        let cfg = WinogradQuantConfig::tapwise_po2(TileSize::F4, 8);
        let mats = WinogradMatrices::for_tile(TileSize::F4);
        let scales = TapwiseScales::calibrate(&w, &x, &mats, cfg.wino_bits, cfg.mode);
        let (xq, xp) = quantize_input(&x, cfg.spatial_bits);
        let conv = IntWinogradConv::prepare(&w, &scales, xp, 8.0, cfg);
        let fused = conv.forward_fused(&xq, true).dequantize();
        let separate = conv.forward(&xq).dequantize().map(|v| v.max(0.0));
        assert_eq!(fused, separate, "fused ReLU must be bitwise identical");
    }

    #[test]
    fn residual_epilogue_is_bitwise_equal_to_separate_passes() {
        use crate::epilogue::{apply_epilogue, EpilogueOps};
        let x = normal(&[2, 4, 13, 9], 0.0, 1.0, 230);
        let w = normal(&[6, 4, 3, 3], 0.0, 0.3, 231);
        let res = normal(&[2, 6, 13, 9], 0.0, 1.0, 232);
        for tile in [TileSize::F2, TileSize::F4] {
            let cfg = WinogradQuantConfig::tapwise_po2(tile, 8);
            let mats = WinogradMatrices::for_tile(tile);
            let scales = TapwiseScales::calibrate(&w, &x, &mats, cfg.wino_bits, cfg.mode);
            let (xq, xp) = quantize_input(&x, cfg.spatial_bits);
            let conv = IntWinogradConv::prepare(&w, &scales, xp, 8.0, cfg);
            for (pre, post) in [(false, false), (false, true), (true, false)] {
                let ops = EpilogueOps {
                    bias: None,
                    residual: Some(&res),
                    pre_add_relu: pre,
                    relu: post,
                };
                let fused = conv.forward_epilogue(&xq, &ops);
                // Separate: conv (with any pre-add ReLU as a code clamp),
                // dequantize, then the residual add and post-ReLU passes.
                let mut separate = conv.forward_fused(&xq, pre).dequantize();
                apply_epilogue(
                    &mut separate,
                    &EpilogueOps {
                        bias: None,
                        residual: Some(&res),
                        pre_add_relu: false,
                        relu: post,
                    },
                );
                assert_eq!(
                    fused, separate,
                    "{tile} pre={pre} post={post}: fused epilogue drifted"
                );
            }
        }
    }

    #[test]
    fn biased_epilogue_tracks_float_biased_reference() {
        use crate::epilogue::{add_bias, EpilogueOps};
        let x = normal(&[1, 4, 12, 12], 0.0, 1.0, 240);
        let w = normal(&[6, 4, 3, 3], 0.0, 0.3, 241);
        let b = normal(&[6], 0.0, 0.5, 242);
        let mut reference = conv2d_direct(&x, &w, None, ConvParams::same_3x3());
        add_bias(&mut reference, &b);
        let cfg = WinogradQuantConfig::tapwise_po2(TileSize::F4, 8);
        let mats = WinogradMatrices::for_tile(TileSize::F4);
        let scales = TapwiseScales::calibrate(&w, &x, &mats, cfg.wino_bits, cfg.mode);
        let (xq, xp) = quantize_input(&x, cfg.spatial_bits);
        let conv = IntWinogradConv::prepare(&w, &scales, xp, reference.abs_max(), cfg);
        let ops = EpilogueOps {
            bias: Some(&b),
            residual: None,
            pre_add_relu: false,
            relu: false,
        };
        let y = conv.forward_epilogue(&xq, &ops);
        let err = y.relative_error(&reference);
        assert!(err < 0.25, "int-biased relative error {err}");
        // The bias must actually land: dropping it is a much larger error.
        let unbiased = conv.forward(&xq).dequantize();
        assert!(
            y.relative_error(&reference) < unbiased.relative_error(&reference),
            "requant-fused bias did not reduce the error vs dropping it"
        );
    }

    #[test]
    fn biased_residual_owned_and_borrowed_paths_agree_bitwise() {
        use crate::epilogue::EpilogueOps;
        let x = normal(&[2, 4, 13, 9], 0.0, 1.0, 250);
        let w = normal(&[6, 4, 3, 3], 0.0, 0.3, 251);
        let b = normal(&[6], 0.0, 0.5, 252);
        let res = normal(&[2, 6, 13, 9], 0.0, 1.0, 253);
        let cfg = WinogradQuantConfig::tapwise_po2(TileSize::F4, 8);
        let mats = WinogradMatrices::for_tile(TileSize::F4);
        let scales = TapwiseScales::calibrate(&w, &x, &mats, cfg.wino_bits, cfg.mode);
        let (xq, xp) = quantize_input(&x, cfg.spatial_bits);
        let conv = IntWinogradConv::prepare(&w, &scales, xp, 8.0, cfg);
        for (pre, post) in [(false, false), (false, true), (true, false)] {
            let ops = EpilogueOps {
                bias: Some(&b),
                residual: Some(&res),
                pre_add_relu: pre,
                relu: post,
            };
            let borrowed = conv.forward_epilogue(&xq, &ops);
            let owned = conv.forward_epilogue_into(&xq, Some(&b), pre, post, res.clone());
            assert_eq!(
                borrowed, owned,
                "pre={pre} post={post}: owned biased residual path drifted"
            );
        }
    }

    #[test]
    fn output_codes_are_within_int8() {
        let (y, _) = run_pipeline(TileSize::F4, 8);
        // dequantized output is finite and bounded
        assert!(y.abs_max().is_finite());
    }

    #[test]
    #[should_panic(expected = "F2 and F4 only")]
    fn f6_integer_path_is_rejected() {
        let w = normal(&[1, 1, 3, 3], 0.0, 1.0, 202);
        let x = normal(&[1, 1, 8, 8], 0.0, 1.0, 203);
        let cfg = WinogradQuantConfig::tapwise_po2(TileSize::F6, 8);
        let mats = WinogradMatrices::for_tile(TileSize::F6);
        let scales = TapwiseScales::calibrate(&w, &x, &mats, cfg.wino_bits, cfg.mode);
        let p = QuantParams::from_max(1.0, QuantBits::int8());
        let _ = IntWinogradConv::prepare(&w, &scales, p, 1.0, cfg);
    }

    #[test]
    fn transform_lane_bound_comes_from_the_matrices() {
        let f4 = WinogradMatrices::for_tile(TileSize::F4);
        assert_eq!(
            int_lane_bound(&WinogradMatrices::for_tile(TileSize::F2)),
            512.0
        );
        assert_eq!(int_lane_bound(&f4), 12_800.0);
        // The same transform scaled by two no longer fits the `i16` lanes.
        let mut scaled = f4;
        scaled.bt = scaled.bt.map(|v| 2.0 * v);
        assert!(int_lane_bound(&scaled) > f32::from(i16::MAX));
    }

    #[test]
    fn config_constructors() {
        let c = WinogradQuantConfig::default();
        assert_eq!(c.tile, TileSize::F4);
        assert!(c.tapwise);
        let u = WinogradQuantConfig::uniform_float(TileSize::F2, 10);
        assert!(!u.tapwise);
        assert_eq!(u.wino_bits.bits(), 10);
    }
}
