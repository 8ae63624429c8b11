//! Winograd convolution over NCHW tensors (FP32 and fake-quantized paths).
//!
//! [`winograd_conv2d`] is the exact FP32 algorithm of Eq. 1; it is the
//! functional reference for the integer pipeline and the kernel the FP32
//! baselines use. [`winograd_conv2d_fake_quant`] simulates the tap-wise
//! quantized pipeline in floating point (quantize–dequantize at every place the
//! paper's integer datapath quantizes), which is what Winograd-aware training
//! needs.
//!
//! # Tap-major execution
//!
//! The forward pass mirrors the accelerator's batched-MatMul formulation
//! (Section IV-A): instead of accumulating each tile across channels one
//! scalar at a time, a group of tile-row strips is gathered into a tap-major
//! panel `V[tap][c_in][tile]`, each of the `t²` taps runs one dense GEMM
//! `U[tap] · V[tap]` (`[C_out × C_in] · [C_in × tiles]`, the Cube Unit's
//! batched MatMul), and the resulting `M[tap][c_out][tile]` panel is scattered
//! through the output transformation with an epilogue that can fuse a bias add
//! and a ReLU in-register ([`PreparedWinogradConv::forward_fused`]). The
//! original per-tile loop survives as
//! [`PreparedWinogradConv::forward_per_tile`] — the reference the tap-major
//! path is benchmarked and equivalence-tested against.

use crate::epilogue::{apply_epilogue, EpilogueOps};
use crate::int_winograd::WinogradQuantConfig;
use crate::matrices::{TileSize, WinogradMatrices};
use crate::quant::QuantParams;
use crate::scratch::{strip_group_len, with_tap_scratch, F32_BYTES};
use crate::tapwise::{TapScaleMatrix, TapwiseScales};
use crate::transform::{congruence_into, TileGrid};
use std::sync::{Arc, OnceLock};
use wino_tensor::{gemm_f32_into, parallel_map, simd, split_ranges, Tensor};
use wino_trace::{Phase, PhaseClock, PhaseProbe};

/// A full-detail chrome span over one contiguous kernel block (the input
/// stage, the tap-GEMM loop, the output stage or the strip merge), carrying
/// the owning probe's trace id so the viewer can group blocks by graph node.
/// The off-path is one relaxed atomic load.
pub(crate) fn kernel_block_span(
    cell: &'static OnceLock<wino_trace::Sym>,
    name: &'static str,
    probe: Option<&PhaseProbe>,
) -> Option<wino_trace::Span> {
    if !wino_trace::full_enabled() {
        return None;
    }
    let sym = *cell.get_or_init(|| wino_trace::intern(name));
    let id = probe.map_or(0, PhaseProbe::trace_id);
    Some(wino_trace::span_full(sym, wino_trace::Category::Phase, id))
}

pub(crate) static INPUT_STAGE_SYM: OnceLock<wino_trace::Sym> = OnceLock::new();
pub(crate) static TAP_GEMM_SYM: OnceLock<wino_trace::Sym> = OnceLock::new();
pub(crate) static OUTPUT_STAGE_SYM: OnceLock<wino_trace::Sym> = OnceLock::new();
pub(crate) static MERGE_SYM: OnceLock<wino_trace::Sym> = OnceLock::new();

/// Below this many total tiles per call the per-tap GEMM's `N` dimension
/// (the tile count) cannot fill the microkernel lanes (e.g. a 7×7 / F4 layer
/// has 4 tiles per image). Such thin layers switch to the **channel-laned**
/// formulation — the tap GEMMs lane over `c_out` instead of tiles — when the
/// layer is wide enough ([`CHANNEL_LANE_MIN_COUT`]); otherwise they keep the
/// per-tile kernel. Batched inputs raise the tile count and flip back to
/// tile-laned tap-major automatically.
pub(crate) const MIN_TAP_MAJOR_TILES: usize = 8;

/// Minimum output channels for the channel-laned thin-layer formulation: with
/// fewer, neither GEMM dimension can fill a register block and the per-tile
/// kernel stays ahead.
pub(crate) const CHANNEL_LANE_MIN_COUT: usize = 8;

/// Whether a forward over `tiles` total tiles lanes its tap GEMMs over output
/// channels rather than tiles — the thin-layer predicate both tap-major
/// pipelines and the scratch accounting share.
pub(crate) fn thin_layer_lanes_channels(tiles: usize, c_out: usize) -> bool {
    tiles < MIN_TAP_MAJOR_TILES && c_out >= CHANNEL_LANE_MIN_COUT
}

/// The layout of the per-tap GEMM weight operand.
#[derive(Clone, Copy)]
enum TapWeights<'a> {
    /// `U[tap][co][ci]` — the GEMM lanes over tiles:
    /// `M[tap] = U[tap] · V[tap]` (`[C_out × C_in] · [C_in × tiles]`).
    TileLanes(&'a [f32]),
    /// `U[tap][ci][co]` — the GEMM lanes over output channels (thin layers):
    /// `M'[tap] = V'[tap] · U'[tap]` (`[tiles × C_in] · [C_in × C_out]`).
    ChannelLanes(&'a [f32]),
}

/// Tap-wise fake quantization of a flat `t×t` Winograd-domain tile, matching
/// [`TapScaleMatrix::fake_quantize_tile`] without the tensor round trip.
#[inline]
fn fake_quantize_flat(tile: &mut [f32], scales: &TapScaleMatrix) {
    let s = scales.scales().as_slice();
    let (lo, hi) = (scales.bits().min_value(), scales.bits().max_value());
    for (v, &sc) in tile.iter_mut().zip(s.iter()) {
        let q = ((*v / sc).round() as i32).clamp(lo, hi);
        *v = q as f32 * sc;
    }
}

/// FP32 Winograd convolution of an NCHW input with OIHW 3×3 weights, unit
/// stride and "same" padding of 1.
///
/// # Panics
///
/// Panics if the weights are not 3×3 or the channel counts disagree.
pub fn winograd_conv2d(x: &Tensor<f32>, w: &Tensor<f32>, tile: TileSize) -> Tensor<f32> {
    let mats = WinogradMatrices::for_tile(tile);
    winograd_conv2d_with(x, w, &mats, None, None)
}

/// FP32 Winograd convolution with optional per-tap fake quantization of the
/// transformed inputs and weights.
///
/// When `scales` is provided, each transformed input tile and each transformed
/// kernel is quantized and dequantized tap-wise before the elementwise
/// multiplication, and the spatial input is first quantized with
/// `spatial_input` (if given). This reproduces the numerical behaviour of the
/// integer pipeline while staying differentiable-through-STE for training.
fn winograd_conv2d_with(
    x: &Tensor<f32>,
    w: &Tensor<f32>,
    mats: &WinogradMatrices,
    scales: Option<&TapwiseScales>,
    spatial_input: Option<QuantParams>,
) -> Tensor<f32> {
    assert_eq!(x.rank(), 4, "winograd_conv2d: input must be NCHW");
    let (c_out, c_in) = (w.dims()[0], w.dims()[1]);
    let u = transform_weights_flat(w, mats, scales.map(|s| &s.weight));
    let thin = total_tiles(x, mats.output_tile()) < MIN_TAP_MAJOR_TILES;
    if thin && c_out < CHANNEL_LANE_MIN_COUT {
        return winograd_forward_flat_per_tile(
            x,
            &u,
            c_out,
            mats,
            scales.map(|s| &s.input),
            spatial_input,
        );
    }
    let t = mats.input_tile();
    let u_tap = tap_major_weights(&u, c_out, c_in, t);
    let u_tap_t;
    let weights = if thin {
        u_tap_t = channel_lane_weights(&u_tap, c_out, c_in, t * t);
        TapWeights::ChannelLanes(&u_tap_t)
    } else {
        TapWeights::TileLanes(&u_tap)
    };
    winograd_forward_tap_major(
        x,
        weights,
        c_out,
        mats,
        scales.map(|s| &s.input),
        spatial_input,
        &EpilogueOps::none(),
        None,
    )
}

/// Total Winograd tiles of one forward call (all images of the batch).
fn total_tiles(x: &Tensor<f32>, m: usize) -> usize {
    x.dims()[0] * x.dims()[2].div_ceil(m) * x.dims()[3].div_ceil(m)
}

/// Pre-transforms all OIHW 3×3 weights into one flat Winograd-domain buffer:
/// `U[co][ci]` is a `t×t` tile at offset `(co·C_in + ci)·t²`, optionally
/// fake-quantized tap-wise.
///
/// The flat layout keeps the forward pass allocation-free (a heap allocation
/// per tile would serialise the parallel workers on the allocator), and lets
/// the graph executor do this transformation once per node and reuse it
/// across runs.
fn transform_weights_flat(
    w: &Tensor<f32>,
    mats: &WinogradMatrices,
    weight_scales: Option<&TapScaleMatrix>,
) -> Vec<f32> {
    assert_eq!(w.rank(), 4, "winograd_conv2d: weights must be OIHW");
    assert_eq!(w.dims()[2], 3, "winograd_conv2d: kernel must be 3x3");
    assert_eq!(w.dims()[3], 3, "winograd_conv2d: kernel must be 3x3");
    let (c_out, c_in) = (w.dims()[0], w.dims()[1]);
    let t = mats.input_tile();
    let tt = t * t;
    let g = mats.g.as_slice();
    let mut u = vec![0.0_f32; c_out * c_in * tt];
    let mut ker = [0.0_f32; 9];
    let mut tmp = vec![0.0_f32; tt];
    for co in 0..c_out {
        for ci in 0..c_in {
            for ky in 0..3 {
                for kx in 0..3 {
                    ker[ky * 3 + kx] = w.at4(co, ci, ky, kx);
                }
            }
            let dst = &mut u[(co * c_in + ci) * tt..(co * c_in + ci + 1) * tt];
            congruence_into(dst, &mut tmp, g, &ker, t, 3);
            if let Some(s) = weight_scales {
                fake_quantize_flat(dst, s);
            }
        }
    }
    u
}

/// Transposes flat `U[co][ci][tap]` weights into the tap-major GEMM layout
/// `U[tap][co][ci]`, so each tap's `[C_out × C_in]` operand is one contiguous
/// row-major matrix.
fn tap_major_weights(u: &[f32], c_out: usize, c_in: usize, t: usize) -> Vec<f32> {
    let tt = t * t;
    debug_assert_eq!(u.len(), c_out * c_in * tt);
    let mut u_tap = vec![0.0_f32; u.len()];
    for co in 0..c_out {
        for ci in 0..c_in {
            let src = &u[(co * c_in + ci) * tt..(co * c_in + ci + 1) * tt];
            for (tap, &v) in src.iter().enumerate() {
                u_tap[(tap * c_out + co) * c_in + ci] = v;
            }
        }
    }
    u_tap
}

/// Transposes tap-major `U[tap][co][ci]` weights into the channel-laned GEMM
/// layout `U[tap][ci][co]` — the right-hand operand of the thin-layer
/// formulation's per-tap GEMM `V'[tiles × C_in] · U'[C_in × C_out]`.
fn channel_lane_weights(u_tap: &[f32], c_out: usize, c_in: usize, tt: usize) -> Vec<f32> {
    debug_assert_eq!(u_tap.len(), c_out * c_in * tt);
    let mut u_t = vec![0.0_f32; u_tap.len()];
    for tap in 0..tt {
        let src = &u_tap[tap * c_out * c_in..(tap + 1) * c_out * c_in];
        let dst = &mut u_t[tap * c_out * c_in..(tap + 1) * c_out * c_in];
        for co in 0..c_out {
            for (ci, &val) in src[co * c_in..(co + 1) * c_in].iter().enumerate() {
                dst[ci * c_out + co] = val;
            }
        }
    }
    u_t
}

/// `dst[lane] += coeff · src[lane]` over SoA tile lanes — the vectorized
/// inner step of the batched congruence transforms
/// ([`simd::axpy_f32`], dispatched once per process). Zero coefficients are
/// skipped by the *callers* (the Winograd matrices are sparse, and the branch
/// is per structural coefficient, not per data element).
#[inline]
fn axpy(dst: &mut [f32], coeff: f32, src: &[f32]) {
    simd::axpy_f32(dst, coeff, src);
}

/// The tap-major Winograd forward pass over `U[tap][co][ci]` weights.
///
/// Strip groups (contiguous ranges of `(batch, tile-row)` strips, sized by
/// [`strip_group_len`] so the tap-major panels stay cache-resident) are
/// processed in parallel. Each group gathers its tiles into an SoA staging
/// buffer (`[t² elements][tile lanes]`), runs both congruence-transform
/// stages as vector operations over the tile lanes, executes one
/// [`gemm_f32_into`] per tap (`M[tap] = U[tap] · V[tap]`), and
/// back-transforms `M[tap][c_out][tile]` the same SoA way with the fused
/// [`EpilogueOps`] applied before the single store: bias and any
/// pre-residual ReLU while the SoA row is hot, the residual read and the
/// post-residual ReLU at scatter time (where the output coordinate — and
/// with it the residual element — is known).
#[allow(clippy::too_many_arguments)]
fn winograd_forward_tap_major(
    x: &Tensor<f32>,
    u: TapWeights<'_>,
    c_out: usize,
    mats: &WinogradMatrices,
    input_scales: Option<&TapScaleMatrix>,
    spatial_input: Option<QuantParams>,
    epi: &EpilogueOps,
    probe: Option<&PhaseProbe>,
) -> Tensor<f32> {
    winograd_forward_tap_major_impl(
        x,
        u,
        c_out,
        mats,
        input_scales,
        spatial_input,
        epi,
        None,
        probe,
    )
}

/// [`winograd_forward_tap_major`] with an optional **owned** residual: when
/// `reuse` is `Some`, `epi.residual` must be `None` — the owned tensor is the
/// residual operand, its values are read during the scatter stage, and the
/// finished output is merged **into its buffer**, so a fused residual tail
/// allocates no third activation (the accelerator's in-place accumulation).
#[allow(clippy::too_many_arguments)]
fn winograd_forward_tap_major_impl(
    x: &Tensor<f32>,
    u: TapWeights<'_>,
    c_out: usize,
    mats: &WinogradMatrices,
    input_scales: Option<&TapScaleMatrix>,
    spatial_input: Option<QuantParams>,
    epi: &EpilogueOps,
    reuse: Option<Tensor<f32>>,
    probe: Option<&PhaseProbe>,
) -> Tensor<f32> {
    assert_eq!(x.rank(), 4, "winograd_conv2d: input must be NCHW");
    let (n, c_in, h, wd) = (x.dims()[0], x.dims()[1], x.dims()[2], x.dims()[3]);
    let m = mats.output_tile();
    let t = mats.input_tile();
    let grid = TileGrid::new(h, wd, m, 1);
    let tt = t * t;
    let (u_tap, lane_channels) = match u {
        TapWeights::TileLanes(w) => (w, false),
        TapWeights::ChannelLanes(w) => (w, true),
    };
    assert_eq!(
        u_tap.len(),
        c_out * c_in * tt,
        "winograd_conv2d: channel mismatch"
    );
    if let Some(b) = epi.bias {
        assert_eq!(b.len(), c_out, "winograd_conv2d: bias length mismatch");
    }
    debug_assert!(
        epi.residual.is_none() || reuse.is_none(),
        "borrowed and owned residuals are mutually exclusive"
    );
    let residual_slice: Option<&[f32]> = epi
        .residual
        .map(|r| {
            assert_eq!(
                r.dims(),
                &[n, c_out, h, wd],
                "winograd_conv2d: residual shape mismatch"
            );
            r.as_slice()
        })
        .or_else(|| {
            reuse.as_ref().map(|r| {
                assert_eq!(
                    r.dims(),
                    &[n, c_out, h, wd],
                    "winograd_conv2d: residual shape mismatch"
                );
                r.as_slice()
            })
        });

    // Spatially (fake-)quantized input if requested; borrowed otherwise (the
    // pure-float path must not clone every activation).
    let quantized;
    let x_ref: &Tensor<f32> = match spatial_input {
        Some(p) => {
            quantized = x.map(|v| p.fake_quantize(v));
            &quantized
        }
        None => x,
    };

    let strips = n * grid.tiles_h;
    let group = strip_group_len(grid.tiles_w, c_in, c_out, tt, F32_BYTES, F32_BYTES);
    let ranges = split_ranges(strips, group);
    let bt = mats.bt.as_slice();
    let at = mats.at.as_slice();
    let bufs = parallel_map(ranges.len(), |g| {
        let range = ranges[g].clone();
        let ntiles = range.len() * grid.tiles_w;
        let buf_len: usize = range
            .clone()
            .map(|s| c_out * m.min(h - (s % grid.tiles_h) * m) * wd)
            .sum();
        let mut buf = vec![0.0_f32; buf_len];
        with_tap_scratch(|scr| {
            let mut clock = PhaseClock::start();
            // Channel-laned groups need a second M panel: the GEMM writes
            // `[tile][co]` rows which are then transposed into the standard
            // SoA `[co][tile]` layout the back-transform consumes.
            let m_len = if lane_channels {
                2 * tt * c_out * ntiles
            } else {
                tt * c_out * ntiles
            };
            let (v, mm, da, db) = scr.float_panels(tt * c_in * ntiles, m_len, tt * ntiles);
            let x_s = x_ref.as_slice();

            // --- gather + input transformation into V[tap][c_in][tile] ---
            let input_sp = kernel_block_span(&INPUT_STAGE_SYM, "wino_input_stage", probe);
            for ci in 0..c_in {
                // Extract this channel's tiles into SoA lanes:
                // da[(dy·t + dx)·ntiles + tile] with zero padding.
                da.fill(0.0);
                for (si, s) in range.clone().enumerate() {
                    let ni = s / grid.tiles_h;
                    let ty = s % grid.tiles_h;
                    let y0 = (ty * m) as isize - grid.padding as isize;
                    let plane = (ni * c_in + ci) * h * wd;
                    for dy in 0..t {
                        let iy = y0 + dy as isize;
                        if iy < 0 || iy >= h as isize {
                            continue;
                        }
                        let row = plane + iy as usize * wd;
                        for tx in 0..grid.tiles_w {
                            let tile_idx = si * grid.tiles_w + tx;
                            let x0 = (tx * m) as isize - grid.padding as isize;
                            for dx in 0..t {
                                let ix = x0 + dx as isize;
                                if ix >= 0 && ix < wd as isize {
                                    da[(dy * t + dx) * ntiles + tile_idx] = x_s[row + ix as usize];
                                }
                            }
                        }
                    }
                }
                clock.lap(Phase::Gather);
                // Stage 1: db[r][c] = Σ_k Bᵀ[r,k] · da[k][c], vector over tiles.
                for r in 0..t {
                    for c in 0..t {
                        let dst = &mut db[(r * t + c) * ntiles..(r * t + c + 1) * ntiles];
                        dst.fill(0.0);
                        for k in 0..t {
                            let coeff = bt[r * t + k];
                            if coeff != 0.0 {
                                axpy(
                                    dst,
                                    coeff,
                                    &da[(k * t + c) * ntiles..(k * t + c + 1) * ntiles],
                                );
                            }
                        }
                    }
                }
                // Stage 2: V[r·t+c][ci] = Σ_k db[r][k] · Bᵀ[c,k]. Tile-laned
                // groups write straight into the tap's GEMM operand row;
                // channel-laned groups compute the row in a spare `da` lane
                // (the gather lanes are dead once stage 1 consumed them) and
                // scatter it tile-major into `V[tap][tile][ci]` — the
                // transposed left operand of the thin-layer GEMM.
                {
                    let db_ro: &[f32] = db;
                    let compute_row = |dst: &mut [f32], r: usize, c: usize| {
                        dst.fill(0.0);
                        for k in 0..t {
                            let coeff = bt[c * t + k];
                            if coeff != 0.0 {
                                axpy(
                                    dst,
                                    coeff,
                                    &db_ro[(r * t + k) * ntiles..(r * t + k + 1) * ntiles],
                                );
                            }
                        }
                        if let Some(sc) = input_scales {
                            let s = sc.scale(r, c);
                            let (lo, hi) = (sc.bits().min_value(), sc.bits().max_value());
                            for vv in dst.iter_mut() {
                                let q = ((*vv / s).round() as i32).clamp(lo, hi);
                                *vv = q as f32 * s;
                            }
                        }
                    };
                    if lane_channels {
                        for r in 0..t {
                            for c in 0..t {
                                let tap = r * t + c;
                                let lane = &mut da[tap * ntiles..(tap + 1) * ntiles];
                                compute_row(lane, r, c);
                                for (tile, &val) in lane.iter().enumerate() {
                                    v[(tap * ntiles + tile) * c_in + ci] = val;
                                }
                            }
                        }
                    } else {
                        for r in 0..t {
                            for c in 0..t {
                                let tap = r * t + c;
                                compute_row(
                                    &mut v[(tap * c_in + ci) * ntiles
                                        ..(tap * c_in + ci + 1) * ntiles],
                                    r,
                                    c,
                                );
                            }
                        }
                    }
                }
                clock.lap(Phase::InputTransform);
            }
            drop(input_sp);

            // --- one dense GEMM per tap ---
            let gemm_sp = kernel_block_span(&TAP_GEMM_SYM, "wino_tap_gemm", probe);
            // Tile-laned: M[tap] = U[tap] · V[tap]
            // (`[C_out × C_in] · [C_in × tiles]`). Channel-laned (thin
            // layers): the operands are transposed — M'[tap] = V'[tap] ·
            // U'[tap] (`[tiles × C_in] · [C_in × C_out]`) — so the GEMM's `M`
            // dimension is the handful of tiles (served by the thin `m ≤ 4`
            // microkernels) and its `N` dimension is `c_out`, filling the
            // register lanes a 4-tile call would otherwise waste. The
            // `[tile][co]` product is then transposed into the standard SoA
            // `M[tap][co][tile]` panel (the second half of the scratch), so
            // the back-transform below is layout-agnostic.
            let mm: &mut [f32] = if lane_channels {
                let (gout, soa) = mm.split_at_mut(tt * c_out * ntiles);
                for tap in 0..tt {
                    gemm_f32_into(
                        &mut gout[tap * ntiles * c_out..(tap + 1) * ntiles * c_out],
                        &v[tap * ntiles * c_in..(tap + 1) * ntiles * c_in],
                        &u_tap[tap * c_in * c_out..(tap + 1) * c_in * c_out],
                        ntiles,
                        c_in,
                        c_out,
                    );
                }
                for tap in 0..tt {
                    let src = &gout[tap * ntiles * c_out..(tap + 1) * ntiles * c_out];
                    let dst = &mut soa[tap * c_out * ntiles..(tap + 1) * c_out * ntiles];
                    for co in 0..c_out {
                        for tile in 0..ntiles {
                            dst[co * ntiles + tile] = src[tile * c_out + co];
                        }
                    }
                }
                soa
            } else {
                for tap in 0..tt {
                    gemm_f32_into(
                        &mut mm[tap * c_out * ntiles..(tap + 1) * c_out * ntiles],
                        &u_tap[tap * c_out * c_in..(tap + 1) * c_out * c_in],
                        &v[tap * c_in * ntiles..(tap + 1) * c_in * ntiles],
                        c_out,
                        c_in,
                        ntiles,
                    );
                }
                mm
            };
            clock.lap(Phase::TapGemm);
            drop(gemm_sp);

            // --- output transformation (SoA) + fused epilogue ---
            let output_sp = kernel_block_span(&OUTPUT_STAGE_SYM, "wino_output_stage", probe);
            // Per-strip offsets into the group buffer.
            let strip_offs: Vec<usize> = range
                .clone()
                .scan(0usize, |off, s| {
                    let cur = *off;
                    *off += c_out * m.min(h - (s % grid.tiles_h) * m) * wd;
                    Some(cur)
                })
                .collect();
            for co in 0..c_out {
                // Stage 1: db[r][c] = Σ_k Aᵀ[r,k] · M[k·t+c][co], r < m.
                for r in 0..m {
                    for c in 0..t {
                        let dst = &mut db[(r * t + c) * ntiles..(r * t + c + 1) * ntiles];
                        dst.fill(0.0);
                        for k in 0..t {
                            let coeff = at[r * t + k];
                            if coeff != 0.0 {
                                let tap = k * t + c;
                                axpy(
                                    dst,
                                    coeff,
                                    &mm[(tap * c_out + co) * ntiles
                                        ..(tap * c_out + co + 1) * ntiles],
                                );
                            }
                        }
                    }
                }
                // Stage 2 + epilogue: da[r][c] = Σ_k db[r][k] · Aᵀ[c,k],
                // then bias (and any ReLU that precedes the residual) while
                // the row is hot. A post-residual ReLU must wait for the
                // scatter, where the residual element is read.
                let bv = epi.bias.map_or(0.0, |b| b.as_slice()[co]);
                let soa_relu = epi.pre_add_relu || (epi.relu && residual_slice.is_none());
                let soa_epilogue = epi.bias.is_some() || soa_relu;
                for r in 0..m {
                    for c in 0..m {
                        let dst = &mut da[(r * m + c) * ntiles..(r * m + c + 1) * ntiles];
                        dst.fill(0.0);
                        for k in 0..t {
                            let coeff = at[c * t + k];
                            if coeff != 0.0 {
                                axpy(
                                    dst,
                                    coeff,
                                    &db[(r * t + k) * ntiles..(r * t + k + 1) * ntiles],
                                );
                            }
                        }
                        if soa_epilogue {
                            for vv in dst.iter_mut() {
                                let val = *vv + bv;
                                *vv = if soa_relu { val.max(0.0) } else { val };
                            }
                        }
                    }
                }
                clock.lap(Phase::OutputTransform);
                // Scatter the SoA rows into the strip rows, cropping ragged
                // borders; the residual tail rides here, in-register between
                // load and store.
                let res_s = residual_slice;
                let post_relu = epi.relu && residual_slice.is_some();
                for (si, s) in range.clone().enumerate() {
                    let ni = s / grid.tiles_h;
                    let ty = s % grid.tiles_h;
                    let strip_h = m.min(h - ty * m);
                    let base = strip_offs[si] + co * strip_h * wd;
                    let res_plane = (ni * c_out + co) * h * wd;
                    for tx in 0..grid.tiles_w {
                        let tile_idx = si * grid.tiles_w + tx;
                        let cols = m.min(wd - tx * m);
                        for dy in 0..strip_h {
                            let row = base + dy * wd + tx * m;
                            let res_row = res_plane + (ty * m + dy) * wd + tx * m;
                            for dx in 0..cols {
                                let mut val = da[(dy * m + dx) * ntiles + tile_idx];
                                if let Some(rs) = res_s {
                                    val += rs[res_row + dx];
                                    if post_relu {
                                        val = val.max(0.0);
                                    }
                                }
                                buf[row + dx] = val;
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
        buf
    });

    // The scatter above has read every residual element it needs; an owned
    // residual can now become the output, its buffer overwritten row by row
    // (the merge covers every element, so no stale value survives).
    let merge_sp = kernel_block_span(&MERGE_SYM, "wino_merge", probe);
    let mut merge_clock = PhaseClock::start();
    let mut y = match reuse {
        Some(t) => t,
        None => Tensor::<f32>::zeros(&[n, c_out, h, wd]),
    };
    let y_s = y.as_mut_slice();
    for (range, buf) in ranges.iter().zip(bufs.iter()) {
        let mut off = 0usize;
        for s in range.clone() {
            let ni = s / grid.tiles_h;
            let ty = s % grid.tiles_h;
            let strip_h = m.min(h - ty * m);
            for co in 0..c_out {
                for dy in 0..strip_h {
                    let oy = ty * m + dy;
                    let dst = ((ni * c_out + co) * h + oy) * wd;
                    let src = off + (co * strip_h + dy) * wd;
                    y_s[dst..dst + wd].copy_from_slice(&buf[src..src + wd]);
                }
            }
            off += c_out * strip_h * wd;
        }
    }
    merge_clock.lap(Phase::Scatter);
    if let Some(p) = probe {
        merge_clock.flush(p);
    }
    drop(merge_sp);
    y
}

/// The original per-tile Winograd forward pass over pre-transformed flat
/// `U[co][ci][tap]` weights: each tile accumulates over the input channels
/// with scalar elementwise MACs. Kept as the reference the tap-major path is
/// equivalence-tested and benchmarked against (`tap_major_vs_per_tile`).
fn winograd_forward_flat_per_tile(
    x: &Tensor<f32>,
    u: &[f32],
    c_out: usize,
    mats: &WinogradMatrices,
    input_scales: Option<&TapScaleMatrix>,
    spatial_input: Option<QuantParams>,
) -> Tensor<f32> {
    assert_eq!(x.rank(), 4, "winograd_conv2d: input must be NCHW");
    let (n, c_in, h, wd) = (x.dims()[0], x.dims()[1], x.dims()[2], x.dims()[3]);
    let m = mats.output_tile();
    let t = mats.input_tile();
    let grid = TileGrid::new(h, wd, m, 1);

    let tt = t * t;
    assert_eq!(
        u.len(),
        c_out * c_in * tt,
        "winograd_conv2d: channel mismatch"
    );

    // Spatially (fake-)quantized input if requested; borrowed otherwise.
    let quantized;
    let x_eff: &Tensor<f32> = match spatial_input {
        Some(p) => {
            quantized = x.map(|v| p.fake_quantize(v));
            &quantized
        }
        None => x,
    };

    // Tile rows of distinct (batch, ty) pairs touch disjoint output rows, so
    // they are processed in parallel, each worker filling a private strip
    // buffer of shape [c_out, strip_h, W] that is merged afterwards.
    let strips = n * grid.tiles_h;
    let x_ref = &x_eff;
    let u_ref = u;
    let bt = mats.bt.as_slice();
    let at = mats.at.as_slice();
    let strip_bufs = parallel_map(strips, |s| {
        let ni = s / grid.tiles_h;
        let ty = s % grid.tiles_h;
        let strip_h = m.min(h - ty * m);
        let mut buf = vec![0.0_f32; c_out * strip_h * wd];
        // All scratch is allocated once per strip and reused across tiles.
        let mut v_tiles = vec![0.0_f32; c_in * tt];
        let mut d_tile = vec![0.0_f32; tt];
        let mut tmp = vec![0.0_f32; tt];
        let mut acc = vec![0.0_f32; tt];
        let mut out_tile = vec![0.0_f32; m * m];
        let x_s = x_ref.as_slice();
        for tx in 0..grid.tiles_w {
            // Transform each input tile once and reuse it across output
            // channels.
            let y0 = (ty * m) as isize - grid.padding as isize;
            let x0 = (tx * m) as isize - grid.padding as isize;
            for ci in 0..c_in {
                d_tile.fill(0.0);
                let plane = (ni * c_in + ci) * h * wd;
                for dy in 0..t {
                    let iy = y0 + dy as isize;
                    if iy < 0 || iy >= h as isize {
                        continue;
                    }
                    let row = plane + iy as usize * wd;
                    for dx in 0..t {
                        let ix = x0 + dx as isize;
                        if ix >= 0 && ix < wd as isize {
                            d_tile[dy * t + dx] = x_s[row + ix as usize];
                        }
                    }
                }
                let v = &mut v_tiles[ci * tt..(ci + 1) * tt];
                congruence_into(v, &mut tmp, bt, &d_tile, t, t);
                if let Some(sc) = input_scales {
                    fake_quantize_flat(v, sc);
                }
            }
            for co in 0..c_out {
                acc.fill(0.0);
                let u_row = &u_ref[co * c_in * tt..(co + 1) * c_in * tt];
                for ci in 0..c_in {
                    let v = &v_tiles[ci * tt..(ci + 1) * tt];
                    let uk = &u_row[ci * tt..(ci + 1) * tt];
                    for ((a, &vv), &uu) in acc.iter_mut().zip(v.iter()).zip(uk.iter()) {
                        *a += vv * uu;
                    }
                }
                congruence_into(&mut out_tile, &mut tmp, at, &acc, m, t);
                for dy in 0..strip_h {
                    for dx in 0..m {
                        let ox = tx * m + dx;
                        if ox < wd {
                            buf[(co * strip_h + dy) * wd + ox] = out_tile[dy * m + dx];
                        }
                    }
                }
            }
        }
        buf
    });

    let mut y = Tensor::<f32>::zeros(&[n, c_out, h, wd]);
    let y_s = y.as_mut_slice();
    for (s, buf) in strip_bufs.iter().enumerate() {
        let ni = s / grid.tiles_h;
        let ty = s % grid.tiles_h;
        let strip_h = m.min(h - ty * m);
        for co in 0..c_out {
            for dy in 0..strip_h {
                let oy = ty * m + dy;
                let dst = ((ni * c_out + co) * h + oy) * wd;
                let src = (co * strip_h + dy) * wd;
                y_s[dst..dst + wd].copy_from_slice(&buf[src..src + wd]);
            }
        }
    }
    y
}

/// A 3×3 convolution with its FP32 Winograd weight transformation done once.
///
/// [`winograd_conv2d`] re-transforms the weights on every call; for repeated
/// (serving-style) runs over a fixed network the transformation is pure
/// overhead, so the graph executor prepares each conv node once at plan time
/// and calls [`PreparedWinogradConv::forward`] per batch.
#[derive(Debug, Clone)]
pub struct PreparedWinogradConv {
    tile: TileSize,
    mats: WinogradMatrices,
    c_out: usize,
    c_in: usize,
    /// Flat `U[co][ci][tap]` weights (the per-tile reference layout).
    u: Vec<f32>,
    /// Tap-major `U[tap][co][ci]` weights (the GEMM layout).
    u_tap: Vec<f32>,
    /// Channel-laned `U[tap][ci][co]` weights, built lazily on the first
    /// thin-layer forward (most prepared layers never run the thin path, and
    /// an eager copy would grow every node's weight footprint by a third).
    u_tap_t: OnceLock<Vec<f32>>,
    /// Optional per-phase profiling sink (attached by the graph executor).
    probe: Option<Arc<PhaseProbe>>,
}

impl PreparedWinogradConv {
    /// Transforms OIHW 3×3 `weights` into the Winograd domain of `tile`.
    ///
    /// # Panics
    ///
    /// Panics if the weights are not an OIHW 3×3 tensor.
    pub fn prepare(weights: &Tensor<f32>, tile: TileSize) -> Self {
        let mats = WinogradMatrices::for_tile(tile);
        let u = transform_weights_flat(weights, &mats, None);
        let (c_out, c_in) = (weights.dims()[0], weights.dims()[1]);
        let u_tap = tap_major_weights(&u, c_out, c_in, mats.input_tile());
        Self {
            tile,
            c_out,
            c_in,
            mats,
            u,
            u_tap,
            u_tap_t: OnceLock::new(),
            probe: None,
        }
    }

    /// Attaches a phase probe: every tap-major forward over these weights
    /// accumulates its per-phase block timings there (only while
    /// `wino_trace::Detail::Full` is active).
    pub fn set_probe(&mut self, probe: Arc<PhaseProbe>) {
        self.probe = Some(probe);
    }

    /// The attached phase probe, if any.
    pub fn probe(&self) -> Option<&Arc<PhaseProbe>> {
        self.probe.as_ref()
    }

    /// The tile size the weights were transformed for.
    pub fn tile(&self) -> TileSize {
        self.tile
    }

    /// Whether a forward pass over a `batch × … × h × w` input runs the
    /// tap-major pipeline — tile-laned for ample tiles, channel-laned for
    /// thin layers with enough output channels — rather than the per-tile
    /// fallback. The single source of truth for that decision — the graph
    /// executor's in-place residual stealing must agree with the kernel's
    /// own fallback, or a stolen buffer would be dropped instead of written
    /// into.
    pub(crate) fn uses_tap_major(&self, batch: usize, h: usize, w: usize) -> bool {
        let m = self.mats.output_tile();
        let tiles = batch * h.div_ceil(m) * w.div_ceil(m);
        tiles >= MIN_TAP_MAJOR_TILES || self.c_out >= CHANNEL_LANE_MIN_COUT
    }

    /// Whether the batched path lanes the per-tap GEMMs over output channels
    /// rather than tiles for this geometry (thin layers: too few tiles to
    /// fill the microkernel's `N` lanes, enough output channels to fill them
    /// the transposed way — the 512×512×7 ResNet shape).
    pub(crate) fn lanes_channels(&self, batch: usize, h: usize, w: usize) -> bool {
        let m = self.mats.output_tile();
        thin_layer_lanes_channels(batch * h.div_ceil(m) * w.div_ceil(m), self.c_out)
    }

    /// The per-tap GEMM weight operand for this geometry, building the
    /// channel-laned transpose on first use.
    fn gemm_weights(&self, batch: usize, h: usize, w: usize) -> TapWeights<'_> {
        if self.lanes_channels(batch, h, w) {
            let tt = self.mats.input_tile() * self.mats.input_tile();
            TapWeights::ChannelLanes(
                self.u_tap_t
                    .get_or_init(|| channel_lane_weights(&self.u_tap, self.c_out, self.c_in, tt)),
            )
        } else {
            TapWeights::TileLanes(&self.u_tap)
        }
    }

    /// Output channels of the prepared layer.
    pub fn c_out(&self) -> usize {
        self.c_out
    }

    /// Runs the convolution on an NCHW input (unit stride, "same" padding 1).
    ///
    /// # Panics
    ///
    /// Panics if the input channel count differs from the prepared weights.
    pub fn forward(&self, x: &Tensor<f32>) -> Tensor<f32> {
        self.forward_fused(x, None, false)
    }

    /// Runs the convolution with the bias add and/or ReLU fused into the
    /// output-transformation epilogue: each output tile is rectified while it
    /// is still in registers, so a `conv → relu` pair costs no extra pass
    /// over the activation.
    ///
    /// # Panics
    ///
    /// Panics if the input channel count or bias length disagrees with the
    /// prepared weights.
    pub fn forward_fused(
        &self,
        x: &Tensor<f32>,
        bias: Option<&Tensor<f32>>,
        relu: bool,
    ) -> Tensor<f32> {
        self.forward_with_epilogue(x, &EpilogueOps::bias_relu(bias, relu))
    }

    /// Runs the convolution with the full [`EpilogueOps`] tail — bias,
    /// optional residual add and pre-/post-residual ReLU — fused into the
    /// output-transformation epilogue, eliminating the separate
    /// pre-activation write+read a `conv → add → relu` chain would pay.
    ///
    /// Bitwise identical to running the bare convolution followed by
    /// [`apply_epilogue`] (pinned by tests): the fused stage evaluates the
    /// same elementwise expression in the same order.
    ///
    /// # Panics
    ///
    /// Panics if the input channel count, bias length or residual shape
    /// disagrees with the prepared weights and input geometry.
    pub fn forward_with_epilogue(&self, x: &Tensor<f32>, epi: &EpilogueOps) -> Tensor<f32> {
        assert_eq!(x.rank(), 4, "winograd_conv2d: input must be NCHW");
        assert_eq!(x.dims()[1], self.c_in, "winograd_conv2d: channel mismatch");
        if !self.uses_tap_major(x.dims()[0], x.dims()[2], x.dims()[3]) {
            // Too few tiles to feed the per-tap GEMMs; run the per-tile
            // kernel and apply the epilogue as passes (identical values: the
            // per-element updates are the same, in the same order).
            let mut y =
                winograd_forward_flat_per_tile(x, &self.u, self.c_out, &self.mats, None, None);
            apply_epilogue(&mut y, epi);
            return y;
        }
        let u = self.gemm_weights(x.dims()[0], x.dims()[2], x.dims()[3]);
        winograd_forward_tap_major(
            x,
            u,
            self.c_out,
            &self.mats,
            None,
            None,
            epi,
            self.probe.as_deref(),
        )
    }

    /// [`PreparedWinogradConv::forward_with_epilogue`] with an **owned**
    /// residual: the fused output is written into the residual's own buffer,
    /// so a `conv → add → relu` tail whose add was the residual's last
    /// consumer allocates no third activation. Returns the residual tensor,
    /// now holding the finished output — bitwise identical to the borrowing
    /// path (same expression, same order; the buffer reuse is invisible to
    /// the values).
    ///
    /// On the small-tile fallback the per-tile kernel still allocates its
    /// own output and the residual buffer is dropped; the values are the
    /// same either way.
    ///
    /// # Panics
    ///
    /// Panics if the input channel count, bias length or residual shape
    /// disagrees with the prepared weights and input geometry.
    pub fn forward_with_epilogue_into(
        &self,
        x: &Tensor<f32>,
        bias: Option<&Tensor<f32>>,
        pre_add_relu: bool,
        relu: bool,
        residual: Tensor<f32>,
    ) -> Tensor<f32> {
        assert_eq!(x.rank(), 4, "winograd_conv2d: input must be NCHW");
        assert_eq!(x.dims()[1], self.c_in, "winograd_conv2d: channel mismatch");
        if !self.uses_tap_major(x.dims()[0], x.dims()[2], x.dims()[3]) {
            let mut y =
                winograd_forward_flat_per_tile(x, &self.u, self.c_out, &self.mats, None, None);
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
        let epi = EpilogueOps {
            bias,
            residual: None,
            pre_add_relu,
            relu,
        };
        let u = self.gemm_weights(x.dims()[0], x.dims()[2], x.dims()[3]);
        winograd_forward_tap_major_impl(
            x,
            u,
            self.c_out,
            &self.mats,
            None,
            None,
            &epi,
            Some(residual),
            self.probe.as_deref(),
        )
    }

    /// The original per-tile forward pass (scalar channel-accumulate loops).
    ///
    /// Kept as the numerical reference for the tap-major rewrite: the
    /// `tap_major_vs_per_tile` bench group measures one against the other,
    /// and the equivalence tests bound their difference. Not used by any
    /// production path.
    pub fn forward_per_tile(&self, x: &Tensor<f32>) -> Tensor<f32> {
        assert_eq!(x.rank(), 4, "winograd_conv2d: input must be NCHW");
        assert_eq!(x.dims()[1], self.c_in, "winograd_conv2d: channel mismatch");
        winograd_forward_flat_per_tile(x, &self.u, self.c_out, &self.mats, None, None)
    }
}

/// Fake-quantized Winograd convolution following the tap-wise scheme.
///
/// The spatial input is quantized to `cfg.spatial_bits`, the Winograd-domain
/// inputs and weights are quantized tap-wise to `cfg.wino_bits` with the
/// provided `scales`, products are accumulated exactly, and the result is
/// transformed back. This is the forward pass used during Winograd-aware
/// training and for the accuracy ablations of Tables II and III.
pub fn winograd_conv2d_fake_quant(
    x: &Tensor<f32>,
    w: &Tensor<f32>,
    cfg: &WinogradQuantConfig,
    scales: &TapwiseScales,
    input_max: f32,
) -> Tensor<f32> {
    let mats = WinogradMatrices::for_tile(cfg.tile);
    let spatial = QuantParams::from_max(input_max, cfg.spatial_bits);
    let spatial = match cfg.mode {
        crate::tapwise::ScaleMode::PowerOfTwo => spatial.to_power_of_two(),
        crate::tapwise::ScaleMode::Float => spatial,
    };
    winograd_conv2d_with(x, w, &mats, Some(scales), Some(spatial))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quant::QuantBits;
    use crate::tapwise::ScaleMode;
    use wino_tensor::{conv2d_direct, normal, ConvParams};

    #[test]
    fn fp32_winograd_matches_direct_for_all_tiles() {
        let x = normal(&[2, 3, 12, 12], 0.0, 1.0, 100);
        let w = normal(&[5, 3, 3, 3], 0.0, 0.5, 101);
        let reference = conv2d_direct(&x, &w, None, ConvParams::same_3x3());
        for tile in TileSize::all() {
            let y = winograd_conv2d(&x, &w, tile);
            let err = y.relative_error(&reference);
            assert!(err < 1e-4, "{tile}: relative error {err}");
        }
    }

    #[test]
    fn non_multiple_spatial_sizes_are_cropped_correctly() {
        // 7x9 output is not a multiple of 4: the F4 path must pad tiles with
        // zeros and crop the result.
        let x = normal(&[1, 2, 7, 9], 0.0, 1.0, 102);
        let w = normal(&[3, 2, 3, 3], 0.0, 0.5, 103);
        let reference = conv2d_direct(&x, &w, None, ConvParams::same_3x3());
        for tile in [TileSize::F2, TileSize::F4, TileSize::F6] {
            let y = winograd_conv2d(&x, &w, tile);
            assert_eq!(y.dims(), reference.dims());
            assert!(y.relative_error(&reference) < 1e-4, "{tile}");
        }
    }

    #[test]
    fn single_pixel_input_works() {
        let x = normal(&[1, 1, 1, 1], 0.0, 1.0, 104);
        let w = normal(&[1, 1, 3, 3], 0.0, 1.0, 105);
        let reference = conv2d_direct(&x, &w, None, ConvParams::same_3x3());
        let y = winograd_conv2d(&x, &w, TileSize::F4);
        assert!(y.max_abs_diff(&reference) < 1e-5);
    }

    #[test]
    fn tap_major_tracks_per_tile_reference() {
        let x = normal(&[2, 5, 13, 9], 0.0, 1.0, 140);
        let w = normal(&[7, 5, 3, 3], 0.0, 0.4, 141);
        for tile in TileSize::all() {
            let prep = PreparedWinogradConv::prepare(&w, tile);
            let fast = prep.forward(&x);
            let slow = prep.forward_per_tile(&x);
            let err = fast.relative_error(&slow);
            assert!(err < 1e-5, "{tile}: tap-major drifted from per-tile {err}");
        }
    }

    #[test]
    fn fused_epilogue_equals_separate_bias_and_relu() {
        let x = normal(&[1, 4, 11, 11], 0.0, 1.0, 142);
        let w = normal(&[6, 4, 3, 3], 0.0, 0.4, 143);
        let bias = normal(&[6], 0.0, 0.5, 144);
        let prep = PreparedWinogradConv::prepare(&w, TileSize::F4);
        let fused = prep.forward_fused(&x, Some(&bias), true);
        // Separate: plain forward, then bias broadcast, then ReLU — must be
        // bitwise identical (the epilogue only reorders nothing, it appends).
        let mut separate = prep.forward(&x);
        let (hw, c_out) = (11 * 11, 6);
        for co in 0..c_out {
            let bv = bias.as_slice()[co];
            for v in &mut separate.as_mut_slice()[co * hw..(co + 1) * hw] {
                *v = (*v + bv).max(0.0);
            }
        }
        assert_eq!(fused, separate, "fused epilogue must be bitwise identical");
    }

    #[test]
    fn residual_epilogue_is_bitwise_equal_to_separate_passes() {
        use crate::epilogue::{apply_epilogue, EpilogueOps};
        // Both the tap-major path (13×13 ⇒ many tiles) and the per-tile
        // fallback (3×3 ⇒ below MIN_TAP_MAJOR_TILES) must match the
        // separate-pass reference bit for bit, for every epilogue shape.
        for (h, w) in [(13usize, 11usize), (3, 3)] {
            let x = normal(&[2, 4, h, w], 0.0, 1.0, 150);
            let wt = normal(&[6, 4, 3, 3], 0.0, 0.4, 151);
            let res = normal(&[2, 6, h, w], 0.0, 1.0, 152);
            let bias = normal(&[6], 0.0, 0.5, 153);
            let prep = PreparedWinogradConv::prepare(&wt, TileSize::F4);
            for (pre, post) in [(false, false), (false, true), (true, false)] {
                let ops = EpilogueOps {
                    bias: Some(&bias),
                    residual: Some(&res),
                    pre_add_relu: pre,
                    relu: post,
                };
                let fused = prep.forward_with_epilogue(&x, &ops);
                let mut separate = prep.forward(&x);
                apply_epilogue(&mut separate, &ops);
                assert_eq!(
                    fused, separate,
                    "{h}x{w} pre={pre} post={post}: fused epilogue drifted"
                );
            }
        }
    }

    #[test]
    fn channel_laned_thin_layers_match_per_tile_and_fuse_bitwise() {
        use crate::epilogue::{apply_epilogue, EpilogueOps};
        // A 7×7 / F4 input has 4 tiles — below MIN_TAP_MAJOR_TILES — but 16
        // output channels, so the batched path lanes the tap GEMMs over
        // c_out instead of falling back to the per-tile kernel.
        let x = normal(&[1, 8, 7, 7], 0.0, 1.0, 160);
        let wt = normal(&[16, 8, 3, 3], 0.0, 0.4, 161);
        let res = normal(&[1, 16, 7, 7], 0.0, 1.0, 162);
        let bias = normal(&[16], 0.0, 0.5, 163);
        let prep = PreparedWinogradConv::prepare(&wt, TileSize::F4);
        assert!(prep.uses_tap_major(1, 7, 7), "thin+wide must batch");
        assert!(prep.lanes_channels(1, 7, 7), "thin+wide must lane channels");
        let fast = prep.forward(&x);
        let slow = prep.forward_per_tile(&x);
        let err = fast.relative_error(&slow);
        assert!(err < 1e-5, "channel-laned drifted from per-tile: {err}");
        // The fused epilogue must stay bitwise equal to separate passes on
        // the channel-laned path too.
        let ops = EpilogueOps {
            bias: Some(&bias),
            residual: Some(&res),
            pre_add_relu: false,
            relu: true,
        };
        let fused = prep.forward_with_epilogue(&x, &ops);
        let mut separate = prep.forward(&x);
        apply_epilogue(&mut separate, &ops);
        assert_eq!(fused, separate, "channel-laned fused epilogue drifted");
        // The owned-residual variant must honour the buffer on this path.
        let into = prep.forward_with_epilogue_into(&x, Some(&bias), false, true, res.clone());
        assert_eq!(into, fused, "owned-residual channel-laned path drifted");
    }

    #[test]
    fn fake_quant_f4_tracks_reference_within_quantization_noise() {
        let x = normal(&[1, 4, 16, 16], 0.0, 1.0, 106);
        let w = normal(&[4, 4, 3, 3], 0.0, 0.3, 107);
        let reference = conv2d_direct(&x, &w, None, ConvParams::same_3x3());
        let cfg = WinogradQuantConfig::tapwise_po2(TileSize::F4, 8);
        let mats = WinogradMatrices::for_tile(TileSize::F4);
        let scales = TapwiseScales::calibrate(&w, &x, &mats, cfg.wino_bits, cfg.mode);
        let y = winograd_conv2d_fake_quant(&x, &w, &cfg, &scales, x.abs_max());
        let err = y.relative_error(&reference);
        assert!(
            err < 0.20,
            "int8 tap-wise F4 relative error too high: {err}"
        );
    }

    #[test]
    fn ten_bit_winograd_domain_is_more_accurate_than_eight() {
        let x = normal(&[1, 8, 16, 16], 0.0, 1.0, 108);
        let w = normal(&[8, 8, 3, 3], 0.0, 0.3, 109);
        let reference = conv2d_direct(&x, &w, None, ConvParams::same_3x3());
        let mats = WinogradMatrices::for_tile(TileSize::F4);

        let mut errs = Vec::new();
        for bits in [8u8, 10u8] {
            let cfg = WinogradQuantConfig {
                tile: TileSize::F4,
                spatial_bits: QuantBits::int8(),
                wino_bits: QuantBits::new(bits),
                tapwise: true,
                mode: ScaleMode::PowerOfTwo,
            };
            let scales = TapwiseScales::calibrate(&w, &x, &mats, cfg.wino_bits, cfg.mode);
            let y = winograd_conv2d_fake_quant(&x, &w, &cfg, &scales, x.abs_max());
            errs.push(y.relative_error(&reference));
        }
        assert!(
            errs[1] < errs[0],
            "int8/10 ({}) should beat int8 ({})",
            errs[1],
            errs[0]
        );
    }
}
