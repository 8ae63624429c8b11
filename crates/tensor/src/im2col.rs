//! Convolution as one matrix product per image: the prepared GEMM path.
//!
//! The baseline accelerator of the paper lowers every convolution with an
//! im2col engine (MTE1) and feeds the Cube Unit; in this workspace that is
//! the kernel of every layer the Winograd paths do not take (1×1, strided,
//! 7×7). [`PreparedGemmConv`] is its one implementation:
//!
//! * **Weights are the left operand, packed once.** OIHW weights *are* the
//!   row-major `[C_out × C_in·K²]` matrix; [`PreparedGemmConv::prepare`] lays
//!   it out as the per-[`BLOCK_K`] row panels [`sweep_f32`] reads. Nothing
//!   about the weights is touched per call.
//! * **Activations are the right operand, so `Y[n] = W · X[n]` lands in
//!   NCHW.** `X[n]` is the transposed lowering `[C_in·K² × H_out·W_out]`:
//!   row `(c, ky, kx)` holds, for every output pixel, the input value under
//!   that kernel tap (zero in the padding). It is never materialised — each
//!   row is gathered straight into the thread-parked `B` panel, one
//!   [`BLOCK_N`]-pixel column block and one `K` block at a time, so the panel
//!   stays in L2. For a 1×1 stride-1 layer the rows are the input's channel
//!   planes as they lie in memory.
//! * **The epilogue runs on the finished block.** Bias → pre-add ReLU →
//!   residual → ReLU ([`EpilogueOps`]) are applied to each block of output
//!   rows right after its last `K` block, while it is cache-hot.
//! * **Row chunks of `W` × images are the parallel unit**: one chunk per
//!   worker thread, spread over the batch first.
//!
//! The `f32` summation order is that of [`crate::gemm::gemm_f32`]: per output
//! element one sequential-`k` multiply-add chain inside each 256-deep `K`
//! block, the first block stored, later blocks added. Multiplication
//! commutes exactly, so `W · X` is **bit-identical** per kernel variant to
//! the textbook `gemm_f32(im2col(x), wᵀ)` + [`apply_epilogue`] formulation,
//! which [`im2col`] keeps available as the test oracle.
//!
//! [`apply_epilogue`]: crate::epilogue::apply_epilogue

use crate::conv::ConvParams;
use crate::epilogue::EpilogueOps;
use crate::gemm::{f32_block, pack_a_panel_f32, sweep_f32, with_f32_b_panel, BLOCK_K, MR_THIN};
use crate::parallel::{max_threads, parallel_for_each};
use crate::simd::{self, KernelVariant};
use crate::tensor::Tensor;

/// Output pixels per column block: with [`BLOCK_K`] rows the gathered `B`
/// panel is 256 KiB, resident in L2 while every row panel of `W` sweeps it.
/// A multiple of every microkernel's column width.
const BLOCK_N: usize = 256;

/// Lowers an NCHW input into the im2col matrix of shape
/// `[N * H_out * W_out, C_in * K * K]`.
///
/// Each row contains the receptive field of one output pixel, laid out as
/// `(c_in, ky, kx)` in row-major order, with zero padding materialised as
/// explicit zeros. [`PreparedGemmConv`] multiplies by the transpose of this
/// matrix without building it; the explicit form remains as the oracle its
/// tests compare against.
///
/// # Panics
///
/// Panics if `x` is not 4-D.
pub fn im2col(x: &Tensor<f32>, params: ConvParams) -> Tensor<f32> {
    assert_eq!(x.rank(), 4, "im2col: input must be NCHW");
    let (n, c_in, h, w) = (x.dims()[0], x.dims()[1], x.dims()[2], x.dims()[3]);
    let (h_out, w_out) = params.output_hw(h, w);
    let k = params.kernel;
    let rows = n * h_out * w_out;
    let cols = c_in * k * k;
    let mut out = Tensor::<f32>::zeros(&[rows, cols]);

    let pad = params.padding as isize;
    let stride = params.stride as isize;
    let mut row = 0usize;
    for ni in 0..n {
        for oy in 0..h_out {
            for ox in 0..w_out {
                let iy0 = oy as isize * stride - pad;
                let ix0 = ox as isize * stride - pad;
                let mut col = 0usize;
                for ci in 0..c_in {
                    for ky in 0..k {
                        let iy = iy0 + ky as isize;
                        for kx in 0..k {
                            let ix = ix0 + kx as isize;
                            let v = if iy >= 0 && iy < h as isize && ix >= 0 && ix < w as isize {
                                x.at4(ni, ci, iy as usize, ix as usize)
                            } else {
                                0.0
                            };
                            out.set2(row, col, v);
                            col += 1;
                        }
                    }
                }
                row += 1;
            }
        }
    }
    out
}

/// One convolution layer prepared for the GEMM path: its weights packed once
/// as the left operand of `Y[n] = W · X[n]`. See the module docs.
#[derive(Debug, Clone)]
pub struct PreparedGemmConv {
    params: ConvParams,
    c_out: usize,
    c_in: usize,
    variant: KernelVariant,
    /// `W` as `K` blocks of `⌈C_out / MR⌉` row panels: the panel of rows
    /// `i0..i0 + MR` in the block starting at `k0` (depth `kc`) begins at
    /// `k0 · C_out_padded + i0 · kc`, element `(kk, r)` at `kk · MR + r`.
    panels: Vec<f32>,
}

/// Where one image's transposed-lowering rows come from.
#[derive(Clone, Copy)]
struct Geometry {
    h: usize,
    w: usize,
    w_out: usize,
    pixels: usize,
}

impl PreparedGemmConv {
    /// Packs OIHW weights for the process-wide [`simd::active`] kernel.
    ///
    /// # Panics
    ///
    /// Panics if `w` is not 4-D with `params.kernel`-square filters.
    pub fn prepare(w: &Tensor<f32>, params: ConvParams) -> Self {
        Self::prepare_with(simd::active(), w, params)
    }

    /// [`PreparedGemmConv::prepare`] for an explicit kernel variant — the
    /// equivalence-test and benchmark entry point. A variant foreign to this
    /// build's architecture runs the scalar kernels.
    ///
    /// # Panics
    ///
    /// Panics if `w` is not 4-D with `params.kernel`-square filters.
    pub fn prepare_with(variant: KernelVariant, w: &Tensor<f32>, params: ConvParams) -> Self {
        assert_eq!(w.rank(), 4, "conv2d_im2col: weights must be OIHW");
        let (c_out, c_in) = (w.dims()[0], w.dims()[1]);
        assert_eq!(w.dims()[2], params.kernel, "conv2d_im2col: kernel height");
        assert_eq!(w.dims()[3], params.kernel, "conv2d_im2col: kernel width");
        let k = c_in * params.kernel * params.kernel;
        let thin = c_out <= MR_THIN;
        let (mrp, _) = f32_block(variant, thin);
        let m_pad = c_out.next_multiple_of(mrp);
        let mut panels = vec![0.0_f32; k * m_pad];
        for k0 in (0..k).step_by(BLOCK_K) {
            let kc = BLOCK_K.min(k - k0);
            let block = &mut panels[k0 * m_pad..(k0 + kc) * m_pad];
            for (ib, panel) in block.chunks_exact_mut(kc * mrp).enumerate() {
                let i0 = ib * mrp;
                let rows = mrp.min(c_out - i0);
                pack_a_panel_f32(thin, panel, w.as_slice(), k, i0, rows, k0, kc);
            }
        }
        Self {
            params,
            c_out,
            c_in,
            variant,
            panels,
        }
    }

    /// Whether the layer is narrow enough for the 4-row wide-column kernels.
    fn thin(&self) -> bool {
        self.c_out <= MR_THIN
    }

    /// The `(MR, NR)` register block of this layer's microkernel.
    fn block(&self) -> (usize, usize) {
        f32_block(self.variant, self.thin())
    }

    /// Runs the convolution on NCHW `x` with the fused epilogue `ops`,
    /// allocating only the output tensor.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not 4-D with the layer's input channels, or the
    /// epilogue operands disagree with the output shape.
    pub fn forward(&self, x: &Tensor<f32>, ops: &EpilogueOps) -> Tensor<f32> {
        assert_eq!(x.rank(), 4, "conv2d_im2col: input must be NCHW");
        let (n, h, w) = (x.dims()[0], x.dims()[2], x.dims()[3]);
        assert_eq!(x.dims()[1], self.c_in, "conv2d_im2col: channel mismatch");
        let (h_out, w_out) = self.params.output_hw(h, w);
        let dims = [n, self.c_out, h_out, w_out];
        ops.check(&dims);
        let geo = Geometry {
            h,
            w,
            w_out,
            pixels: h_out * w_out,
        };
        let mut y = vec![0.0_f32; n * self.c_out * geo.pixels];
        if !y.is_empty() {
            // One row chunk per worker, spread over the batch first; every
            // chunk gathers its own `B` panels, so more would repeat work.
            let (mrp, _) = self.block();
            let per_image = max_threads().div_ceil(n);
            let chunk_rows = self.c_out.div_ceil(per_image).next_multiple_of(mrp);
            let image_len = self.c_in * h * w;
            let items = y
                .chunks_mut(self.c_out * geo.pixels)
                .enumerate()
                .flat_map(|(ni, yi)| {
                    yi.chunks_mut(chunk_rows * geo.pixels)
                        .enumerate()
                        .map(move |(blk, c)| (ni, blk * chunk_rows, c))
                });
            parallel_for_each(items, |(ni, i0, c)| {
                // `image_len` is zero for a channel-less input.
                let xi = &x.as_slice()[ni * image_len..(ni + 1) * image_len];
                self.run_rows(xi, geo, ni, i0, c, ops);
            });
        }
        Tensor::from_vec(y, &dims).expect("conv2d_im2col output shape")
    }

    /// Output rows `i0..i0 + c.len() / pixels` of image `ni`: column block by
    /// column block, `K` block by `K` block, then the epilogue on the block.
    fn run_rows(
        &self,
        xi: &[f32],
        geo: Geometry,
        ni: usize,
        i0: usize,
        c: &mut [f32],
        ops: &EpilogueOps,
    ) {
        let thin = self.thin();
        let (mrp, nrp) = self.block();
        let k = self.c_in * self.params.kernel * self.params.kernel;
        let m_pad = self.c_out.next_multiple_of(mrp);
        let rows = c.len() / geo.pixels;
        let a_len = rows.next_multiple_of(mrp);
        with_f32_b_panel(BLOCK_K.min(k) * BLOCK_N, |panel| {
            for j0 in (0..geo.pixels).step_by(BLOCK_N) {
                let nc = BLOCK_N.min(geo.pixels - j0);
                for k0 in (0..k).step_by(BLOCK_K) {
                    let kc = BLOCK_K.min(k - k0);
                    let bp = &mut panel[..kc * nc.next_multiple_of(nrp)];
                    self.gather_panel(bp, xi, geo, k0, kc, j0, nc, nrp);
                    let ap = &self.panels[k0 * m_pad + i0 * kc..][..a_len * kc];
                    // The column block of `C`: row stride one image plane,
                    // stored by the first `K` block and added to by the rest.
                    let (v, c_block, ldc) = (self.variant, &mut c[j0..], geo.pixels);
                    sweep_f32(v, thin, c_block, ldc, rows, nc, kc, ap, bp, k0 > 0);
                }
                for (r, row) in c.chunks_exact_mut(geo.pixels).enumerate() {
                    let at = (ni * self.c_out + i0 + r) * geo.pixels + j0;
                    ops.apply_row(&mut row[j0..j0 + nc], i0 + r, at);
                }
            }
        });
    }

    /// Writes rows `k0..k0 + kc` × pixels `j0..j0 + nc` of the transposed
    /// lowering of image `xi` into `nrp`-wide column panels
    /// `dst[(jb · kc + kk) · nrp + j]`, zero-padding the ragged last panel.
    #[allow(clippy::too_many_arguments)]
    fn gather_panel(
        &self,
        dst: &mut [f32],
        xi: &[f32],
        geo: Geometry,
        k0: usize,
        kc: usize,
        j0: usize,
        nc: usize,
        nrp: usize,
    ) {
        let ConvParams {
            kernel,
            stride,
            padding,
        } = self.params;
        let in_place = kernel == 1 && stride == 1 && padding == 0;
        let mut gathered = [0.0_f32; BLOCK_N];
        for kk in 0..kc {
            let r = k0 + kk;
            let plane = &xi[r / (kernel * kernel) * geo.h * geo.w..][..geo.h * geo.w];
            let src = if in_place {
                // The lowering of a pointwise layer is the input itself.
                &plane[j0..j0 + nc]
            } else {
                let (ky, kx) = (r / kernel % kernel, r % kernel);
                gather_row(&mut gathered[..nc], plane, geo, stride, padding, ky, kx, j0);
                &gathered[..nc]
            };
            for (jb, cols) in src.chunks(nrp).enumerate() {
                let d = &mut dst[(jb * kc + kk) * nrp..][..nrp];
                d[..cols.len()].copy_from_slice(cols);
                d[cols.len()..].fill(0.0);
            }
        }
    }
}

/// One row of the transposed lowering: `dst[q]` is the input value kernel
/// tap `(ky, kx)` reads for output pixel `p0 + q` of `plane` (one channel,
/// `h × w`), zero where the tap falls in the padding.
#[allow(clippy::too_many_arguments)]
fn gather_row(
    dst: &mut [f32],
    plane: &[f32],
    geo: Geometry,
    stride: usize,
    pad: usize,
    ky: usize,
    kx: usize,
    p0: usize,
) {
    // Output columns whose tap lands inside the row: `0 ≤ ox·stride + kx −
    // pad < w`.
    let ox_lo = pad.saturating_sub(kx).div_ceil(stride);
    let ox_hi = (geo.w + pad)
        .checked_sub(kx + 1)
        .map_or(0, |last| (last / stride + 1).min(geo.w_out));
    let (mut oy, mut ox) = (p0 / geo.w_out, p0 % geo.w_out);
    let mut q = 0;
    while q < dst.len() {
        // The run of output row `oy` this block covers: columns `ox..ox + seg`.
        let seg = (geo.w_out - ox).min(dst.len() - q);
        let out = &mut dst[q..q + seg];
        let iy = (oy * stride + ky).wrapping_sub(pad);
        let a = ox_lo.clamp(ox, ox + seg);
        let b = ox_hi.clamp(a, ox + seg);
        if iy >= geo.h || a == b {
            out.fill(0.0);
        } else {
            let row = &plane[iy * geo.w..(iy + 1) * geo.w];
            let first = a * stride + kx - pad;
            out[..a - ox].fill(0.0);
            out[b - ox..].fill(0.0);
            let live = &mut out[a - ox..b - ox];
            if stride == 1 {
                live.copy_from_slice(&row[first..first + live.len()]);
            } else {
                for (d, s) in live.iter_mut().zip(row[first..].iter().step_by(stride)) {
                    *d = *s;
                }
            }
        }
        q += seg;
        ox = 0;
        oy += 1;
    }
}

/// Convolution through the prepared GEMM path, returning NCHW output: packs
/// the weights and runs once. A layer that runs more than once should keep
/// its [`PreparedGemmConv`].
///
/// Produces results identical (up to FP32 rounding) to
/// [`crate::conv::conv2d_direct`]; used both as a cross-check and as the
/// functional model of the accelerator's baseline kernel.
///
/// # Panics
///
/// Panics on inconsistent shapes.
pub fn conv2d_im2col(
    x: &Tensor<f32>,
    w: &Tensor<f32>,
    bias: Option<&Tensor<f32>>,
    params: ConvParams,
) -> Tensor<f32> {
    PreparedGemmConv::prepare(w, params).forward(x, &EpilogueOps::bias_relu(bias, false))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conv::conv2d_direct;
    use crate::init::normal;

    #[test]
    fn im2col_shape_and_padding_zeros() {
        let x = Tensor::<f32>::filled(&[1, 2, 4, 4], 1.0);
        let m = im2col(&x, ConvParams::same_3x3());
        assert_eq!(m.dims(), &[16, 18]);
        // The very first row corresponds to output pixel (0,0); its top-left
        // taps fall in the padding and must be zero.
        assert_eq!(m.at2(0, 0), 0.0);
        assert_eq!(m.at2(0, 4), 1.0); // centre tap of channel 0
    }

    #[test]
    fn matches_direct_convolution() {
        let x = normal(&[2, 3, 7, 7], 0.0, 1.0, 11);
        let w = normal(&[4, 3, 3, 3], 0.0, 0.5, 12);
        let bias = normal(&[4], 0.0, 0.1, 13);
        let p = ConvParams::same_3x3();
        let a = conv2d_direct(&x, &w, Some(&bias), p);
        let b = conv2d_im2col(&x, &w, Some(&bias), p);
        assert!(a.max_abs_diff(&b) < 1e-4);
    }

    #[test]
    fn matches_direct_for_strided_and_unpadded() {
        let x = normal(&[1, 2, 9, 9], 0.0, 1.0, 21);
        let w = normal(&[3, 2, 3, 3], 0.0, 1.0, 22);
        for p in [
            ConvParams::new(3, 2, 1),
            ConvParams::new(3, 1, 0),
            ConvParams::new(1, 1, 0),
        ] {
            let w1 = if p.kernel == 1 {
                normal(&[3, 2, 1, 1], 0.0, 1.0, 23)
            } else {
                w.clone()
            };
            let a = conv2d_direct(&x, &w1, None, p);
            let b = conv2d_im2col(&x, &w1, None, p);
            assert!(a.max_abs_diff(&b) < 1e-4, "mismatch for {p:?}");
        }
    }

    #[test]
    fn gathered_rows_are_the_columns_of_the_lowered_matrix() {
        // Padding wider than the kernel reach, a tap that never lands inside
        // the image, and a block that starts mid-row.
        for (h, w, p) in [
            (5, 7, ConvParams::new(3, 2, 1)),
            (4, 3, ConvParams::new(5, 1, 2)),
            (3, 2, ConvParams::new(3, 1, 3)),
            (6, 6, ConvParams::new(1, 2, 0)),
        ] {
            let x = normal(&[1, 1, h, w], 0.0, 1.0, 5);
            let lowered = im2col(&x, p);
            let (h_out, w_out) = p.output_hw(h, w);
            let geo = Geometry {
                h,
                w,
                w_out,
                pixels: h_out * w_out,
            };
            for p0 in [0, geo.pixels / 3] {
                for tap in 0..p.kernel * p.kernel {
                    let mut got = vec![f32::NAN; geo.pixels - p0];
                    let (ky, kx) = (tap / p.kernel, tap % p.kernel);
                    gather_row(&mut got, x.as_slice(), geo, p.stride, p.padding, ky, kx, p0);
                    let want: Vec<f32> = (p0..geo.pixels).map(|q| lowered.at2(q, tap)).collect();
                    assert_eq!(got, want, "{p:?} tap {tap} from pixel {p0}");
                }
            }
        }
    }

    #[test]
    fn row_count_matches_output_pixels() {
        let x = Tensor::<f32>::zeros(&[3, 1, 8, 6]);
        let p = ConvParams::new(3, 2, 1);
        let m = im2col(&x, p);
        let (ho, wo) = p.output_hw(8, 6);
        assert_eq!(m.dims()[0], 3 * ho * wo);
    }

    #[test]
    #[should_panic(expected = "channel mismatch")]
    fn channel_mismatch_panics() {
        let x = Tensor::<f32>::zeros(&[1, 3, 4, 4]);
        let w = Tensor::<f32>::zeros(&[2, 4, 3, 3]);
        let _ = conv2d_im2col(&x, &w, None, ConvParams::same_3x3());
    }

    #[test]
    #[should_panic(expected = "bias length mismatch")]
    fn bias_length_mismatch_panics() {
        let x = Tensor::<f32>::zeros(&[1, 3, 4, 4]);
        let w = Tensor::<f32>::zeros(&[2, 3, 3, 3]);
        let bias = Tensor::<f32>::zeros(&[3]);
        let _ = conv2d_im2col(&x, &w, Some(&bias), ConvParams::same_3x3());
    }
}
