//! SIMD microkernel equivalence: every variant the host can execute against
//! the portable scalar reference.
//!
//! The dispatch module (`wino_tensor::simd`) selects one kernel variant per
//! process; these tests bypass the global selection through the
//! `gemm_*_into_with` entry points and `simd::available()`, so a single run
//! pins every variant the hardware offers (CI repeats the whole suite under
//! `WINO_FORCE_KERNEL=scalar` and the best detected variant to cover the
//! dispatched paths too). Integer kernels must be **bit-identical** to
//! scalar — integer arithmetic has one right answer — while `f32` kernels
//! get a tight accumulation-order tolerance (the SIMD register blocks and
//! FMA change rounding, not math). The channel-laned thin-layer formulation
//! is exercised end to end through a `GraphExecutor` run against the direct
//! reference. The packed-once weight operand (`PackedWeights`, both sides)
//! and the panel-writing quantizer that feeds it are property-tested against
//! the scalar pack-per-call reference for every variant, and so are the
//! integer pipeline's transform engines: the fused input stage against a
//! generic `i32` `Bᵀ·d·B` per tile, the register-blocked output stage against
//! the row-at-a-time scale + unfused-axpy sequence it replaced.

use proptest::prelude::*;
use winograd_tapwise::wino_core::int_winograd::InputStage;
use winograd_tapwise::wino_core::{GraphExecutor, GraphRunOptions, TileSize, WinogradMatrices};
use winograd_tapwise::wino_nets::{ConvLayer, GraphBuilder};
use winograd_tapwise::wino_tensor::{
    gemm_f32_into_with, gemm_i16_i32_into_with, gemm_i8_i32_into_with, gemm_packed_i32_into,
    normal, simd,
    simd::{KernelVariant, OutputLanes, PanelSlot},
    PackedCode, PackedWeights, PanelLayout,
};

/// Shapes straddling every microkernel edge: sub-MR thin rows (m ≤ 4, the
/// channel-laned family), exact register blocks, ragged M/N/K remainders,
/// and K spans crossing the packing block size.
const SHAPES: &[(usize, usize, usize)] = &[
    (1, 1, 1),
    (1, 7, 3),
    (2, 5, 100),
    (3, 64, 33),
    (4, 300, 37),
    (4, 64, 40),
    (5, 31, 8),
    (8, 256, 16),
    (9, 129, 17),
    (13, 300, 21),
    (16, 17, 64),
];

fn det(i: usize, m: usize) -> i32 {
    ((i * 2654435761) % m) as i32 - (m as i32 / 2)
}

#[test]
fn f32_gemm_variants_match_scalar_within_accumulation_tolerance() {
    for &(m, k, n) in SHAPES {
        let a: Vec<f32> = (0..m * k).map(|i| det(i, 97) as f32 * 0.03).collect();
        let b: Vec<f32> = (0..k * n).map(|i| det(i + 5, 89) as f32 * 0.05).collect();
        let mut want = vec![0.0f32; m * n];
        gemm_f32_into_with(KernelVariant::Scalar, &mut want, &a, &b, m, k, n);
        for variant in simd::available() {
            let mut got = vec![0.0f32; m * n];
            gemm_f32_into_with(variant, &mut got, &a, &b, m, k, n);
            let tol = 1e-5 * (k as f32).max(1.0);
            for (i, (g, w)) in got.iter().zip(want.iter()).enumerate() {
                assert!(
                    (g - w).abs() <= tol * w.abs().max(1.0),
                    "f32 {m}x{k}x{n} {} drifted at {i}: {g} vs {w}",
                    variant.name()
                );
            }
        }
    }
}

#[test]
fn integer_gemm_variants_are_bit_identical_to_scalar() {
    for &(m, k, n) in SHAPES {
        let a8: Vec<i8> = (0..m * k).map(|i| det(i, 255) as i8).collect();
        let b8: Vec<i8> = (0..k * n).map(|i| det(i + 3, 251) as i8).collect();
        // Magnitudes sized so k=300 dot products stay inside the i32
        // accumulator: |a|,|b| ≤ 800 → 300·800² ≈ 1.9e8.
        let a16: Vec<i16> = (0..m * k).map(|i| det(i, 1601) as i16).collect();
        let b16: Vec<i16> = (0..k * n).map(|i| det(i + 7, 1499) as i16).collect();
        let mut want = vec![0i32; m * n];
        let mut got = vec![0i32; m * n];
        gemm_i8_i32_into_with(KernelVariant::Scalar, &mut want, &a8, &b8, m, k, n);
        for variant in simd::available() {
            gemm_i8_i32_into_with(variant, &mut got, &a8, &b8, m, k, n);
            assert_eq!(got, want, "i8 {m}x{k}x{n} {} not exact", variant.name());
        }
        gemm_i16_i32_into_with(KernelVariant::Scalar, &mut want, &a16, &b16, m, k, n);
        for variant in simd::available() {
            gemm_i16_i32_into_with(variant, &mut got, &a16, &b16, m, k, n);
            assert_eq!(got, want, "i16 {m}x{k}x{n} {} not exact", variant.name());
        }
    }
}

/// Operands pinned at the i8 −128/+127 saturation extremes — the
/// adversarial case for the paired-MAC `madd` pairing and the VNNI
/// sign-offset formulation (a `maddubs`-style u8×i8 product of two −128
/// pairs would saturate; the kernels must widen exactly instead) — and i16
/// at the exactness-contract limit, over K widths straddling the pair/quad
/// grouping (K = 1, 2, 3 and K crossing the packing block).
#[test]
fn integer_gemm_saturation_extremes_are_bit_identical() {
    const EDGE_SHAPES: &[(usize, usize, usize)] = &[
        (8, 1, 16),
        (8, 2, 16),
        (8, 3, 17),
        (9, 4, 33),
        (5, 7, 9),
        (12, 255, 19),
        (8, 257, 16),
    ];
    for &(m, k, n) in EDGE_SHAPES {
        let a8: Vec<i8> = (0..m * k)
            .map(|i| if i % 3 == 0 { i8::MIN } else { i8::MAX })
            .collect();
        let b8: Vec<i8> = (0..k * n)
            .map(|i| if i % 2 == 0 { i8::MIN } else { i8::MAX })
            .collect();
        // Largest symmetric magnitude with K·lim² still inside i32.
        let lim = ((i32::MAX as f64 / k as f64).sqrt() as i32).min(i32::from(i16::MAX)) as i16;
        let a16: Vec<i16> = (0..m * k)
            .map(|i| if i % 3 == 0 { -lim } else { lim })
            .collect();
        let b16: Vec<i16> = (0..k * n)
            .map(|i| if i % 2 == 0 { -lim } else { lim })
            .collect();
        let mut want = vec![0i32; m * n];
        let mut got = vec![0i32; m * n];
        gemm_i8_i32_into_with(KernelVariant::Scalar, &mut want, &a8, &b8, m, k, n);
        for variant in simd::available() {
            gemm_i8_i32_into_with(variant, &mut got, &a8, &b8, m, k, n);
            assert_eq!(
                got,
                want,
                "i8 extremes {m}x{k}x{n} {} not exact",
                variant.name()
            );
        }
        gemm_i16_i32_into_with(KernelVariant::Scalar, &mut want, &a16, &b16, m, k, n);
        for variant in simd::available() {
            gemm_i16_i32_into_with(variant, &mut got, &a16, &b16, m, k, n);
            assert_eq!(
                got,
                want,
                "i16 extremes {m}x{k}x{n} {} not exact",
                variant.name()
            );
        }
    }
}

/// A 7×7 / F4 graph layer has 4 tiles — below the tap-major floor — but
/// enough output channels to lane the tap GEMMs over `c_out` instead. The
/// executor must route it through the channel-laned path and still match
/// the direct reference, with the epilogue (fused ReLU + residual) intact.
#[test]
fn channel_laned_thin_layer_matches_reference_through_the_graph_executor() {
    let mut g = GraphBuilder::new("thin", 7);
    let x = g.input("in", 32, 7, 7);
    let c1 = g.conv_relu(ConvLayer::conv3x3("c1", 32, 64, 7), x);
    let c2 = g.conv(ConvLayer::conv3x3("c2", 64, 64, 7).with_bias(), c1);
    let skip = g.conv_relu(ConvLayer::conv1x1("skip", 32, 64, 7), x);
    let a = g.add("res", vec![c2, skip]);
    let r = g.relu("res.relu", a);
    g.output("out", r);
    let graph = g.finish();

    let opts = GraphRunOptions::default();
    let fast = GraphExecutor::with_defaults();
    let p = fast.prepare(&graph, &opts);
    // The 3×3 nodes must actually be planned onto a Winograd kernel for this
    // test to say anything about the thin path.
    assert!(
        p.plan_for(1).is_some_and(|lp| lp.kernel.tile_m().is_some()),
        "thin 3x3 layer was not planned onto Winograd"
    );
    let run = fast.run(&p);
    let reference = GraphExecutor::reference();
    let want = reference.run(&reference.prepare(&graph, &opts));
    let err = run.outputs[0].1.relative_error(&want.outputs[0].1);
    assert!(err < 1e-4, "channel-laned graph run drifted: {err}");
}

#[test]
fn batch_size_does_not_change_the_bits_of_a_thin_layer() {
    // Batch 1 runs the channel-laned formulation, batch 4 crosses the tile
    // floor and runs tile-laned — within one kernel variant the two must
    // agree bitwise per image (the serving layer's coalescing invariant).
    let mut g = GraphBuilder::new("thin-batch", 7);
    let x = g.input("in", 16, 7, 7);
    let c = g.conv_relu(ConvLayer::conv3x3("c", 16, 16, 7), x);
    g.output("out", c);
    let graph = g.finish();
    let exec = GraphExecutor::with_defaults();
    let p = exec.prepare(&graph, &GraphRunOptions::default());
    let xs: Vec<_> = (0..4)
        .map(|i| normal(&[1, 16, 7, 7], 0.0, 1.0, 70 + i))
        .collect();
    let stacked = winograd_tapwise::wino_tensor::concat_batch(&xs.iter().collect::<Vec<_>>());
    let batched = exec.run_with_inputs(&p, std::slice::from_ref(&stacked));
    for (i, x) in xs.iter().enumerate() {
        let single = exec.run_with_inputs(&p, std::slice::from_ref(x));
        let got = winograd_tapwise::wino_tensor::batch_slice(&batched.outputs[0].1, i, 1);
        assert_eq!(
            got, single.outputs[0].1,
            "image {i} changed bits under batching"
        );
    }
}

/// A tiny deterministic mixer so operand patterns vary with the proptest
/// seed without an RNG in the test body.
fn mix(seed: u64, i: usize) -> u64 {
    let mut z = seed
        .wrapping_add(i as u64)
        .wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z ^= z >> 30;
    z = z.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z ^ (z >> 27)
}

/// Codes with a third of the entries pinned at `±lim` (for `i8`: −128 /
/// +127, the values that exercise the `u8` offset and its row/column-sum
/// correction hardest).
fn pinned_codes(len: usize, seed: u64, lo: i32, hi: i32) -> Vec<i32> {
    (0..len)
        .map(|i| match mix(seed, i) % 6 {
            0 => lo,
            1 => hi,
            _ => lo + (mix(seed ^ 0x51ed, i) % (hi - lo + 1) as u64) as i32,
        })
        .collect()
}

/// Writes the row-major `k × free` activation matrix (`act[kk · free + j]`)
/// into the panel a packed weight operand multiplies, the way a producer
/// must: in `act_layout`, sign-flipped iff `act_flip`, padding left as
/// `junk` (the contract says padding may hold anything).
fn activation_panel<T: PackedCode>(
    w: &PackedWeights<T>,
    act: &[T],
    free: usize,
    junk: T,
) -> Vec<T> {
    let layout = w.act_layout();
    let mut panel = vec![junk; w.act_elems(free)];
    for kk in 0..w.k() {
        for j in 0..free {
            let v = act[kk * free + j];
            panel[layout.index(w.k(), kk, j)] = if w.act_flip() { v.flip() } else { v };
        }
    }
    panel
}

/// Both packed forms of `a[m×k] · b[k×n]` under every variant against `want`.
fn assert_packed_matches<T: PackedCode + std::fmt::Debug>(
    a: &[T],
    b: &[T],
    (m, k, n): (usize, usize, usize),
    want: &[i32],
    junk: T,
) -> Result<(), String> {
    for variant in simd::available() {
        // Weights on the left (tile-laned): activations are `b` as given.
        let w = PackedWeights::pack_left(variant, a, m, k);
        let panel = activation_panel(&w, b, n, junk);
        let mut got = vec![-1_i32; m * n];
        gemm_packed_i32_into(&mut got, &w, &panel, n);
        prop_assert_eq!(&got[..], want);
        // Weights on the right (channel-laned): activations are `a`, whose
        // `K`-major form is its transpose.
        let at: Vec<T> = (0..k * m).map(|i| a[(i % m) * k + i / m]).collect();
        let w = PackedWeights::pack_right(variant, b, k, n);
        let panel = activation_panel(&w, &at, m, junk);
        let mut got = vec![-1_i32; m * n];
        gemm_packed_i32_into(&mut got, &w, &panel, m);
        prop_assert_eq!(&got[..], want);
    }
    Ok(())
}

/// The test-only oracle of the fused input stage: every tile of `strips`
/// gathered with zero padding, transformed with the generic `i32`
/// `Bᵀ · d · B` matrix products, requantized with the canonical expression
/// and put where `layout` keeps channel `ci` of that tile.
#[allow(clippy::too_many_arguments)]
fn input_stage_oracle<T: PackedCode + TryFrom<i32>>(
    x: &[i8],
    [_, c_in, h, w]: [usize; 4],
    tile: TileSize,
    strips: std::ops::Range<usize>,
    layout: PanelLayout,
    flip: bool,
    scales: &[f32],
    (lo, hi): (i32, i32),
) -> Vec<T> {
    let (m, t) = (tile.output_tile(), tile.input_tile());
    let bt: Vec<i32> = WinogradMatrices::for_tile(tile)
        .bt
        .as_slice()
        .iter()
        .map(|&v| v as i32)
        .collect();
    let (tiles_h, tiles_w) = (h.div_ceil(m), w.div_ceil(m));
    let ntiles = strips.len() * tiles_w;
    let v_tap = layout.elems(c_in, ntiles);
    let mut v = vec![T::default(); t * t * v_tap];
    for (si, s) in strips.enumerate() {
        let (ni, ty) = (s / tiles_h, s % tiles_h);
        for tx in 0..tiles_w {
            for ci in 0..c_in {
                let d = |dy: usize, dx: usize| {
                    let (iy, ix) = ((ty * m + dy).wrapping_sub(1), (tx * m + dx).wrapping_sub(1));
                    if iy < h && ix < w {
                        i32::from(x[((ni * c_in + ci) * h + iy) * w + ix])
                    } else {
                        0
                    }
                };
                for r in 0..t {
                    for c in 0..t {
                        let mut sum = 0_i32;
                        for dy in 0..t {
                            for dx in 0..t {
                                sum += bt[r * t + dy] * d(dy, dx) * bt[c * t + dx];
                            }
                        }
                        let tap = r * t + c;
                        let code = (sum as f32 / scales[tap])
                            .round_ties_even()
                            .max(lo as f32)
                            .min(hi as f32) as i32;
                        let code = T::try_from(code).ok().expect("code fits its type");
                        v[tap * v_tap + layout.index(c_in, ci, si * tiles_w + tx)] =
                            if flip { code.flip() } else { code };
                    }
                }
            }
        }
    }
    v
}

/// The output stage as the pipeline ran it before the register-blocked
/// kernel: one rescale pass per tap, then both `Aᵀ` stages as row-at-a-time
/// `dst += coeff · src` passes — each sum starting from `+0.0`, zero
/// coefficients skipped, multiply and add rounded separately. `out[rc][lane]`.
fn output_stage_oracle(
    tile: TileSize,
    acc: &[i32],
    tap_stride: usize,
    n: usize,
    sbg: &[f32],
) -> Vec<f32> {
    let (m, t) = (tile.output_tile(), tile.input_tile());
    let mats = WinogradMatrices::for_tile(tile);
    let at = mats.at.as_slice();
    let mut ea = vec![0.0_f32; t * t * n];
    for tap in 0..t * t {
        for i in 0..n {
            ea[tap * n + i] = acc[tap * tap_stride + i] as f32 * sbg[tap];
        }
    }
    let axpy = |dst: &mut [f32], coeff: f32, src: &[f32]| {
        for (d, &s) in dst.iter_mut().zip(src) {
            *d += coeff * s;
        }
    };
    let mut eb = vec![0.0_f32; m * t * n];
    for r in 0..m {
        for c in 0..t {
            for k in 0..t {
                if at[r * t + k] != 0.0 {
                    let src = &ea[(k * t + c) * n..][..n];
                    axpy(&mut eb[(r * t + c) * n..][..n], at[r * t + k], src);
                }
            }
        }
    }
    let mut out = vec![0.0_f32; m * m * n];
    for r in 0..m {
        for c in 0..m {
            for k in 0..t {
                if at[c * t + k] != 0.0 {
                    let src = &eb[(r * t + k) * n..][..n];
                    axpy(&mut out[(r * m + c) * n..][..n], at[c * t + k], src);
                }
            }
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The fused input stage — NCHW rows in, GEMM panels out — produces
    /// exactly the oracle's codes at exactly the layout's positions on every
    /// variant: F2 and F4, `i8` and `i16` codes, sign flip on and off, both
    /// packed sides (tile lanes into the `B` panels, channel lanes into the
    /// `A` panels), ragged `H ≠ W` down to images smaller than a tile,
    /// batches, strip groups starting and ending anywhere, power-of-two and
    /// general tap scales, and inputs pinned at −128 / 127.
    #[test]
    fn fused_input_stage_matches_the_generic_transform_on_every_variant(
        f4 in 0usize..2,
        n in 1usize..4,
        c_in in 1usize..11,
        h in 1usize..15,
        w in 1usize..23,
        lane_channels in 0usize..2,
        flip in 0usize..2,
        first in 0usize..100,
        len in 1usize..100,
        seed in 0u64..1000,
    ) {
        let tile = [TileSize::F2, TileSize::F4][f4];
        let (lane_channels, flip) = (lane_channels == 1, flip == 1);
        let dims = [n, c_in, h, w];
        let x: Vec<i8> =
            pinned_codes(n * c_in * h * w, seed, -128, 127).iter().map(|&v| v as i8).collect();
        let all_strips = n * h.div_ceil(tile.output_tile());
        let first = first % all_strips;
        let strips = first..first + 1 + (len - 1) % (all_strips - first);
        let scales: Vec<f32> = (0..tile.taps())
            .map(|tap| match mix(seed ^ 0x5ca1e, tap) % 3 {
                0 => 2.0_f32.powi((mix(seed, tap) % 9) as i32 - 2),
                _ => 0.3 + (mix(seed, tap) % 4000) as f32 * 0.01,
            })
            .collect();
        for variant in simd::available() {
            let stage = |layout, clamp| InputStage {
                variant,
                x: &x,
                dims,
                m: tile.output_tile(),
                lane_channels,
                layout,
                flip,
                scales: &scales,
                clamp,
            };
            let side = |(a, b): (PanelLayout, PanelLayout)| if lane_channels { a } else { b };
            let (layout, clamp) = (side(i8::layouts(variant)), (-128, 127));
            let got: Vec<i8> = stage(layout, clamp).codes(strips.clone());
            let want = input_stage_oracle(&x, dims, tile, strips.clone(), layout, flip, &scales, clamp);
            prop_assert_eq!(got, want);
            let (layout, clamp) = (side(i16::layouts(variant)), (-512, 511));
            let got: Vec<i16> = stage(layout, clamp).codes(strips.clone());
            let want = input_stage_oracle(&x, dims, tile, strips.clone(), layout, flip, &scales, clamp);
            prop_assert_eq!(got, want);
        }
    }

    /// The register-blocked output stage has the bits of the row-at-a-time
    /// sequence on every variant — lane counts around every block size,
    /// contiguous lane rows (tile lanes) and strided ones (channel lanes),
    /// zero accumulators under negative scales (`-0.0` products, which a sum
    /// started from its first term instead of `+0.0` would get wrong).
    #[test]
    fn output_stage_matches_the_row_at_a_time_sequence_on_every_variant(
        f4 in 0usize..2,
        n in 1usize..70,
        pad in 0usize..3,
        strided in 0usize..2,
        seed in 0u64..1000,
    ) {
        let tile = [TileSize::F2, TileSize::F4][f4];
        let (t, m) = (tile.input_tile(), tile.output_tile());
        let tap_stride = n + pad;
        // A quarter of the lanes are all-zero tiles, a fifth of the other
        // accumulators lone zeros.
        let acc: Vec<i32> = (0..t * t * tap_stride)
            .map(|i| match (mix(seed ^ 0x1a9e, i % tap_stride) % 4, mix(seed, i) % 5) {
                (0, _) | (_, 0) => 0,
                _ => (mix(seed ^ 0xacc, i) % 2_000_001) as i32 - 1_000_000,
            })
            .collect();
        let sbg: Vec<f32> = (0..t * t)
            .map(|tap| {
                let s = 2.0_f32.powi(-((mix(seed, tap) % 12) as i32)) * 1.37;
                if mix(seed ^ 0x516, tap).is_multiple_of(3) { -s } else { s }
            })
            .collect();
        let want = output_stage_oracle(tile, &acc, tap_stride, n, &sbg);
        // Contiguous: `out[rc][lane]`. Strided: `out[lane][rc][slot]`, this
        // call filling `slot` 1 of 3 (another tile's lanes sit beside it).
        let (lane_stride, rc_stride, base) = if strided == 1 { (m * m * 3, 3, 1) } else { (1, n + pad, 0) };
        let lanes = OutputLanes { t, n, tap_stride, lane_stride, rc_stride };
        for variant in simd::available() {
            let mut got = vec![f32::NAN; base + (n - 1) * lane_stride + (m * m - 1) * rc_stride + 1];
            simd::wino_output_stage_with(variant, &acc, &sbg, &mut got[base..], lanes);
            for rc in 0..m * m {
                for i in 0..n {
                    let g = got[base + rc * rc_stride + i * lane_stride];
                    prop_assert_eq!(g.to_bits(), want[rc * n + i].to_bits());
                }
            }
        }
    }

    /// The packed-once GEMM — left- and right-packed, `i8` and `i16` — is
    /// bit-identical to the scalar pack-per-call reference on every variant:
    /// ragged `M`/`N` against the 8×8 / 8×16 register blocks, `K` off the
    /// pair/quad grouping, junk in the activation panel's padding, and
    /// operands pinned at the code range's ends.
    #[test]
    fn packed_gemm_is_bit_identical_to_scalar_on_every_variant(
        m in 1usize..21,
        k in 1usize..43,
        n in 1usize..37,
        seed in 0u64..1000,
    ) {
        let a8: Vec<i8> = pinned_codes(m * k, seed, -128, 127).iter().map(|&v| v as i8).collect();
        let b8: Vec<i8> =
            pinned_codes(k * n, seed ^ 0xb0b, -128, 127).iter().map(|&v| v as i8).collect();
        let mut want = vec![0_i32; m * n];
        gemm_i8_i32_into_with(KernelVariant::Scalar, &mut want, &a8, &b8, m, k, n);
        assert_packed_matches(&a8, &b8, (m, k, n), &want, 0x5a)?;

        // 10-bit Winograd-domain codes, the `i16` path's range.
        let a16: Vec<i16> = pinned_codes(m * k, seed, -512, 511).iter().map(|&v| v as i16).collect();
        let b16: Vec<i16> =
            pinned_codes(k * n, seed ^ 0xb0b, -512, 511).iter().map(|&v| v as i16).collect();
        gemm_i16_i32_into_with(KernelVariant::Scalar, &mut want, &a16, &b16, m, k, n);
        assert_packed_matches(&a16, &b16, (m, k, n), &want, 0x5a5a)?;
    }

    /// The panel-writing quantizers put exactly the scalar codes at exactly
    /// the slot's offsets on every variant — for every `K`-group width and
    /// position, panel width, sign flip and row length — and leave the rest
    /// of the panel (the group's other `K` steps, the padding) untouched.
    #[test]
    fn panel_quantizers_match_scalar_and_touch_only_their_slot(
        lanes in 0usize..70,
        width_sel in 0usize..2,
        group_sel in 0usize..3,
        g_seed in 0usize..4,
        flip_sel in 0usize..2,
        seed in 0u64..1000,
    ) {
        let (width, group, flip) = ([8, 16][width_sel], [1, 2, 4][group_sel], flip_sel == 1);
        let slot = PanelSlot { width, group, chunk_stride: 5 * width * group, g: g_seed % group };
        // A general scale (divided by) or a power of two (multiplied by its
        // exact reciprocal): the codes must not tell the difference.
        let (s8, s16) = [(37.5, 9.25), (64.0, 0.5)][seed as usize % 2];
        let src: Vec<i16> =
            (0..lanes).map(|i| ((mix(seed, i) % 40_001) as i32 - 20_000) as i16).collect();
        let len = lanes.div_ceil(width) * slot.chunk_stride + 3;
        for variant in simd::available() {
            let mut got8 = vec![0x33_i8; len];
            simd::quantize_i16_i8_panel_with(variant, &mut got8, &src, s8, -128, 127, flip, slot);
            let mut got16 = vec![0x3333_i16; len];
            simd::quantize_i16_i16_panel_with(variant, &mut got16, &src, s16, -512, 511, flip, slot);
            let mut want8 = vec![0x33_i8; len];
            let mut want16 = vec![0x3333_i16; len];
            for (j, &s) in src.iter().enumerate() {
                let q = |scale: f32, lo: f32, hi: f32| {
                    (f32::from(s) / scale).round_ties_even().max(lo).min(hi) as i32
                };
                let (c8, c16) = (q(s8, -128.0, 127.0) as i8, q(s16, -512.0, 511.0) as i16);
                want8[slot.offset(j)] = if flip { c8.flip() } else { c8 };
                want16[slot.offset(j)] = if flip { c16.flip() } else { c16 };
            }
            prop_assert_eq!(&got8, &want8);
            prop_assert_eq!(&got16, &want16);
        }
    }
}
