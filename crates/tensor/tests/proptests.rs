//! Property-based tests of the tensor substrate.

use proptest::prelude::*;
use wino_tensor::{
    apply_epilogue, conv2d_direct, conv2d_im2col, gemm_f32, gemm_f32_into_with,
    gemm_i16_i32_into_with, gemm_i8_i32_into_with, im2col, normal, set_max_threads, simd,
    ConvParams, EpilogueOps, PreparedGemmConv, Tensor,
};

/// A tiny deterministic mixer so the operand patterns vary with the proptest
/// seed without needing an RNG in the test body.
fn mix(seed: u64, i: usize) -> u64 {
    let mut z = seed
        .wrapping_add(i as u64)
        .wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z ^= z >> 30;
    z = z.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z ^ (z >> 27)
}

/// The formulation the prepared GEMM convolution replaced, kept as its
/// oracle: materialise the lowered matrix, multiply it by the
/// `[C_in·K², C_out]` weight matrix with `variant`'s GEMM, and scatter the
/// `[pixels, C_out]` product back to NCHW. The epilogue is applied by the
/// caller as a separate pass.
fn lowered_gemm_conv(
    variant: simd::KernelVariant,
    x: &Tensor<f32>,
    w: &Tensor<f32>,
    params: ConvParams,
) -> Tensor<f32> {
    let lowered = im2col(x, params);
    let (rows, cols) = (lowered.dims()[0], lowered.dims()[1]);
    let c_out = w.dims()[0];
    let mut wmat = vec![0.0_f32; cols * c_out];
    for (i, &v) in w.as_slice().iter().enumerate() {
        wmat[i % cols * c_out + i / cols] = v;
    }
    let mut prod = vec![0.0_f32; rows * c_out];
    gemm_f32_into_with(
        variant,
        &mut prod,
        lowered.as_slice(),
        &wmat,
        rows,
        cols,
        c_out,
    );
    let (h_out, w_out) = params.output_hw(x.dims()[2], x.dims()[3]);
    let pixels = h_out * w_out;
    Tensor::from_fn(&[x.dims()[0], c_out, h_out, w_out], |i| {
        let (ni, co, p) = (i / (c_out * pixels), i / pixels % c_out, i % pixels);
        prod[(ni * pixels + p) * c_out + co]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The prepared GEMM convolution is **bitwise** the old
    /// `gemm_f32(im2col(x), wmat)` + `apply_epilogue` formulation: for every
    /// kernel size, stride and padding, non-square images, batches, `C_out`
    /// on both sides of the `MR_THIN` (4) and `MR` (8) register-block edges,
    /// `C_in·K²` up to past two `BLOCK_K` (256) boundaries, pixel counts past
    /// the 256-pixel column block, all sixteen epilogues, every SIMD variant
    /// the host has, on one and on two worker threads.
    #[test]
    fn prepared_gemm_conv_is_bitwise_the_lowered_gemm(
        kernel_ix in 0usize..4,
        stride in 1usize..3,
        pad_ix in 0usize..4,
        n in 1usize..4,
        c_out in 1usize..19,
        depth in 1usize..600,
        h in 3usize..19,
        w_off in 1usize..5,
        seed in 0u64..1000,
    ) {
        let kernel = [1, 3, 5, 7][kernel_ix];
        let padding = pad_ix % (kernel / 2 + 1);
        let w_in = h + w_off;
        prop_assume!(h + 2 * padding >= kernel);
        let params = ConvParams::new(kernel, stride, padding);
        // `depth` aims `C_in·K²` anywhere up to two `K` blocks and a bit.
        let c_in = depth.div_ceil(kernel * kernel);
        let x = normal(&[n, c_in, h, w_in], 0.0, 1.0, seed);
        let w = normal(&[c_out, c_in, kernel, kernel], 0.0, 0.5, seed + 1);
        let (h_out, w_out) = params.output_hw(h, w_in);
        let bias = normal(&[c_out], 0.0, 0.5, seed + 2);
        let residual = normal(&[n, c_out, h_out, w_out], 0.0, 1.0, seed + 3);
        for variant in simd::available() {
            let bare = lowered_gemm_conv(variant, &x, &w, params);
            let prepared = PreparedGemmConv::prepare_with(variant, &w, params);
            for mask in 0..16 {
                let ops = EpilogueOps {
                    bias: (mask & 1 != 0).then_some(&bias),
                    residual: (mask & 2 != 0).then_some(&residual),
                    pre_add_relu: mask & 4 != 0,
                    relu: mask & 8 != 0,
                };
                let mut want = bare.clone();
                apply_epilogue(&mut want, &ops);
                // The worker count is process-global: the other tests of this
                // file are thread-count-agnostic, so flipping it under them
                // is harmless.
                for threads in [1, 2] {
                    set_max_threads(threads);
                    let got = prepared.forward(&x, &ops);
                    set_max_threads(0);
                    prop_assert_eq!(got.dims(), want.dims());
                    let same = got
                        .as_slice()
                        .iter()
                        .zip(want.as_slice())
                        .all(|(a, b)| a.to_bits() == b.to_bits());
                    prop_assert!(
                        same,
                        "{} epilogue {mask:04b} on {threads} thread(s)",
                        variant.name()
                    );
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The im2col + GEMM path computes the same convolution as the direct path
    /// for arbitrary (small) shapes and parameters.
    #[test]
    fn im2col_equals_direct(
        n in 1usize..3,
        c_in in 1usize..4,
        c_out in 1usize..4,
        hw in 3usize..9,
        stride in 1usize..3,
        padding in 0usize..2,
        seed in 0u64..1000,
    ) {
        prop_assume!(hw + 2 * padding >= 3);
        let x = normal(&[n, c_in, hw, hw], 0.0, 1.0, seed);
        let w = normal(&[c_out, c_in, 3, 3], 0.0, 0.5, seed + 1);
        let p = ConvParams::new(3, stride, padding);
        let a = conv2d_direct(&x, &w, None, p);
        let b = conv2d_im2col(&x, &w, None, p);
        prop_assert!(a.max_abs_diff(&b) < 1e-3);
    }

    /// Matrix multiplication is associative with the identity and distributes
    /// over addition (within FP32 tolerance).
    #[test]
    fn gemm_distributes_over_addition(m in 1usize..6, k in 1usize..6, n in 1usize..6, seed in 0u64..1000) {
        let a = normal(&[m, k], 0.0, 1.0, seed);
        let b = normal(&[k, n], 0.0, 1.0, seed + 1);
        let c = normal(&[k, n], 0.0, 1.0, seed + 2);
        let left = gemm_f32(&a, &b.add(&c));
        let right = gemm_f32(&a, &b).add(&gemm_f32(&a, &c));
        prop_assert!(left.max_abs_diff(&right) < 1e-3);
    }

    /// Every available integer GEMM variant (avx2 / avx512 / avx512vnni /
    /// neon tiers, whichever the host supports) is bit-identical to the
    /// scalar kernel on arbitrary shapes — including MR/NR-straddling edges
    /// and K values that are not a multiple of the paired-MAC grouping —
    /// with i8 operands frequently pinned at the −128/+127 saturation
    /// extremes (the adversarial case for the madd/VNNI sign-offset
    /// formulations).
    #[test]
    fn int_gemm_variants_bit_identical_to_scalar(
        m in 1usize..20,
        k in 1usize..40,
        n in 1usize..36,
        seed in 0u64..1000,
    ) {
        let a8: Vec<i8> = (0..m * k)
            .map(|i| match mix(seed, i) % 6 {
                0 => i8::MIN,
                1 => i8::MAX,
                v => (v as i8).wrapping_mul(43).wrapping_add((i % 7) as i8),
            })
            .collect();
        let b8: Vec<i8> = (0..k * n)
            .map(|i| match mix(seed ^ 0xdead_beef, i) % 6 {
                0 => i8::MIN,
                1 => i8::MAX,
                v => (v as i8).wrapping_mul(59).wrapping_sub((i % 5) as i8),
            })
            .collect();
        // i16 extremes bounded by the exactness contract
        // K·max|A|·max|B| ≤ i32::MAX.
        let lim = ((i32::MAX as f64 / k as f64).sqrt() as i64).min(i64::from(i16::MAX)) as i16;
        let a16: Vec<i16> = (0..m * k)
            .map(|i| match mix(seed ^ 0x1234, i) % 5 {
                0 => -lim,
                1 => lim,
                v => ((mix(v, i) % (2 * lim as u64 + 1)) as i64 - i64::from(lim)) as i16,
            })
            .collect();
        let b16: Vec<i16> = (0..k * n)
            .map(|i| match mix(seed ^ 0x5678, i) % 5 {
                0 => -lim,
                1 => lim,
                v => ((mix(v, i + 1) % (2 * lim as u64 + 1)) as i64 - i64::from(lim)) as i16,
            })
            .collect();
        let mut want8 = vec![0_i32; m * n];
        let mut want16 = vec![0_i32; m * n];
        gemm_i8_i32_into_with(simd::KernelVariant::Scalar, &mut want8, &a8, &b8, m, k, n);
        gemm_i16_i32_into_with(simd::KernelVariant::Scalar, &mut want16, &a16, &b16, m, k, n);
        for variant in simd::available() {
            let mut got = vec![0_i32; m * n];
            gemm_i8_i32_into_with(variant, &mut got, &a8, &b8, m, k, n);
            prop_assert_eq!(&got, &want8);
            gemm_i16_i32_into_with(variant, &mut got, &a16, &b16, m, k, n);
            prop_assert_eq!(&got, &want16);
        }
    }

    /// Reshape preserves the element sequence, and a round trip restores the
    /// original dimensions.
    #[test]
    fn reshape_round_trip(rows in 1usize..12, cols in 1usize..12) {
        let t = Tensor::from_fn(&[rows, cols], |i| i as f32);
        let flat = t.reshape(&[rows * cols]).unwrap();
        prop_assert_eq!(flat.as_slice(), t.as_slice());
        let back = flat.reshape(&[rows, cols]).unwrap();
        prop_assert_eq!(back, t);
    }
}
