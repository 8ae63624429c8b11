//! Equivalence suite for the tap-major batched-GEMM Winograd execution.
//!
//! Three contracts are pinned: the float tap-major path computes the same
//! function as the direct convolution on randomized shapes; the integer
//! tap-major path is **bit-identical** to the per-tile reference it replaced
//! (on randomized shapes and on the ResNet-34 layer geometries, 8- and
//! 10-bit, tile- and channel-laned);
//! and fused conv+ReLU execution through the graph executor is bitwise equal
//! to running the ReLU as its own node.

use rand::{Rng, SeedableRng};
use winograd_tapwise::wino_core::{
    GraphExecutor, GraphRunOptions, IntWinogradConv, PreparedWinogradConv, QuantParams,
    TapwiseScales, TileSize, WinogradMatrices, WinogradQuantConfig,
};
use winograd_tapwise::wino_nets::{resnet20_graph, ConvLayer, GraphBuilder};
use winograd_tapwise::wino_tensor::{conv2d_direct, normal, set_max_threads, ConvParams, Tensor};

/// Random layer geometries spanning the microkernel edge cases: channel
/// counts off the MR/NR grid, spatial sizes that are not tile multiples,
/// multi-image batches, and tile counts below the tap-major threshold.
fn random_shapes(count: usize, seed: u64) -> Vec<(usize, usize, usize, usize, usize)> {
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
    (0..count)
        .map(|_| {
            (
                rng.gen_range(1..3),  // batch
                rng.gen_range(1..12), // c_in
                rng.gen_range(1..14), // c_out
                rng.gen_range(1..20), // h
                rng.gen_range(1..20), // w
            )
        })
        .collect()
}

#[test]
fn float_tap_major_matches_direct_on_random_shapes() {
    for (i, (n, c_in, c_out, h, w)) in random_shapes(10, 42).into_iter().enumerate() {
        let x = normal(&[n, c_in, h, w], 0.0, 1.0, 5000 + i as u64);
        let wt = normal(&[c_out, c_in, 3, 3], 0.0, 0.4, 6000 + i as u64);
        let reference = conv2d_direct(&x, &wt, None, ConvParams::same_3x3());
        for tile in [TileSize::F2, TileSize::F4] {
            let y = PreparedWinogradConv::prepare(&wt, tile).forward(&x);
            let err = y.relative_error(&reference);
            assert!(
                err < 1e-4,
                "{tile} on [{n},{c_in},{c_out},{h},{w}]: error {err}"
            );
        }
    }
}

#[test]
fn int_tap_major_is_bit_identical_to_per_tile_on_random_shapes() {
    for (i, (n, c_in, c_out, h, w)) in random_shapes(8, 77).into_iter().enumerate() {
        let x = normal(&[n, c_in, h, w], 0.0, 1.0, 7000 + i as u64);
        let wt = normal(&[c_out, c_in, 3, 3], 0.0, 0.4, 8000 + i as u64);
        for (tile, bits) in [(TileSize::F2, 8u8), (TileSize::F4, 8), (TileSize::F4, 10)] {
            let cfg = WinogradQuantConfig::tapwise_po2(tile, bits);
            let mats = WinogradMatrices::for_tile(tile);
            let scales = TapwiseScales::calibrate(&wt, &x, &mats, cfg.wino_bits, cfg.mode);
            let xp = QuantParams::from_max(x.abs_max(), cfg.spatial_bits).to_power_of_two();
            let xq: Tensor<i8> = x.map(|v| xp.quantize(v) as i8);
            let conv = IntWinogradConv::prepare(&wt, &scales, xp, 8.0, cfg);
            let fast = conv.forward(&xq);
            let slow = conv.forward_per_tile(&xq);
            assert_eq!(
                fast, slow,
                "{tile}/int{bits} on [{n},{c_in},{c_out},{h},{w}]: codes drifted"
            );
        }
    }
}

/// `forward` against `forward_per_tile` on one layer geometry: random
/// weights, calibrated tap-wise scales, the given batch sizes, on one worker
/// thread and on two (the strip groups are the parallel work items).
fn assert_int_forward_matches_per_tile(
    c: usize,
    (h, w): (usize, usize),
    bits: u8,
    batches: &[usize],
) {
    let wt = normal(&[c, c, 3, 3], 0.0, 0.2, 9100 + c as u64);
    let cfg = WinogradQuantConfig::tapwise_po2(TileSize::F4, bits);
    let mats = WinogradMatrices::for_tile(TileSize::F4);
    let calib = normal(&[1, c, h, w], 0.0, 1.0, 9200 + c as u64);
    let scales = TapwiseScales::calibrate(&wt, &calib, &mats, cfg.wino_bits, cfg.mode);
    let xp = QuantParams::from_max(calib.abs_max(), cfg.spatial_bits).to_power_of_two();
    let conv = IntWinogradConv::prepare(&wt, &scales, xp, 8.0, cfg);
    for &n in batches {
        let x = normal(&[n, c, h, w], 0.0, 1.0, 9300 + (c + n) as u64);
        let xq: Tensor<i8> = x.map(|v| xp.quantize(v) as i8);
        let reference = conv.forward_per_tile(&xq);
        for threads in [1, 2] {
            set_max_threads(threads);
            let fast = conv.forward(&xq);
            set_max_threads(0);
            assert_eq!(
                fast, reference,
                "int{bits} {c}x{c}x{h}x{w} batch {n}, {threads} thread(s): tap-major codes drifted"
            );
        }
    }
}

/// ResNet-34's four 3×3 layer geometries, and a ragged image whose height
/// and width are different non-multiples of the tile, as `(channels,
/// (height, width), batch sizes)`.
const RESNET34_GEOMETRIES: [(usize, (usize, usize), &[usize]); 5] = [
    (64, (56, 56), &[1]),
    (128, (28, 28), &[1]),
    (256, (14, 14), &[1]),
    (512, (7, 7), &[1, 2]),
    (24, (9, 13), &[1, 3]),
];

/// The four ResNet-34 3×3 geometries at 8 Winograd-domain bits — the `i8`
/// codes and weights packed at prepare — bit-identical to the per-tile
/// reference. 64×56 splits into two strip groups with a ragged last column
/// panel; 7×7 lanes both transforms and the tap GEMMs over channels at
/// batch 1 (4 tiles) and flips to tile lanes at batch 2 (8 tiles) on the
/// same prepared layer; 9×13 leaves a one-row last strip and a one-column
/// last tile.
#[test]
fn int8_forward_is_bit_identical_to_per_tile_on_resnet34_geometries() {
    for (c, hw, batches) in RESNET34_GEOMETRIES {
        assert_int_forward_matches_per_tile(c, hw, 8, batches);
    }
}

/// The same geometries at 10 bits: the `i16` code path, packed once too.
#[test]
fn int10_forward_is_bit_identical_to_per_tile_on_resnet34_geometries() {
    for (c, hw, batches) in RESNET34_GEOMETRIES {
        assert_int_forward_matches_per_tile(c, hw, 10, batches);
    }
}

/// A small graph exercising both fusable (sole-consumer) and non-fusable
/// (multi-consumer) conv → ReLU pairs.
fn conv_relu_graph() -> winograd_tapwise::wino_nets::Graph {
    let mut g = GraphBuilder::new("fused-vs-separate", 16);
    let x = g.input("in", 3, 16, 16);
    let c1 = g.conv(ConvLayer::conv3x3("c1", 3, 8, 16), x);
    let r1 = g.relu("r1", c1);
    // c2 feeds both its relu and the residual add: must not fuse.
    let c2 = g.conv(ConvLayer::conv3x3("c2", 8, 8, 16), r1);
    let r2 = g.relu("r2", c2);
    let a = g.add("res", vec![c2, r2]);
    let c3 = g.conv(ConvLayer::conv3x3("c3", 8, 4, 16), a);
    let r3 = g.relu("r3", c3);
    g.output("out", r3);
    g.finish()
}

#[test]
fn fused_conv_relu_is_bitwise_equal_to_separate_nodes() {
    let graph = conv_relu_graph();
    let opts = GraphRunOptions::default();
    let fused = GraphExecutor::with_defaults();
    let separate = GraphExecutor::with_defaults().without_fusion();
    let pf = fused.prepare(&graph, &opts);
    let ps = separate.prepare(&graph, &opts);
    assert_eq!(pf.fused_relu_count(), 2, "c1 and c3 must fuse, c2 must not");
    assert_eq!(ps.fused_relu_count(), 0);
    let a = fused.run(&pf);
    let b = separate.run(&ps);
    assert_eq!(
        a.outputs[0].1, b.outputs[0].1,
        "fused execution must be bitwise identical"
    );
}

#[test]
fn fused_quantized_resnet20_is_bitwise_equal_to_separate_nodes() {
    let graph = resnet20_graph().with_channel_div(4);
    let opts = GraphRunOptions::default();
    let fused = GraphExecutor::quantized(WinogradQuantConfig::default());
    let separate = GraphExecutor::quantized(WinogradQuantConfig::default()).without_fusion();
    let pf = fused.prepare(&graph, &opts);
    let ps = separate.prepare(&graph, &opts);
    assert!(pf.fused_relu_count() > 0, "no conv+relu pair fused");
    // Calibrate both identically from the synthesized inputs, then compare.
    let a = fused.warmup(&pf);
    let b = separate.warmup(&ps);
    assert_eq!(
        a.outputs[0].1, b.outputs[0].1,
        "fused quantized execution must be bitwise identical"
    );
    // And the cached (serving steady-state) runs as well.
    let a2 = fused.run(&pf);
    let b2 = separate.run(&ps);
    assert_eq!(a2.outputs[0].1, b2.outputs[0].1);
}

#[test]
fn scratch_accounting_is_reported_for_winograd_graphs() {
    let graph = resnet20_graph().with_channel_div(2);
    let exec = GraphExecutor::with_defaults();
    let p = exec.prepare(&graph, &GraphRunOptions::default());
    assert!(
        p.scratch_bytes() > 0,
        "winograd nodes must report tap-major scratch"
    );
    // An integer graph is sized for the larger of the two pipelines: its
    // code panels and `i16` transform lanes are narrower than the float
    // panels and its `M` panel is never doubled, so the figure is the same.
    let quantized = GraphExecutor::quantized(WinogradQuantConfig::default());
    let pq = quantized.prepare(&graph, &GraphRunOptions::default());
    assert_eq!(pq.scratch_bytes(), p.scratch_bytes());
    // The reference executor runs everything direct: no tap-major scratch.
    let reference = GraphExecutor::reference();
    let pr = reference.prepare(&graph, &GraphRunOptions::default());
    assert_eq!(pr.scratch_bytes(), 0);
}

#[test]
fn legacy_run_honours_fusion_baked_into_a_prepared_graph() {
    // A prepared graph from a fusing executor marks its ReLU nodes as
    // pass-throughs; a legacy (per-tile) run over that same prepared state
    // must still rectify inside the conv, or negative pre-activations would
    // leak through the pass-through ReLU nodes.
    let graph = conv_relu_graph();
    let opts = GraphRunOptions::default();
    let fused = GraphExecutor::with_defaults();
    let p = fused.prepare(&graph, &opts);
    assert!(p.fused_relu_count() > 0);
    let legacy_run = GraphExecutor::with_defaults().legacy().run(&p);
    let out = &legacy_run.outputs[0].1;
    assert!(
        out.as_slice().iter().all(|&v| v >= 0.0),
        "final ReLU dropped in legacy mode"
    );
    let err = out.relative_error(&fused.run(&p).outputs[0].1);
    assert!(err < 1e-4, "legacy-over-fused-graph diverged: {err}");
}

#[test]
fn legacy_executor_matches_current_within_float_noise() {
    // The benchmarking aid must compute the same function (it only swaps
    // kernels), so the bench comparisons are apples to apples.
    let graph = resnet20_graph().with_channel_div(4);
    let opts = GraphRunOptions::default();
    let current = GraphExecutor::with_defaults();
    let legacy = GraphExecutor::with_defaults().legacy();
    let a = current.run(&current.prepare(&graph, &opts));
    let b = legacy.run(&legacy.prepare(&graph, &opts));
    let err = a.outputs[0].1.relative_error(&b.outputs[0].1);
    assert!(err < 1e-4, "legacy and tap-major diverged: {err}");
}
