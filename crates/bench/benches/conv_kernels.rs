//! Criterion micro-benchmarks of the convolution kernels: direct, im2col+GEMM
//! and Winograd F2/F4/F6 (FP32), plus the integer tap-wise F4 pipeline, the
//! `ConvBackend` engine dispatch, the thread-scaling of the parallel
//! Winograd F4 path on a real ResNet-34 layer shape, and the GEMM convolution
//! on every fallback layer shape of ResNet-50.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use wino_core::{
    winograd_conv2d, Engine, IntWinogradConv, Planner, PreparedWinogradConv, QuantBits,
    QuantParams, TapwiseScales, TileSize, WinogradMatrices, WinogradQuantConfig,
};
use wino_nets::{resnet50_graph, ConvLayer, GraphOp, Kernel};
use wino_tensor::{
    conv2d_direct, conv2d_im2col, normal, parallel, relu_inplace, ConvParams, EpilogueOps,
    PreparedGemmConv,
};

fn bench_conv_kernels(c: &mut Criterion) {
    let x = normal(&[1, 16, 32, 32], 0.0, 1.0, 1);
    let w = normal(&[16, 16, 3, 3], 0.0, 0.3, 2);
    let p = ConvParams::same_3x3();

    let mut group = c.benchmark_group("conv2d_16x16x32");
    group.sample_size(10);
    group.bench_function("direct", |b| b.iter(|| conv2d_direct(&x, &w, None, p)));
    group.bench_function("im2col_gemm", |b| b.iter(|| conv2d_im2col(&x, &w, None, p)));
    for tile in [TileSize::F2, TileSize::F4, TileSize::F6] {
        group.bench_with_input(
            BenchmarkId::new("winograd", tile.to_string()),
            &tile,
            |b, &t| b.iter(|| winograd_conv2d(&x, &w, t)),
        );
    }
    group.finish();

    let mut int_group = c.benchmark_group("int8_tapwise_f4");
    int_group.sample_size(10);
    let cfg = WinogradQuantConfig::tapwise_po2(TileSize::F4, 8);
    let mats = WinogradMatrices::for_tile(TileSize::F4);
    let scales = TapwiseScales::calibrate(&w, &x, &mats, cfg.wino_bits, cfg.mode);
    let xp = QuantParams::from_max(x.abs_max(), QuantBits::int8()).to_power_of_two();
    let xq = x.map(|v| xp.quantize(v) as i8);
    let conv = IntWinogradConv::prepare(&w, &scales, xp, 10.0, cfg);
    int_group.bench_function("forward", |b| b.iter(|| conv.forward(&xq)));
    int_group.bench_function("prepare", |b| {
        b.iter(|| IntWinogradConv::prepare(&w, &scales, xp, 10.0, cfg))
    });
    int_group.finish();
}

/// Engine dispatch on a real ResNet-34 layer shape (layer2: 128→128 @ 28×28):
/// measures the dispatch overhead against calling the kernels directly, and
/// the rayon-style thread scaling of the parallel Winograd F4 path against a
/// forced single-thread run (the seed code's behaviour).
fn bench_engine_dispatch(c: &mut Criterion) {
    let layer = ConvLayer::conv3x3("resnet34.layer2", 128, 128, 28);
    let p = layer.params();
    let (h_in, w_in) = layer.input_hw();
    let x = normal(&[1, layer.c_in, h_in, w_in], 0.0, 1.0, 11);
    let w = normal(&[layer.c_out, layer.c_in, 3, 3], 0.0, 0.2, 12);
    let engine = Engine::with_default_backends();
    let planned = Planner::default().plan_layer(&layer).kernel;
    assert_eq!(planned, Kernel::WinogradF4);

    let mut group = c.benchmark_group("engine_resnet34_layer2");
    group.sample_size(10);
    group.bench_function("direct_call_winograd_f4", |b| {
        b.iter(|| winograd_conv2d(&x, &w, TileSize::F4))
    });
    group.bench_function("engine_dispatch_winograd_f4", |b| {
        b.iter(|| engine.execute(planned, &x, &w, None, p))
    });
    group.bench_function("engine_dispatch_im2col", |b| {
        b.iter(|| engine.execute(Kernel::Im2col, &x, &w, None, p))
    });
    group.finish();

    let mut threads = c.benchmark_group("winograd_f4_thread_scaling");
    threads.sample_size(10);
    for workers in [1usize, 0] {
        let label = if workers == 1 {
            "single_thread"
        } else {
            "all_cores"
        };
        threads.bench_with_input(BenchmarkId::new("winograd_f4", label), &workers, |b, &n| {
            parallel::set_max_threads(n);
            b.iter(|| winograd_conv2d(&x, &w, TileSize::F4));
        });
    }
    parallel::set_max_threads(0);
    threads.finish();
}

/// The tap-major batched-GEMM forward passes against the per-tile reference
/// loops they replaced, on the ResNet-34 layer2 shape (128→128 @ 28×28) —
/// the headline numbers of the tap-major rewrite.
fn bench_tap_major(c: &mut Criterion) {
    let layer = ConvLayer::conv3x3("resnet34.layer2", 128, 128, 28);
    let (h_in, w_in) = layer.input_hw();
    let x = normal(&[1, layer.c_in, h_in, w_in], 0.0, 1.0, 21);
    let w = normal(&[layer.c_out, layer.c_in, 3, 3], 0.0, 0.2, 22);

    let mut group = c.benchmark_group("tap_major_vs_per_tile");
    group.sample_size(10);
    let prep = PreparedWinogradConv::prepare(&w, TileSize::F4);
    group.bench_function("float_f4_tap_major", |b| b.iter(|| prep.forward(&x)));
    group.bench_function("float_f4_per_tile", |b| {
        b.iter(|| prep.forward_per_tile(&x))
    });

    let cfg = WinogradQuantConfig::tapwise_po2(TileSize::F4, 8);
    let mats = WinogradMatrices::for_tile(TileSize::F4);
    let scales = TapwiseScales::calibrate(&w, &x, &mats, cfg.wino_bits, cfg.mode);
    let xp = QuantParams::from_max(x.abs_max(), QuantBits::int8()).to_power_of_two();
    let xq = x.map(|v| xp.quantize(v) as i8);
    let conv = IntWinogradConv::prepare(&w, &scales, xp, 10.0, cfg);
    group.bench_function("int_f4_tap_major", |b| b.iter(|| conv.forward(&xq)));
    group.bench_function("int_f4_per_tile", |b| b.iter(|| conv.forward_per_tile(&xq)));
    group.finish();

    // Conv + ReLU as one fused epilogue versus a second pass over the
    // activation (what the graph executor saves per fused node pair).
    let mut fused = c.benchmark_group("fused_relu");
    fused.sample_size(10);
    fused.bench_function("float_f4_fused", |b| {
        b.iter(|| prep.forward_fused(&x, None, true))
    });
    fused.bench_function("float_f4_separate", |b| {
        b.iter(|| {
            let mut y = prep.forward(&x);
            relu_inplace(&mut y);
            y
        })
    });
    fused.bench_function("int_f4_fused", |b| {
        b.iter(|| conv.forward_fused(&xq, true).dequantize())
    });
    fused.bench_function("int_f4_separate", |b| {
        b.iter(|| {
            let mut y = conv.forward(&xq).dequantize();
            relu_inplace(&mut y);
            y
        })
    });
    fused.finish();
}

/// The GEMM convolution on every distinct layer shape of ResNet-50 at 160×160
/// that no Winograd kernel takes (1×1, stride-2 3×3, the 7×7 stem) — the
/// shapes behind `core.graph_exec.im2col_ms` on the `resnet50_int` benchmark
/// workload. `prepared` is what a graph node pays per run; `conv2d_im2col`
/// adds the per-call weight pack (and, before the prepared path existed, was
/// the whole lowered-matrix formulation — run this group on both commits for
/// a before/after table).
fn bench_fallback_resnet50(c: &mut Criterion) {
    let graph = resnet50_graph(160);
    let mut shapes: Vec<&ConvLayer> = Vec::new();
    for node in graph.nodes() {
        if let GraphOp::Conv(l) = &node.op {
            let seen = |s: &&ConvLayer| {
                (s.c_in, s.c_out, s.h_out, s.kernel, s.stride)
                    == (l.c_in, l.c_out, l.h_out, l.kernel, l.stride)
            };
            if !l.params().is_winograd_eligible() && !shapes.iter().any(seen) {
                shapes.push(l);
            }
        }
    }
    let mut group = c.benchmark_group("fallback_resnet50");
    group.sample_size(10);
    for l in shapes {
        let (h_in, w_in) = l.input_hw();
        let x = normal(&[1, l.c_in, h_in, w_in], 0.0, 1.0, 31);
        let w = normal(&[l.c_out, l.c_in, l.kernel, l.kernel], 0.0, 0.1, 32);
        let p = l.params();
        let shape = format!(
            "{}x{}k{}s{}@{}",
            l.c_in, l.c_out, l.kernel, l.stride, l.h_out
        );
        let prepared = PreparedGemmConv::prepare(&w, p);
        group.bench_function(BenchmarkId::new("prepared", &shape), |b| {
            b.iter(|| prepared.forward(&x, &EpilogueOps::none()))
        });
        group.bench_function(BenchmarkId::new("conv2d_im2col", &shape), |b| {
            b.iter(|| conv2d_im2col(&x, &w, None, p))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_conv_kernels,
    bench_engine_dispatch,
    bench_tap_major,
    bench_fallback_resnet50
);
criterion_main!(benches);
