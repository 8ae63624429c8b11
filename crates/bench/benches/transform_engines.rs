//! Criterion micro-benchmarks of the Winograd transformations themselves:
//! the single-tile float transforms, and the integer pipeline's transform
//! engines where they run — inside a probed forward on the ResNet-34 shapes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::sync::Arc;
use wino_core::{
    cook_toom_matrices, input_transform, output_transform, weight_transform, EpilogueOps,
    IntWinogradConv, Phase, PhaseProbe, QuantBits, QuantParams, TapwiseScales, TileSize,
    WinogradMatrices, WinogradQuantConfig,
};
use wino_tensor::{normal, parallel};

fn bench_transforms(c: &mut Criterion) {
    let mut group = c.benchmark_group("transforms");
    group.sample_size(20);
    for tile in [TileSize::F2, TileSize::F4, TileSize::F6] {
        let mats = WinogradMatrices::for_tile(tile);
        let t = tile.input_tile();
        let d = normal(&[t, t], 0.0, 1.0, 5);
        let k = normal(&[3, 3], 0.0, 1.0, 6);
        group.bench_with_input(
            BenchmarkId::new("input", tile.to_string()),
            &tile,
            |b, _| b.iter(|| input_transform(&d, &mats)),
        );
        group.bench_with_input(
            BenchmarkId::new("weight", tile.to_string()),
            &tile,
            |b, _| b.iter(|| weight_transform(&k, &mats)),
        );
        group.bench_with_input(
            BenchmarkId::new("output", tile.to_string()),
            &tile,
            |b, _| b.iter(|| output_transform(&d, &mats)),
        );
    }
    group.bench_function("cook_toom_generate_f4", |b| {
        b.iter(|| cook_toom_matrices(4, 3, &[0.0, 1.0, -1.0, 0.5, -0.5]))
    });
    group.finish();
}

/// `int_stages/<shape>`: a probed `IntWinogradConv::forward_epilogue` (fused
/// ReLU, dequantized output — what a graph node runs) on ResNet-34's four
/// 3×3 shapes, one thread, printing the input-stage (gather + transform +
/// requantization) and output-stage nanoseconds per call the layer's phase
/// probe collected. Regenerates the per-shape table of ROADMAP item 1.
fn bench_int_stages(c: &mut Criterion) {
    wino_trace::set_detail(wino_trace::Detail::Full);
    parallel::set_max_threads(1);
    for (shape, ch, hw) in [
        ("c64h56", 64, 56),
        ("c128h28", 128, 28),
        ("c256h14", 256, 14),
        ("c512h7", 512, 7),
    ] {
        let x = normal(&[1, ch, hw, hw], 0.0, 1.0, 31);
        let w = normal(&[ch, ch, 3, 3], 0.0, 0.2, 32);
        let cfg = WinogradQuantConfig::tapwise_po2(TileSize::F4, 8);
        let mats = WinogradMatrices::for_tile(TileSize::F4);
        let scales = TapwiseScales::calibrate(&w, &x, &mats, cfg.wino_bits, cfg.mode);
        let xp = QuantParams::from_max(x.abs_max(), QuantBits::int8()).to_power_of_two();
        let xq = x.map(|v| xp.quantize(v) as i8);
        let mut conv = IntWinogradConv::prepare(&w, &scales, xp, 10.0, cfg);
        let probe = Arc::new(PhaseProbe::new(shape));
        conv.set_probe(Arc::clone(&probe));
        let relu = EpilogueOps {
            bias: None,
            residual: None,
            pre_add_relu: false,
            relu: true,
        };
        let mut calls = 0_u64;
        let mut group = c.benchmark_group(&format!("int_stages/{shape}"));
        group.sample_size(20);
        group.bench_function("forward_epilogue", |b| {
            b.iter(|| {
                calls += 1;
                conv.forward_epilogue(&xq, &relu)
            })
        });
        group.finish();
        let snap = probe.snapshot();
        let per_call =
            |phases: &[Phase]| phases.iter().map(|&p| snap.phase_ns(p)).sum::<u64>() / calls.max(1);
        println!(
            "int_stages/{shape}: input stage {} ns, tap gemm {} ns, output stage {} ns, \
             epilogue {} ns per call ({calls} calls)",
            per_call(&[Phase::Gather, Phase::InputTransform]),
            per_call(&[Phase::TapGemm]),
            per_call(&[Phase::OutputTransform]),
            per_call(&[Phase::Epilogue]),
        );
    }
    parallel::set_max_threads(0);
    wino_trace::set_detail(wino_trace::Detail::Off);
}

criterion_group!(benches, bench_transforms, bench_int_stages);
criterion_main!(benches);
