//! The per-layer sweep of a traced run: each kernel layer called through its
//! public functions on the ResNet-34 3×3 shapes, timed from outside, with
//! the phase split read from the `PhaseProbe` the layers already fill.

use crate::report::Report;
use crate::spans::Spans;
use crate::stats;
use crate::workloads::SHAPES;
use crate::{Args, Ops};
use std::sync::Arc;
use std::time::Instant;
use wino_core::{
    IntWinogradConv, Phase, PhaseProbe, PreparedWinogradConv, QuantParams, TapwiseScales, TileSize,
    WinogradMatrices, WinogradQuantConfig,
};
use wino_tensor::{
    conv2d_im2col, gemm_f32_into, gemm_i16_i32_into, gemm_i8_i32_into, normal, ConvParams, Tensor,
};

/// `phase_cover` outside this band means the phase rows do not add up to the
/// forward they claim to split, and the row is flagged rather than trusted.
const COVER_BAND: (f64, f64) = (0.85, 1.15);

/// Warm calls before any timed or profiled call of a layer.
const WARM_CALLS: usize = 5;

/// Timed calls per layer: enough to fill `budget_s`, between 5 and 40.
fn timed_calls(one_call_s: f64, budget_s: f64) -> usize {
    ((budget_s / one_call_s.max(1e-9)) as usize).clamp(5, 40)
}

/// Where the sweep records: its spans, their parent, and the report.
struct Sweep<'a> {
    spans: &'a Spans,
    parent: u64,
    /// Seconds of timed calls per layer.
    budget_s: f64,
    report: &'a mut Report,
}

impl Sweep<'_> {
    /// Warms `forward`, then times it call by call while reading the probe
    /// around each call. Reports the median forward, the median of every
    /// phase and how much of the forward the phases cover.
    fn profile_forward(
        &mut self,
        path: &str,
        shape: &str,
        span_name: &'static str,
        probe: &PhaseProbe,
        mut forward: impl FnMut(),
    ) {
        let Sweep {
            spans,
            parent,
            budget_s,
            ref mut report,
        } = *self;
        let t = Instant::now();
        for _ in 0..WARM_CALLS {
            forward();
        }
        let calls = timed_calls(t.elapsed().as_secs_f64() / WARM_CALLS as f64, budget_s);
        let mut forward_ms = Vec::with_capacity(calls);
        let mut phase_ms: Vec<Vec<f64>> = vec![Vec::with_capacity(calls); Phase::ALL.len()];
        for i in 0..calls {
            let before = probe.snapshot();
            let t = Instant::now();
            {
                let _s = spans.open(span_name, parent, i as u64 + 1);
                forward();
            }
            forward_ms.push(t.elapsed().as_secs_f64() * 1e3);
            let after = probe.snapshot();
            for (samples, phase) in phase_ms.iter_mut().zip(Phase::ALL) {
                samples.push((after.phase_ns(phase) - before.phase_ns(phase)) as f64 / 1e6);
            }
        }
        let forward = stats::median(&mut forward_ms);
        report.put_n(format!("{path}.{shape}.forward_ms"), forward, "ms", calls);
        let mut covered = 0.0;
        for (samples, phase) in phase_ms.iter_mut().zip(Phase::ALL) {
            let ms = stats::median(samples);
            covered += ms;
            report.put_n(
                format!("{path}.{shape}.{}_ms", phase.name()),
                ms,
                "ms",
                calls,
            );
        }
        let cover = covered / forward;
        let m = report.put_n(format!("{path}.{shape}.phase_cover"), cover, "ratio", calls);
        if cover < COVER_BAND.0 || cover > COVER_BAND.1 {
            m.note = format!("FLAG outside {}-{}", COVER_BAND.0, COVER_BAND.1);
        }
    }
}

/// Median wall seconds of one call of `f`, over `samples` samples of `reps`
/// back-to-back calls each (short kernels need the batching to out-last the
/// clock's resolution).
fn median_call_s(samples: usize, reps: usize, mut f: impl FnMut()) -> f64 {
    let mut s: Vec<f64> = (0..samples)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..reps {
                f();
            }
            t.elapsed().as_secs_f64() / reps as f64
        })
        .collect();
    stats::median(&mut s)
}

/// Achieved Gop/s of one tap-GEMM-shaped product, `2·M·K·N` operations.
fn gemm_gops(m: usize, k: usize, n: usize, mut gemm: impl FnMut()) -> f64 {
    gemm();
    let t = Instant::now();
    gemm();
    let reps = ((2e-4 / t.elapsed().as_secs_f64().max(1e-9)) as usize).clamp(1, 1000);
    let s = median_call_s(15, reps, gemm);
    (2 * m * k * n) as f64 / s / 1e9
}

/// Nanoseconds of one call of a probe that is switched off, over `calls`.
fn disabled_ns(calls: u64, mut probe: impl FnMut()) -> f64 {
    let t = Instant::now();
    for _ in 0..calls {
        probe();
    }
    t.elapsed().as_secs_f64() * 1e9 / calls as f64
}

/// The sweep. Expects `wino_trace::Detail::Full` (the phase probes only fill
/// then) and restores it after the disabled-probe measurements.
pub fn traced_section(args: &Args, spans: &Spans, report: &mut Report) -> Ops {
    let root = spans.open("layer_section", 0, 0);
    let mut sweep = Sweep {
        spans,
        parent: root.id(),
        budget_s: if args.smoke { 0.02 } else { 0.25 },
        report,
    };
    let mut ops = Ops::default();
    for (si, (shape, c, hw)) in SHAPES.into_iter().enumerate() {
        let seed = args.seed.wrapping_mul(7919).wrapping_add(si as u64 * 2);
        let x = normal(&[1, c, hw, hw], 0.0, 1.0, seed);
        let w = normal(&[c, c, 3, 3], 0.0, 0.2, seed + 1);

        // Float F4, tap-major.
        let mut prep = {
            let _s = spans.open("PreparedWinogradConv::prepare", root.id(), si as u64);
            PreparedWinogradConv::prepare(&w, TileSize::F4)
        };
        let probe = Arc::new(PhaseProbe::new(shape));
        prep.set_probe(Arc::clone(&probe));
        let mut y_float = prep.forward(&x);
        sweep.profile_forward(
            "core.winograd",
            shape,
            "PreparedWinogradConv::forward",
            &probe,
            || y_float = std::hint::black_box(prep.forward(&x)),
        );

        // Integer F4 at 8 Winograd-domain bits, on calibrated int8 inputs.
        let cfg = WinogradQuantConfig::tapwise_po2(TileSize::F4, 8);
        let xp = QuantParams::from_max(x.abs_max(), cfg.spatial_bits).to_power_of_two();
        let mut conv = {
            let _s = spans.open("IntWinogradConv::prepare", root.id(), si as u64);
            let mats = WinogradMatrices::for_tile(TileSize::F4);
            let scales = TapwiseScales::calibrate(&w, &x, &mats, cfg.wino_bits, cfg.mode);
            IntWinogradConv::prepare(&w, &scales, xp, y_float.abs_max(), cfg)
        };
        let xq: Tensor<i8> = x.map(|v| xp.quantize(v) as i8);
        let probe = Arc::new(PhaseProbe::new(shape));
        conv.set_probe(Arc::clone(&probe));
        let mut y_int = conv.forward(&xq);
        sweep.profile_forward(
            "core.int_winograd",
            shape,
            "IntWinogradConv::forward",
            &probe,
            || y_int = std::hint::black_box(conv.forward(&xq)),
        );

        // The im2col+GEMM baseline the Winograd rows must beat.
        let params = ConvParams::new(3, 1, 1);
        let t = Instant::now();
        let mut y_im2col = conv2d_im2col(&x, &w, None, params);
        let calls = timed_calls(t.elapsed().as_secs_f64(), sweep.budget_s);
        let mut conv_ms: Vec<f64> = (0..calls)
            .map(|i| {
                let t = Instant::now();
                let _s = spans.open("conv2d_im2col", root.id(), i as u64 + 1);
                y_im2col = std::hint::black_box(conv2d_im2col(&x, &w, None, params));
                t.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        sweep.report.put_n(
            format!("tensor.im2col.{shape}.conv_ms"),
            stats::median(&mut conv_ms),
            "ms",
            calls,
        );

        // Output checks: float F4 agrees with im2col to rounding, integer F4
        // to quantization error.
        let y_int = y_int.dequantize();
        for (name, y, ceiling) in [("winograd", &y_float, 1e-3), ("int_winograd", &y_int, 0.35)] {
            let err = crate::graph::rel_err(std::iter::once((y.as_slice(), y_im2col.as_slice())));
            println!("check core.{name}.{shape}: rel_err vs im2col = {err:.3e}");
            ops.record(err <= ceiling, || {
                format!("core.{name}.{shape} rel_err {err} above {ceiling}")
            });
        }

        // The tap GEMM of this shape: M = C_out, K = C_in, N = F4 tiles of
        // one image.
        let n = hw.div_ceil(4).pow(2);
        let af: Vec<f32> = (0..c * c).map(|i| (i % 13) as f32 * 0.21 - 1.1).collect();
        let bf: Vec<f32> = (0..c * n).map(|i| (i % 11) as f32 * 0.17 - 0.8).collect();
        let a8: Vec<i8> = (0..c * c).map(|i| (i % 251) as i8).collect();
        let b8: Vec<i8> = (0..c * n).map(|i| (i % 241) as i8).collect();
        let a16: Vec<i16> = (0..c * c).map(|i| (i % 1021) as i16 - 500).collect();
        let b16: Vec<i16> = (0..c * n).map(|i| (i % 1013) as i16 - 500).collect();
        let mut cf = vec![0.0f32; c * n];
        let mut ci = vec![0i32; c * n];
        let gemm_span = spans.open("gemm_sweep", root.id(), si as u64);
        let f32_gops = gemm_gops(c, c, n, || {
            gemm_f32_into(&mut cf, &af, &bf, c, c, n);
            std::hint::black_box(&cf);
        });
        let i8_gops = gemm_gops(c, c, n, || {
            gemm_i8_i32_into(&mut ci, &a8, &b8, c, c, n);
            std::hint::black_box(&ci);
        });
        let i16_gops = gemm_gops(c, c, n, || {
            gemm_i16_i32_into(&mut ci, &a16, &b16, c, c, n);
            std::hint::black_box(&ci);
        });
        drop(gemm_span);
        let report = &mut *sweep.report;
        report.put(format!("tensor.gemm.{shape}.f32_gops"), f32_gops, "Gop/s");
        report.put(format!("tensor.gemm.{shape}.i8_gops"), i8_gops, "Gop/s");
        report.put(format!("tensor.gemm.{shape}.i16_gops"), i16_gops, "Gop/s");
    }
    let report = sweep.report;

    // What a switched-off probe costs at its call site.
    let calls = if args.smoke { 200_000 } else { 5_000_000 };
    wino_trace::set_detail(wino_trace::Detail::Off);
    let sym = wino_trace::intern("bench.disabled_span");
    let span_ns = disabled_ns(calls, || {
        drop(std::hint::black_box(wino_trace::span(
            sym,
            wino_trace::Category::Kernel,
            0,
        )));
    });
    wino_trace::set_detail(wino_trace::Detail::Full);
    report.put_n("trace.disabled_span_ns", span_ns, "ns", calls as usize);
    wino_fault::clear();
    let mut fired = 0u64;
    let probe_ns = disabled_ns(calls, || {
        fired += u64::from(std::hint::black_box(wino_fault::fire("bench.probe")));
    });
    report.put_n("fault.disabled_probe_ns", probe_ns, "ns", calls as usize);
    ops.record(fired == 0, || {
        format!("{fired} faults fired with no plan installed")
    });
    ops
}
