//! Graph workloads: one closed-loop caller running a whole network through
//! `GraphExecutor::run_with_inputs`, timed from outside.
//!
//! The timed loop gives each run an arena of its own. A caller that keeps one
//! `ActivationArena` across runs (`run_with_inputs_in`) has no steady state
//! to time: the arena parks every dead conv output and reuses few, so it
//! grows with every run (11.5 MB a run on ResNet-34) and run time follows
//! what fresh pages cost the host at that moment. The traced run measures
//! that caller too, as `core.graph_exec.infer_ms_kept_arena` beside the
//! allocation counts.

use crate::report::Report;
use crate::spans::Spans;
use crate::stats;
use crate::workloads::{ModelSpec, Workload, DATASET_SEED, GRAPH_INPUTS, SLICES};
use crate::{alloc_counts, Args, Ops};
use std::time::Instant;
use wino_core::{ActivationArena, GraphExecution, GraphExecutor, GraphRunOptions, PreparedGraph};
use wino_nets::{GraphOp, Kernel};
use wino_tensor::{normal, Tensor};

/// Seeded `normal(0, 1)` inputs for a model: `count` input sets, each one
/// tensor per graph input node at the model's batch size.
pub fn make_inputs(spec: &ModelSpec, seed: u64, count: usize) -> Vec<Vec<Tensor<f32>>> {
    let graph = spec.graph();
    (0..count)
        .map(|i| {
            graph
                .nodes()
                .iter()
                .filter_map(|node| match node.op {
                    GraphOp::Input {
                        channels,
                        height,
                        width,
                    } => Some((channels, height, width)),
                    _ => None,
                })
                .enumerate()
                .map(|(k, (c, h, w))| {
                    let s = seed
                        .wrapping_mul(1_000_003)
                        .wrapping_add((i * 31 + k) as u64);
                    normal(&[spec.batch, c, h, w], 0.0, 1.0, s)
                })
                .collect()
        })
        .collect()
}

/// The distinct inputs a graph workload cycles through.
fn workload_inputs(spec: &ModelSpec, args: &Args) -> Vec<Vec<Tensor<f32>>> {
    make_inputs(spec, args.seed, if args.smoke { 4 } else { GRAPH_INPUTS })
}

/// The fixed data set of a model: the calibration input, then the validation
/// inputs `rel_err` is taken over.
pub fn dataset(spec: &ModelSpec, smoke: bool) -> Vec<Vec<Tensor<f32>>> {
    make_inputs(spec, DATASET_SEED, 1 + spec.validation_inputs(smoke))
}

/// A model built, prepared and calibrated, with what each step cost.
pub struct ReadyModel {
    pub exec: GraphExecutor,
    pub prepared: PreparedGraph,
    pub build_s: f64,
    pub prepare_s: f64,
    pub calibrate_s: f64,
}

impl ReadyModel {
    pub fn setup_s(&self) -> f64 {
        self.build_s + self.prepare_s + self.calibrate_s
    }
}

fn executor(spec: &ModelSpec) -> GraphExecutor {
    match spec.quant() {
        Some(cfg) => GraphExecutor::quantized(cfg),
        None => GraphExecutor::with_defaults(),
    }
}

/// One fresh set-up cycle: graph build, `prepare`, then `calibrate_with` on
/// `calib` (which freezes the integer scales; on an FP32 model it is the
/// first, cache-filling run).
pub fn setup_model(
    spec: &ModelSpec,
    calib: &[Tensor<f32>],
    spans: &Spans,
    parent: u64,
) -> ReadyModel {
    let t = Instant::now();
    let graph = {
        let _s = spans.open("graph_build", parent, 0);
        spec.graph()
    };
    let build_s = t.elapsed().as_secs_f64();
    let exec = executor(spec);
    let t = Instant::now();
    let prepared = {
        let _s = spans.open("prepare", parent, 0);
        exec.prepare(
            &graph,
            &GraphRunOptions {
                batch: spec.batch,
                seed: 0,
            },
        )
    };
    let prepare_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    {
        let _s = spans.open("calibrate_with", parent, 0);
        std::hint::black_box(exec.calibrate_with(&prepared, calib));
    }
    let calibrate_s = t.elapsed().as_secs_f64();
    assert!(prepared.is_calibrated(), "calibrate_with left nodes open");
    ReadyModel {
        exec,
        prepared,
        build_s,
        prepare_s,
        calibrate_s,
    }
}

/// Every output tensor of a run, flattened in output-node order.
pub fn flat_outputs(run: &GraphExecution) -> Vec<f32> {
    run.outputs
        .iter()
        .flat_map(|(_, t)| t.as_slice().iter().copied())
        .collect()
}

pub fn bitwise_eq(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// `‖out − ref‖₂ / ‖ref‖₂` over all the given output sets together.
pub fn rel_err<'a>(pairs: impl Iterator<Item = (&'a [f32], &'a [f32])>) -> f64 {
    let (mut num, mut den) = (0.0f64, 0.0f64);
    for (out, reference) in pairs {
        assert_eq!(out.len(), reference.len(), "output sizes differ");
        for (&o, &r) in out.iter().zip(reference) {
            num += (f64::from(o) - f64::from(r)).powi(2);
            den += f64::from(r).powi(2);
        }
    }
    (num / den.max(f64::MIN_POSITIVE)).sqrt()
}

/// Where a run's wall time went, by the path each node executed
/// (`NodeExecution.backend`), in milliseconds.
#[derive(Debug, Default, Clone)]
pub struct Classes {
    pub int_winograd: Vec<f64>,
    pub winograd_f4: Vec<f64>,
    pub winograd_f2: Vec<f64>,
    pub im2col: Vec<f64>,
    pub structural: Vec<f64>,
    /// Wall time of the call minus the sum of its node times.
    pub overhead: Vec<f64>,
}

impl Classes {
    fn push(&mut self, run: &GraphExecution, wall_ms: f64) {
        let (mut int, mut f4, mut f2, mut im2col, mut structural) = (0.0, 0.0, 0.0, 0.0, 0.0);
        for n in &run.nodes {
            let ms = n.seconds * 1e3;
            match (n.kind, n.backend) {
                ("conv", Some("int-winograd-tapwise")) => int += ms,
                ("conv", Some("winograd-f4")) => f4 += ms,
                ("conv", Some("winograd-f2")) => f2 += ms,
                // Every other conv path is the im2col+GEMM fallback.
                ("conv", _) => im2col += ms,
                _ => structural += ms,
            }
        }
        self.int_winograd.push(int);
        self.winograd_f4.push(f4);
        self.winograd_f2.push(f2);
        self.im2col.push(im2col);
        self.structural.push(structural);
        self.overhead.push(wall_ms - run.total_seconds * 1e3);
    }
}

/// What a timed loop measured.
#[derive(Debug, Default)]
pub struct LoopOutcome {
    pub wall_s: f64,
    /// Wall milliseconds of each timed run, and whether its outputs were
    /// right.
    pub infer_ms: Vec<f64>,
    pub correct: Vec<bool>,
    pub ops: Ops,
    pub peak_live_bytes: usize,
    pub allocs: Vec<f64>,
    pub alloc_bytes: Vec<f64>,
    pub fresh_allocs: Vec<f64>,
    /// With a kept arena: bytes each run added to what the arena holds
    /// parked (`ArenaStats.free_bytes`).
    pub parked_bytes: Vec<f64>,
    pub classes: Classes,
    /// Conv nodes per planned kernel.
    pub nodes_im2col: usize,
    pub nodes_f2: usize,
    pub nodes_f4: usize,
}

/// How long a loop warms up and measures.
#[derive(Debug, Clone, Copy)]
pub struct Window {
    /// Untimed calls first.
    pub warmups: usize,
    /// Then timed calls for this long,
    pub seconds: f64,
    /// and at least this many.
    pub min_runs: usize,
}

/// The closed loop: one caller cycling through `inputs`. Each call is a
/// `run_with_inputs` (an arena of its own for the run) or, given `kept`, a
/// `run_with_inputs_in` on that one arena. Every run's outputs must equal,
/// bit for bit, the first run on the same input (`firsts`, filled as inputs
/// are first reached); a mismatch is a failed operation.
pub fn run_loop(
    model: &ReadyModel,
    inputs: &[Vec<Tensor<f32>>],
    firsts: &mut [Option<Vec<f32>>],
    mut kept: Option<&mut ActivationArena>,
    window: Window,
    spans: &Spans,
    parent: u64,
) -> LoopOutcome {
    let mut out = LoopOutcome::default();
    let mut i = 0usize;
    let mut started: Option<Instant> = None;
    loop {
        let timed = i >= window.warmups;
        if timed {
            let t0 = *started.get_or_insert_with(Instant::now);
            if out.infer_ms.len() >= window.min_runs && t0.elapsed().as_secs_f64() >= window.seconds
            {
                out.wall_s = t0.elapsed().as_secs_f64();
                break;
            }
        }
        let idx = i % inputs.len();
        let iteration = spans.open("iteration", parent, i as u64 + 1);
        let parked0 = kept.as_deref().map(|arena| arena.stats().free_bytes);
        let (allocs0, bytes0) = alloc_counts();
        let t = Instant::now();
        let run = match kept.as_deref_mut() {
            Some(arena) => {
                let _s = spans.open("run_with_inputs_in", iteration.id(), i as u64 + 1);
                model
                    .exec
                    .run_with_inputs_in(&model.prepared, &inputs[idx], arena)
            }
            None => {
                let _s = spans.open("run_with_inputs", iteration.id(), i as u64 + 1);
                model.exec.run_with_inputs(&model.prepared, &inputs[idx])
            }
        };
        let wall_ms = t.elapsed().as_secs_f64() * 1e3;
        let (allocs1, bytes1) = alloc_counts();
        let _check = spans.open("output_check", iteration.id(), i as u64 + 1);
        let ok = matches_first(&mut firsts[idx], flat_outputs(&run));
        let differs = || format!("run {i} differs from the first run on input {idx}");
        if timed {
            out.ops.record(ok, differs);
            out.infer_ms.push(wall_ms);
            out.correct.push(ok);
            out.allocs.push((allocs1 - allocs0) as f64);
            out.alloc_bytes.push((bytes1 - bytes0) as f64);
            out.fresh_allocs.push(run.arena_fresh_allocs as f64);
            if let (Some(arena), Some(parked0)) = (kept.as_deref(), parked0) {
                out.parked_bytes
                    .push(arena.stats().free_bytes as f64 - parked0 as f64);
            }
            out.classes.push(&run, wall_ms);
            out.peak_live_bytes = out.peak_live_bytes.max(run.peak_live_bytes);
            for (kernel, n) in run.kernel_histogram() {
                match kernel {
                    Kernel::Im2col => out.nodes_im2col = n,
                    Kernel::WinogradF2 => out.nodes_f2 = n,
                    Kernel::WinogradF4 => out.nodes_f4 = n,
                }
            }
        } else if !ok {
            // A warm-up run is not a timed operation, but a wrong answer
            // there still fails the run.
            out.ops.record(false, differs);
        }
        i += 1;
    }
    out
}

/// Whether `flat` equals the first outputs seen for its input; the first
/// outputs themselves only have to be finite.
fn matches_first(first: &mut Option<Vec<f32>>, flat: Vec<f32>) -> bool {
    match first {
        Some(first) => bitwise_eq(first, &flat),
        None => {
            let finite = flat.iter().all(|v| v.is_finite());
            *first = Some(flat);
            finite
        }
    }
}

/// Logits of `inputs` from a fresh `exec` model of `spec`.
fn logits(exec: &GraphExecutor, spec: &ModelSpec, inputs: &[Vec<Tensor<f32>>]) -> Vec<Vec<f32>> {
    let prepared = exec.prepare(
        &spec.graph(),
        &GraphRunOptions {
            batch: spec.batch,
            seed: 0,
        },
    );
    inputs
        .iter()
        .map(|x| flat_outputs(&exec.run_with_inputs(&prepared, x)))
        .collect()
}

fn rel_err_of(outs: &[Vec<f32>], refs: &[Vec<f32>]) -> f64 {
    rel_err(
        outs.iter()
            .map(Vec::as_slice)
            .zip(refs.iter().map(Vec::as_slice)),
    )
}

/// `rel_err` of an FP32 model: the FP32 executor against direct convolution
/// (`GraphExecutor::reference()`) on the validation inputs of the same net at
/// resolution 64 at most. Direct convolution of ResNet-34 at 224 would take
/// longer than the whole benchmark; at 64 it still takes 1.5 s an input.
pub fn fp32_rel_err(spec: &ModelSpec, smoke: bool) -> f64 {
    let small = ModelSpec {
        resolution: spec.resolution.min(64),
        ..spec.fp32()
    };
    let validation = &dataset(&small, smoke)[1..];
    rel_err_of(
        &logits(&GraphExecutor::with_defaults(), &small, validation),
        &logits(&GraphExecutor::reference(), &small, validation),
    )
}

/// The untraced run of a graph workload: all seven end-to-end metrics.
pub fn end_to_end(w: Workload, args: &Args, report: &mut Report) -> Ops {
    let spans = Spans::new(false);
    let spec = w.model(args.smoke);
    let inputs = workload_inputs(&spec, args);
    let data = dataset(&spec, args.smoke);
    let (calibration, validation) = (&data[0], &data[1..]);

    // What `rel_err` compares with is computed before the workload's own
    // model exists, so that the reference executor's weights and the timed
    // model's never share the process: a prepared ResNet-34 is 0.5 to 0.9 GB.
    let fp32_logits = match spec.wino_bits {
        Some(_) => logits(&GraphExecutor::with_defaults(), &spec.fp32(), validation),
        None => Vec::new(),
    };
    let fp32_err = spec
        .wino_bits
        .is_none()
        .then(|| fp32_rel_err(&spec, args.smoke));

    // Set-up, several fresh cycles; the last cycle's model is the one timed.
    let mut setups = Vec::new();
    let mut model = None;
    for _ in 0..args.setup_cycles() {
        drop(model.take());
        let m = setup_model(&spec, calibration, &spans, 0);
        setups.push(m.setup_s());
        model = Some(m);
    }
    let model = model.expect("at least one set-up cycle");
    let cycles = setups.len();
    report.put_n("setup_s", stats::median(&mut setups), "s", cycles);

    let mut firsts = vec![None; inputs.len()];
    let window = Window {
        warmups: args.warmup_runs(),
        seconds: args.seconds,
        min_runs: 3,
    };
    let run = run_loop(&model, &inputs, &mut firsts, None, window, &spans, 0);

    let mut infer = run.infer_ms.clone();
    stats::sort(&mut infer);
    let n = infer.len();
    let p50 = stats::percentile(&infer, 50.0);
    report.put_n("infer_ms_p50", p50, "ms", n);
    // One caller, no queue and no wire: a request is one inference, so its
    // latency distribution is the inference-time distribution.
    report.put_n("latency_ms_p50", p50, "ms", n);
    let p = w.tail_percentile();
    let tail = stats::percentile(&infer, p);
    let beyond = infer.iter().filter(|&&ms| ms > tail).count();
    report.put_n("latency_ms_p99", tail, "ms", n).note =
        format!("read at p{p}, {beyond} samples beyond it");
    report
        .put_n("goodput_rps", sliced_rate(&run), "1/s", n)
        .note = format!("median of {SLICES} slices");
    report.put("peak_live_bytes", run.peak_live_bytes as f64, "bytes");

    let err = fp32_err.unwrap_or_else(|| {
        let outs: Vec<Vec<f32>> = validation
            .iter()
            .map(|x| flat_outputs(&model.exec.run_with_inputs(&model.prepared, x)))
            .collect();
        rel_err_of(&outs, &fp32_logits)
    });
    report.put("rel_err", err, "ratio");
    let mut ops = run.ops;
    ops.failures.extend(w.rel_err_over_ceiling(err));
    ops
}

/// Bitwise-correct runs per second of a loop: the median over `SLICES`
/// consecutive slices of its runs, each slice's correct runs over the time
/// its runs took.
fn sliced_rate(run: &LoopOutcome) -> f64 {
    let runs: Vec<(f64, bool)> = run
        .infer_ms
        .iter()
        .copied()
        .zip(run.correct.iter().copied())
        .collect();
    let mut rates: Vec<f64> = stats::slices(&runs, SLICES)
        .map(|slice| {
            let correct = slice.iter().filter(|(_, ok)| *ok).count();
            let ms: f64 = slice.iter().map(|(ms, _)| ms).sum();
            correct as f64 / ms * 1e3
        })
        .collect();
    stats::median(&mut rates)
}

/// The graph section of a traced run, on the workload's model: set-up split,
/// then three passes of a fifth of the run length each. An untraced and a
/// traced pass of the timed loop give the executor's per-class times, phase
/// profile, planner counts and the tracing overhead. A third pass keeps one
/// `ActivationArena` across its runs, warm, as a serving worker does: its
/// allocation counts are the baseline an allocation-free steady state is
/// claimed against.
pub fn traced_section(w: Workload, args: &Args, spans: &Spans, report: &mut Report) -> Ops {
    let spec = w.model(args.smoke);
    let inputs = workload_inputs(&spec, args);
    let root = spans.open("graph_section", 0, 0);
    let model = setup_model(&spec, &dataset(&spec, args.smoke)[0], spans, root.id());
    report.put("nets.build_s", model.build_s, "s");
    report.put("core.graph_exec.prepare_s", model.prepare_s, "s");
    report.put("core.running.calibrate_s", model.calibrate_s, "s");

    let mut firsts = vec![None; inputs.len()];
    let mut window = Window {
        warmups: args.warmup_runs(),
        seconds: args.seconds / 5.0,
        min_runs: 5,
    };
    let off = Spans::new(false);
    wino_trace::set_detail(wino_trace::Detail::Off);
    let untraced = run_loop(&model, &inputs, &mut firsts, None, window, &off, 0);
    let mut arena = ActivationArena::new();
    let kept = run_loop(
        &model,
        &inputs,
        &mut firsts,
        Some(&mut arena),
        window,
        spans,
        root.id(),
    );
    wino_trace::set_detail(wino_trace::Detail::Full);
    model.prepared.reset_phase_profile();
    window.warmups = 0;
    let traced = run_loop(&model, &inputs, &mut firsts, None, window, spans, root.id());
    let profile = model.prepared.phase_profile();
    let runs = traced.infer_ms.len();

    let med = |v: &[f64]| stats::median(&mut v.to_vec());
    // The fewest of the pass: a run in which no list (the arena's, the span
    // recorder's) happened to double, so the count does not depend on how
    // many runs the window held.
    let least = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
    let kept_runs = kept.infer_ms.len();
    for (name, value, unit) in [
        ("allocs_per_infer", least(&kept.allocs), "count"),
        ("alloc_bytes_per_infer", least(&kept.alloc_bytes), "bytes"),
        ("arena_fresh_allocs", med(&kept.fresh_allocs), "count"),
        ("infer_ms_kept_arena", med(&kept.infer_ms), "ms"),
        (
            "arena_parked_bytes_per_infer",
            med(&kept.parked_bytes),
            "bytes",
        ),
    ] {
        report.put_n(format!("core.graph_exec.{name}"), value, unit, kept_runs);
    }

    let c = &traced.classes;
    for (name, samples) in [
        ("int_winograd_ms", &c.int_winograd),
        ("winograd_f4_ms", &c.winograd_f4),
        ("winograd_f2_ms", &c.winograd_f2),
        ("im2col_ms", &c.im2col),
        ("structural_ms", &c.structural),
        ("overhead_ms", &c.overhead),
    ] {
        report.put_n(format!("core.graph_exec.{name}"), med(samples), "ms", runs);
    }
    let mut infer = traced.infer_ms.clone();
    stats::sort(&mut infer);
    let (p90, p) = stats::tail(&infer, 90);
    report
        .put_n("core.graph_exec.infer_ms_p90", p90, "ms", runs)
        .note = format!("read at p{p}");
    for phase in wino_core::Phase::ALL {
        report.put_n(
            format!("core.graph_exec.phase.{}_ms", phase.name()),
            profile.phase_ns(phase) as f64 / 1e6 / runs as f64,
            "ms",
            runs,
        );
    }
    report.put("core.planner.nodes_f4", traced.nodes_f4 as f64, "count");
    report.put("core.planner.nodes_f2", traced.nodes_f2 as f64, "count");
    report.put(
        "core.planner.nodes_im2col",
        traced.nodes_im2col as f64,
        "count",
    );
    report.put(
        "core.planner.fused_nodes",
        model.prepared.fused_node_count() as f64,
        "count",
    );
    let (p50_traced, p50_untraced) = (med(&traced.infer_ms), med(&untraced.infer_ms));
    report.put_n(
        "trace.overhead_pct",
        (p50_traced - p50_untraced) / p50_untraced * 100.0,
        "%",
        runs,
    );
    let mut ops = untraced.ops;
    ops.absorb(kept.ops);
    ops.absorb(traced.ops);
    ops
}
