//! End-to-end graph inference: activations chained through real topologies.
//!
//! These tests pin the graph subsystem's contract: the builders' residual
//! adds, skip concats and FPN merges compute the same function as a direct
//! convolution reference; every benchmark graph executes end to end through
//! the planned backends; and the prepared-state cache makes repeated
//! quantized runs cheaper without changing their results.

use winograd_tapwise::wino_core::{
    prepare_call_count, GraphExecutor, GraphRunOptions, TileSize, WinogradQuantConfig,
};
use winograd_tapwise::wino_nets::{
    resnet20_graph, resnet34_graph, resnet50_graph, retinanet_graph, unet_graph, GraphOp,
};
use winograd_tapwise::wino_tensor::{
    batch_slice, concat_batch, normal, set_max_threads, ConvParams, EpilogueOps, PreparedGemmConv,
};

/// Counts the heap allocations of the calling thread (tests of this binary
/// run on parallel threads), for the allocation pin below.
struct CountingAlloc;

thread_local! {
    static THREAD_ALLOCS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

fn thread_allocs() -> usize {
    THREAD_ALLOCS.with(std::cell::Cell::get)
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a plain thread-local
// cell without a destructor and touches no allocator state.
unsafe impl std::alloc::GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: std::alloc::Layout) -> *mut u8 {
        let _ = THREAD_ALLOCS.try_with(|c| c.set(c.get() + 1));
        // SAFETY: the caller's `layout` is passed through as given.
        unsafe { std::alloc::System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: std::alloc::Layout) -> *mut u8 {
        let _ = THREAD_ALLOCS.try_with(|c| c.set(c.get() + 1));
        // SAFETY: as for `alloc`.
        unsafe { std::alloc::System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: std::alloc::Layout, new: usize) -> *mut u8 {
        let _ = THREAD_ALLOCS.try_with(|c| c.set(c.get() + 1));
        // SAFETY: `ptr` and `layout` come from this allocator, which only
        // ever hands out `System` blocks.
        unsafe { std::alloc::System.realloc(ptr, layout, new) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: std::alloc::Layout) {
        // SAFETY: as for `realloc`.
        unsafe { std::alloc::System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Held by every test that runs a quantized executor: `prepare_call_count`
/// is process-wide, and the test differencing it must not see the integer
/// prepares of a test running beside it.
static INT_PREPARES: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn int_prepares() -> std::sync::MutexGuard<'static, ()> {
    // A failed holder poisons nothing the counter cares about.
    INT_PREPARES
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Residual adds verified against the direct-convolution ground truth: the
/// Winograd-planned ResNet-20 graph and the all-direct reference must compute
/// the same function through all 9 shortcut merges.
#[test]
fn resnet20_residual_chain_matches_direct_reference() {
    let graph = resnet20_graph().with_channel_div(4);
    let opts = GraphRunOptions::default();
    let fast = GraphExecutor::with_defaults();
    let reference = GraphExecutor::reference();
    let a = fast.run(&fast.prepare(&graph, &opts));
    let b = reference.run(&reference.prepare(&graph, &opts));
    assert_eq!(a.outputs.len(), 1);
    let err = a.outputs[0].1.relative_error(&b.outputs[0].1);
    assert!(err < 1e-4, "graph output diverges from direct: {err}");
    // The fast run must actually have used Winograd kernels to say anything.
    assert!(a.kernel_histogram()[2].1 > 0, "no F4 node executed");
    // And per-node checksums must agree at every add node, not just the end.
    for (na, nb) in a.nodes.iter().zip(b.nodes.iter()) {
        if na.kind == "add" {
            let denom = nb.checksum.abs().max(1e-3);
            assert!(
                ((na.checksum - nb.checksum) / denom).abs() < 1e-2,
                "residual {} drifted: {} vs {}",
                na.name,
                na.checksum,
                nb.checksum
            );
        }
    }
}

/// Skip concats verified against the direct reference on a small U-Net.
#[test]
fn unet_skip_concats_match_direct_reference() {
    let graph = unet_graph(32).with_channel_div(16);
    let opts = GraphRunOptions::default();
    let fast = GraphExecutor::with_defaults();
    let reference = GraphExecutor::reference();
    let a = fast.run(&fast.prepare(&graph, &opts));
    let b = reference.run(&reference.prepare(&graph, &opts));
    let err = a.outputs[0].1.relative_error(&b.outputs[0].1);
    assert!(err < 1e-4, "U-Net concat path diverges from direct: {err}");
    assert!(graph
        .nodes()
        .iter()
        .any(|n| matches!(n.op, GraphOp::Concat)));
}

/// Acceptance: ResNet-34, ResNet-50, U-Net and RetinaNet-FPN all run end to
/// end with chained activations (scaled-down for test speed).
#[test]
fn all_benchmark_graphs_run_end_to_end() {
    let exec = GraphExecutor::with_defaults();
    let opts = GraphRunOptions::default();
    for graph in [
        resnet34_graph(32).with_channel_div(16),
        resnet50_graph(32).with_channel_div(16),
        unet_graph(16).with_channel_div(16),
        retinanet_graph(32).with_channel_div(16),
    ] {
        let prepared = exec.prepare(&graph, &opts);
        let run = exec.run(&prepared);
        assert_eq!(
            run.outputs.len(),
            graph.output_ids().len(),
            "{}: missing outputs",
            graph.name
        );
        for (name, t) in &run.outputs {
            assert!(
                t.abs_max().is_finite(),
                "{}: output {name} is not finite",
                graph.name
            );
        }
        for node in &run.nodes {
            assert!(node.checksum.is_finite(), "{}: {}", graph.name, node.name);
        }
        // Winograd-eligible nodes must have moved off im2col.
        let hist = run.kernel_histogram();
        assert!(
            hist[1].1 + hist[2].1 > 0,
            "{}: no Winograd node executed",
            graph.name
        );
        assert!(
            run.peak_live_bytes > 0 && run.arena_reuse_hits > 0,
            "{}",
            graph.name
        );
    }
}

/// Satellite: `IntWinogradConv::prepare` runs exactly once per 3×3 Winograd
/// node across N repeated runs, and the cached state leaves results
/// bit-identical.
#[test]
fn int_prepare_runs_once_per_node_across_repeated_runs() {
    let _serial = int_prepares();
    let graph = resnet20_graph().with_channel_div(4);
    let exec = GraphExecutor::quantized(WinogradQuantConfig::tapwise_po2(TileSize::F4, 10));
    let prepared = exec.prepare(&graph, &GraphRunOptions::default());
    let before = prepare_call_count();
    let first = exec.run(&prepared);
    let after_first = prepare_call_count();
    let int_nodes = first
        .nodes
        .iter()
        .filter(|n| n.backend == Some("int-winograd-tapwise"))
        .count();
    // Every stride-1 3x3 node of ResNet-20 runs the integer pipeline.
    let eligible = graph
        .nodes()
        .iter()
        .filter(|n| matches!(&n.op, GraphOp::Conv(l) if l.kernel == 3 && l.stride == 1))
        .count();
    assert_eq!(int_nodes, eligible, "integer coverage of 3x3 nodes");
    assert_eq!(after_first - before, int_nodes, "one prepare per node");
    let mut last = first;
    for _ in 0..3 {
        let run = exec.run(&prepared);
        assert_eq!(run.outputs[0].1, last.outputs[0].1, "cached state drifted");
        last = run;
    }
    assert_eq!(
        prepare_call_count(),
        after_first,
        "repeated runs must not re-prepare"
    );
}

/// Satellite: int-vs-float end-to-end error on the ResNet-20 graph stays
/// within the existing per-layer bound of the integer backend (0.25).
#[test]
fn int_graph_error_stays_within_per_layer_bound() {
    let _serial = int_prepares();
    let graph = resnet20_graph().with_channel_div(4);
    let opts = GraphRunOptions::default();
    let float = GraphExecutor::with_defaults();
    let float_out = float.run(&float.prepare(&graph, &opts));
    let int = GraphExecutor::quantized(WinogradQuantConfig::tapwise_po2(TileSize::F4, 10));
    let int_out = int.run(&int.prepare(&graph, &opts));
    let err = int_out.outputs[0].1.relative_error(&float_out.outputs[0].1);
    // Empirically ~0.09 for int8/10; the existing per-layer bound is 0.25.
    assert!(
        err < 0.25,
        "end-to-end int error {err} beyond per-layer bound"
    );
}

/// Acceptance: the prepared-state cache makes run 2+ faster than run 1 on
/// the quantized path (run 1 pays per-node calibration + prepare).
#[test]
fn cached_quantized_runs_beat_the_calibrating_first_run() {
    let _serial = int_prepares();
    let graph = resnet20_graph().with_channel_div(2);
    let exec = GraphExecutor::quantized(WinogradQuantConfig::tapwise_po2(TileSize::F4, 8));
    let prepared = exec.prepare(&graph, &GraphRunOptions::default());
    let cold = exec.run(&prepared).total_seconds;
    // Two warm runs; take the faster to shield against scheduler noise.
    let warm = exec
        .run(&prepared)
        .total_seconds
        .min(exec.run(&prepared).total_seconds);
    assert!(
        warm < cold,
        "cached run ({warm:.4}s) not faster than calibrating run ({cold:.4}s)"
    );
}

/// The bottleneck topology (1×1 → 3×3 → 1×1 with 1×1 stride-2 projections
/// and the 7×7 stem) puts most conv nodes on the prepared GEMM convolution.
/// On both executors a batched run must equal the per-image runs stacked bit
/// for bit — `Y[n] = W · X[n]` touches one image at a time — and the float
/// run must match the direct reference within the FP32 bound.
#[test]
fn bottleneck_graph_batches_bitwise_and_matches_direct_reference() {
    let _serial = int_prepares();
    let graph = resnet50_graph(64).with_channel_div(8);
    let opts = GraphRunOptions::default();
    let (c, h, w) = graph.validate().expect("valid graph")[graph.input_ids()[0]];
    let images: Vec<_> = (0..3)
        .map(|i| normal(&[1, c, h, w], 0.0, 1.0, 70 + i))
        .collect();
    let stacked = concat_batch(&images.iter().collect::<Vec<_>>());
    for exec in [
        GraphExecutor::with_defaults(),
        GraphExecutor::quantized(WinogradQuantConfig::tapwise_po2(TileSize::F4, 8)),
    ] {
        let prepared = exec.prepare(&graph, &opts);
        // Freezes the integer calibration (a no-op for the float executor)
        // so every later run quantizes against the same scales.
        let batched = exec.calibrate_with(&prepared, std::slice::from_ref(&stacked));
        let fallback = batched
            .nodes
            .iter()
            .filter(|n| n.backend == Some("im2col-gemm"))
            .count();
        assert!(
            fallback >= 30,
            "only {fallback} nodes on the GEMM convolution"
        );
        for (i, x) in images.iter().enumerate() {
            let single = exec.run_with_inputs(&prepared, std::slice::from_ref(x));
            let got = batch_slice(&batched.outputs[0].1, i, 1);
            assert_eq!(got, single.outputs[0].1, "image {i} changed under batching");
        }
    }
    let fast = GraphExecutor::with_defaults();
    let reference = GraphExecutor::reference();
    let a = fast.run(&fast.prepare(&graph, &opts));
    let b = reference.run(&reference.prepare(&graph, &opts));
    let err = a.outputs[0].1.relative_error(&b.outputs[0].1);
    assert!(err < 1e-4, "bottleneck graph diverges from direct: {err}");
}

/// A warmed prepared GEMM convolution allocates its output tensor (data and
/// dimensions) and nothing else: the weights were packed at prepare, the
/// lowered matrix is never built, and the gathered panel is parked on the
/// thread.
#[test]
fn warmed_fallback_conv_allocates_only_its_output() {
    // Two workers would add the fork-join bookkeeping; the other tests of
    // this binary do not depend on the worker count.
    set_max_threads(1);
    let params = ConvParams::new(3, 2, 1);
    let x = normal(&[2, 40, 13, 11], 0.0, 1.0, 1);
    let w = normal(&[24, 40, 3, 3], 0.0, 0.3, 2);
    let bias = normal(&[24], 0.0, 0.3, 3);
    let residual = normal(&[2, 24, 7, 6], 0.0, 1.0, 4);
    let ops = EpilogueOps {
        bias: Some(&bias),
        residual: Some(&residual),
        pre_add_relu: false,
        relu: true,
    };
    let prepared = PreparedGemmConv::prepare(&w, params);
    let warm = prepared.forward(&x, &ops);
    let before = thread_allocs();
    let again = prepared.forward(&x, &ops);
    let allocs = thread_allocs() - before;
    set_max_threads(0);
    assert_eq!(allocs, 2, "a warmed forward allocated beyond its output");
    assert_eq!(warm, again);
}
