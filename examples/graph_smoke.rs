//! Smoke-runs quantized chained inference on the ResNet-20 graph: activations
//! flow conv → residual add → ReLU end to end, each 3×3 node runs the integer
//! tap-wise Winograd pipeline with cached prepared state, and the run report
//! prints the per-node kernel histogram, the activation arena's peak memory,
//! and the cold-vs-cached run times. Then runs quantized ResNet-50 (bottleneck
//! blocks: most conv nodes are 1×1 or strided) and checks that every node no
//! Winograd kernel takes ran the prepared GEMM convolution. Used as the CI
//! end-to-end check.
//!
//! ```sh
//! cargo run --release --example graph_smoke
//! ```

use winograd_tapwise::wino_core::{GraphExecutor, GraphRunOptions, TileSize, WinogradQuantConfig};
use winograd_tapwise::wino_nets::{resnet20_graph, resnet50_graph, GraphOp};

fn main() {
    let graph = resnet20_graph();
    let opts = GraphRunOptions::default();
    println!(
        "{}: {} nodes ({} conv), {:.1} MMAC chained",
        graph.name,
        graph.nodes().len(),
        graph.conv_count(),
        graph.total_macs() as f64 / 1e6
    );

    let exec = GraphExecutor::quantized(WinogradQuantConfig::tapwise_po2(TileSize::F4, 10));
    let prepared = exec.prepare(&graph, &opts);
    let first = exec.run(&prepared);
    let second = exec.run(&prepared);

    let hist = first.kernel_histogram();
    println!(
        "kernels: {} im2col / {} F2 / {} F4 across {} conv nodes",
        hist[0].1,
        hist[1].1,
        hist[2].1,
        graph.conv_count()
    );
    println!(
        "arena: peak {:.1} KiB live activations, {} buffer reuses, {} fresh allocs",
        first.peak_live_bytes as f64 / 1024.0,
        first.arena_reuse_hits,
        first.arena_fresh_allocs
    );
    println!(
        "run 1 (calibrate + prepare): {:.1} ms, run 2 (cached): {:.1} ms",
        first.total_seconds * 1e3,
        second.total_seconds * 1e3
    );

    // Cross-check the chained integer pipeline against the direct-conv
    // ground truth.
    let reference = GraphExecutor::reference();
    let ref_run = reference.run(&reference.prepare(&graph, &opts));
    let err = first.outputs[0].1.relative_error(&ref_run.outputs[0].1);
    println!("end-to-end int-vs-direct relative error: {err:.4}");

    assert!(hist[2].1 > 0, "no node ran the F4 integer pipeline");
    assert_eq!(
        first.outputs[0].1, second.outputs[0].1,
        "cached state changed the result"
    );
    assert!(err < 0.25, "end-to-end error {err} out of bounds");

    // Every conv that is not a 3×3 runs the prepared GEMM convolution.
    let graph = resnet50_graph(64);
    let prepared = exec.prepare(&graph, &opts);
    exec.warmup(&prepared);
    let run = exec.run(&prepared);
    let mut fallback = (0usize, 0.0f64);
    for (node, ran) in graph.nodes().iter().zip(&run.nodes) {
        assert!(ran.checksum.is_finite(), "{}: non-finite output", ran.name);
        if matches!(&node.op, GraphOp::Conv(l) if l.kernel != 3) {
            assert_eq!(
                ran.backend,
                Some("im2col-gemm"),
                "{} left the GEMM path",
                ran.name
            );
            fallback = (fallback.0 + 1, fallback.1 + ran.seconds);
        }
    }
    assert!(run.outputs[0].1.abs_max().is_finite(), "non-finite logits");
    println!(
        "{}: {} of {} conv nodes on im2col-gemm, {:.1} of {:.1} ms",
        graph.name,
        fallback.0,
        graph.conv_count(),
        fallback.1 * 1e3,
        run.total_seconds * 1e3
    );
    println!("graph smoke OK");
}
