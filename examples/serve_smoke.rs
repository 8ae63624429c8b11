//! Smoke-runs in-process batched serving: a quantized ResNet-20 prepared
//! once, warmed up (calibration frozen before workers start), registered as
//! the only model of a `ModelRegistry`, then hit with 64 single-image
//! requests from four client threads against a 2-worker `RegistryServer`
//! pool. Asserts that every served output is bit-identical to the sequential
//! quantized path and within the integer error bound of the direct-conv
//! ground truth, that dynamic batching actually coalesced requests, and
//! prints the per-model latency table with the pooled arena line. Used as
//! the CI serving check.
//!
//! ```sh
//! cargo run --release --example serve_smoke
//! ```

use std::sync::Arc;
use std::time::Duration;
use winograd_tapwise::wino_core::{GraphExecutor, GraphRunOptions, TileSize, WinogradQuantConfig};
use winograd_tapwise::wino_nets::resnet20_graph;
use winograd_tapwise::wino_serve::{
    AdmissionControl, BatchPolicy, ModelReply, ModelServeConfig, RegistryBuilder, RegistryServer,
};
use winograd_tapwise::wino_tensor::{normal, Tensor};

const REQUESTS: usize = 64;
const CLIENTS: usize = 4;
const MODEL: &str = "resnet20";

fn main() {
    let graph = resnet20_graph();
    let exec = Arc::new(GraphExecutor::quantized(WinogradQuantConfig::tapwise_po2(
        TileSize::F4,
        10,
    )));
    let prepared = Arc::new(exec.prepare(&graph, &GraphRunOptions::default()));
    // Calibrate once, explicitly, before anything races: the sequential
    // reference below and the server's workers share this frozen state.
    exec.warmup(&prepared);
    println!(
        "{}: {} nodes ({} integer conv), prepared + calibrated",
        graph.name,
        graph.nodes().len(),
        prepared.int_conv_count()
    );

    // Sequential references: the quantized path (must match bitwise) and the
    // direct-conv ground truth (must match within the integer error bound).
    let reference = GraphExecutor::reference();
    let ref_prepared = reference.prepare(&graph, &GraphRunOptions::default());
    let cases: Vec<(Tensor<f32>, Tensor<f32>, Tensor<f32>)> = (0..REQUESTS as u64)
        .map(|i| {
            let x = normal(&[1, 3, 32, 32], 0.0, 1.0, 2000 + i);
            let quant = exec.run_with_inputs(&prepared, std::slice::from_ref(&x));
            let direct = reference.run_with_inputs(&ref_prepared, std::slice::from_ref(&x));
            (x, quant.outputs[0].1.clone(), direct.outputs[0].1.clone())
        })
        .collect();

    let registry = RegistryBuilder::new()
        .model(
            MODEL,
            Arc::clone(&exec),
            Arc::clone(&prepared),
            ModelServeConfig {
                policy: BatchPolicy {
                    max_batch: 8,
                    max_wait: Duration::from_millis(2),
                },
                // Every request is queued at once; none may be refused or
                // shed, however slow the machine.
                admission: AdmissionControl {
                    max_queue: REQUESTS,
                    deadline: Duration::from_secs(60),
                },
                ..ModelServeConfig::default()
            },
        )
        .build();
    let server = RegistryServer::start(Arc::clone(&registry), 2);

    // Four client threads hammer the queue concurrently so the scheduler
    // has something to coalesce.
    let handles: Vec<_> = cases
        .chunks(REQUESTS / CLIENTS)
        .map(|chunk| {
            let registry = Arc::clone(&registry);
            let chunk = chunk.to_vec();
            std::thread::spawn(move || {
                let pending: Vec<_> = chunk
                    .iter()
                    .map(|(x, _, _)| registry.submit(MODEL, vec![x.clone()]).expect("accepted"))
                    .collect();
                pending
                    .into_iter()
                    .zip(chunk)
                    .map(|(p, (_, quant, direct))| {
                        let reply = p.wait().and_then(ModelReply::ok).expect("served");
                        (reply, quant, direct)
                    })
                    .collect::<Vec<_>>()
            })
        })
        .collect();

    let mut worst_err = 0.0f32;
    for h in handles {
        for (reply, quant, direct) in h.join().expect("client thread") {
            assert_eq!(
                reply.outputs[0].1, quant,
                "served output differs bitwise from the sequential quantized path"
            );
            worst_err = worst_err.max(reply.outputs[0].1.relative_error(&direct));
        }
    }

    let report = server.shutdown();
    print!("{}", report.render());
    println!("worst served-vs-direct relative error: {worst_err:.4}");

    let model = report.model(MODEL).expect("the one registered model");
    assert_eq!(model.requests, REQUESTS, "a request went unanswered");
    assert_eq!(model.images, REQUESTS);
    assert!(
        model.max_batch_observed() > 1,
        "dynamic batching never coalesced (histogram {:?})",
        model.batch_histogram
    );
    assert!(model.latency.p50 > Duration::ZERO);
    assert!(model.latency.p99 >= model.latency.p50);
    assert!(model.throughput_rps > 0.0);
    assert_eq!(report.pool.workers_reported, 2);
    assert!(report.pool.arena.runs >= model.batches);
    assert!(worst_err < 0.25, "served error {worst_err} out of bounds");
    println!("serve smoke OK");
}
