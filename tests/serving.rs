//! The serving layer's end-to-end contract: worker threads sharing one
//! prepared graph compute exactly the function the sequential path computes,
//! the dynamic batcher actually coalesces, and calibration is frozen before
//! any live request can race on it. Every test serves one model through a
//! one-model `ModelRegistry` and its `RegistryServer` pool.

use std::sync::Arc;
use std::time::Duration;
use winograd_tapwise::wino_core::{
    GraphExecutor, GraphRunOptions, PreparedGraph, TileSize, WinogradQuantConfig,
};
use winograd_tapwise::wino_nets::resnet20_graph;
use winograd_tapwise::wino_serve::{
    AdmissionControl, BatchPolicy, InferenceReply, ModelRegistry, ModelReply, ModelServeConfig,
    RegistryBuilder, RegistryServer,
};
use winograd_tapwise::wino_tensor::{normal, Tensor};

const MODEL: &str = "resnet20";

fn quantized_pair() -> (Arc<GraphExecutor>, Arc<PreparedGraph>) {
    let graph = resnet20_graph().with_channel_div(4);
    let exec = Arc::new(GraphExecutor::quantized(WinogradQuantConfig::tapwise_po2(
        TileSize::F4,
        10,
    )));
    let prepared = Arc::new(exec.prepare(&graph, &GraphRunOptions::default()));
    (exec, prepared)
}

fn probe(seed: u64) -> Tensor<f32> {
    normal(&[1, 1, 32, 32], 0.0, 1.0, seed)
}

/// Registers `prepared` as the only model and starts `workers` threads on
/// it. The 60 s deadline means a slow debug build never sheds a request, so
/// every assertion below sees every request served.
fn serve(
    exec: Arc<GraphExecutor>,
    prepared: Arc<PreparedGraph>,
    workers: usize,
    policy: BatchPolicy,
) -> (RegistryServer, Arc<ModelRegistry>) {
    let config = ModelServeConfig {
        policy,
        admission: AdmissionControl {
            deadline: Duration::from_secs(60),
            ..AdmissionControl::default()
        },
        ..ModelServeConfig::default()
    };
    let registry = RegistryBuilder::new()
        .model(MODEL, exec, prepared, config)
        .build();
    (
        RegistryServer::start(Arc::clone(&registry), workers),
        registry,
    )
}

/// Submits one request and blocks for its served reply.
fn infer(registry: &ModelRegistry, x: Tensor<f32>) -> InferenceReply {
    registry
        .submit(MODEL, vec![x])
        .expect("request refused")
        .wait()
        .and_then(ModelReply::ok)
        .expect("request not served")
}

/// The headline concurrency contract: N worker threads sharing one
/// `Arc<PreparedGraph>` (quantized, so with interior calibration state)
/// return outputs bit-identical to running the same inputs sequentially.
#[test]
fn concurrent_workers_match_the_sequential_path_bitwise() {
    let (exec, prepared) = quantized_pair();
    // Freeze calibration first so the sequential reference and the server
    // share one prepared state.
    exec.warmup(&prepared);
    let cases: Vec<(Tensor<f32>, Tensor<f32>)> = (0..24)
        .map(|i| {
            let x = probe(1000 + i);
            let run = exec.run_with_inputs(&prepared, std::slice::from_ref(&x));
            (x, run.outputs[0].1.clone())
        })
        .collect();

    let (server, registry) = serve(
        Arc::clone(&exec),
        Arc::clone(&prepared),
        3,
        BatchPolicy {
            max_batch: 4,
            max_wait: Duration::from_millis(1),
        },
    );
    // Hammer the queue from four client threads at once.
    let handles: Vec<_> = cases
        .chunks(6)
        .map(|chunk| {
            let registry = Arc::clone(&registry);
            let chunk = chunk.to_vec();
            std::thread::spawn(move || {
                chunk
                    .into_iter()
                    .map(|(x, want)| (registry.submit(MODEL, vec![x]).expect("accepted"), want))
                    .map(|(pending, want)| (pending.wait().and_then(ModelReply::ok), want))
                    .collect::<Vec<_>>()
            })
        })
        .collect();
    for h in handles {
        for (reply, want) in h.join().expect("client thread") {
            assert_eq!(
                reply.expect("served").outputs[0].1,
                want,
                "served output differs bitwise from the sequential reference"
            );
        }
    }
    let report = server.shutdown();
    let model = report.model(MODEL).unwrap();
    assert_eq!(model.requests, 24);
    assert_eq!(model.images, 24);
    assert_eq!(report.pool.workers_reported, 3);
}

/// Registering an uncalibrated quantized graph must calibrate it on the
/// warmup batch before any worker can take a request.
#[test]
fn server_startup_calibrates_before_serving() {
    let (exec, prepared) = quantized_pair();
    assert!(!prepared.is_calibrated(), "calibration must start lazy");
    let (server, registry) = serve(exec, Arc::clone(&prepared), 2, BatchPolicy::default());
    assert!(
        prepared.is_calibrated(),
        "workers started on an uncalibrated graph"
    );
    // And the live request path never re-calibrates: the same input twice is
    // bit-identical even with a loud batch in between.
    let x = probe(7);
    let a = infer(&registry, x.clone());
    let _ = infer(&registry, normal(&[1, 1, 32, 32], 0.0, 10.0, 8));
    let b = infer(&registry, x);
    assert_eq!(a.outputs[0].1, b.outputs[0].1, "prepared state mutated");
    let _ = server.shutdown();
}

/// A burst of 7 requests against max-batch 4 coalesces into batches of 4+3
/// once the worker is past its first dispatch.
#[test]
fn bursty_load_coalesces_into_dynamic_batches() {
    let (exec, prepared) = quantized_pair();
    let (server, registry) = serve(
        exec,
        prepared,
        1,
        BatchPolicy {
            max_batch: 4,
            max_wait: Duration::from_millis(50),
        },
    );
    let pending: Vec<_> = (0..7)
        .map(|i| registry.submit(MODEL, vec![probe(i)]).expect("accepted"))
        .collect();
    for p in pending {
        assert!(p.wait().and_then(ModelReply::ok).is_some(), "not served");
    }
    let report = server.shutdown();
    let model = report.model(MODEL).unwrap();
    assert_eq!(model.images, 7);
    assert_eq!(model.batch_histogram, vec![(3, 1), (4, 1)], "expected 4+3");
    assert_eq!(model.max_batch_observed(), 4);
    assert!(model.mean_batch > 1.0, "dynamic batching never coalesced");
}

/// A partial batch must not wait forever: the deadline flushes it.
#[test]
fn a_lone_request_is_flushed_by_the_deadline() {
    let (exec, prepared) = quantized_pair();
    let max_wait = Duration::from_millis(25);
    let (server, registry) = serve(
        exec,
        prepared,
        1,
        BatchPolicy {
            max_batch: 64,
            max_wait,
        },
    );
    let reply = infer(&registry, probe(3));
    assert_eq!(reply.batch_images, 1);
    assert!(
        reply.latency >= max_wait,
        "partial batch dispatched before its {max_wait:?} deadline ({:?})",
        reply.latency
    );
    let report = server.shutdown();
    let model = report.model(MODEL).unwrap();
    assert_eq!(model.batch_histogram, vec![(1, 1)]);
    assert!(model.queue_wait.max >= max_wait);
}

/// Per-request latency accounting covers queue wait plus run time, and the
/// report's percentiles are ordered.
#[test]
fn latency_percentiles_are_ordered_and_positive() {
    let (exec, prepared) = quantized_pair();
    let (server, registry) = serve(exec, prepared, 2, BatchPolicy::default());
    for i in 0..16 {
        let _ = infer(&registry, probe(i));
    }
    let report = server.shutdown();
    let model = report.model(MODEL).unwrap();
    assert_eq!(model.requests, 16);
    assert!(model.latency.p50 > Duration::ZERO);
    assert!(model.latency.p50 <= model.latency.p95);
    assert!(model.latency.p95 <= model.latency.p99);
    assert!(model.latency.p99 <= model.latency.max);
    assert!(model.throughput_rps > 0.0);
    // The synthesis cache snapshot rode along (warmup synthesized tensors).
    assert!(model.synth.misses > 0);
}
