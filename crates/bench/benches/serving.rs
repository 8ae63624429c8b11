//! Criterion benchmarks of in-process batched serving (a one-model
//! `ModelRegistry` under a `RegistryServer` pool): end-to-end request cost
//! through queue → scheduler → worker → reply at batch sizes 1/4/8 and
//! pool widths 1/2, against the raw single-threaded executor as the
//! no-serving-overhead floor. Each iteration submits one batch-worth of
//! single-image requests and waits for every reply, so the measured time is
//! the full coalesce + batched-run + de-coalesce round trip.

use criterion::{criterion_group, criterion_main, Criterion};
use std::sync::Arc;
use std::time::Duration;
use wino_core::{GraphExecutor, GraphRunOptions};
use wino_nets::resnet20_graph;
use wino_serve::{
    AdmissionControl, BatchPolicy, ModelReply, ModelServeConfig, RegistryBuilder, RegistryServer,
};
use wino_tensor::normal;

fn bench_serve_throughput(c: &mut Criterion) {
    let graph = resnet20_graph().with_channel_div(2);
    let opts = GraphRunOptions::default();

    let mut group = c.benchmark_group("serve_throughput");
    group.sample_size(10);

    // Floor: the executor driven directly, no queue, batch 1.
    let exec = Arc::new(GraphExecutor::with_defaults());
    let prepared = Arc::new(exec.prepare(&graph, &opts));
    let probe = normal(&[1, 1, 32, 32], 0.0, 1.0, 1);
    group.bench_function("direct_executor_b1", |b| {
        b.iter(|| exec.run_with_inputs(&prepared, std::slice::from_ref(&probe)))
    });

    for &workers in &[1usize, 2] {
        for &batch in &[1usize, 4, 8] {
            let config = ModelServeConfig {
                policy: BatchPolicy {
                    max_batch: batch,
                    // Tight deadline: iterations submit full batches, so
                    // the flush timer should almost never be the trigger.
                    max_wait: Duration::from_micros(500),
                },
                // Never shed: every row times served requests only.
                admission: AdmissionControl {
                    deadline: Duration::from_secs(60),
                    ..AdmissionControl::default()
                },
                ..ModelServeConfig::default()
            };
            let registry = RegistryBuilder::new()
                .model("m", Arc::clone(&exec), Arc::clone(&prepared), config)
                .build();
            let server = RegistryServer::start(Arc::clone(&registry), workers);
            let inputs: Vec<_> = (0..batch as u64)
                .map(|i| normal(&[1, 1, 32, 32], 0.0, 1.0, 10 + i))
                .collect();
            group.bench_function(format!("serve_w{workers}_b{batch}"), |b| {
                b.iter(|| {
                    let pending: Vec<_> = inputs
                        .iter()
                        .map(|x| registry.submit("m", vec![x.clone()]).expect("accepted"))
                        .collect();
                    pending
                        .into_iter()
                        .map(|p| p.wait().and_then(ModelReply::ok).expect("served"))
                        .collect::<Vec<_>>()
                })
            });
            let report = server.shutdown();
            assert!(
                report.model("m").unwrap().max_batch_observed() <= batch,
                "batches exceeded the configured cap"
            );
        }
    }

    group.finish();
}

criterion_group!(benches, bench_serve_throughput);
criterion_main!(benches);
