//! Chaos serving: seeded fault plans over loopback TCP and in-process pools.
//!
//! The robustness contract these tests pin (ISSUE 9):
//!
//! * every accepted request gets **exactly one typed reply** — worker
//!   panics, socket stalls and mid-frame disconnects included;
//! * a panicked worker respawns within its restart budget, and the restart
//!   is visible end to end via `Frame::Stats`;
//! * outputs accepted *after* a fault are bitwise identical to a no-fault
//!   run (fault isolation never corrupts shared state);
//! * a fault plan is a pure function of its seed, so any chaos failure
//!   replays bit-for-bit from the printed seed.
//!
//! Fault state is process-global, so every test serializes on one guard
//! mutex and clears the plan on drop (panic included). `CHAOS_SEED` selects
//! the plan seed (CI runs three fixed seeds plus one random); the seed is
//! printed so a failing run can be replayed exactly.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;
use winograd_tapwise::wino_core::{
    CalibrationPolicy, GraphExecutor, GraphRunOptions, WinogradQuantConfig,
};
use winograd_tapwise::wino_fault::{self, FaultPlan, FaultSpec};
use winograd_tapwise::wino_nets::resnet20_graph;
use winograd_tapwise::wino_serve::net::{
    AdmissionControl, ErrorCode, ModelServeConfig, NetClient, NetResponse, NetServer,
    NetServerConfig, RegistryBuilder, RegistryServer, RetryPolicy,
};
use winograd_tapwise::wino_serve::{BatchPolicy, ModelReply, SubmitError};
use winograd_tapwise::wino_tensor::{normal, Tensor};

/// Serializes every test in this file: the fault plan is process-global.
static GUARD: Mutex<()> = Mutex::new(());

/// Installs a plan for one test's lifetime; clears it again on drop so a
/// failing assertion cannot leak faults into the next test.
struct FaultSession {
    _lock: MutexGuard<'static, ()>,
}

impl FaultSession {
    fn install(plan: FaultPlan) -> Self {
        let lock = GUARD.lock().unwrap_or_else(|p| p.into_inner());
        wino_fault::clear();
        wino_fault::install(plan);
        Self { _lock: lock }
    }
}

impl Drop for FaultSession {
    fn drop(&mut self) {
        wino_fault::clear();
    }
}

/// The plan seed: `CHAOS_SEED` if set (CI's fixed + randomized seeds),
/// otherwise a fixed default. Printed so failures replay exactly.
fn chaos_seed() -> u64 {
    let seed = std::env::var("CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xC0FFEE);
    eprintln!("chaos seed: {seed} (set CHAOS_SEED={seed} to replay)");
    seed
}

fn probe(seed: u64) -> Tensor<f32> {
    normal(&[1, 1, 32, 32], 0.0, 1.0, seed)
}

/// One-request-per-batch policy, so batch ordinals line up with request
/// ordinals and `nth` fault triggers address specific requests.
fn one_by_one() -> BatchPolicy {
    BatchPolicy {
        max_batch: 1,
        max_wait: Duration::from_millis(1),
    }
}

/// Worker panic over TCP: the faulted request comes back as a typed
/// `Internal` error (never a hang, never a dropped channel), the worker
/// respawns, the restart is visible via `Frame::Stats`, and every
/// post-fault output is bitwise identical to the no-fault ground truth.
#[test]
fn worker_panic_is_isolated_respawned_and_bitwise_clean_after() {
    let seed = chaos_seed();
    let executor = Arc::new(GraphExecutor::with_defaults());
    let prepared = Arc::new(executor.prepare(
        &resnet20_graph().with_channel_div(8),
        &GraphRunOptions::default(),
    ));
    let probes: Vec<Tensor<f32>> = (0..6).map(|i| probe(500 + i)).collect();
    let truth: Vec<Tensor<f32>> = probes
        .iter()
        .map(|x| {
            executor
                .run_with_inputs(&prepared, std::slice::from_ref(x))
                .outputs[0]
                .1
                .clone()
        })
        .collect();

    // The second batch panics before it runs; everything else is clean.
    let _chaos = FaultSession::install(
        FaultPlan::new(seed).rule("worker.batch.pre", FaultSpec::panic().nth(2)),
    );
    let registry = RegistryBuilder::new()
        .model(
            "m",
            Arc::clone(&executor),
            Arc::clone(&prepared),
            ModelServeConfig {
                policy: one_by_one(),
                ..ModelServeConfig::default()
            },
        )
        .build();
    let server = NetServer::bind(
        "127.0.0.1:0",
        Arc::clone(&registry),
        NetServerConfig {
            connection_threads: 2,
            workers: 1,
            restart_budget: 3,
            ..NetServerConfig::default()
        },
    )
    .unwrap();
    let mut client = NetClient::connect(server.local_addr()).expect("connect");

    let mut failed = 0usize;
    for (i, (x, want)) in probes.iter().zip(&truth).enumerate() {
        // Exactly one typed reply per request: infer() either returns the
        // output or a typed error frame — a hang here fails the test by
        // timeout, a dropped channel by io error.
        match client.infer("m", vec![x.clone()]).expect("transport") {
            NetResponse::Reply { outputs, .. } => {
                assert_eq!(
                    &outputs[0].1, want,
                    "request {i}: post-fault output differs from no-fault run"
                );
            }
            NetResponse::Error { code, .. } => {
                assert_eq!(code, ErrorCode::Internal, "request {i}: wrong code");
                failed += 1;
            }
        }
    }
    assert_eq!(failed, 1, "exactly the nth(2) batch fails");
    assert_eq!(wino_fault::fires("worker.batch.pre"), 1);

    // The restart and the failure are visible end to end over the wire.
    let (entries, _text) = client.stats().expect("stats");
    assert_eq!(entries[0].worker_restarts, 1, "restart not reported");
    assert_eq!(entries[0].failed, 1, "failure not reported");
    let report = server.shutdown();
    assert_eq!(report.model("m").unwrap().requests, 5);
}

/// A mid-frame disconnect while the server writes a reply: the client sees
/// a hard error for that request (reply bytes were consumed, so no silent
/// retry), reconnects, and the next request is served bitwise-correctly by
/// the same single handler thread.
#[test]
fn midframe_reply_disconnect_fails_one_request_and_recovers() {
    let seed = chaos_seed();
    let executor = Arc::new(GraphExecutor::with_defaults());
    let prepared = Arc::new(executor.prepare(
        &resnet20_graph().with_channel_div(8),
        &GraphRunOptions::default(),
    ));
    let x = probe(900);
    let want = executor
        .run_with_inputs(&prepared, std::slice::from_ref(&x))
        .outputs[0]
        .1
        .clone();

    let _chaos = FaultSession::install(
        FaultPlan::new(seed).rule("net.server.write", FaultSpec::fail().nth(2)),
    );
    let registry = RegistryBuilder::new()
        .model(
            "m",
            Arc::clone(&executor),
            Arc::clone(&prepared),
            ModelServeConfig {
                policy: one_by_one(),
                ..ModelServeConfig::default()
            },
        )
        .build();
    let server = NetServer::bind(
        "127.0.0.1:0",
        registry,
        NetServerConfig {
            connection_threads: 1, // one handler: it must survive the fault
            workers: 1,
            ..NetServerConfig::default()
        },
    )
    .unwrap();
    let mut client = NetClient::connect(server.local_addr()).expect("connect");

    // Reply #1 is clean; reply #2 is torn mid-frame and the connection
    // drops; request #3 must ride a transparent reconnect and succeed.
    let first = client.infer("m", vec![x.clone()]).expect("first request");
    assert_eq!(first.output("logits"), Some(&want));
    let torn = client.infer("m", vec![x.clone()]);
    assert!(
        torn.is_err(),
        "a torn reply must surface as an error, got {torn:?}"
    );
    let after = client
        .infer("m", vec![x.clone()])
        .expect("post-fault request");
    assert_eq!(
        after.output("logits"),
        Some(&want),
        "post-disconnect output differs"
    );
    assert_eq!(wino_fault::fires("net.server.write"), 1);
    drop(server.shutdown());
}

/// A client-side write fault *before any reply byte*: the retry layer must
/// reconnect and resubmit transparently — the caller sees one clean reply.
#[test]
fn client_retries_transparently_before_first_reply_byte() {
    let seed = chaos_seed();
    let executor = Arc::new(GraphExecutor::with_defaults());
    let prepared = Arc::new(executor.prepare(
        &resnet20_graph().with_channel_div(8),
        &GraphRunOptions::default(),
    ));
    let x = probe(901);
    let want = executor
        .run_with_inputs(&prepared, std::slice::from_ref(&x))
        .outputs[0]
        .1
        .clone();

    let _chaos = FaultSession::install(
        FaultPlan::new(seed).rule("net.client.write", FaultSpec::fail().nth(1)),
    );
    let registry = RegistryBuilder::new()
        .model(
            "m",
            Arc::clone(&executor),
            prepared,
            ModelServeConfig::default(),
        )
        .build();
    let server = NetServer::bind("127.0.0.1:0", registry, NetServerConfig::default()).unwrap();
    let mut client = NetClient::connect_with(
        server.local_addr(),
        RetryPolicy {
            max_retries: 2,
            base_backoff: Duration::from_millis(2),
            max_backoff: Duration::from_millis(20),
            seed,
        },
    )
    .expect("connect");

    let reply = client
        .infer("m", vec![x.clone()])
        .expect("retry must absorb the torn write");
    assert_eq!(reply.output("logits"), Some(&want));
    assert_eq!(wino_fault::fires("net.client.write"), 1);

    // The same fault with retries disabled surfaces the transport error.
    wino_fault::clear();
    wino_fault::install(FaultPlan::new(seed).rule("net.client.write", FaultSpec::fail().nth(1)));
    let mut bare =
        NetClient::connect_with(server.local_addr(), RetryPolicy::none()).expect("connect");
    assert!(bare.infer("m", vec![x.clone()]).is_err());
    drop(server.shutdown());
}

/// A peer that stalls mid-frame is shed by the io timeout: its connection
/// dies, the single handler thread survives, and the next client is served.
#[test]
fn read_stall_sheds_the_connection_not_the_thread() {
    let _chaos = FaultSession::install(FaultPlan::new(1)); // no faults; guard only
    wino_fault::clear();
    let executor = Arc::new(GraphExecutor::with_defaults());
    let prepared = Arc::new(executor.prepare(
        &resnet20_graph().with_channel_div(8),
        &GraphRunOptions::default(),
    ));
    let x = probe(902);
    let want = executor
        .run_with_inputs(&prepared, std::slice::from_ref(&x))
        .outputs[0]
        .1
        .clone();
    let registry = RegistryBuilder::new()
        .model(
            "m",
            Arc::clone(&executor),
            prepared,
            ModelServeConfig::default(),
        )
        .build();
    let server = NetServer::bind(
        "127.0.0.1:0",
        registry,
        NetServerConfig {
            connection_threads: 1, // the stalled peer must not pin it
            workers: 1,
            io_timeout: Some(Duration::from_millis(100)),
            ..NetServerConfig::default()
        },
    )
    .unwrap();

    // A hostile peer: half a frame header, then silence.
    let mut staller = TcpStream::connect(server.local_addr()).expect("connect raw");
    staller.write_all(b"WNF").expect("torn bytes");
    // The server must shed us: read until EOF, bounded by a generous
    // deadline (it owes us at most one best-effort error frame first).
    staller
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut sink = Vec::new();
    let shed = staller.read_to_end(&mut sink).is_ok();
    assert!(shed, "stalled connection was never shed");

    // The handler thread survived to serve a well-behaved client.
    let mut client = NetClient::connect(server.local_addr()).expect("connect");
    let reply = client.infer("m", vec![x]).expect("post-stall request");
    assert_eq!(reply.output("logits"), Some(&want));
    drop(server.shutdown());
}

/// NaN payloads are refused at the wire with the typed `BadInput` code —
/// before they can ride a coalesced batch into a worker.
#[test]
fn non_finite_payloads_get_typed_bad_input() {
    let _chaos = FaultSession::install(FaultPlan::new(1));
    wino_fault::clear();
    let executor = Arc::new(GraphExecutor::with_defaults());
    let prepared = Arc::new(executor.prepare(
        &resnet20_graph().with_channel_div(8),
        &GraphRunOptions::default(),
    ));
    let registry = RegistryBuilder::new()
        .model(
            "m",
            Arc::clone(&executor),
            prepared,
            ModelServeConfig::default(),
        )
        .build();
    let server = NetServer::bind("127.0.0.1:0", registry, NetServerConfig::default()).unwrap();
    let mut client = NetClient::connect(server.local_addr()).expect("connect");

    let mut poisoned = probe(903);
    poisoned.as_mut_slice()[7] = f32::NAN;
    match client.infer("m", vec![poisoned]).expect("typed reply") {
        NetResponse::Error { code, .. } => assert_eq!(code, ErrorCode::BadInput),
        other => panic!("NaN payload must be refused, got {other:?}"),
    }
    // The connection stays aligned and healthy afterwards.
    let clean = client.infer("m", vec![probe(904)]).expect("clean request");
    assert!(clean.output("logits").is_some());
    drop(server.shutdown());
}

/// A calibration-freeze failure degrades the model to the exact-FP32
/// observe path — label `degraded@n`, replies keep flowing — instead of
/// taking the worker or the model down.
#[test]
fn freeze_failure_degrades_gracefully_and_keeps_serving() {
    let seed = chaos_seed();
    let _chaos =
        FaultSession::install(FaultPlan::new(seed).rule("cal.freeze", FaultSpec::fail().nth(1)));
    let executor = Arc::new(GraphExecutor::quantized(WinogradQuantConfig::default()));
    let prepared = Arc::new(executor.prepare(
        &resnet20_graph().with_channel_div(4),
        &GraphRunOptions::default(),
    ));
    let registry = RegistryBuilder::new()
        .model_calibrating(
            "q",
            Arc::clone(&executor),
            Arc::clone(&prepared),
            ModelServeConfig {
                policy: one_by_one(),
                ..ModelServeConfig::default()
            },
            CalibrationPolicy::quick(2),
        )
        .build();
    let server = RegistryServer::start(Arc::clone(&registry), 1);
    let x = probe(905);
    let mut degraded = false;
    for _ in 0..20 {
        let reply = registry
            .submit("q", vec![x.clone()])
            .expect("submit")
            .wait()
            .expect("reply");
        assert!(
            matches!(reply, ModelReply::Ok(_)),
            "degraded model must keep serving, got {reply:?}"
        );
        let label = registry.calibration_label("q").unwrap();
        assert!(
            !label.starts_with("frozen"),
            "freeze must have failed, label {label}"
        );
        if label.starts_with("degraded") {
            degraded = true;
            break;
        }
    }
    assert!(degraded, "the model never reported the degraded lifecycle");
    assert!(!prepared.is_calibrated(), "freeze must not have completed");
    assert_eq!(wino_fault::fires("cal.freeze"), 1);
    // Still serving, still exact: two degraded replies are bitwise equal.
    let a = registry
        .submit("q", vec![x.clone()])
        .unwrap()
        .wait()
        .unwrap();
    let b = registry
        .submit("q", vec![x.clone()])
        .unwrap()
        .wait()
        .unwrap();
    match (a, b) {
        (ModelReply::Ok(ra), ModelReply::Ok(rb)) => {
            assert_eq!(ra.outputs[0].1, rb.outputs[0].1, "degraded path drifted");
        }
        other => panic!("degraded replies must succeed, got {other:?}"),
    }
    drop(server.shutdown());
}

/// Submit-path faults: a delay slows admission without losing anything, a
/// fail maps to the typed Overloaded refusal — and every submitted request
/// is accounted for exactly once.
#[test]
fn submit_faults_keep_exact_reply_accounting() {
    let seed = chaos_seed();
    let _chaos = FaultSession::install(
        FaultPlan::new(seed)
            .rule(
                "sched.submit",
                FaultSpec::delay(Duration::from_millis(2)).nth(1),
            )
            .rule("sched.submit", FaultSpec::fail().nth(3)),
    );
    let executor = Arc::new(GraphExecutor::with_defaults());
    let prepared = Arc::new(executor.prepare(
        &resnet20_graph().with_channel_div(8),
        &GraphRunOptions::default(),
    ));
    let registry = RegistryBuilder::new()
        .model(
            "m",
            Arc::clone(&executor),
            prepared,
            ModelServeConfig {
                policy: one_by_one(),
                ..ModelServeConfig::default()
            },
        )
        .build();
    let server = RegistryServer::start(Arc::clone(&registry), 1);
    let (mut ok, mut refused) = (0usize, 0usize);
    for i in 0..5 {
        match registry.submit("m", vec![probe(910 + i)]) {
            Ok(pending) => match pending.wait().expect("typed reply") {
                ModelReply::Ok(_) => ok += 1,
                other => panic!("unexpected reply {other:?}"),
            },
            Err(e) => {
                assert_eq!(e.to_string(), "queue at admission bound");
                refused += 1;
            }
        }
    }
    assert_eq!(
        (ok, refused),
        (4, 1),
        "every request accounted exactly once"
    );
    assert_eq!(wino_fault::fires("sched.submit"), 2, "delay + fail");
    assert_eq!(wino_fault::hits("sched.submit"), 5);
    drop(server.shutdown());
}

/// The replay contract: the same seed drives the same probabilistic fault
/// plan to the same fire pattern, the same reply sequence and bitwise
/// identical outputs — a failing chaos run reproduces from its seed alone.
#[test]
fn seeded_chaos_plans_replay_bit_for_bit() {
    let seed = chaos_seed();
    let _lock = GUARD.lock().unwrap_or_else(|p| p.into_inner());
    let run = |seed: u64| {
        wino_fault::clear();
        wino_fault::install(
            FaultPlan::new(seed).rule("worker.batch.post", FaultSpec::panic().prob(0.4)),
        );
        let executor = Arc::new(GraphExecutor::with_defaults());
        let prepared = Arc::new(executor.prepare(
            &resnet20_graph().with_channel_div(8),
            &GraphRunOptions::default(),
        ));
        let registry = RegistryBuilder::new()
            .model(
                "m",
                Arc::clone(&executor),
                prepared,
                ModelServeConfig {
                    policy: one_by_one(),
                    ..ModelServeConfig::default()
                },
            )
            .build();
        let server = RegistryServer::start_with_budget(Arc::clone(&registry), 1, 16);
        let mut outcomes: Vec<Option<Vec<u8>>> = Vec::new();
        for i in 0..8 {
            let reply = registry
                .submit("m", vec![probe(920 + i)])
                .expect("submit")
                .wait()
                .expect("typed reply");
            outcomes.push(match reply {
                ModelReply::Ok(r) => Some(
                    r.outputs[0]
                        .1
                        .as_slice()
                        .iter()
                        .flat_map(|v| v.to_le_bytes())
                        .collect(),
                ),
                ModelReply::WorkerFailed => None,
                other => panic!("unexpected reply {other:?}"),
            });
        }
        let fires = wino_fault::fires("worker.batch.post");
        let hits = wino_fault::hits("worker.batch.post");
        drop(server.shutdown());
        wino_fault::clear();
        (outcomes, fires, hits)
    };
    let first = run(seed);
    let second = run(seed);
    assert_eq!(
        first.1, second.1,
        "same seed must fire the same number of faults"
    );
    assert_eq!(first.2, second.2, "hit counts must replay");
    assert_eq!(
        first.0, second.0,
        "reply sequence and outputs must replay bit-for-bit"
    );
    assert!(first.2 == 8, "every batch probes the site once");
}

/// Satellite (c): when the only worker dies past its restart budget with a
/// queue full of waiters, every pending and in-flight request resolves with
/// the typed error — nothing hangs, no waiter leaks — and the dead registry
/// refuses later submits instead of queueing them forever.
#[test]
fn dead_pool_drains_pending_and_inflight_with_typed_errors() {
    let seed = chaos_seed();
    let _chaos =
        FaultSession::install(FaultPlan::new(seed).rule("worker.batch.pre", FaultSpec::panic()));
    let executor = Arc::new(GraphExecutor::with_defaults());
    let prepared = Arc::new(executor.prepare(
        &resnet20_graph().with_channel_div(8),
        &GraphRunOptions::default(),
    ));
    let registry = RegistryBuilder::new()
        .model(
            "m",
            executor,
            prepared,
            ModelServeConfig {
                policy: BatchPolicy {
                    max_batch: 2,
                    max_wait: Duration::from_millis(5),
                },
                admission: AdmissionControl {
                    deadline: Duration::from_secs(60),
                    ..AdmissionControl::default()
                },
                ..ModelServeConfig::default()
            },
        )
        .build();
    // Queue all six before the pool exists, so none of them can race the
    // pool's death: the first batch of two is in flight when the worker
    // dies, the other four are still pending.
    let pending: Vec<_> = (0..6)
        .map(|i| registry.submit("m", vec![probe(930 + i)]).expect("queued"))
        .collect();
    // Budget 0: the first panic is fatal to the pool.
    let server = RegistryServer::start_with_budget(Arc::clone(&registry), 1, 0);
    for (i, p) in pending.into_iter().enumerate() {
        match p.wait_timeout(Duration::from_secs(10)) {
            Some(Some(ModelReply::WorkerFailed)) => {}
            other => panic!("waiter {i} leaked or got the wrong reply: {other:?}"),
        }
    }
    assert_eq!(
        registry.submit("m", vec![probe(940)]).err(),
        Some(SubmitError::Shutdown),
        "a drained registry must refuse new work"
    );
    let stats = registry.model_stats("m").unwrap();
    assert_eq!(stats.failed, 6, "all six must be typed failures");
    assert_eq!(stats.worker_restarts, 0, "budget 0 allows no revival");
    server.shutdown();
}
