//! Serving workloads: closed-loop clients over loopback TCP, and a seeded
//! open-loop arrival schedule straight into the registry.

use crate::cpus::{self, Side};
use crate::graph::{
    bitwise_eq, dataset, flat_outputs, fp32_rel_err, make_inputs, setup_model, ReadyModel,
};
use crate::report::Report;
use crate::spans::Spans;
use crate::stats;
use crate::workloads::{
    Workload, LATENCY_LIMIT_MS, OVERLOAD_RPS, SERVED_MODEL, SERVE_INPUTS, SLICES, TCP_CLIENTS,
};
use crate::{Args, Ops};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};
use wino_core::{ActivationArena, GraphExecutor, PreparedGraph};
use wino_serve::net::{
    AdmissionControl, ErrorCode, ModelRegistry, ModelReply, ModelServeConfig, NetClient,
    NetResponse, NetServer, NetServerConfig, PendingReply, RegistryBuilder, RegistryServer,
    RetryPolicy, SubmitError,
};
use wino_serve::{BatchPolicy, StatsReport};
use wino_tensor::Tensor;

/// Registry name of the served model.
pub const MODEL: &str = "m";

/// The served model, shareable with a registry.
pub struct Served {
    pub exec: Arc<GraphExecutor>,
    pub prepared: Arc<PreparedGraph>,
}

impl Served {
    /// Builds and prepares the served model; its first, cache-filling run is
    /// on `calibration`.
    pub fn new(calibration: &[Tensor<f32>], spans: &Spans, parent: u64) -> Self {
        let ReadyModel { exec, prepared, .. } =
            setup_model(&SERVED_MODEL, calibration, spans, parent);
        Self {
            exec: Arc::new(exec),
            prepared: Arc::new(prepared),
        }
    }

    pub fn registry(&self) -> Arc<ModelRegistry> {
        RegistryBuilder::new()
            .model(
                MODEL,
                Arc::clone(&self.exec),
                Arc::clone(&self.prepared),
                ModelServeConfig {
                    policy: BatchPolicy {
                        max_batch: 4,
                        max_wait: Duration::from_millis(1),
                    },
                    admission: AdmissionControl {
                        max_queue: 4,
                        deadline: Duration::from_secs_f64(LATENCY_LIMIT_MS / 1e3),
                    },
                    ..ModelServeConfig::default()
                },
            )
            .build()
    }

    /// An in-process server of the model: one worker, on the server's core.
    pub fn start_registry(&self) -> RegistryServer {
        cpus::on(Side::Server, || RegistryServer::start(self.registry(), 1))
    }
}

/// A loopback `NetServer` (one worker) with `TCP_CLIENTS` connected clients.
pub struct TcpRig {
    pub server: NetServer,
    pub clients: Vec<NetClient>,
}

impl TcpRig {
    pub fn bind(served: &Served) -> Self {
        let server = cpus::on(Side::Server, || {
            NetServer::bind(
                "127.0.0.1:0",
                served.registry(),
                NetServerConfig {
                    connection_threads: cpus::nproc(),
                    workers: 1,
                    ..NetServerConfig::default()
                },
            )
        })
        .expect("bind loopback");
        let clients = (0..TCP_CLIENTS)
            .map(|_| {
                NetClient::connect_with(server.local_addr(), RetryPolicy::none()).expect("connect")
            })
            .collect();
        Self { server, clients }
    }

    pub fn shutdown(self) -> StatsReport {
        drop(self.clients);
        model_stats(self.server.shutdown())
    }
}

fn model_stats(report: wino_serve::MultiModelReport) -> StatsReport {
    report.model(MODEL).expect("served model has stats").clone()
}

/// The 64 seeded requests and the logits each must come back with.
pub struct Traffic {
    pub inputs: Vec<Tensor<f32>>,
    pub truth: Vec<Vec<f32>>,
}

impl Traffic {
    /// The distinct requests of a serving workload.
    pub fn inputs(args: &Args) -> Vec<Tensor<f32>> {
        let count = if args.smoke { 8 } else { SERVE_INPUTS };
        make_inputs(&SERVED_MODEL, args.seed, count)
            .into_iter()
            .map(|mut set| set.remove(0))
            .collect()
    }

    /// Precomputes the truth with the in-process executor the server shares.
    pub fn new(inputs: Vec<Tensor<f32>>, served: &Served) -> Self {
        let truth = inputs
            .iter()
            .map(|x| {
                flat_outputs(
                    &served
                        .exec
                        .run_with_inputs(&served.prepared, std::slice::from_ref(x)),
                )
            })
            .collect();
        Self { inputs, truth }
    }

    fn matches(&self, idx: usize, outputs: &[(String, Tensor<f32>)]) -> bool {
        let flat: Vec<f32> = outputs
            .iter()
            .flat_map(|(_, t)| t.as_slice().iter().copied())
            .collect();
        bitwise_eq(&self.truth[idx], &flat)
    }
}

/// What a load phase saw, from the callers' side.
#[derive(Debug, Default)]
pub struct LoadOutcome {
    /// Length of the window requests were sent in, and the wall time until
    /// the last reply was in.
    pub window_s: f64,
    pub wall_s: f64,
    /// Every bitwise-correct reply: seconds into the window at which its
    /// request was sent (was due, in the open loop), and its latency in
    /// milliseconds.
    pub replies: Vec<(f64, f64)>,
    /// Requests sent; the failed ones are wrong replies, worker failures
    /// and transport errors.
    pub ops: Ops,
    /// Refused at submit by the queue bound.
    pub refused: u64,
    /// Accepted, then shed at dispatch for having waited past the deadline.
    pub shed: u64,
    /// Open loop only: how late each send left, in milliseconds.
    pub late_ms: Vec<f64>,
    /// Open loop only: microseconds of each accepted / refused `submit`.
    pub submit_us: Vec<f64>,
    pub reject_us: Vec<f64>,
}

impl LoadOutcome {
    /// Adds what another thread of the same window saw.
    fn absorb(&mut self, other: LoadOutcome) {
        self.replies.extend(other.replies);
        self.ops.absorb(other.ops);
        self.refused += other.refused;
        self.shed += other.shed;
        self.late_ms.extend(other.late_ms);
        self.submit_us.extend(other.submit_us);
        self.reject_us.extend(other.reject_us);
    }

    /// Latencies of the correct replies, ascending.
    pub fn latencies(&self) -> Vec<f64> {
        let mut ms: Vec<f64> = self.replies.iter().map(|&(_, ms)| ms).collect();
        stats::sort(&mut ms);
        ms
    }

    /// The correct replies' latencies (ascending) by the slice of the window
    /// their request was sent in: `SLICES` equal spans of time.
    fn sliced(&self) -> Vec<Vec<f64>> {
        let mut slices = vec![Vec::new(); SLICES];
        for &(at_s, ms) in &self.replies {
            let k = (at_s / self.window_s * SLICES as f64) as usize;
            slices[k.min(SLICES - 1)].push(ms);
        }
        slices.iter_mut().for_each(|ms| stats::sort(ms));
        slices
    }

    /// Correct replies inside the latency limit per second, slice by slice.
    fn slice_rates(&self) -> Vec<f64> {
        let slice_s = self.window_s / SLICES as f64;
        self.sliced()
            .iter()
            .map(|ms| ms.iter().filter(|&&ms| ms <= LATENCY_LIMIT_MS).count() as f64 / slice_s)
            .collect()
    }

    /// Correct replies inside the latency limit per second: the median over
    /// the window's slices.
    pub fn goodput_rps(&self) -> f64 {
        stats::median(&mut self.slice_rates())
    }

    /// Percentile `p` of the correct replies' latency: the median over the
    /// window's slices of each slice's own percentile.
    pub fn tail_ms(&self, p: f64) -> f64 {
        let mut tails: Vec<f64> = self
            .sliced()
            .iter()
            .filter(|ms| !ms.is_empty())
            .map(|ms| stats::percentile(ms, p))
            .collect();
        stats::median(&mut tails)
    }

    /// Open-loop sends that left over 2 ms late.
    fn late_sends(&self) -> usize {
        self.late_ms.iter().filter(|&&ms| ms > 2.0).count()
    }

    /// Whether more than 1 % of sends left over 2 ms late: the generator,
    /// not the server, then bounds what was offered.
    pub fn generator_saturated(&self) -> bool {
        self.late_sends() * 100 > self.late_ms.len()
    }
}

/// Closed loop over TCP: each client sends its next request only after the
/// reply to the previous one, for `seconds`.
pub fn closed_loop(
    clients: &mut [NetClient],
    traffic: &Traffic,
    seconds: f64,
    spans: &Spans,
    parent: u64,
) -> LoadOutcome {
    let started = Instant::now();
    let n_clients = clients.len();
    let mut total = LoadOutcome::default();
    std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                scope.spawn(move || {
                    cpus::pin(Side::Load);
                    let mut out = LoadOutcome::default();
                    let mut r = 0usize;
                    while started.elapsed().as_secs_f64() < seconds {
                        let idx = (r * n_clients + c) % traffic.inputs.len();
                        let request = (r * n_clients + c) as u64 + 1;
                        let x = vec![traffic.inputs[idx].clone()];
                        let t = Instant::now();
                        let response = {
                            let _s = spans.open("NetClient::infer", parent, request);
                            client.infer(MODEL, x)
                        };
                        let ms = t.elapsed().as_secs_f64() * 1e3;
                        let failure = match response {
                            Ok(NetResponse::Reply { outputs, .. }) => {
                                if traffic.matches(idx, &outputs) {
                                    let at_s = t.duration_since(started).as_secs_f64();
                                    out.replies.push((at_s, ms));
                                    None
                                } else {
                                    Some("wrong logits".to_string())
                                }
                            }
                            Ok(NetResponse::Error {
                                code: ErrorCode::Overloaded,
                                ..
                            }) => {
                                out.refused += 1;
                                None
                            }
                            Ok(NetResponse::Error { code, message, .. }) => {
                                Some(format!("{code:?}: {message}"))
                            }
                            Err(e) => Some(e.to_string()),
                        };
                        out.ops.record(failure.is_none(), || {
                            format!(
                                "tcp request {request} (input {idx}): {}",
                                failure.unwrap_or_default()
                            )
                        });
                        r += 1;
                    }
                    out
                })
            })
            .collect();
        for h in handles {
            total.absorb(h.join().expect("load client panicked"));
        }
    });
    total.window_s = seconds;
    total.wall_s = started.elapsed().as_secs_f64();
    total
}

/// Seeded Poisson arrivals: due times in nanoseconds from the start, with
/// exponential gaps of mean `1 / rps`, up to `seconds`.
pub fn poisson_schedule(seed: u64, rps: f64, seconds: f64) -> Vec<u64> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
    let mut due = Vec::new();
    let mut t = 0.0f64;
    loop {
        let u: f64 = rng.gen_range(f64::EPSILON..1.0);
        t += -u.ln() / rps;
        if t >= seconds {
            return due;
        }
        due.push((t * 1e9) as u64);
    }
}

/// Open loop into the registry for `seconds`, on the Poisson schedule of
/// `seed`. One generator thread sleeps to each due time and calls `submit`; one collector thread redeems the accepted
/// replies in order. A request's latency runs from the instant it was due,
/// so a stalled generator or server charges the wait to the requests behind.
pub fn open_loop(
    registry: &ModelRegistry,
    traffic: &Traffic,
    seed: u64,
    seconds: f64,
    spans: &Spans,
    parent: u64,
) -> LoadOutcome {
    let schedule = poisson_schedule(seed, OVERLOAD_RPS, seconds);
    let started = Instant::now();
    let (tx, rx) = mpsc::channel::<(PendingReply, Instant, usize, u64)>();
    let mut out = LoadOutcome::default();
    // Generator (this thread) and collector both on the load side's core.
    cpus::on(Side::Load, || {
        std::thread::scope(|scope| {
            let collector = scope.spawn(move || {
                let mut got = LoadOutcome::default();
                for (pending, due, idx, request) in rx {
                    let reply = {
                        let _s = spans.open("PendingReply::wait", parent, request);
                        pending.wait()
                    };
                    let ms = due.elapsed().as_secs_f64() * 1e3;
                    let failure = match reply {
                        Some(ModelReply::Ok(r)) if traffic.matches(idx, &r.outputs) => {
                            let at_s = due.duration_since(started).as_secs_f64();
                            got.replies.push((at_s, ms));
                            None
                        }
                        Some(ModelReply::Ok(_)) => Some("wrong logits"),
                        Some(ModelReply::Overloaded { .. }) => {
                            got.shed += 1;
                            None
                        }
                        Some(ModelReply::WorkerFailed) => Some("worker failed"),
                        None => Some("registry shut down first"),
                    };
                    // The attempt itself was counted at submit.
                    if let Some(why) = failure {
                        got.ops
                            .fail(format!("request {request} (input {idx}): {why}"));
                    }
                }
                got
            });
            for (i, &due_ns) in schedule.iter().enumerate() {
                let due = started + Duration::from_nanos(due_ns);
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                let idx = i % traffic.inputs.len();
                let request = i as u64 + 1;
                let x = vec![traffic.inputs[idx].clone()];
                out.late_ms.push(due.elapsed().as_secs_f64() * 1e3);
                let t = Instant::now();
                let submitted = {
                    let _s = spans.open("registry.submit", parent, request);
                    registry.submit(MODEL, x)
                };
                let us = t.elapsed().as_secs_f64() * 1e6;
                let refusal = match submitted {
                    Ok(pending) => {
                        out.submit_us.push(us);
                        tx.send((pending, due, idx, request))
                            .expect("collector outlives the generator");
                        None
                    }
                    Err(SubmitError::Overloaded) => {
                        out.reject_us.push(us);
                        out.refused += 1;
                        None
                    }
                    Err(e) => Some(e),
                };
                out.ops.record(refusal.is_none(), || {
                    format!(
                        "submit {request} (input {idx}): {}",
                        refusal.expect("failed")
                    )
                });
            }
            drop(tx);
            out.absorb(collector.join().expect("collector panicked"));
        })
    });
    out.window_s = seconds;
    out.wall_s = started.elapsed().as_secs_f64();
    out
}

/// Wall milliseconds of each of `runs` bare in-process runs of the served
/// model on a batch of `batch` stacked requests, the way a serving worker
/// runs it (one arena kept across runs), and the peak live bytes.
pub fn bare_model(
    served: &Served,
    traffic: &Traffic,
    batch: usize,
    runs: usize,
) -> (Vec<f64>, usize) {
    let mut stacked = Vec::new();
    for x in &traffic.inputs[..batch] {
        stacked.extend_from_slice(x.as_slice());
    }
    let mut dims = traffic.inputs[0].dims().to_vec();
    dims[0] = batch;
    let x = [Tensor::from_vec(stacked, &dims).expect("stacked batch")];
    let mut arena = ActivationArena::new();
    let mut peak = 0usize;
    let ms = (0..runs + 5)
        .map(|_| {
            let t = Instant::now();
            let run = served
                .exec
                .run_with_inputs_in(&served.prepared, &x, &mut arena);
            let ms = t.elapsed().as_secs_f64() * 1e3;
            peak = peak.max(run.peak_live_bytes);
            ms
        })
        .skip(5)
        .collect();
    (ms, peak)
}

/// Puts the latency percentiles and goodput of a load phase in the report.
fn put_load_metrics(w: Workload, load: &LoadOutcome, report: &mut Report) {
    let lat = load.latencies();
    let n = lat.len();
    report.put_n("latency_ms_p50", stats::percentile(&lat, 50.0), "ms", n);
    let p = w.tail_percentile();
    report
        .put_n("latency_ms_p99", load.tail_ms(p), "ms", n)
        .note = format!(
        "read at p{p}, median of {SLICES} slices; p99 of the whole window {}",
        stats::percentile(&lat, 99.0)
    );
    report
        .put_n("goodput_rps", load.goodput_rps(), "1/s", n)
        .note = format!("median of {SLICES} slices");
}

fn print_load(load: &LoadOutcome) {
    println!(
        "ops_attempted = {}  ops_failed = {}  refused = {}  shed = {}  correct = {}  \
         late_replies = {}  wall = {:.3} s",
        load.ops.attempted,
        load.ops.failed,
        load.refused,
        load.shed,
        load.replies.len(),
        load.replies
            .iter()
            .filter(|&&(_, ms)| ms > LATENCY_LIMIT_MS)
            .count(),
        load.wall_s,
    );
    println!("goodput by slice = {:.0?} 1/s", load.slice_rates());
    if !load.late_ms.is_empty() {
        println!(
            "generator_saturated = {} (sends over 2 ms late: {} of {})",
            load.generator_saturated(),
            load.late_sends(),
            load.late_ms.len(),
        );
    }
}

/// Seconds of load a fresh server takes before its measured window starts.
const WARM_S: f64 = 0.5;

/// The untraced run of a serving workload: all seven end-to-end metrics.
pub fn end_to_end(w: Workload, args: &Args, report: &mut Report) -> Ops {
    let spans = Spans::new(false);
    let calibration = &dataset(&SERVED_MODEL, args.smoke)[0];

    // Set-up, several fresh cycles: model, registry, server (and, over TCP,
    // bind + connect); tearing the rig down again is not part of it.
    let mut setups = Vec::new();
    let mut served = None;
    for _ in 0..args.setup_cycles() {
        let t = Instant::now();
        let model = Served::new(calibration, &spans, 0);
        if w == Workload::ServeTcpClosed {
            let rig = TcpRig::bind(&model);
            setups.push(t.elapsed().as_secs_f64());
            drop(rig.shutdown());
        } else {
            let server = model.start_registry();
            setups.push(t.elapsed().as_secs_f64());
            drop(server.shutdown());
        }
        served = Some(model);
    }
    let served = served.expect("at least one set-up cycle");
    let cycles = setups.len();
    report.put_n("setup_s", stats::median(&mut setups), "s", cycles);

    let traffic = Traffic::new(Traffic::inputs(args), &served);
    let err = fp32_rel_err(&SERVED_MODEL, args.smoke);
    report.put("rel_err", err, "ratio");

    // One server takes the whole window, as a deployed one would: its worker
    // keeps one activation arena, and what that costs as it grows is part of
    // the numbers. The bare model is timed before and after the window, so
    // that a noisy stretch of the host cannot own the whole `infer_ms_p50`
    // sample.
    let bare_runs = if args.smoke { 20 } else { 1000 };
    let (mut model_ms, mut peak) = bare_model(&served, &traffic, 1, bare_runs);
    let load = if w == Workload::ServeTcpClosed {
        let mut rig = TcpRig::bind(&served);
        closed_loop(&mut rig.clients, &traffic, WARM_S, &spans, 0);
        let load = closed_loop(&mut rig.clients, &traffic, args.seconds, &spans, 0);
        drop(rig.shutdown());
        load
    } else {
        let server = served.start_registry();
        open_loop(server.registry(), &traffic, !args.seed, WARM_S, &spans, 0);
        let load = open_loop(
            server.registry(),
            &traffic,
            args.seed,
            args.seconds,
            &spans,
            0,
        );
        drop(server.shutdown());
        load
    };
    let (ms, bytes) = bare_model(&served, &traffic, 1, bare_runs);
    model_ms.extend(ms);
    peak = peak.max(bytes);
    let bare_n = model_ms.len();
    report.put_n("infer_ms_p50", stats::median(&mut model_ms), "ms", bare_n);
    report.put("peak_live_bytes", peak as f64, "bytes");
    print_load(&load);
    put_load_metrics(w, &load, report);
    let empty = load.replies.is_empty();
    let mut ops = load.ops;
    ops.failures.extend(w.rel_err_over_ceiling(err));
    if empty {
        ops.failures.push("no correct reply".to_string());
    }
    ops
}

/// The serving section of a traced run: the wire, the idle registry, the
/// bare model and an overload burst, each timed from outside. On
/// `serve_tcp_closed` the closed loop itself also runs traced, for its spans.
pub fn traced_section(w: Workload, args: &Args, spans: &Spans, report: &mut Report) -> Ops {
    use wino_serve::net::{decode_frame, encode_frame, Frame};
    let root = spans.open("serving_section", 0, 0);
    let calibration = &dataset(&SERVED_MODEL, args.smoke)[0];
    let served = Served::new(calibration, spans, root.id());
    let traffic = Traffic::new(Traffic::inputs(args), &served);
    let probes = if args.smoke { 20 } else { 200 };
    let mut ops = Ops::default();

    // The wire format alone: one request and its reply.
    let request = Frame::InferRequest {
        request_id: 1,
        model: MODEL.to_string(),
        inputs: vec![traffic.inputs[0].clone()],
    };
    let reply = Frame::InferReply {
        request_id: 1,
        batch_images: 1,
        outputs: served
            .exec
            .run_with_inputs(&served.prepared, std::slice::from_ref(&traffic.inputs[0]))
            .outputs,
    };
    let bytes = encode_frame(&request);
    let mut encode_us = Vec::new();
    let mut decode_us = Vec::new();
    for i in 0..probes {
        let t = Instant::now();
        let encoded = {
            let _s = spans.open("encode_frame", root.id(), i as u64 + 1);
            encode_frame(&request)
        };
        encode_us.push(t.elapsed().as_secs_f64() * 1e6);
        let t = Instant::now();
        // The payload follows the 4-byte magic and the 4-byte length.
        let decoded = {
            let _s = spans.open("decode_frame", root.id(), i as u64 + 1);
            decode_frame(&encoded[8..])
        };
        decode_us.push(t.elapsed().as_secs_f64() * 1e6);
        ops.record(decoded.as_ref() == Ok(&request), || {
            format!("decode_frame(encode_frame(request)) gave {decoded:?}")
        });
    }
    report.put_n(
        "serve.protocol.encode_us",
        stats::median(&mut encode_us),
        "us",
        probes,
    );
    report.put_n(
        "serve.protocol.decode_us",
        stats::median(&mut decode_us),
        "us",
        probes,
    );
    report.put("serve.protocol.request_bytes", bytes.len() as f64, "bytes");
    report.put(
        "serve.protocol.reply_bytes",
        encode_frame(&reply).len() as f64,
        "bytes",
    );

    // An empty round trip over loopback, then (on its own workload) the
    // closed loop under trace.
    let mut rig = TcpRig::bind(&served);
    let mut rtt_us: Vec<f64> = (0..probes)
        .map(|i| {
            let _s = spans.open("NetClient::ping_rtt", root.id(), i as u64 + 1);
            rig.clients[0].ping_rtt().expect("ping").as_secs_f64() * 1e6
        })
        .collect();
    report.put_n(
        "serve.net.ping_rtt_us",
        stats::median(&mut rtt_us),
        "us",
        probes,
    );
    if w == Workload::ServeTcpClosed {
        let pass = spans.open("closed_loop", root.id(), 0);
        closed_loop(&mut rig.clients, &traffic, WARM_S, &Spans::new(false), 0);
        let load = closed_loop(
            &mut rig.clients,
            &traffic,
            args.seconds / 5.0,
            spans,
            pass.id(),
        );
        print_load(&load);
        ops.absorb(load.ops);
    }
    drop(rig.shutdown());

    // One request at a time through an idle registry: submit → wait.
    let server = served.start_registry();
    let mut inproc_ms = Vec::new();
    for i in 0..probes {
        let idx = i % traffic.inputs.len();
        let x = vec![traffic.inputs[idx].clone()];
        let t = Instant::now();
        let _s = spans.open("inproc_request", root.id(), i as u64 + 1);
        let reply = server
            .registry()
            .submit(MODEL, x)
            .ok()
            .and_then(PendingReply::wait);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        // A request shed by the 10 ms deadline (the host stalled) is an
        // admission outcome, not a failure; it just gives no sample.
        let ok = match &reply {
            Some(ModelReply::Ok(r)) if traffic.matches(idx, &r.outputs) => {
                inproc_ms.push(ms);
                true
            }
            Some(ModelReply::Overloaded { .. }) => true,
            _ => false,
        };
        ops.record(ok, || format!("idle registry, input {idx}: {reply:?}"));
    }
    drop(server.shutdown());
    let answered = inproc_ms.len();
    report.put_n(
        "serve.registry.inproc_ms_p50",
        stats::median(&mut inproc_ms),
        "ms",
        answered,
    );

    // The model with no server around it, alone and at the batch limit.
    let batch = 4.min(traffic.inputs.len());
    report.put_n(
        "core.graph_exec.model_ms_b1",
        stats::median(&mut bare_model(&served, &traffic, 1, probes).0),
        "ms",
        probes,
    );
    report.put_n(
        "core.graph_exec.model_ms_b4",
        stats::median(&mut bare_model(&served, &traffic, batch, probes).0),
        "ms",
        probes,
    );

    // The overload burst: the open loop at a fifth of its length, with the
    // scheduler's own view (`StatsReport`, warm-up included) beside ours.
    let server = served.start_registry();
    let off = Spans::new(false);
    open_loop(server.registry(), &traffic, !args.seed, WARM_S, &off, 0);
    let pass = spans.open("open_loop", root.id(), 0);
    let load = open_loop(
        server.registry(),
        &traffic,
        args.seed,
        args.seconds / 5.0,
        spans,
        pass.id(),
    );
    drop(pass);
    let stats_report = model_stats(server.shutdown());
    print_load(&load);
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let served_n = stats_report.requests;
    report.put_n(
        "serve.scheduler.queue_wait_ms_p50",
        ms(stats_report.queue_wait.p50),
        "ms",
        served_n,
    );
    report.put_n(
        "serve.scheduler.queue_wait_ms_p99",
        ms(stats_report.queue_wait.p99),
        "ms",
        served_n,
    );
    report.put_n(
        "serve.scheduler.mean_batch",
        stats_report.mean_batch,
        "count",
        stats_report.batches,
    );
    let n_submit = load.submit_us.len();
    let n_reject = load.reject_us.len();
    report.put_n(
        "serve.registry.submit_us",
        stats::median(&mut load.submit_us.clone()),
        "us",
        n_submit,
    );
    report.put_n(
        "serve.registry.reject_us",
        stats::median(&mut load.reject_us.clone()),
        "us",
        n_reject,
    );
    report.put(
        "serve.registry.rejected",
        stats_report.rejected as f64,
        "count",
    );
    report.put("serve.registry.shed", stats_report.shed as f64, "count");
    let lat = load.latencies();
    report.put_n(
        "serve.registry.latency_ms_p50",
        stats::percentile(&lat, 50.0),
        "ms",
        lat.len(),
    );
    let mut late = load.late_ms.clone();
    stats::sort(&mut late);
    let (late_tail, p) = stats::tail(&late, 99);
    report
        .put_n("bench.gen_late_ms_p99", late_tail, "ms", late.len())
        .note = format!(
        "read at p{p}; generator_saturated = {}",
        load.generator_saturated()
    );
    ops.absorb(load.ops);
    ops
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_schedule_is_a_function_of_its_seed() {
        let a = poisson_schedule(7, 4800.0, 0.5);
        assert_eq!(a, poisson_schedule(7, 4800.0, 0.5));
        assert_ne!(a, poisson_schedule(8, 4800.0, 0.5));
        // Ascending, inside the window, and about rate × seconds of them.
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert!(a.iter().all(|&t| t < 500_000_000));
        assert!((2000..2800).contains(&a.len()), "{} arrivals", a.len());
    }

    #[test]
    fn generator_is_saturated_past_one_percent_late() {
        let mut load = LoadOutcome {
            late_ms: vec![0.1; 99],
            ..LoadOutcome::default()
        };
        load.late_ms.push(2.5);
        assert!(!load.generator_saturated());
        load.late_ms.push(2.5);
        assert!(load.generator_saturated());
    }

    #[test]
    fn goodput_and_tail_are_the_median_slice() {
        // A 5 s window, so each of the five slices is one second: two good
        // replies a second, except a stalled third second with two late ones.
        let mut replies = Vec::new();
        for second in 0..5 {
            let ms = if second == 2 { 30.0 } else { 1.0 };
            replies.push((f64::from(second) + 0.25, ms));
            replies.push((f64::from(second) + 0.75, ms + 8.9));
        }
        let load = LoadOutcome {
            window_s: 5.0,
            replies,
            ..LoadOutcome::default()
        };
        assert_eq!(load.goodput_rps(), 2.0);
        assert_eq!(load.tail_ms(99.0), 9.9);
        assert_eq!(load.latencies().last(), Some(&38.9));
        // A reply inside a slice but over the limit misses goodput.
        let late = LoadOutcome {
            window_s: 5.0,
            replies: (0..5).map(|s| (f64::from(s), 10.1)).collect(),
            ..LoadOutcome::default()
        };
        assert_eq!(late.goodput_rps(), 0.0);
    }
}
