//! The multi-model registry: N prepared graphs behind per-model queues.
//!
//! [`ModelRegistry`] owns one [`BatchScheduler`] per registered model and a
//! shared worker pool ([`RegistryServer`]) that multiplexes across them:
//!
//! * **Scheduling.** A worker asking for work scans every model's queue and
//!   takes the ready batch of the *highest-priority* model, breaking ties by
//!   weighted deficit — the model whose `batches served / weight` ratio is
//!   lowest goes first, so a weight-3 model gets roughly three batches for
//!   every one batch of a weight-1 peer at equal priority.
//! * **Admission control.** Each model bounds its queue depth: a submit
//!   against a full queue is refused *immediately* with
//!   [`SubmitError::Overloaded`] (never queued, never timed). Queued
//!   requests whose wait exceeds the model's deadline by dispatch time are
//!   shed with an explicit [`ModelReply::Overloaded`] instead of being run
//!   late — the two balk points that keep accepted-request p99 bounded when
//!   offered load exceeds capacity.
//! * **Calibration lifecycle.** A model registered via
//!   [`RegistryBuilder::model_calibrating`] starts warming: its batches run
//!   through [`GraphExecutor::observe_with_in`], folding activation ranges
//!   into the running statistics until the policy freezes, after which every
//!   batch takes the normal frozen integer path. The per-model stats carry
//!   the lifecycle label the whole way.
//! * **Fault isolation.** A panic inside a batch (a model bug, or an
//!   injected `worker.batch.*` fault) is caught at the worker: every request
//!   in the batch gets a typed [`ModelReply::WorkerFailed`] — never a
//!   silently dropped channel — and the worker revives itself until its
//!   restart budget runs out. When the *last* worker dies, it closes and
//!   drains every model queue with the same typed reply so no submitter can
//!   be left waiting forever.

use crate::net::protocol::ModelStatsEntry;
use crate::scheduler::{Batch, BatchPolicy, BatchScheduler};
use crate::stats::{MultiModelReport, ServerStats};
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use wino_core::{
    ActivationArena, CalibrationPolicy, GraphExecutor, PreparedGraph, RunningCalibration,
};
use wino_tensor::{batch_slice, concat_batch, Tensor};
use wino_trace::Category;

/// Lazily interned scheduler-event symbols ([`Category::Serve`]); the
/// interner's lock is only ever taken once per name, and only when tracing
/// is actually on.
fn serve_sym(cell: &'static OnceLock<wino_trace::Sym>, name: &'static str) -> wino_trace::Sym {
    *cell.get_or_init(|| wino_trace::intern(name))
}

static ENQUEUE_SYM: OnceLock<wino_trace::Sym> = OnceLock::new();
static REJECT_SYM: OnceLock<wino_trace::Sym> = OnceLock::new();
static DISPATCH_SYM: OnceLock<wino_trace::Sym> = OnceLock::new();
static SHED_SYM: OnceLock<wino_trace::Sym> = OnceLock::new();
static FREEZE_SYM: OnceLock<wino_trace::Sym> = OnceLock::new();
static BATCH_SYM: OnceLock<wino_trace::Sym> = OnceLock::new();

/// Load-shedding bounds of one model's queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionControl {
    /// Refuse submits once this many requests are queued (the bound on how
    /// much latency the queue itself can accumulate).
    pub max_queue: usize,
    /// Shed a queued request at dispatch if it already waited longer than
    /// this — running it would blow its latency budget anyway.
    pub deadline: Duration,
}

impl Default for AdmissionControl {
    fn default() -> Self {
        Self {
            max_queue: 64,
            deadline: Duration::from_millis(250),
        }
    }
}

/// Per-model serving configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModelServeConfig {
    /// Dynamic-batching policy of this model's queue.
    pub policy: BatchPolicy,
    /// Queue-depth and deadline bounds.
    pub admission: AdmissionControl,
    /// Share of worker capacity relative to same-priority peers (>= 1).
    pub weight: u32,
    /// Strict priority: a ready batch of a higher-priority model always
    /// dispatches before any lower-priority one.
    pub priority: u8,
}

impl Default for ModelServeConfig {
    fn default() -> Self {
        Self {
            policy: BatchPolicy::default(),
            admission: AdmissionControl::default(),
            weight: 1,
            priority: 0,
        }
    }
}

/// Why a submit was refused. All variants are expected serving outcomes, not
/// bugs: the network layer maps each to a typed wire error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// No model with the requested name is registered.
    UnknownModel,
    /// Tensor count or shapes disagree with the model's graph.
    BadShape(String),
    /// The model's queue is at its admission bound; retry with backoff.
    Overloaded,
    /// The registry is shutting down.
    Shutdown,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::UnknownModel => write!(f, "unknown model"),
            Self::BadShape(why) => write!(f, "bad input shape: {why}"),
            Self::Overloaded => write!(f, "queue at admission bound"),
            Self::Shutdown => write!(f, "registry shutting down"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// A completed inference.
#[derive(Debug, Clone, PartialEq)]
pub struct InferenceReply {
    /// The graph's outputs for this request's images, in output-node order.
    pub outputs: Vec<(String, Tensor<f32>)>,
    /// Submit-to-reply latency.
    pub latency: Duration,
    /// Images in the coalesced batch this request rode in (> its own image
    /// count when dynamic batching merged it with neighbours).
    pub batch_images: usize,
}

impl InferenceReply {
    /// The output tensor of the output node with the given name.
    pub fn output(&self, name: &str) -> Option<&Tensor<f32>> {
        self.outputs.iter().find(|(n, _)| n == name).map(|(_, t)| t)
    }
}

/// The terminal outcome of an accepted (queued) request.
#[derive(Debug, Clone, PartialEq)]
pub enum ModelReply {
    /// The request ran; here are its outputs.
    Ok(InferenceReply),
    /// The request was shed at dispatch: it waited `queued_for`, longer than
    /// the model's deadline.
    Overloaded {
        /// How long the request sat in the queue before being shed.
        queued_for: Duration,
    },
    /// The worker running this request's batch panicked. The inputs were
    /// consumed, so the request cannot be transparently replayed here; the
    /// caller decides whether to resubmit (the batch never produced outputs,
    /// so a retry is idempotent-safe).
    WorkerFailed,
}

impl ModelReply {
    /// The successful reply, if the request was not shed or failed.
    pub fn ok(self) -> Option<InferenceReply> {
        match self {
            Self::Ok(r) => Some(r),
            Self::Overloaded { .. } | Self::WorkerFailed => None,
        }
    }
}

/// A pending registry reply; redeem with [`PendingReply::wait`].
#[derive(Debug)]
pub struct PendingReply {
    rx: mpsc::Receiver<ModelReply>,
}

impl PendingReply {
    /// Blocks until the reply (or shed notice) arrives; `None` if the
    /// registry shut down before this request was served.
    pub fn wait(self) -> Option<ModelReply> {
        self.rx.recv().ok()
    }

    /// Like [`PendingReply::wait`], but gives up after `timeout`. The outer
    /// `None` means the reply did not arrive in time (the request may still
    /// be served later); `Some(None)` means the registry shut down before
    /// serving it. Chaos tests use this so an accounting bug surfaces as a
    /// failed assertion rather than a hung test.
    pub fn wait_timeout(self, timeout: Duration) -> Option<Option<ModelReply>> {
        match self.rx.recv_timeout(timeout) {
            Ok(r) => Some(Some(r)),
            Err(mpsc::RecvTimeoutError::Disconnected) => Some(None),
            Err(mpsc::RecvTimeoutError::Timeout) => None,
        }
    }
}

/// One queued request against a specific model.
#[derive(Debug)]
struct ModelRequest {
    inputs: Vec<Tensor<f32>>,
    submitted: Instant,
    reply: mpsc::Sender<ModelReply>,
    /// Correlates this request's scheduler events with the network layer's
    /// request span (the wire `request_id`; 0 for in-process submits).
    trace_id: u64,
}

/// One registered model: its executor, prepared graph, queue and telemetry.
#[derive(Debug)]
struct ModelEntry {
    name: String,
    executor: Arc<GraphExecutor>,
    prepared: Arc<PreparedGraph>,
    calibration: Option<RunningCalibration>,
    scheduler: BatchScheduler<ModelRequest>,
    stats: ServerStats,
    config: ModelServeConfig,
    served_batches: AtomicU64,
}

/// N models, their queues and the shared coordination state.
///
/// Built via [`RegistryBuilder`]; served by [`RegistryServer`] (in-process)
/// and [`crate::net::NetServer`] (over TCP).
#[derive(Debug)]
pub struct ModelRegistry {
    models: Vec<ModelEntry>,
    /// `true` once shutdown started. Workers sleep on `ready` against this
    /// mutex between queue scans.
    closed: Mutex<bool>,
    ready: Condvar,
    /// Worker-pool-level telemetry (arenas; per-model numbers live on the
    /// entries).
    pool: ServerStats,
}

/// Registers models one by one, then builds the shared [`ModelRegistry`].
#[derive(Debug, Default)]
pub struct RegistryBuilder {
    models: Vec<ModelEntry>,
}

impl RegistryBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a model with frozen (or trivially absent) calibration. An
    /// uncalibrated quantized graph is warmed on its synthesized batch here
    /// (see [`GraphExecutor::warmup`]) — by build time every model's prepared
    /// state is immutable.
    ///
    /// # Panics
    ///
    /// Panics on a duplicate model name.
    pub fn model(
        self,
        name: &str,
        executor: Arc<GraphExecutor>,
        prepared: Arc<PreparedGraph>,
        config: ModelServeConfig,
    ) -> Self {
        if !prepared.is_calibrated() {
            executor.warmup(&prepared);
        }
        let stats = ServerStats::with_metrics(&format!("serve.{name}"));
        stats.set_calibration("static".to_string());
        self.push(name, executor, prepared, None, stats, config)
    }

    /// Registers a model under running-statistics calibration: it starts
    /// serving immediately (integer nodes run the FP32 observation path),
    /// folds every batch's activation ranges into per-node running averages,
    /// and freezes per `policy` — after which its outputs are pinned
    /// bit-identical.
    ///
    /// # Panics
    ///
    /// Panics on a duplicate model name.
    pub fn model_calibrating(
        self,
        name: &str,
        executor: Arc<GraphExecutor>,
        prepared: Arc<PreparedGraph>,
        config: ModelServeConfig,
        policy: CalibrationPolicy,
    ) -> Self {
        let cal = executor.running_calibration(&prepared, policy);
        let stats = ServerStats::with_metrics(&format!("serve.{name}"));
        stats.set_calibration(cal.state().label());
        self.push(name, executor, prepared, Some(cal), stats, config)
    }

    fn push(
        mut self,
        name: &str,
        executor: Arc<GraphExecutor>,
        prepared: Arc<PreparedGraph>,
        calibration: Option<RunningCalibration>,
        stats: ServerStats,
        config: ModelServeConfig,
    ) -> Self {
        assert!(
            self.models.iter().all(|m| m.name != name),
            "duplicate model name {name:?}"
        );
        assert!(config.weight >= 1, "model weight must be >= 1");
        assert!(
            config.admission.max_queue >= 1,
            "admission max_queue must be >= 1"
        );
        stats.set_fusion(prepared.fused_node_count(), prepared.elided_bytes());
        stats.set_kernel(prepared.simd_kernel());
        stats.set_scratch_bytes(prepared.scratch_bytes());
        self.models.push(ModelEntry {
            name: name.to_string(),
            executor,
            prepared,
            calibration,
            scheduler: BatchScheduler::new(config.policy),
            stats,
            config,
            served_batches: AtomicU64::new(0),
        });
        self
    }

    /// Finalizes the registry.
    ///
    /// # Panics
    ///
    /// Panics if no model was registered.
    pub fn build(self) -> Arc<ModelRegistry> {
        assert!(
            !self.models.is_empty(),
            "a registry needs at least one model"
        );
        let pool = ServerStats::new();
        if let Some(m) = self.models.first() {
            pool.set_kernel(m.prepared.simd_kernel());
        }
        Arc::new(ModelRegistry {
            models: self.models,
            closed: Mutex::new(false),
            ready: Condvar::new(),
            pool,
        })
    }
}

/// The weighted-priority pick: highest priority wins outright; ties go to
/// the lowest `served / weight` deficit ratio (then to registry order).
/// Pure so the scheduling policy is unit-testable without queues or threads.
fn pick_model(candidates: &[(usize, u8, u32, u64)]) -> Option<usize> {
    candidates
        .iter()
        .min_by(|&&(ia, pa, wa, sa), &&(ib, pb, wb, sb)| {
            // Higher priority first…
            pb.cmp(&pa)
                // …then lower served/weight (cross-multiplied to stay exact)…
                .then_with(|| (sa * u64::from(wb)).cmp(&(sb * u64::from(wa))))
                // …then stable registry order.
                .then_with(|| ia.cmp(&ib))
        })
        .map(|&(i, ..)| i)
}

impl ModelRegistry {
    /// The coordination lock never guards user code — only the `closed` flag
    /// and condvar choreography — so its state is consistent even if a
    /// panicking thread (an injected worker fault unwinding) poisoned it.
    /// Recover rather than cascading the panic into every later submit.
    fn closed_lock(&self) -> MutexGuard<'_, bool> {
        self.closed.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// The registered model names, in registration order.
    pub fn model_names(&self) -> Vec<String> {
        self.models.iter().map(|m| m.name.clone()).collect()
    }

    /// The calibration-lifecycle label of the named model.
    pub fn calibration_label(&self, model: &str) -> Option<String> {
        let m = self.models.iter().find(|m| m.name == model)?;
        Some(match &m.calibration {
            Some(cal) => cal.state().label(),
            None => "static".to_string(),
        })
    }

    /// Requests currently queued against the named model.
    pub fn queue_depth(&self, model: &str) -> Option<usize> {
        self.models
            .iter()
            .find(|m| m.name == model)
            .map(|m| m.scheduler.depth())
    }

    /// A live snapshot of the named model's telemetry.
    pub fn model_stats(&self, model: &str) -> Option<crate::stats::StatsReport> {
        self.models
            .iter()
            .find(|m| m.name == model)
            .map(|m| m.stats.report())
    }

    /// Validates and enqueues one request against the named model.
    ///
    /// Nothing here panics: every refusal is a typed [`SubmitError`], because
    /// over the network a bad request is the *peer's* bug and must come back
    /// as a reply, not take down a handler — and an in-process caller gets
    /// the same typed answer.
    pub fn submit(
        &self,
        model: &str,
        inputs: Vec<Tensor<f32>>,
    ) -> Result<PendingReply, SubmitError> {
        self.submit_traced(model, inputs, 0)
    }

    /// [`ModelRegistry::submit`] with an explicit trace correlation id: the
    /// network layer passes the wire `request_id` so the request's
    /// enqueue/dispatch/shed scheduler events line up under its handler span
    /// in the exported trace.
    pub fn submit_traced(
        &self,
        model: &str,
        inputs: Vec<Tensor<f32>>,
        trace_id: u64,
    ) -> Result<PendingReply, SubmitError> {
        let entry = self
            .models
            .iter()
            .find(|m| m.name == model)
            .ok_or(SubmitError::UnknownModel)?;
        validate_inputs(&entry.prepared, &inputs).map_err(SubmitError::BadShape)?;
        // Chaos hook: a `Delay` here simulates a slow admission path (the
        // sleep happens inside `fire`), a `Fail` maps to the same typed
        // refusal a full queue produces — exercising the client's backoff
        // path without actually saturating a queue.
        if wino_fault::fire("sched.submit") {
            entry.stats.record_rejected();
            return Err(SubmitError::Overloaded);
        }
        if entry.scheduler.depth() >= entry.config.admission.max_queue {
            entry.stats.record_rejected();
            if wino_trace::enabled() {
                wino_trace::instant(serve_sym(&REJECT_SYM, "reject"), Category::Serve, trace_id);
            }
            return Err(SubmitError::Overloaded);
        }
        let (tx, rx) = mpsc::channel();
        let accepted = entry.scheduler.submit(ModelRequest {
            inputs,
            submitted: Instant::now(),
            reply: tx,
            trace_id,
        });
        if !accepted {
            return Err(SubmitError::Shutdown);
        }
        if wino_trace::enabled() {
            wino_trace::instant(
                serve_sym(&ENQUEUE_SYM, "enqueue"),
                Category::Serve,
                trace_id,
            );
        }
        // Hand-over-hand with the workers' wait: taking and dropping the
        // lock orders this submit against any worker that just scanned
        // empty queues, so the notify cannot be lost.
        drop(self.closed_lock());
        self.ready.notify_all();
        Ok(PendingReply { rx })
    }

    /// Blocks until some model has a ready batch and takes the best one
    /// (priority, then weighted deficit), or returns `None` at shutdown
    /// with every queue drained.
    fn next_batch(&self) -> Option<(usize, Batch<ModelRequest>)> {
        let mut closed = self.closed_lock();
        loop {
            let ready: Vec<(usize, u8, u32, u64)> = self
                .models
                .iter()
                .enumerate()
                .filter(|(_, m)| m.scheduler.has_ready())
                .map(|(i, m)| {
                    (
                        i,
                        m.config.priority,
                        m.config.weight,
                        m.served_batches.load(Ordering::Relaxed),
                    )
                })
                .collect();
            if let Some(i) = pick_model(&ready) {
                drop(closed);
                // Another worker may have raced us to this queue; rescan if
                // the batch is gone.
                if let Some(b) = self.models[i].scheduler.poll_batch() {
                    return Some((i, b));
                }
                closed = self.closed_lock();
                continue;
            }
            if *closed && self.models.iter().all(|m| m.scheduler.depth() == 0) {
                return None;
            }
            // Sleep until the earliest queued deadline (or a safety tick
            // when every queue is empty), re-woken early by any submit.
            let now = Instant::now();
            let wait = self
                .models
                .iter()
                .filter_map(|m| m.scheduler.next_deadline())
                .min()
                .map_or(Duration::from_millis(50), |d| {
                    d.saturating_duration_since(now)
                })
                .clamp(Duration::from_micros(100), Duration::from_millis(50));
            let (g, _) = self
                .ready
                .wait_timeout(closed, wait)
                .unwrap_or_else(|p| p.into_inner());
            closed = g;
        }
    }

    /// Starts shutdown: closes every model queue and wakes every worker.
    fn close(&self) {
        let mut closed = self.closed_lock();
        *closed = true;
        for m in &self.models {
            m.scheduler.close();
        }
        drop(closed);
        self.ready.notify_all();
    }

    /// A live (non-draining) snapshot for the `Frame::Stats` wire request:
    /// one structured [`ModelStatsEntry`] per model, plus the full rendered
    /// text — every model's stats table followed by the process-wide
    /// `wino_trace` metrics registry.
    pub fn stats_report(&self) -> (Vec<ModelStatsEntry>, String) {
        let mut text = String::new();
        let entries = self
            .models
            .iter()
            .map(|m| {
                if let Some(cal) = &m.calibration {
                    m.stats.set_calibration(cal.state().label());
                }
                let r = m.stats.report();
                let _ = writeln!(text, "== model {} ==", m.name);
                text.push_str(&r.render());
                ModelStatsEntry {
                    name: m.name.clone(),
                    requests: r.requests as u64,
                    rejected: r.rejected as u64,
                    shed: r.shed as u64,
                    failed: r.failed as u64,
                    worker_restarts: r.worker_restarts as u64,
                    queue_depth: m.scheduler.depth() as u64,
                    calibration: r.calibration,
                }
            })
            .collect();
        text.push_str("== metrics ==\n");
        text.push_str(&wino_trace::render_metrics());
        (entries, text)
    }

    /// The final multi-model report.
    fn report(&self) -> MultiModelReport {
        MultiModelReport {
            models: self
                .models
                .iter()
                .map(|m| {
                    if let Some(cal) = &m.calibration {
                        m.stats.set_calibration(cal.state().label());
                    }
                    m.stats.set_synth(m.executor.synth().stats());
                    (m.name.clone(), m.stats.report())
                })
                .collect(),
            pool: self.pool.report(),
        }
    }
}

/// The request-shape checks of [`ModelRegistry::submit`]: tensor count,
/// rank, per-image shape and one shared non-zero batch size.
fn validate_inputs(prepared: &PreparedGraph, inputs: &[Tensor<f32>]) -> Result<(), String> {
    let graph = prepared.graph();
    let input_ids = graph.input_ids();
    if inputs.len() != input_ids.len() {
        return Err(format!(
            "request carries {} input tensor(s), graph {} expects {}",
            inputs.len(),
            graph.name,
            input_ids.len()
        ));
    }
    let batch = inputs
        .first()
        .map_or(0, |t| t.dims().first().copied().unwrap_or(0));
    if batch == 0 {
        return Err("request has an empty batch".to_string());
    }
    for (t, &id) in inputs.iter().zip(&input_ids) {
        let (c, h, w) = prepared.shapes()[id];
        if t.dims() != [batch, c, h, w] {
            return Err(format!(
                "input {:?} of graph {} has shape {:?}, expected {:?}",
                graph.nodes()[id].name,
                graph.name,
                t.dims(),
                [batch, c, h, w]
            ));
        }
    }
    Ok(())
}

/// The shared worker pool over a [`ModelRegistry`].
#[derive(Debug)]
pub struct RegistryServer {
    registry: Arc<ModelRegistry>,
    workers: Vec<JoinHandle<()>>,
}

impl RegistryServer {
    /// Starts `workers` threads multiplexing across the registry's queues,
    /// each allowed the default restart budget of 3 panic revivals.
    ///
    /// # Panics
    ///
    /// Panics if `workers` is zero.
    pub fn start(registry: Arc<ModelRegistry>, workers: usize) -> Self {
        Self::start_with_budget(registry, workers, 3)
    }

    /// [`RegistryServer::start`] with an explicit per-worker restart budget:
    /// a worker that catches a batch panic revives itself up to
    /// `restart_budget` times (each revival recorded on the panicking
    /// model's `worker_restarts` counter) and exits on the panic after that.
    /// The last worker to exit closes and drains every queue with typed
    /// [`ModelReply::WorkerFailed`] replies.
    ///
    /// # Panics
    ///
    /// Panics if `workers` is zero.
    pub fn start_with_budget(
        registry: Arc<ModelRegistry>,
        workers: usize,
        restart_budget: usize,
    ) -> Self {
        assert!(workers > 0, "a registry server needs at least one worker");
        let live = Arc::new(AtomicUsize::new(workers));
        let handles = (0..workers)
            .map(|i| {
                let registry = Arc::clone(&registry);
                let live = Arc::clone(&live);
                std::thread::Builder::new()
                    .name(format!("wino-registry-{i}"))
                    .spawn(move || worker_loop(&registry, restart_budget, &live))
                    .expect("spawn registry worker")
            })
            .collect();
        Self {
            registry,
            workers: handles,
        }
    }

    /// The registry this pool serves.
    pub fn registry(&self) -> &Arc<ModelRegistry> {
        &self.registry
    }

    /// Stops accepting requests, drains every queue, joins the workers and
    /// returns the per-model + pool report.
    pub fn shutdown(mut self) -> MultiModelReport {
        self.registry.close();
        for w in std::mem::take(&mut self.workers) {
            // Batch panics are caught inside the loop, so a join error here
            // could only come from infrastructure code outside the guarded
            // region; every queued request was already answered with a typed
            // reply, so there is nothing useful to do but note it.
            let _ = w.join();
        }
        self.registry.report()
    }
}

impl Drop for RegistryServer {
    fn drop(&mut self) {
        self.registry.close();
    }
}

/// One pool worker: pick the best ready batch across models, shed what
/// already blew its deadline, run the rest, slice replies back out.
///
/// The stack-run-reply section runs under `catch_unwind`: a panic there
/// (model bug or injected `worker.batch.*` fault) answers every request in
/// the batch with [`ModelReply::WorkerFailed`], discards the possibly
/// half-written arena, and revives the worker until `budget` revivals are
/// spent. The last worker to exit — for any reason — closes the registry
/// and drains all queues so no submitted request is ever left unanswered.
fn worker_loop(registry: &ModelRegistry, budget: usize, live: &AtomicUsize) {
    let mut arena = ActivationArena::new();
    let mut panics = 0usize;
    while let Some((idx, batch)) = registry.next_batch() {
        let entry = &registry.models[idx];
        let deadline = entry.config.admission.deadline;
        let mut accepted = Vec::with_capacity(batch.items.len());
        let mut accepted_waits = Vec::with_capacity(batch.waits.len());
        let tracing = wino_trace::enabled();
        for (req, wait) in batch.items.into_iter().zip(batch.waits) {
            if wait > deadline {
                // Deadline-based shedding: running it now would only return
                // an answer the client stopped waiting for, while delaying
                // everyone behind it.
                entry.stats.record_shed();
                if tracing {
                    wino_trace::instant(
                        serve_sym(&SHED_SYM, "shed"),
                        Category::Serve,
                        req.trace_id,
                    );
                }
                let _ = req.reply.send(ModelReply::Overloaded { queued_for: wait });
            } else {
                if tracing {
                    wino_trace::instant(
                        serve_sym(&DISPATCH_SYM, "dispatch"),
                        Category::Serve,
                        req.trace_id,
                    );
                }
                accepted.push(req);
                accepted_waits.push(wait);
            }
        }
        if accepted.is_empty() {
            continue;
        }
        // Split payloads from reply plumbing before the guarded region: the
        // senders stay out here so a panic mid-batch cannot take them down
        // with it — every request still gets its typed answer.
        let mut inputs: Vec<Vec<Tensor<f32>>> = Vec::with_capacity(accepted.len());
        let mut replies: Vec<(Instant, mpsc::Sender<ModelReply>)> =
            Vec::with_capacity(accepted.len());
        for req in accepted {
            inputs.push(req.inputs);
            replies.push((req.submitted, req.reply));
        }
        let counts: Vec<usize> = inputs.iter().map(|r| r[0].dims()[0]).collect();
        let n_inputs = entry.prepared.graph().input_ids().len();
        // The batch span's id packs (model index, images) so a trace viewer
        // can tell whose batch it was without a per-model symbol.
        let batch_sp = tracing.then(|| {
            wino_trace::span(
                serve_sym(&BATCH_SYM, "batch"),
                Category::Serve,
                ((idx as u64) << 32) | replies.len() as u64,
            )
        });
        let was_warming = entry
            .calibration
            .as_ref()
            .is_some_and(|cal| !cal.state().label().starts_with("frozen"));
        let run_start = Instant::now();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            wino_fault::fire("worker.batch.pre");
            let stacked: Vec<Tensor<f32>> = if inputs.len() == 1 {
                std::mem::take(&mut inputs[0])
            } else {
                (0..n_inputs)
                    .map(|pos| {
                        let parts: Vec<&Tensor<f32>> = inputs.iter().map(|r| &r[pos]).collect();
                        concat_batch(&parts)
                    })
                    .collect()
            };
            let run = match &entry.calibration {
                Some(cal) => {
                    // Warming batches observe; frozen ones take the normal
                    // path inside observe_with_in (the recalibration guard).
                    let r =
                        entry
                            .executor
                            .observe_with_in(&entry.prepared, &stacked, cal, &mut arena);
                    let label = cal.state().label();
                    if tracing && was_warming && label.starts_with("frozen") {
                        wino_trace::instant(
                            serve_sym(&FREEZE_SYM, "freeze"),
                            Category::Serve,
                            idx as u64,
                        );
                    }
                    entry.stats.set_calibration(label);
                    r
                }
                None => entry
                    .executor
                    .run_with_inputs_in(&entry.prepared, &stacked, &mut arena),
            };
            let images = stacked[0].dims()[0];
            wino_fault::fire("worker.batch.post");
            (run, images)
        }));
        let run_time = run_start.elapsed();
        drop(batch_sp);
        match outcome {
            Ok((run, images)) => {
                entry.served_batches.fetch_add(1, Ordering::Relaxed);
                entry
                    .stats
                    .record_batch(images, batch.depth_after, run_time, &accepted_waits);
                let mut offset = 0usize;
                for ((submitted, reply), count) in replies.into_iter().zip(counts) {
                    let outputs = run
                        .outputs
                        .iter()
                        .map(|(name, t)| (name.clone(), batch_slice(t, offset, count)))
                        .collect();
                    offset += count;
                    let latency = submitted.elapsed();
                    entry.stats.record_completion(latency);
                    let _ = reply.send(ModelReply::Ok(InferenceReply {
                        outputs,
                        latency,
                        batch_images: images,
                    }));
                }
            }
            Err(_) => {
                // The arena may hold a half-written plan from the aborted
                // run; start fresh rather than trust it.
                arena = ActivationArena::new();
                for (_, reply) in replies {
                    entry.stats.record_failed();
                    let _ = reply.send(ModelReply::WorkerFailed);
                }
                panics += 1;
                if panics > budget {
                    break;
                }
                entry.stats.record_worker_restart();
            }
        }
    }
    registry.pool.merge_arena(arena.stats());
    // Last worker out turns off the lights: close every queue and answer
    // whatever is still pending, so no submitter blocks forever on a pool
    // that no longer exists. AcqRel pairs this decrement with the others'.
    if live.fetch_sub(1, Ordering::AcqRel) == 1 {
        registry.close();
        while let Some((idx, rest)) = registry.next_batch() {
            let entry = &registry.models[idx];
            for req in rest.items {
                entry.stats.record_failed();
                let _ = req.reply.send(ModelReply::WorkerFailed);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wino_core::{GraphRunOptions, WinogradQuantConfig};
    use wino_nets::resnet20_graph;
    use wino_tensor::normal;

    #[test]
    fn pick_model_prefers_priority_then_weighted_deficit() {
        // (index, priority, weight, served)
        assert_eq!(pick_model(&[]), None);
        // Priority trumps deficit.
        assert_eq!(pick_model(&[(0, 0, 10, 0), (1, 5, 1, 99)]), Some(1));
        // Equal priority: lower served/weight wins — model 1 at 3/3 = 1.0
        // beats model 0 at 2/1 = 2.0.
        assert_eq!(pick_model(&[(0, 0, 1, 2), (1, 0, 3, 3)]), Some(1));
        // Exact tie: registry order.
        assert_eq!(pick_model(&[(0, 0, 2, 4), (1, 0, 1, 2)]), Some(0));
        // A weight-3 model keeps winning until its ratio catches up.
        assert_eq!(pick_model(&[(0, 0, 3, 2), (1, 0, 1, 1)]), Some(0));
    }

    fn tiny_entry(name: &str) -> RegistryBuilder {
        let graph = resnet20_graph().with_channel_div(4);
        let executor = Arc::new(GraphExecutor::with_defaults());
        let prepared = Arc::new(executor.prepare(&graph, &GraphRunOptions::default()));
        RegistryBuilder::new().model(name, executor, prepared, ModelServeConfig::default())
    }

    /// A one-model registry ("m") over a small FP32 ResNet-20, served by
    /// `workers` threads. The 60 s deadline keeps a slow build from ever
    /// shedding a request.
    fn small_pool(workers: usize, max_batch: usize) -> (RegistryServer, Arc<ModelRegistry>) {
        let graph = resnet20_graph().with_channel_div(4);
        let executor = Arc::new(GraphExecutor::with_defaults());
        let prepared = Arc::new(executor.prepare(&graph, &GraphRunOptions::default()));
        let config = ModelServeConfig {
            policy: BatchPolicy {
                max_batch,
                max_wait: Duration::from_millis(1),
            },
            admission: AdmissionControl {
                deadline: Duration::from_secs(60),
                ..AdmissionControl::default()
            },
            ..ModelServeConfig::default()
        };
        let registry = RegistryBuilder::new()
            .model("m", executor, prepared, config)
            .build();
        (
            RegistryServer::start(Arc::clone(&registry), workers),
            registry,
        )
    }

    fn infer(registry: &ModelRegistry, x: Tensor<f32>) -> InferenceReply {
        registry
            .submit("m", vec![x])
            .expect("accepted")
            .wait()
            .and_then(ModelReply::ok)
            .expect("served")
    }

    #[test]
    fn multi_image_requests_are_sliced_back_whole() {
        let (server, registry) = small_pool(1, 4);
        let reply = infer(&registry, normal(&[3, 1, 32, 32], 0.0, 1.0, 5));
        assert_eq!(reply.outputs[0].1.dims()[0], 3);
        assert_eq!(reply.batch_images, 3);
        let _ = server.shutdown();
    }

    #[test]
    fn a_rejected_submit_leaves_the_pool_serving() {
        let (server, registry) = small_pool(1, 2);
        let bad = normal(&[1, 1, 16, 16], 0.0, 1.0, 0);
        assert!(
            matches!(
                registry.submit("m", vec![bad]).err(),
                Some(SubmitError::BadShape(_))
            ),
            "bad shape must be refused at submit"
        );
        // The workers never saw the malformed request; service continues.
        let reply = infer(&registry, normal(&[1, 1, 32, 32], 0.0, 1.0, 1));
        assert_eq!(reply.outputs.len(), 1);
        let report = server.shutdown();
        assert_eq!(report.model("m").unwrap().requests, 1);
    }

    #[test]
    fn submitting_after_shutdown_is_a_typed_refusal() {
        let (server, registry) = small_pool(1, 2);
        let _ = server.shutdown();
        let x = normal(&[1, 1, 32, 32], 0.0, 1.0, 0);
        assert_eq!(
            registry.submit("m", vec![x]).err(),
            Some(SubmitError::Shutdown)
        );
    }

    #[test]
    fn shutdown_report_folds_in_every_worker_arena() {
        let (server, registry) = small_pool(2, 2);
        for i in 0..8 {
            let _ = infer(&registry, normal(&[1, 1, 32, 32], 0.0, 1.0, i));
        }
        let report = server.shutdown();
        assert_eq!(report.pool.workers_reported, 2);
        assert!(
            report.pool.arena.runs >= 8 / 2,
            "batches ran through the arenas"
        );
        let m = report.model("m").unwrap();
        assert_eq!(m.requests, 8);
        assert!(m.throughput_rps > 0.0);
    }

    #[test]
    #[should_panic(expected = "max_queue must be >= 1")]
    fn a_zero_queue_bound_is_refused_at_registration() {
        let graph = resnet20_graph().with_channel_div(8);
        let executor = Arc::new(GraphExecutor::with_defaults());
        let prepared = Arc::new(executor.prepare(&graph, &GraphRunOptions::default()));
        let config = ModelServeConfig {
            admission: AdmissionControl {
                max_queue: 0,
                ..AdmissionControl::default()
            },
            ..ModelServeConfig::default()
        };
        let _ = RegistryBuilder::new().model("m", executor, prepared, config);
    }

    #[test]
    fn submit_validates_without_panicking() {
        let registry = tiny_entry("m").build();
        assert_eq!(
            registry.submit("ghost", vec![]).err(),
            Some(SubmitError::UnknownModel)
        );
        assert!(matches!(
            registry.submit("m", vec![]).err(),
            Some(SubmitError::BadShape(_))
        ));
        let bad = normal(&[1, 2, 32, 32], 0.0, 1.0, 1);
        assert!(matches!(
            registry.submit("m", vec![bad]).err(),
            Some(SubmitError::BadShape(_))
        ));
        assert_eq!(registry.queue_depth("m"), Some(0), "nothing was queued");
        assert_eq!(registry.model_stats("m").unwrap().rejected, 0);
    }

    #[test]
    fn full_queues_reject_at_admission() {
        let graph = resnet20_graph().with_channel_div(4);
        let executor = Arc::new(GraphExecutor::with_defaults());
        let prepared = Arc::new(executor.prepare(&graph, &GraphRunOptions::default()));
        let registry = RegistryBuilder::new()
            .model(
                "m",
                executor,
                prepared,
                ModelServeConfig {
                    admission: AdmissionControl {
                        max_queue: 2,
                        deadline: Duration::from_secs(1),
                    },
                    ..ModelServeConfig::default()
                },
            )
            .build();
        // No workers running: the queue just fills.
        let x = || vec![normal(&[1, 1, 32, 32], 0.0, 1.0, 1)];
        assert!(registry.submit("m", x()).is_ok());
        assert!(registry.submit("m", x()).is_ok());
        assert_eq!(
            registry.submit("m", x()).err(),
            Some(SubmitError::Overloaded)
        );
        assert_eq!(registry.model_stats("m").unwrap().rejected, 1);
        assert_eq!(registry.queue_depth("m"), Some(2));
    }

    #[test]
    fn stats_report_snapshots_models_live() {
        let registry = tiny_entry("live-model").build();
        let x = vec![normal(&[1, 1, 32, 32], 0.0, 1.0, 1)];
        // Queue one request (no workers running, so it just sits there).
        let _pending = registry.submit("live-model", x).unwrap();
        let (entries, text) = registry.stats_report();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].name, "live-model");
        assert_eq!(entries[0].queue_depth, 1, "the queued request is visible");
        assert_eq!(entries[0].requests, 0, "nothing completed yet");
        assert_eq!(entries[0].calibration, "static");
        assert!(text.contains("== model live-model =="), "text:\n{text}");
        assert!(
            text.contains("== metrics ==") && text.contains("serve.live-model.requests"),
            "text must append the metrics registry:\n{text}"
        );
    }

    #[test]
    fn registry_serves_two_models_with_correct_outputs() {
        let graph_a = resnet20_graph().with_channel_div(4);
        let graph_b = resnet20_graph().with_channel_div(8);
        let executor = Arc::new(GraphExecutor::with_defaults());
        let pa = Arc::new(executor.prepare(&graph_a, &GraphRunOptions::default()));
        let pb = Arc::new(executor.prepare(&graph_b, &GraphRunOptions { batch: 1, seed: 9 }));
        let want_a = {
            let x = normal(&[1, 1, 32, 32], 0.0, 1.0, 21);
            (
                x.clone(),
                executor.run_with_inputs(&pa, &[x]).outputs[0].1.clone(),
            )
        };
        let want_b = {
            let x = normal(&[1, 1, 32, 32], 0.0, 1.0, 22);
            (
                x.clone(),
                executor.run_with_inputs(&pb, &[x]).outputs[0].1.clone(),
            )
        };
        let registry = RegistryBuilder::new()
            .model("a", Arc::clone(&executor), pa, ModelServeConfig::default())
            .model("b", Arc::clone(&executor), pb, ModelServeConfig::default())
            .build();
        let server = RegistryServer::start(Arc::clone(&registry), 2);
        let pend_a = registry.submit("a", vec![want_a.0.clone()]).unwrap();
        let pend_b = registry.submit("b", vec![want_b.0.clone()]).unwrap();
        let got_a = pend_a.wait().unwrap().ok().expect("not shed");
        let got_b = pend_b.wait().unwrap().ok().expect("not shed");
        assert_eq!(got_a.outputs[0].1, want_a.1, "model a output drifted");
        assert_eq!(got_b.outputs[0].1, want_b.1, "model b output drifted");
        let report = server.shutdown();
        assert_eq!(report.total_requests(), 2);
        assert_eq!(report.model("a").unwrap().requests, 1);
        assert_eq!(report.model("b").unwrap().requests, 1);
        assert!(report.pool.workers_reported >= 1);
    }

    #[test]
    fn calibrating_models_freeze_while_serving() {
        let graph = resnet20_graph().with_channel_div(4);
        let executor = Arc::new(GraphExecutor::quantized(WinogradQuantConfig::default()));
        let prepared = Arc::new(executor.prepare(&graph, &GraphRunOptions::default()));
        let registry = RegistryBuilder::new()
            .model_calibrating(
                "q",
                Arc::clone(&executor),
                Arc::clone(&prepared),
                ModelServeConfig::default(),
                CalibrationPolicy::quick(2),
            )
            .build();
        assert_eq!(registry.calibration_label("q").unwrap(), "warming(0)");
        let server = RegistryServer::start(Arc::clone(&registry), 1);
        let probe = normal(&[1, 1, 32, 32], 0.0, 1.0, 31);
        // Identical batches stabilize the ranges; the freeze fires within a
        // handful of them.
        for _ in 0..12 {
            let reply = registry
                .submit("q", vec![probe.clone()])
                .unwrap()
                .wait()
                .unwrap();
            assert!(reply.ok().is_some(), "no overload in this test");
            if registry
                .calibration_label("q")
                .unwrap()
                .starts_with("frozen")
            {
                break;
            }
        }
        assert!(
            registry
                .calibration_label("q")
                .unwrap()
                .starts_with("frozen"),
            "calibration never froze: {}",
            registry.calibration_label("q").unwrap()
        );
        assert!(prepared.is_calibrated());
        // Frozen: bitwise reproducible.
        let a = registry
            .submit("q", vec![probe.clone()])
            .unwrap()
            .wait()
            .unwrap();
        let b = registry
            .submit("q", vec![probe.clone()])
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(
            a.ok().unwrap().outputs[0].1,
            b.ok().unwrap().outputs[0].1,
            "frozen registry outputs drifted"
        );
        let report = server.shutdown();
        let q = report.model("q").unwrap();
        assert!(
            q.calibration.starts_with("frozen"),
            "report label: {}",
            q.calibration
        );
    }
}
