//! Batched inference serving over shared prepared graphs.
//!
//! The paper motivates its kernels by deployment throughput; this crate is
//! the serving layer that turns prepared [`wino_core::PreparedGraph`]s into a
//! multi-client, batch-scheduled service. One worker pool serves every
//! caller, in-process or over TCP, for one model or many:
//!
//! ```text
//!  clients ──submit──▶ ModelRegistry ──batches──▶ RegistryServer ──▶ replies
//!  (in-process, or     one BatchScheduler per     │ each worker:
//!   NetServer over     model (queue + deadline,   │  Arc<PreparedGraph> per model
//!   TCP)               admission bound)           │  own ActivationArena
//!                                                 ▼
//!                                             ServerStats
//!                                (per model: latency p50/p95/p99, batch
//!                                 sizes, queue depth, throughput; pooled
//!                                 worker arenas)
//! ```
//!
//! * [`BatchScheduler`] coalesces single-image requests into batch-size-`B`
//!   runs under a max-wait deadline — *dynamic batching*: a batch dispatches
//!   early the moment the queue holds `max_batch` requests, and a partial
//!   batch flushes when the oldest request has waited `max_wait`.
//! * [`ModelRegistry`] holds one queue per registered model; a registry with
//!   one model is the plain single-graph server. [`RegistryBuilder::model`]
//!   warms an uncalibrated graph *before* any worker starts, so no live
//!   request ever mutates calibration. [`RegistryServer`] runs `N` worker
//!   threads over it; each keeps its own [`wino_core::ActivationArena`], so
//!   steady-state batches recycle the previous batch's activation buffers.
//! * [`ServerStats`] aggregates per-request latency and queue-wait
//!   histograms (p50/p95/p99), the observed batch-size distribution, queue
//!   depth, aggregate requests/sec, and the per-worker arena plus
//!   synthesis-cache counters ([`wino_core::ArenaStats`],
//!   [`wino_core::SynthStats`]).
//!
//! The scheduler is generic over the queued item, so its batching policy is
//! unit-testable without tensors or threads; the registry and
//! [`net::NetServer`]'s connection queue instantiate it.
//!
//! The [`net`] module holds the registry (weighted/priority scheduling,
//! admission control by bounded queue depth + deadline shedding, and
//! running-statistics calibration) and the network-facing tier on top of
//! it: a length-prefixed binary wire protocol over `std::net` TCP
//! ([`net::NetServer`] / [`net::NetClient`]).
//!
//! # Panic policy
//!
//! Everything a caller — local or remote — can trigger resolves to a typed
//! outcome, never a panic: malformed or non-finite payloads become error
//! frames at decode ([`net::ErrorCode::Malformed`] /
//! [`net::ErrorCode::BadInput`]), tensors that don't match the graph and
//! admission refusals become [`SubmitError`] (in-process too), and a worker
//! that panics mid-batch is caught, respawned under a restart budget, and
//! answers that batch's requests with [`ModelReply::WorkerFailed`] /
//! [`net::ErrorCode::Internal`] (see `tests/chaos_serving.rs`, which injects
//! each of these with `wino_fault`). No lock in this crate propagates
//! poison: every mutex is recovered with `into_inner` because no guarded
//! section runs user code — the protected state (queues, counters, stream
//! maps) stays structurally valid even if a holder unwound.
//!
//! The panics that remain are deliberate and fall into three classes:
//! *caller-contract* panics at configuration time (a zero-worker pool, a
//! duplicate model name, a zero weight or queue bound);
//! *encode-side invariants* (frame fields that the builder already bounds,
//! e.g. dims fitting `u32`); and *infrastructure failures* (OS thread spawn
//! at startup, a handler join at shutdown) where continuing would hide a
//! bug rather than tolerate a fault.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod net;
pub mod scheduler;
pub mod stats;

pub use net::registry::InferenceReply;
pub use net::{
    AdmissionControl, ModelRegistry, ModelReply, ModelServeConfig, ModelStatsEntry, NetClient,
    NetResponse, NetServer, NetServerConfig, RegistryBuilder, RegistryServer, RetryPolicy,
    SubmitError,
};
pub use scheduler::{Batch, BatchPolicy, BatchScheduler};
pub use stats::{LatencySummary, MultiModelReport, ServerStats, StatsReport};
