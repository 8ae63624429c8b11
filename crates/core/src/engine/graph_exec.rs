//! Chained whole-graph execution through the engine.
//!
//! [`crate::engine::NetworkExecutor`] runs inventory layers independently;
//! this module executes the real topologies of `wino_nets::graph_builders` —
//! activations flow node to node through residual adds, skip concats and FPN
//! merges, which is the deployment-style end-to-end setting the paper's
//! accuracy and throughput claims are about.
//!
//! Three concerns are layered on top of plain node-by-node evaluation:
//!
//! * **Planning + prepared state** ([`GraphExecutor::prepare`]): each conv
//!   node gets a kernel from the [`Planner`], its synthesized weights, and its
//!   one-time weight work — the Winograd weight transformation for float
//!   Winograd nodes, the packed GEMM operand ([`PreparedGemmConv`]) for every
//!   node no Winograd kernel takes.
//!   On the quantized path the per-node [`IntWinogradConv`] is calibrated
//!   lazily from the first run's live activations and cached, so run 2+ pays
//!   neither calibration nor `prepare`; serving-style multi-batch loops reuse
//!   one [`PreparedGraph`].
//! * **Activation arena** ([`GraphExecution::peak_live_bytes`]): tensors are
//!   released the moment their last consumer has run and their buffers are
//!   recycled into later structural nodes (adds, concats), with peak live
//!   bytes and reuse counters reported per run.
//! * **Reference mode** ([`GraphExecutor::reference`]): every conv node runs
//!   the direct algorithm, giving the ground truth that the Winograd and
//!   integer graph runs are validated against in the integration tests.

use crate::engine::backends::estimate_output_max;
use crate::engine::executor::SynthCache;
use crate::engine::planner::{Activation, EpiloguePlan, FusionClasses, LayerPlan, Planner};
use crate::engine::running::{CalibrationPolicy, RunningCalibration};
use crate::epilogue::{apply_epilogue, EpilogueOps};
use crate::int_winograd::{IntWinogradConv, WinogradQuantConfig};
use crate::matrices::{TileSize, WinogradMatrices};
use crate::quant::QuantParams;
use crate::tapwise::{TapScaleMatrix, TapwiseScales};
use crate::winograd::PreparedWinogradConv;
use std::sync::{Arc, Mutex};
use std::time::Instant;
use wino_nets::{Graph, GraphOp, Kernel, NodeShape};
use wino_tensor::{
    concat_channels_into, conv2d_direct, global_avg_pool, max_pool2d, relu_inplace,
    upsample_nearest_into, PreparedGemmConv, Tensor,
};
use wino_trace::{PhaseProbe, PhaseProfile};

/// Options of one graph preparation: batch size and synthesis seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GraphRunOptions {
    /// Batch size of every activation tensor.
    pub batch: usize,
    /// Base seed of the synthesized inputs and weights.
    pub seed: u64,
}

impl Default for GraphRunOptions {
    fn default() -> Self {
        Self { batch: 1, seed: 0 }
    }
}

/// How one conv node executes across repeated runs.
#[derive(Debug)]
enum ConvState {
    /// Direct reference convolution (validation mode).
    Direct,
    /// Float Winograd with the weight transformation cached at plan time.
    FloatWinograd(PreparedWinogradConv),
    /// Integer tap-wise Winograd; calibrated and prepared on the first run,
    /// then reused (`None` until then).
    IntWinograd(Mutex<Option<IntPrepared>>),
    /// Any other geometry (1×1, strided, 7×7): the GEMM convolution with the
    /// weights packed at plan time.
    Gemm(PreparedGemmConv),
}

/// The cached integer pipeline of one node: the prepared layer plus the
/// input quantizer frozen at first-run calibration.
#[derive(Debug)]
struct IntPrepared {
    conv: IntWinogradConv,
    input: QuantParams,
}

/// Per-conv-node prepared state.
#[derive(Debug)]
struct PreparedConv {
    plan: LayerPlan,
    weights: Arc<Tensor<f32>>,
    /// Per-output-channel bias, synthesized at prepare time when the layer
    /// declares one; rides the fused epilogue's bias stage.
    bias: Option<Arc<Tensor<f32>>>,
    state: ConvState,
    /// The epilogue the planner fused into this conv: trailing ReLU,
    /// residual add operand, and (on the integer path) the output
    /// requantization — all applied before the kernel's single store.
    epilogue: EpiloguePlan,
    /// Per-phase profiling sink shared with the node's kernel state (the
    /// float prepared conv at plan time, the integer one at calibration);
    /// only written while `wino_trace::Detail::Full` is active.
    probe: Arc<PhaseProbe>,
}

impl PreparedConv {
    /// Whether this node's kernel will actually write the fused epilogue
    /// output into the residual's own buffer for a run at `batch` producing
    /// `shape`: only the Winograd tap-major paths can, and only when they
    /// will not fall back internally (the float small-tile per-tile path and
    /// the non-`i32`-exact integer path allocate their own output, which
    /// would silently drop a stolen buffer instead of recycling it).
    fn in_place_capable(
        &self,
        batch: usize,
        shape: wino_nets::NodeShape,
        quant: Option<WinogradQuantConfig>,
    ) -> bool {
        match &self.state {
            ConvState::FloatWinograd(prep) => {
                // Winograd nodes are stride-1 same-padded, so the output
                // shape equals the kernel's input shape.
                let (_, h, w) = shape;
                prep.uses_tap_major(batch, h, w)
            }
            ConvState::IntWinograd(_) => {
                let c_in = self.weights.dims()[1];
                quant.is_some_and(|cfg| IntWinogradConv::i32_exact_for(c_in, cfg.wino_bits))
            }
            _ => false,
        }
    }
}

/// A graph planned and weighted once, runnable many times.
///
/// Created by [`GraphExecutor::prepare`]; holds everything that does not
/// depend on the run's activations (plans, weights, float Winograd weight
/// transforms, synthesized inputs, the epilogue-fusion decisions) plus the
/// lazily-calibrated integer state.
#[derive(Debug)]
pub struct PreparedGraph {
    graph: Graph,
    shapes: Vec<NodeShape>,
    consumers: Vec<usize>,
    convs: Vec<Option<PreparedConv>>,
    inputs: Vec<Option<Arc<Tensor<f32>>>>,
    /// For every tail node (ReLU, residual add) a conv's fused epilogue
    /// already covers, the id of that conv; the executor passes such nodes
    /// through untouched.
    absorbed_into: Vec<Option<usize>>,
    batch: usize,
    /// One interned trace symbol per node (the node name), so the per-node
    /// executor spans cost no allocation or interning on the hot path.
    node_syms: Vec<wino_trace::Sym>,
}

impl PreparedGraph {
    /// The graph this state was prepared for.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The inferred `(C, H, W)` shape of every node.
    pub fn shapes(&self) -> &[NodeShape] {
        &self.shapes
    }

    /// The batch size the inputs were synthesized at.
    pub fn batch(&self) -> usize {
        self.batch
    }

    /// The plan of the conv node with the given id, if it is one.
    pub fn plan_for(&self, id: usize) -> Option<&LayerPlan> {
        self.convs.get(id).and_then(|c| c.as_ref()).map(|c| &c.plan)
    }

    /// Total bytes of the synthesized weight tensors.
    pub fn weight_bytes(&self) -> usize {
        self.convs
            .iter()
            .flatten()
            .map(|c| c.weights.len() * std::mem::size_of::<f32>())
            .sum()
    }

    /// Number of conv nodes running the integer tap-wise pipeline.
    pub fn int_conv_count(&self) -> usize {
        self.convs
            .iter()
            .flatten()
            .filter(|c| matches!(c.state, ConvState::IntWinograd(_)))
            .count()
    }

    /// The epilogue plan of the conv node with the given id, if it is one.
    pub fn epilogue_for(&self, id: usize) -> Option<&EpiloguePlan> {
        self.convs
            .get(id)
            .and_then(|c| c.as_ref())
            .map(|c| &c.epilogue)
    }

    /// How many conv nodes execute with a ReLU fused into their epilogue
    /// (pre- or post-residual).
    pub fn fused_relu_count(&self) -> usize {
        self.convs
            .iter()
            .flatten()
            .filter(|c| c.epilogue.has_relu())
            .count()
    }

    /// How many conv nodes read a residual operand in their epilogue (a
    /// fused `conv → add` tail).
    pub fn fused_residual_count(&self) -> usize {
        self.convs
            .iter()
            .flatten()
            .filter(|c| c.epilogue.residual.is_some())
            .count()
    }

    /// Total graph nodes elided by epilogue fusion: every ReLU and residual
    /// add that executes inside a conv's output transform instead of as its
    /// own pass over the activation.
    pub fn fused_node_count(&self) -> usize {
        self.absorbed_into.iter().flatten().count()
    }

    /// Bytes of pre-activation tensors that fusion prevents from ever being
    /// materialized, at the prepared batch size: each fused residual tail
    /// elides one full conv output (the separate-node execution writes the
    /// pre-activation map, reads it back in the add, and allocates the sum
    /// into a third buffer; the fused epilogue stores the finished value
    /// once). ReLU-only fusions elide a pass but no buffer (the separate
    /// ReLU runs in place) and therefore contribute nothing here — this
    /// figure is deliberately honest about *memory*, not traffic.
    pub fn elided_bytes(&self) -> usize {
        self.convs
            .iter()
            .enumerate()
            .filter_map(|(id, c)| {
                let pc = c.as_ref()?;
                pc.epilogue.residual?;
                let (ch, h, w) = self.shapes[id];
                Some(self.batch * ch * h * w * std::mem::size_of::<f32>())
            })
            .sum()
    }

    /// Peak per-worker bytes of tap-major Winograd scratch (`V` + `M` panels)
    /// any conv node of this graph uses, complementing the activation-arena
    /// peak for memory sizing. Zero when no node runs a Winograd kernel.
    pub fn scratch_bytes(&self) -> usize {
        self.graph
            .nodes()
            .iter()
            .enumerate()
            .filter_map(|(id, node)| {
                let pc = self.convs[id].as_ref()?;
                let tile_t = match &pc.state {
                    ConvState::FloatWinograd(prep) => prep.tile().input_tile(),
                    ConvState::IntWinograd(_) => match pc.plan.kernel {
                        Kernel::WinogradF2 => 4,
                        _ => 6,
                    },
                    _ => return None,
                };
                let (_, h, w) = self.shapes[id];
                let c_in = match &node.op {
                    GraphOp::Conv(layer) => layer.c_in,
                    _ => return None,
                };
                Some(crate::scratch::tap_scratch_bytes(
                    c_in,
                    pc.weights.dims()[0],
                    tile_t,
                    h,
                    w,
                ))
            })
            .max()
            .unwrap_or(0)
    }

    /// The name of the SIMD microkernel variant every GEMM and SoA transform
    /// of this graph executes with (`"scalar"`, `"avx2"`, `"avx512"` or
    /// `"neon"`) — resolved once per process by [`wino_tensor::simd::active`],
    /// including the `WINO_FORCE_KERNEL` override.
    pub fn simd_kernel(&self) -> &'static str {
        wino_tensor::simd::active().name()
    }

    /// Whether every integer conv node has frozen calibration state.
    ///
    /// A float or reference graph (no integer nodes) is trivially calibrated.
    /// A quantized graph becomes calibrated after its first run — or, for
    /// serving, after an explicit [`GraphExecutor::warmup`] /
    /// [`GraphExecutor::calibrate_with`] pass before workers start.
    pub fn is_calibrated(&self) -> bool {
        self.convs.iter().flatten().all(|c| match &c.state {
            ConvState::IntWinograd(cell) => cell.lock().expect("int state poisoned").is_some(),
            _ => true,
        })
    }

    /// Per-node, per-phase kernel timings accumulated since preparation (or
    /// the last [`PreparedGraph::reset_phase_profile`]), one row per conv
    /// node in graph order. Empty totals unless runs executed while
    /// `wino_trace::Detail::Full` was active — the probes cost one relaxed
    /// atomic load per strip group otherwise.
    pub fn phase_profile(&self) -> PhaseProfile {
        PhaseProfile {
            nodes: self
                .convs
                .iter()
                .flatten()
                .map(|c| c.probe.snapshot())
                .collect(),
        }
    }

    /// Zeroes every node's phase accumulators (a fresh measurement window).
    pub fn reset_phase_profile(&self) {
        for c in self.convs.iter().flatten() {
            c.probe.reset();
        }
    }
}

// The serving layer shares one prepared graph (and the executor that made
// it) across worker threads; keep the `Sync` promise honest at compile time.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<PreparedGraph>();
    assert_send_sync::<GraphExecutor>();
};

/// The outcome of executing one node.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeExecution {
    /// Node name.
    pub name: String,
    /// Operator kind (`"conv"`, `"add"`, …).
    pub kind: &'static str,
    /// The planned kernel (conv nodes only).
    pub kernel: Option<Kernel>,
    /// The path that actually executed (conv nodes only).
    pub backend: Option<&'static str>,
    /// NCHW dimensions of the produced activation.
    pub output_dims: Vec<usize>,
    /// Wall-clock seconds of the node.
    pub seconds: f64,
    /// Mean of the output (cheap integrity checksum).
    pub checksum: f32,
}

/// The outcome of one chained end-to-end run.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphExecution {
    /// Graph name.
    pub graph: String,
    /// Per-node outcomes in topological order.
    pub nodes: Vec<NodeExecution>,
    /// Total wall-clock seconds across all nodes.
    pub total_seconds: f64,
    /// Peak bytes of simultaneously-live activation tensors (weights and
    /// cached prepared state excluded).
    pub peak_live_bytes: usize,
    /// Structural-node allocations served from recycled dead tensors.
    pub arena_reuse_hits: usize,
    /// Structural-node allocations that had to touch the system allocator.
    pub arena_fresh_allocs: usize,
    /// The tensors of the graph's output nodes, in node order.
    pub outputs: Vec<(String, Tensor<f32>)>,
}

impl GraphExecution {
    /// How many conv nodes ran with each kernel.
    pub fn kernel_histogram(&self) -> [(Kernel, usize); 3] {
        let mut counts = [0usize; 3];
        for n in &self.nodes {
            match n.kernel {
                Some(Kernel::Im2col) => counts[0] += 1,
                Some(Kernel::WinogradF2) => counts[1] += 1,
                Some(Kernel::WinogradF4) => counts[2] += 1,
                None => {}
            }
        }
        [
            (Kernel::Im2col, counts[0]),
            (Kernel::WinogradF2, counts[1]),
            (Kernel::WinogradF4, counts[2]),
        ]
    }

    /// The output tensor produced by the output node of the given name.
    pub fn output(&self, name: &str) -> Option<&Tensor<f32>> {
        self.outputs.iter().find(|(n, _)| n == name).map(|(_, t)| t)
    }

    /// Seconds spent in conv nodes.
    pub fn conv_seconds(&self) -> f64 {
        self.nodes
            .iter()
            .filter(|n| n.kind == "conv")
            .map(|n| n.seconds)
            .sum()
    }
}

/// Point-in-time counters of an [`ActivationArena`].
///
/// `peak_live_bytes` is the maximum across every run the arena has served;
/// `reuse_hits` / `fresh_allocs` accumulate across runs. The serving layer
/// (`wino_serve`) folds each worker's arena stats into its server report, and
/// the benches read them directly — no test-only hooks involved.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ArenaStats {
    /// Runs this arena has backed.
    pub runs: usize,
    /// Maximum bytes of simultaneously-live activations over all runs.
    pub peak_live_bytes: usize,
    /// Allocations served from recycled dead tensors (cumulative).
    pub reuse_hits: usize,
    /// Allocations that touched the system allocator (cumulative).
    pub fresh_allocs: usize,
    /// Dead buffers currently parked for reuse.
    pub free_buffers: usize,
    /// Bytes of capacity parked in those buffers.
    pub free_bytes: usize,
}

/// The activation-buffer arena: dead tensors are recycled into later
/// structural nodes, and live bytes are tracked for the peak-memory report.
///
/// An arena can outlive a run: [`GraphExecutor::run_with_inputs_in`] lets a
/// long-lived worker thread keep one arena across requests, so steady-state
/// serving recycles the previous batch's buffers instead of touching the
/// allocator. Per-run counters reset at the start of each run; the
/// cumulative view is [`ActivationArena::stats`].
#[derive(Debug, Default)]
pub struct ActivationArena {
    free: Vec<Vec<f32>>,
    live_bytes: usize,
    peak_bytes: usize,
    reuse_hits: usize,
    fresh_allocs: usize,
    runs: usize,
    max_peak_bytes: usize,
    total_reuse_hits: usize,
    total_fresh_allocs: usize,
}

impl ActivationArena {
    /// An empty arena with no parked buffers.
    pub fn new() -> Self {
        Self::default()
    }

    /// Cumulative counters across every run this arena has backed.
    pub fn stats(&self) -> ArenaStats {
        ArenaStats {
            runs: self.runs,
            peak_live_bytes: self.max_peak_bytes,
            reuse_hits: self.total_reuse_hits,
            fresh_allocs: self.total_fresh_allocs,
            free_buffers: self.free.len(),
            free_bytes: self
                .free
                .iter()
                .map(|b| b.capacity() * std::mem::size_of::<f32>())
                .sum(),
        }
    }

    /// Resets the per-run counters; parked buffers stay available.
    fn begin_run(&mut self) {
        self.live_bytes = 0;
        self.peak_bytes = 0;
        self.reuse_hits = 0;
        self.fresh_allocs = 0;
        self.runs += 1;
    }

    /// Folds the finished run's counters into the cumulative totals.
    fn end_run(&mut self) {
        self.max_peak_bytes = self.max_peak_bytes.max(self.peak_bytes);
        self.total_reuse_hits += self.reuse_hits;
        self.total_fresh_allocs += self.fresh_allocs;
    }
    /// A zeroed buffer of `len` floats, recycled if a dead tensor fits
    /// (for the `*_into` helpers, which require a full-length slice).
    fn take(&mut self, len: usize) -> Vec<f32> {
        let mut buf = self.take_empty(len);
        buf.resize(len, 0.0);
        buf
    }

    /// An empty buffer with capacity for `len` floats, recycled if a dead
    /// tensor fits. Callers that rebuild the whole activation by `extend`
    /// use this to skip the zero-fill `take` would pay.
    fn take_empty(&mut self, len: usize) -> Vec<f32> {
        // Prefer the tightest-fitting parked buffer.
        let mut best: Option<usize> = None;
        for (i, b) in self.free.iter().enumerate() {
            if b.capacity() >= len
                && best.is_none_or(|j: usize| self.free[j].capacity() > b.capacity())
            {
                best = Some(i);
            }
        }
        match best {
            Some(i) => {
                self.reuse_hits += 1;
                let mut buf = self.free.swap_remove(i);
                buf.clear();
                buf
            }
            None => {
                self.fresh_allocs += 1;
                Vec::with_capacity(len)
            }
        }
    }

    /// Records a newly-live activation.
    fn track(&mut self, t: &Tensor<f32>) {
        self.live_bytes += t.len() * std::mem::size_of::<f32>();
        self.peak_bytes = self.peak_bytes.max(self.live_bytes);
    }

    /// Retires a dead activation, keeping its buffer for reuse.
    fn release(&mut self, t: Tensor<f32>) {
        self.live_bytes -= t.len() * std::mem::size_of::<f32>();
        self.free.push(t.into_vec());
    }

    /// Retires a dead activation that was moved out (e.g. an in-place ReLU):
    /// only the accounting changes hands, the buffer lives on in the result.
    fn transfer(&mut self, len: usize) {
        self.live_bytes -= len * std::mem::size_of::<f32>();
    }
}

/// Runs whole graphs through planned backends with chained activations.
#[derive(Debug)]
pub struct GraphExecutor {
    planner: Planner,
    quant: Option<WinogradQuantConfig>,
    reference: bool,
    /// Which epilogue fusion classes the planner may apply.
    fusion: FusionClasses,
    /// Whether Winograd nodes run the legacy per-tile kernels (benchmarking).
    per_tile: bool,
    synth: SynthCache,
}

impl GraphExecutor {
    /// The default FP32 executor (direct / im2col / Winograd F2 / F4).
    pub fn with_defaults() -> Self {
        Self {
            planner: Planner::default(),
            quant: None,
            reference: false,
            fusion: FusionClasses::all(),
            per_tile: false,
            synth: SynthCache::new(),
        }
    }

    /// A quantized executor: conv nodes planned onto `cfg.tile`'s kernel run
    /// the integer tap-wise pipeline with per-node cached prepared state.
    pub fn quantized(cfg: WinogradQuantConfig) -> Self {
        assert!(
            cfg.tile != TileSize::F6,
            "integer pipeline supports F2 and F4 only (F6 has non-integer B/A matrices)"
        );
        Self {
            planner: Planner::default(),
            quant: Some(cfg),
            reference: false,
            fusion: FusionClasses::all(),
            per_tile: false,
            synth: SynthCache::new(),
        }
    }

    /// A ground-truth executor: every conv node runs the direct algorithm.
    pub fn reference() -> Self {
        Self {
            planner: Planner::default(),
            quant: None,
            reference: true,
            fusion: FusionClasses::all(),
            per_tile: false,
            synth: SynthCache::new(),
        }
    }

    /// Disables **every** epilogue fusion class: every ReLU and residual add
    /// runs as its own node. Fused and unfused execution are bitwise
    /// identical (pinned by the integration tests); this switch exists to
    /// measure the fusion win and to A/B the planner's decision.
    pub fn without_fusion(self) -> Self {
        self.with_fusion(FusionClasses::none())
    }

    /// Selects which epilogue fusion classes the planner may apply — each
    /// class ([`FusionClasses::relu`], [`FusionClasses::residual`]) can be
    /// disabled independently for A/B measurement.
    pub fn with_fusion(mut self, classes: FusionClasses) -> Self {
        self.fusion = classes;
        self
    }

    /// The fusion classes this executor plans with.
    pub fn fusion(&self) -> FusionClasses {
        self.fusion
    }

    /// Reverts to the pre-tap-major execution: per-tile Winograd kernels and
    /// no epilogue fusion of any class. A benchmarking aid (`bench_dump`,
    /// the `graph_forward` criterion group) that quantifies the tap-major
    /// rewrite end to end; never the right choice for serving.
    pub fn legacy(mut self) -> Self {
        self.fusion = FusionClasses::none();
        self.per_tile = true;
        self
    }

    /// The planner backing this executor.
    pub fn planner(&self) -> &Planner {
        &self.planner
    }

    /// The tensor-synthesis cache backing this executor.
    pub fn synth(&self) -> &SynthCache {
        &self.synth
    }

    /// The Winograd kernel the integer pipeline realises, if quantized.
    fn int_kernel(&self) -> Option<Kernel> {
        self.quant.map(|cfg| match cfg.tile {
            TileSize::F2 => Kernel::WinogradF2,
            TileSize::F4 => Kernel::WinogradF4,
            TileSize::F6 => unreachable!("rejected in GraphExecutor::quantized"),
        })
    }

    /// Validates the graph, plans every conv node, synthesizes inputs and
    /// weights, and performs the one-time weight transformations.
    ///
    /// # Panics
    ///
    /// Panics if the graph does not [`Graph::validate`].
    pub fn prepare(&self, graph: &Graph, opts: &GraphRunOptions) -> PreparedGraph {
        let shapes = graph
            .validate()
            .unwrap_or_else(|e| panic!("invalid graph {}: {e}", graph.name));
        let consumers = graph.consumer_counts();
        let int_kernel = self.int_kernel();
        // Fusion decision: `conv → [add residual] → [relu]` chains collapse
        // into the conv's output epilogue; the absorbed tail nodes become
        // pass-throughs.
        let fusion = self.planner.fuse_epilogues(graph, self.fusion);
        let mut convs: Vec<Option<PreparedConv>> = Vec::with_capacity(graph.nodes().len());
        let mut inputs: Vec<Option<Arc<Tensor<f32>>>> = Vec::with_capacity(graph.nodes().len());
        for (id, node) in graph.nodes().iter().enumerate() {
            let node_seed = opts
                .seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(id as u64);
            inputs.push(match node.op {
                GraphOp::Input {
                    channels,
                    height,
                    width,
                } => Some(
                    self.synth
                        .normal(&[opts.batch, channels, height, width], node_seed),
                ),
                _ => None,
            });
            convs.push(match &node.op {
                GraphOp::Conv(layer) => {
                    let plan = self.planner.plan_layer(layer);
                    let weights = self.synth.kaiming(
                        &[layer.c_out, layer.c_in, layer.kernel, layer.kernel],
                        node_seed,
                    );
                    let probe = Arc::new(PhaseProbe::new(&node.name));
                    probe.set_trace_id(id as u64);
                    let winograd_eligible =
                        plan.params.is_winograd_eligible() && plan.params.padding == 1;
                    let state = if self.reference {
                        ConvState::Direct
                    } else if winograd_eligible && Some(plan.kernel) == int_kernel {
                        ConvState::IntWinograd(Mutex::new(None))
                    } else if winograd_eligible && plan.kernel.tile_m().is_some() {
                        let tile = match plan.kernel {
                            Kernel::WinogradF2 => TileSize::F2,
                            Kernel::WinogradF4 => TileSize::F4,
                            Kernel::Im2col => unreachable!("tile_m is Some"),
                        };
                        let mut prep = PreparedWinogradConv::prepare(&weights, tile);
                        prep.set_probe(Arc::clone(&probe));
                        ConvState::FloatWinograd(prep)
                    } else {
                        ConvState::Gemm(PreparedGemmConv::prepare(&weights, plan.params))
                    };
                    let mut epilogue = fusion.plans[id].clone();
                    // The integer pipeline requantizes its output inside the
                    // same epilogue stage; record it so reports (and backend
                    // opt-ins) see the complete fused tail.
                    epilogue.requant = matches!(state, ConvState::IntWinograd(_));
                    let bias = layer
                        .bias
                        .then(|| self.synth.normal(&[layer.c_out], node_seed ^ 0x5bd1e995));
                    Some(PreparedConv {
                        plan,
                        weights,
                        bias,
                        state,
                        epilogue,
                        probe,
                    })
                }
                _ => None,
            });
        }
        let node_syms = graph
            .nodes()
            .iter()
            .map(|n| wino_trace::intern(&n.name))
            .collect();
        PreparedGraph {
            graph: graph.clone(),
            shapes,
            consumers,
            convs,
            inputs,
            absorbed_into: fusion.absorbed_into,
            batch: opts.batch,
            node_syms,
        }
    }

    /// Runs the prepared graph on its synthesized inputs.
    pub fn run(&self, prepared: &PreparedGraph) -> GraphExecution {
        self.run_impl(prepared, None, None, &mut ActivationArena::new())
    }

    /// Runs the prepared graph on caller-provided activations, one NCHW
    /// tensor per [`GraphOp::Input`] node in node order (the serving loop:
    /// prepare once, feed fresh batches).
    ///
    /// The inputs may carry any batch size (all must agree); the prepared
    /// state is batch-independent, so one [`PreparedGraph`] serves batch-1
    /// probes and coalesced batch-N runs alike.
    ///
    /// # Panics
    ///
    /// Panics if the tensor count or any per-image shape disagrees with the
    /// graph, or the inputs disagree on batch size.
    pub fn run_with_inputs(
        &self,
        prepared: &PreparedGraph,
        inputs: &[Tensor<f32>],
    ) -> GraphExecution {
        self.run_impl(prepared, Some(inputs), None, &mut ActivationArena::new())
    }

    /// Calibrates every integer conv node on the graph's synthesized inputs
    /// and returns the warmup run's report.
    ///
    /// The tap-wise pipeline freezes its input quantizer and tap scales from
    /// the **first** activations each node sees (first-batch-only
    /// calibration — there are no running statistics; see the paper's §IV-B
    /// static calibration). Under a multi-threaded server that would make
    /// the frozen scales depend on whichever live request won the race, so
    /// serving code must calibrate on a designated warmup batch *before*
    /// workers start (the `wino_serve` server does this automatically).
    /// After it returns, [`PreparedGraph::is_calibrated`] is `true` and
    /// later runs never mutate the prepared state.
    ///
    /// Float and reference graphs have nothing to calibrate; the call is
    /// then just a synthesized-input run.
    pub fn warmup(&self, prepared: &PreparedGraph) -> GraphExecution {
        let run = self.run(prepared);
        debug_assert!(prepared.is_calibrated(), "warmup left nodes uncalibrated");
        run
    }

    /// [`GraphExecutor::warmup`] on caller-provided activations: freezes the
    /// integer calibration from a representative batch of the caller's
    /// choosing (one NCHW tensor per input node, any batch size).
    ///
    /// # Panics
    ///
    /// Panics if the tensor count or any per-image shape disagrees with the
    /// graph (see [`GraphExecutor::run_with_inputs`]).
    pub fn calibrate_with(
        &self,
        prepared: &PreparedGraph,
        inputs: &[Tensor<f32>],
    ) -> GraphExecution {
        let run = self.run_with_inputs(prepared, inputs);
        debug_assert!(prepared.is_calibrated(), "warmup left nodes uncalibrated");
        run
    }

    /// [`GraphExecutor::run_with_inputs`] backed by a caller-owned arena.
    ///
    /// A worker thread that keeps one [`ActivationArena`] across requests
    /// recycles the previous batch's buffers instead of allocating afresh;
    /// [`ActivationArena::stats`] reports the cumulative effect.
    pub fn run_with_inputs_in(
        &self,
        prepared: &PreparedGraph,
        inputs: &[Tensor<f32>],
        arena: &mut ActivationArena,
    ) -> GraphExecution {
        self.run_impl(prepared, Some(inputs), None, arena)
    }

    /// Creates a [`RunningCalibration`] for the prepared graph: one range
    /// tracker per integer conv node whose calibration is still open. A
    /// float or reference executor (or an already-warmed graph) yields a
    /// [`crate::CalibrationState::Static`] calibrator with nothing to do.
    ///
    /// Feed it observation batches through [`GraphExecutor::observe_with`];
    /// once the [`CalibrationPolicy`] freezes, the integer state is built
    /// from the running statistics instead of first-batch maxima.
    pub fn running_calibration(
        &self,
        prepared: &PreparedGraph,
        policy: CalibrationPolicy,
    ) -> RunningCalibration {
        let nodes: Vec<(usize, Arc<Tensor<f32>>)> = prepared
            .convs
            .iter()
            .enumerate()
            .filter_map(|(id, c)| {
                let pc = c.as_ref()?;
                match &pc.state {
                    ConvState::IntWinograd(cell)
                        if cell.lock().expect("int state poisoned").is_none() =>
                    {
                        Some((id, Arc::clone(&pc.weights)))
                    }
                    _ => None,
                }
            })
            .collect();
        RunningCalibration::from_nodes(policy, self.quant, nodes)
    }

    /// Runs one batch under running-statistics calibration.
    ///
    /// While `cal` is warming, integer conv nodes execute as direct FP32
    /// convolutions (their fused epilogues still apply) and every batch's
    /// activation ranges fold into the per-node EMAs. When the
    /// [`CalibrationPolicy`] freeze criterion fires, the converged statistics
    /// are compiled into each node's [`IntWinogradConv`] and installed into
    /// the prepared graph before the call returns. Once `cal` is frozen
    /// (or static) this is exactly [`GraphExecutor::run_with_inputs`] — the
    /// recalibration guard: served outputs are bitwise reproducible from the
    /// freeze on, no matter what later batches look like.
    pub fn observe_with(
        &self,
        prepared: &PreparedGraph,
        inputs: &[Tensor<f32>],
        cal: &RunningCalibration,
    ) -> GraphExecution {
        self.observe_with_in(prepared, inputs, cal, &mut ActivationArena::new())
    }

    /// [`GraphExecutor::observe_with`] backed by a caller-owned arena (the
    /// serving worker loop keeps one arena across requests either way).
    ///
    /// The observe-or-run decision is made **once per call**: a batch that
    /// enters while the calibrator is warming runs every integer node on the
    /// FP32 observation path even if a concurrent worker freezes the
    /// calibrator mid-run, so no reply ever mixes FP32 and integer layers.
    pub fn observe_with_in(
        &self,
        prepared: &PreparedGraph,
        inputs: &[Tensor<f32>],
        cal: &RunningCalibration,
        arena: &mut ActivationArena,
    ) -> GraphExecution {
        if !cal.observing() {
            return self.run_impl(prepared, Some(inputs), None, arena);
        }
        let run = self.run_impl(prepared, Some(inputs), Some(cal), arena);
        if cal.finish_batch() {
            // Install first, then flip the public state: a concurrent run
            // that sees "frozen" must find every integer node prepared. A
            // failed install degrades the model instead of poisoning it: the
            // calibrator pins itself to the exact-FP32 observe path forever
            // (CalibrationState::Degraded) and replies keep flowing.
            match self.install_frozen(prepared, cal) {
                Ok(()) => {
                    cal.mark_frozen();
                    debug_assert!(prepared.is_calibrated(), "freeze left nodes open");
                }
                Err(_why) => {
                    cal.mark_degraded();
                    wino_trace::counter("cal.freeze_failures").inc();
                }
            }
        }
        run
    }

    /// Compiles the calibrator's converged running statistics into each
    /// tracked node's integer state — the same construction as first-run
    /// calibration, with EMA maxima in place of single-batch maxima.
    ///
    /// Fallible: a panic inside integer prepare (degenerate ranges, injected
    /// via the `cal.freeze` fault point in chaos tests) is caught and turned
    /// into an error so the caller can degrade the model instead of killing
    /// the worker. On error some nodes may already be installed; that is
    /// harmless, because a degraded calibrator keeps `observing()` true and
    /// the observe path never consults the installed integer state.
    fn install_frozen(
        &self,
        prepared: &PreparedGraph,
        cal: &RunningCalibration,
    ) -> Result<(), String> {
        if wino_fault::fire("cal.freeze") {
            return Err("injected calibration-freeze fault".to_string());
        }
        let cfg = cal
            .quant_config()
            .expect("freeze fired on a non-quantized calibrator");
        for fr in cal.frozen_ranges() {
            let pc = prepared.convs[fr.node]
                .as_ref()
                .expect("tracked node is a conv");
            let ConvState::IntWinograd(cell) = &pc.state else {
                unreachable!("tracked node lost its integer state");
            };
            let prepare = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let scales = TapwiseScales {
                    input: TapScaleMatrix::from_max_matrix(&fr.input_taps, cfg.wino_bits, cfg.mode),
                    weight: TapScaleMatrix::from_max_matrix(
                        &fr.weight_taps,
                        cfg.wino_bits,
                        cfg.mode,
                    ),
                };
                let input = QuantParams::from_max(fr.input_max, cfg.spatial_bits).to_power_of_two();
                let conv =
                    IntWinogradConv::prepare(&fr.weights, &scales, input, fr.output_max, cfg);
                (conv, input)
            }));
            let (mut conv, input) = match prepare {
                Ok(built) => built,
                Err(_) => return Err(format!("integer prepare panicked for node {}", fr.node)),
            };
            conv.set_probe(Arc::clone(&pc.probe));
            *cell.lock().expect("int state poisoned") = Some(IntPrepared { conv, input });
        }
        Ok(())
    }

    fn run_impl(
        &self,
        prepared: &PreparedGraph,
        inputs: Option<&[Tensor<f32>]>,
        observer: Option<&RunningCalibration>,
        arena: &mut ActivationArena,
    ) -> GraphExecution {
        let graph = &prepared.graph;
        let n_nodes = graph.nodes().len();
        let batch = match inputs {
            Some(ins) => {
                assert_eq!(
                    ins.len(),
                    graph.input_ids().len(),
                    "run_with_inputs: graph {} expects {} input tensor(s)",
                    graph.name,
                    graph.input_ids().len()
                );
                let b = ins.first().map_or(prepared.batch, |t| t.dims()[0]);
                assert!(b > 0, "run_with_inputs: empty batch");
                b
            }
            None => prepared.batch,
        };
        let mut next_input = 0usize;
        let mut values: Vec<Option<Tensor<f32>>> = (0..n_nodes).map(|_| None).collect();
        let mut refs = prepared.consumers.clone();
        arena.begin_run();
        let mut nodes = Vec::with_capacity(n_nodes);
        let mut total = 0.0;
        let mut outputs = Vec::new();

        for (id, node) in graph.nodes().iter().enumerate() {
            // One executor span per node (dead unless tracing is on — the
            // constructor is a single relaxed load).
            let _node_sp = wino_trace::span(
                prepared.node_syms[id],
                wino_trace::Category::Node,
                id as u64,
            );
            let start = Instant::now();
            let mut kernel = None;
            let mut backend = None;
            let out: Tensor<f32> = match &node.op {
                GraphOp::Input { .. } => {
                    let t = match inputs {
                        Some(ins) => {
                            let t = &ins[next_input];
                            let (c, h, w) = prepared.shapes[id];
                            assert_eq!(
                                t.dims(),
                                &[batch, c, h, w],
                                "run_with_inputs: input {:?} has the wrong shape",
                                node.name
                            );
                            t.clone()
                        }
                        None => prepared.inputs[id]
                            .as_ref()
                            .expect("input synthesized at prepare")
                            .as_ref()
                            .clone(),
                    };
                    next_input += 1;
                    t
                }
                GraphOp::Conv(_) => {
                    let pc = prepared.convs[id].as_ref().expect("conv prepared");
                    kernel = Some(pc.plan.kernel);
                    // In-place accumulation: when the elided add was the
                    // residual's last consumer and the kernel can write its
                    // fused output into that buffer, steal the tensor — the
                    // tail then allocates nothing at all.
                    // Observation runs route integer nodes through the FP32
                    // direct path, which cannot consume a stolen buffer —
                    // keep every residual operand borrowed while observing.
                    let steal = pc.epilogue.in_place
                        && !self.per_tile
                        && observer.is_none()
                        && pc.in_place_capable(batch, prepared.shapes[id], self.quant);
                    let owned = if steal {
                        let rid = pc.epilogue.residual.expect("in_place implies residual");
                        debug_assert_eq!(refs[rid], 1, "in-place residual still has readers");
                        refs[rid] = 0;
                        let t = values[rid].take().expect("residual producer ran");
                        arena.transfer(t.len());
                        Some(t)
                    } else {
                        None
                    };
                    let x = values[node.inputs[0]].as_ref().expect("producer ran");
                    // A borrowed residual operand is resolved to its live
                    // arena tensor here — the planner guaranteed it was
                    // produced before this conv runs, and its refcount (held
                    // by the elided add node) keeps it alive until then.
                    let residual = if owned.is_some() {
                        None
                    } else {
                        pc.epilogue
                            .residual
                            .map(|rid| values[rid].as_ref().expect("residual producer ran"))
                    };
                    let (y, b) = self.run_conv(id, pc, x, residual, owned, observer);
                    backend = Some(b);
                    y
                }
                GraphOp::Relu | GraphOp::Add if prepared.absorbed_into[id].is_some() => {
                    // Already applied inside the producing conv's fused
                    // epilogue: pass the tensor through untouched. For an
                    // absorbed add, the flowing operand is the conv's output
                    // (possibly via its absorbed ReLU); the residual operand
                    // is retired by the normal last-consumer accounting
                    // below, exactly where the separate add would have
                    // retired it.
                    let conv_id = prepared.absorbed_into[id].expect("absorbed");
                    let src = node
                        .inputs
                        .iter()
                        .copied()
                        .find(|&i| i == conv_id || prepared.absorbed_into[i] == Some(conv_id))
                        .expect("fused tail has a flowing operand");
                    backend = Some("fused");
                    refs[src] = 0;
                    let t = values[src].take().expect("producer ran");
                    arena.transfer(t.len());
                    t
                }
                GraphOp::Relu => {
                    let src = node.inputs[0];
                    if refs[src] == 1 {
                        // Sole consumer: steal the tensor and rectify in
                        // place — no allocation, no copy.
                        refs[src] = 0;
                        let mut t = values[src].take().expect("producer ran");
                        arena.transfer(t.len());
                        relu_inplace(&mut t);
                        t
                    } else {
                        let x = values[src].as_ref().expect("producer ran");
                        let mut buf = arena.take_empty(x.len());
                        buf.extend(x.as_slice().iter().map(|&s| s.max(0.0)));
                        Tensor::from_vec(buf, x.dims()).expect("relu shape")
                    }
                }
                GraphOp::Add => {
                    let first = values[node.inputs[0]].as_ref().expect("producer ran");
                    let mut buf = arena.take_empty(first.len());
                    buf.extend_from_slice(first.as_slice());
                    for &i in &node.inputs[1..] {
                        let t = values[i].as_ref().expect("producer ran");
                        for (d, &s) in buf.iter_mut().zip(t.as_slice()) {
                            *d += s;
                        }
                    }
                    Tensor::from_vec(buf, first.dims()).expect("add shape")
                }
                GraphOp::Concat => {
                    let parts: Vec<&Tensor<f32>> = node
                        .inputs
                        .iter()
                        .map(|&i| values[i].as_ref().expect("producer ran"))
                        .collect();
                    let (c, h, w) = prepared.shapes[id];
                    let mut buf = arena.take(batch * c * h * w);
                    concat_channels_into(&parts, &mut buf);
                    Tensor::from_vec(buf, &[batch, c, h, w]).expect("concat shape")
                }
                GraphOp::MaxPool {
                    kernel: k,
                    stride,
                    padding,
                } => {
                    let x = values[node.inputs[0]].as_ref().expect("producer ran");
                    max_pool2d(x, *k, *stride, *padding)
                }
                GraphOp::Upsample { factor } => {
                    let x = values[node.inputs[0]].as_ref().expect("producer ran");
                    let (n_b, c) = (x.dims()[0], x.dims()[1]);
                    let (ho, wo) = (x.dims()[2] * factor, x.dims()[3] * factor);
                    let mut buf = arena.take(n_b * c * ho * wo);
                    upsample_nearest_into(x, *factor, &mut buf);
                    Tensor::from_vec(buf, &[n_b, c, ho, wo]).expect("upsample shape")
                }
                GraphOp::GlobalAvgPool => {
                    let x = values[node.inputs[0]].as_ref().expect("producer ran");
                    global_avg_pool(x)
                }
                GraphOp::Output => {
                    let src = node.inputs[0];
                    if refs[src] == 1 {
                        refs[src] = 0;
                        let t = values[src].take().expect("producer ran");
                        arena.transfer(t.len());
                        t
                    } else {
                        values[src].as_ref().expect("producer ran").clone()
                    }
                }
            };
            let seconds = start.elapsed().as_secs_f64();
            total += seconds;
            arena.track(&out);
            nodes.push(NodeExecution {
                name: node.name.clone(),
                kind: node.op.kind(),
                kernel,
                backend,
                output_dims: out.dims().to_vec(),
                seconds,
                checksum: out.mean(),
            });
            // Retire inputs whose last consumer just ran.
            for &i in &node.inputs {
                if refs[i] > 0 {
                    refs[i] -= 1;
                    if refs[i] == 0 {
                        if let Some(t) = values[i].take() {
                            arena.release(t);
                        }
                    }
                }
            }
            values[id] = Some(out);
        }

        for &id in &graph.output_ids() {
            let t = values[id].take().expect("output node ran");
            outputs.push((graph.nodes()[id].name.clone(), t));
        }

        arena.end_run();
        GraphExecution {
            graph: graph.name.clone(),
            nodes,
            total_seconds: total,
            peak_live_bytes: arena.peak_bytes,
            arena_reuse_hits: arena.reuse_hits,
            arena_fresh_allocs: arena.fresh_allocs,
            outputs,
        }
    }

    /// Executes one conv node through its prepared state, applying the
    /// fused [`EpilogueOps`] tail (trailing ReLU, residual add, and on the
    /// integer path the output requantization) the planner absorbed into it.
    /// `owned_residual` carries the stolen residual buffer when the run loop
    /// decided on in-place accumulation; it is `Some` only for Winograd
    /// states outside legacy mode.
    fn run_conv(
        &self,
        id: usize,
        pc: &PreparedConv,
        x: &Tensor<f32>,
        residual: Option<&Tensor<f32>>,
        owned_residual: Option<Tensor<f32>>,
        observer: Option<&RunningCalibration>,
    ) -> (Tensor<f32>, &'static str) {
        let params = pc.plan.params;
        let epi = &pc.epilogue;
        let ops = EpilogueOps {
            bias: pc.bias.as_deref(),
            residual,
            pre_add_relu: epi.pre_add_activation == Activation::Relu,
            relu: epi.activation == Activation::Relu,
        };
        match &pc.state {
            ConvState::Direct => {
                debug_assert!(owned_residual.is_none());
                let mut y = conv2d_direct(x, &pc.weights, None, params);
                apply_epilogue(&mut y, &ops);
                (y, "direct")
            }
            ConvState::FloatWinograd(prep) => {
                let name = match prep.tile() {
                    TileSize::F2 => "winograd-f2",
                    TileSize::F4 => "winograd-f4",
                    TileSize::F6 => "winograd-f6",
                };
                if self.per_tile {
                    // Legacy benchmarking mode. A `legacy()` executor plans
                    // without fusion, but the prepared graph may come from a
                    // fusing executor — honour its fused epilogue either way.
                    let mut y = prep.forward_per_tile(x);
                    apply_epilogue(&mut y, &ops);
                    (y, name)
                } else if let Some(t) = owned_residual {
                    (
                        prep.forward_with_epilogue_into(x, ops.bias, ops.pre_add_relu, ops.relu, t),
                        name,
                    )
                } else {
                    (prep.forward_with_epilogue(x, &ops), name)
                }
            }
            ConvState::IntWinograd(cell) => {
                if let Some(cal) = observer {
                    // Warming under running-statistics calibration: fold this
                    // batch's ranges into the node's EMAs and serve the exact
                    // FP32 answer — nothing quantizes against scales that
                    // are still converging. The decision to observe was
                    // snapshotted when the run started: even if a concurrent
                    // run freezes the calibrator mid-flight, this batch
                    // finishes on the FP32 path rather than mixing backends
                    // (the guard in `observe_node` discards its late folds).
                    debug_assert!(owned_residual.is_none(), "steal disabled while observing");
                    cal.observe_node(id, x);
                    let mut y = conv2d_direct(x, &pc.weights, None, params);
                    apply_epilogue(&mut y, &ops);
                    return (y, "observe-direct");
                }
                let cfg = self.quant.expect("int state implies quant config");
                let mut guard = cell.lock().expect("int state poisoned");
                let st = guard.get_or_insert_with(|| {
                    // First-run calibration: tap-wise scales and the input
                    // quantizer are frozen from the live activations, the
                    // weight transform + quantization runs once. The fused
                    // epilogue changes nothing here: calibration reads only
                    // the conv's *input* and weights, which are identical
                    // under fused and separate execution.
                    let mats = WinogradMatrices::for_tile(cfg.tile);
                    let scales =
                        TapwiseScales::calibrate(&pc.weights, x, &mats, cfg.wino_bits, cfg.mode);
                    let input =
                        QuantParams::from_max(x.abs_max(), cfg.spatial_bits).to_power_of_two();
                    // A fused bias rides the requant stage, so the output
                    // quantizer must cover conv + bias; widening by the
                    // worst-case |bias| keeps the estimate conservative.
                    let output_max = estimate_output_max(x, &pc.weights)
                        + ops.bias.map_or(0.0, wino_tensor::Tensor::abs_max);
                    let mut conv =
                        IntWinogradConv::prepare(&pc.weights, &scales, input, output_max, cfg);
                    conv.set_probe(Arc::clone(&pc.probe));
                    IntPrepared { conv, input }
                });
                let xq = crate::quant::quantize_to_i8(x, st.input);
                let y = if self.per_tile {
                    // As on the float path: honour the fused epilogue baked
                    // into the prepared graph even in legacy mode, as
                    // separate passes over the dequantized output (bitwise
                    // identical: `max(0, c)·s == max(0, c·s)` for s > 0).
                    let mut y = st.conv.forward_per_tile(&xq).dequantize();
                    apply_epilogue(&mut y, &ops);
                    y
                } else if let Some(t) = owned_residual {
                    st.conv
                        .forward_epilogue_into(&xq, ops.bias, ops.pre_add_relu, ops.relu, t)
                } else {
                    // Bias, requant, residual and ReLUs all fuse into the
                    // scatter stage; the int8 pre-activation map never
                    // exists (bias-free no-residual tails take the same
                    // staged path and stay bitwise-pinned to the separate
                    // `forward_fused + dequantize + apply_epilogue` chain).
                    st.conv.forward_epilogue(&xq, &ops)
                };
                (y, "int-winograd-tapwise")
            }
            ConvState::Gemm(prep) => {
                debug_assert!(owned_residual.is_none());
                (prep.forward(x, &ops), "im2col-gemm")
            }
        }
    }
}

// Correctness against the direct reference, prepare-once counting, and the
// int error bound live in `tests/graph_inference.rs` (the whole-workspace
// integration suite); the unit tests here cover the executor mechanics that
// suite does not: arena accounting, determinism, and input validation.
#[cfg(test)]
mod tests {
    use super::*;
    use wino_nets::resnet20_graph;

    fn small_resnet20() -> Graph {
        resnet20_graph().with_channel_div(4)
    }

    #[test]
    fn arena_reuses_dead_tensors_and_tracks_peak() {
        let exec = GraphExecutor::with_defaults();
        let run = exec.run(&exec.prepare(&small_resnet20(), &GraphRunOptions::default()));
        assert!(run.arena_reuse_hits > 0, "no buffer was recycled");
        assert!(run.peak_live_bytes > 0);
        // Peak live memory must be far below the sum of all activations.
        let sum: usize = run
            .nodes
            .iter()
            .map(|n| n.output_dims.iter().product::<usize>() * 4)
            .sum();
        assert!(
            run.peak_live_bytes < sum / 2,
            "peak {} vs total {sum}",
            run.peak_live_bytes
        );
    }

    #[test]
    fn prepared_inputs_are_deterministic() {
        let exec = GraphExecutor::with_defaults();
        let p = exec.prepare(&small_resnet20(), &GraphRunOptions::default());
        let a = exec.run(&p);
        let b = exec.run(&p);
        assert_eq!(a.outputs[0].1, b.outputs[0].1, "repeated runs must agree");
    }

    #[test]
    fn run_with_inputs_feeds_fresh_batches() {
        let graph = small_resnet20();
        let exec = GraphExecutor::with_defaults();
        let p = exec.prepare(&graph, &GraphRunOptions::default());
        let x = wino_tensor::normal(&[1, 1, 32, 32], 0.0, 1.0, 99);
        let run = exec.run_with_inputs(&p, std::slice::from_ref(&x));
        assert_eq!(run.outputs.len(), 1);
        assert!(run.outputs[0].1.abs_max().is_finite());
    }

    #[test]
    #[should_panic(expected = "wrong shape")]
    fn run_with_inputs_rejects_bad_shapes() {
        let exec = GraphExecutor::with_defaults();
        let p = exec.prepare(&small_resnet20(), &GraphRunOptions::default());
        let x = wino_tensor::normal(&[1, 2, 32, 32], 0.0, 1.0, 99);
        let _ = exec.run_with_inputs(&p, std::slice::from_ref(&x));
    }

    #[test]
    fn run_with_inputs_accepts_any_batch_size() {
        // One prepared graph (prepared at batch 1) serves batch-3 runs, and
        // the batched run equals the per-image runs stacked — the invariant
        // the dynamic batcher's coalescing correctness rests on.
        let graph = small_resnet20();
        let exec = GraphExecutor::with_defaults();
        let p = exec.prepare(&graph, &GraphRunOptions::default());
        let xs: Vec<_> = (0..3)
            .map(|i| wino_tensor::normal(&[1, 1, 32, 32], 0.0, 1.0, 40 + i))
            .collect();
        let stacked = wino_tensor::concat_batch(&xs.iter().collect::<Vec<_>>());
        let batched = exec.run_with_inputs(&p, std::slice::from_ref(&stacked));
        assert_eq!(batched.outputs[0].1.dims()[0], 3);
        for (i, x) in xs.iter().enumerate() {
            let single = exec.run_with_inputs(&p, std::slice::from_ref(x));
            let got = wino_tensor::batch_slice(&batched.outputs[0].1, i, 1);
            let err = got.relative_error(&single.outputs[0].1);
            assert!(err < 1e-5, "image {i} drifted under batching: {err}");
        }
    }

    #[test]
    fn persistent_arena_recycles_across_runs() {
        let graph = small_resnet20();
        let exec = GraphExecutor::with_defaults();
        let p = exec.prepare(&graph, &GraphRunOptions::default());
        let x = wino_tensor::normal(&[1, 1, 32, 32], 0.0, 1.0, 7);
        let mut arena = ActivationArena::new();
        let first = exec.run_with_inputs_in(&p, std::slice::from_ref(&x), &mut arena);
        let second = exec.run_with_inputs_in(&p, std::slice::from_ref(&x), &mut arena);
        assert_eq!(first.outputs[0].1, second.outputs[0].1);
        // Run 2 starts with run 1's retired buffers parked, so it can only
        // recycle more (and allocate less) than the cold first run did.
        assert!(second.arena_fresh_allocs <= first.arena_fresh_allocs);
        assert!(second.arena_reuse_hits >= first.arena_reuse_hits);
        assert!(second.arena_reuse_hits > 0, "nothing was recycled");
        let stats = arena.stats();
        assert_eq!(stats.runs, 2);
        assert_eq!(
            stats.fresh_allocs,
            first.arena_fresh_allocs + second.arena_fresh_allocs
        );
        assert_eq!(
            stats.peak_live_bytes,
            first.peak_live_bytes.max(second.peak_live_bytes)
        );
        assert!(stats.free_buffers > 0 && stats.free_bytes > 0);
    }

    /// A residual tail whose convs both declare a per-channel bias. At 8×8 /
    /// F4 the tail conv has 4 tiles and 8 output channels, so the fused
    /// epilogue (bias → residual → store) runs on the channel-laned thin
    /// path, and the in-place residual steal carries the bias too.
    fn biased_residual_graph(bias: bool) -> Graph {
        use wino_nets::{ConvLayer, GraphBuilder};
        let with = |l: ConvLayer| if bias { l.with_bias() } else { l };
        let mut g = GraphBuilder::new("biased", 8);
        let x = g.input("in", 8, 8, 8);
        let c1 = g.conv_relu(with(ConvLayer::conv3x3("c1", 8, 8, 8)), x);
        let c2 = g.conv(with(ConvLayer::conv3x3("c2", 8, 8, 8)), c1);
        let a = g.add("res", vec![c2, x]);
        g.output("out", a);
        g.finish()
    }

    #[test]
    fn biased_graph_matches_reference_and_is_not_a_noop() {
        let graph = biased_residual_graph(true);
        let opts = GraphRunOptions::default();
        let exec = GraphExecutor::with_defaults();
        let p = exec.prepare(&graph, &opts);
        // Node ids: input 0, c1 conv 1, c1.relu 2, c2 conv 3, add 4.
        assert!(p.epilogue_for(1).is_some_and(|e| e.bias), "plan lost bias");
        assert!(p.epilogue_for(3).is_some_and(|e| e.bias), "plan lost bias");
        let run = exec.run(&p);
        let rexec = GraphExecutor::reference();
        let rrun = rexec.run(&rexec.prepare(&graph, &opts));
        let err = run.outputs[0].1.relative_error(&rrun.outputs[0].1);
        assert!(err < 1e-4, "biased graph drifted from reference: {err}");
        // The bias must actually reach the output: an unbiased twin differs.
        let unbiased = exec.run(&exec.prepare(&biased_residual_graph(false), &opts));
        assert_ne!(
            run.outputs[0].1, unbiased.outputs[0].1,
            "bias was silently dropped"
        );
    }

    #[test]
    fn quantized_executor_runs_biased_winograd_convs_through_the_int_epilogue() {
        use crate::int_winograd::WinogradQuantConfig;
        let graph = biased_residual_graph(true);
        let opts = GraphRunOptions::default();
        let exec = GraphExecutor::quantized(WinogradQuantConfig::default());
        let p = exec.prepare(&graph, &opts);
        let run = exec.run(&p);
        assert!(
            run.outputs[0].0.contains("add") || !run.outputs[0].0.is_empty(),
            "graph produced no output"
        );
        // The biased convs must actually run quantized, not fall back.
        for id in [1usize, 3] {
            assert!(
                p.epilogue_for(id).is_some_and(|e| e.bias && e.requant),
                "conv {id} lost its bias or its int requant tail"
            );
        }
        // Int-biased output tracks the float-biased reference within the
        // quantization error bound already accepted for unbiased nets.
        let fexec = GraphExecutor::with_defaults();
        let frun = fexec.run(&fexec.prepare(&graph, &opts));
        let err = run.outputs[0].1.relative_error(&frun.outputs[0].1);
        assert!(err < 0.25, "biased int graph drifted from float: {err}");
        // The bias must reach the quantized output too.
        let unbiased = exec.run(&exec.prepare(&biased_residual_graph(false), &opts));
        assert_ne!(
            run.outputs[0].1, unbiased.outputs[0].1,
            "bias was silently dropped on the int path"
        );
    }

    #[test]
    fn warmup_calibrates_every_int_node_once() {
        use crate::int_winograd::WinogradQuantConfig;
        let graph = small_resnet20();
        let exec = GraphExecutor::quantized(WinogradQuantConfig::default());
        let p = exec.prepare(&graph, &GraphRunOptions::default());
        assert!(p.int_conv_count() > 0, "no integer nodes to calibrate");
        assert!(!p.is_calibrated(), "calibration must be lazy");
        exec.warmup(&p);
        assert!(p.is_calibrated());
        // A float executor's graph is trivially calibrated.
        let fexec = GraphExecutor::with_defaults();
        let fp = fexec.prepare(&graph, &GraphRunOptions::default());
        assert_eq!(fp.int_conv_count(), 0);
        assert!(fp.is_calibrated());
    }

    #[test]
    fn calibrate_with_freezes_scales_from_the_given_batch() {
        use crate::int_winograd::WinogradQuantConfig;
        let graph = small_resnet20();
        let exec = GraphExecutor::quantized(WinogradQuantConfig::default());
        let p = exec.prepare(&graph, &GraphRunOptions::default());
        let warm = wino_tensor::normal(&[1, 1, 32, 32], 0.0, 1.0, 11);
        exec.calibrate_with(&p, std::slice::from_ref(&warm));
        assert!(p.is_calibrated());
        // Calibration is first-batch-only: a later, larger-amplitude batch
        // must not change the frozen state, so re-running the warmup batch
        // reproduces its output bit for bit.
        let a = exec.run_with_inputs(&p, std::slice::from_ref(&warm));
        let loud = wino_tensor::normal(&[1, 1, 32, 32], 0.0, 8.0, 12);
        let _ = exec.run_with_inputs(&p, std::slice::from_ref(&loud));
        let b = exec.run_with_inputs(&p, std::slice::from_ref(&warm));
        assert_eq!(a.outputs[0].1, b.outputs[0].1, "frozen state drifted");
    }
}
