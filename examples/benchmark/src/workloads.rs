//! The six workloads, the models behind them and the fixed metric names.

use wino_core::{Phase, TileSize, WinogradQuantConfig};
use wino_nets::{resnet20_graph, resnet34_graph, resnet50_graph, Graph};

/// Length of one measured window when `--seconds` is not given; equal to
/// `run_seconds` in `BENCHMARK.json`.
pub const RUN_SECONDS: f64 = 8.0;

/// The ResNet-34 3×3 stride-1 layer shapes of the per-layer sweep:
/// `(name, channels in = out, height = width)`.
pub const SHAPES: [(&str, usize, usize); 4] = [
    ("c64h56", 64, 56),
    ("c128h28", 128, 28),
    ("c256h14", 256, 14),
    ("c512h7", 512, 7),
];

/// Reply limit of the serving workloads: a reply later than this misses
/// goodput, and a request queued longer is shed by admission control.
pub const LATENCY_LIMIT_MS: f64 = 10.0;

/// Arrival rate of the open-loop workload: 4800 / 2280 = 2.1 times the
/// goodput one worker delivers today, so over half the submits are refused.
pub const OVERLOAD_RPS: f64 = 4800.0;

/// Closed-loop connections of `serve_tcp_closed`: one, though the box has two
/// cores. Two callers against a batcher that waits 1 ms for company put half
/// the requests in a batch of two (2.3 ms) and half behind the other caller's
/// batch (2.9 ms), so the median sat in the gap between two modes and swung
/// 20 % from run to run with their weights. One caller's latency has one
/// mode: the batch wait, the model and the wire.
pub const TCP_CLIENTS: usize = 1;

/// Distinct seeded inputs a graph workload cycles through.
pub const GRAPH_INPUTS: usize = 16;

/// Seed of the data set: the calibration input, then the validation inputs
/// `rel_err` is taken over. Fixed data, as a calibration set and a validation
/// set are, so `rel_err` is one exact number per commit whatever `--seed`
/// drives the timed traffic.
pub const DATASET_SEED: u64 = 0x5eed_da7a;

/// Equal consecutive slices of a measured window behind `goodput_rps` and a
/// serving tail: each is read per slice and the median slice is reported, so
/// a stall of the host inside one slice cannot own the run's number.
pub const SLICES: usize = 5;

/// Distinct seeded inputs (with precomputed truth) of a serving workload.
pub const SERVE_INPUTS: usize = 64;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Net {
    Resnet20,
    Resnet34,
    Resnet50,
}

/// The model a workload runs: which graph, at which resolution and batch,
/// through which executor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModelSpec {
    pub net: Net,
    /// Input height = width (ResNet-20 is fixed at 32).
    pub resolution: usize,
    /// Winograd-domain bits of the integer executor; `None` runs FP32.
    pub wino_bits: Option<u8>,
    pub batch: usize,
    /// Channel divisor (`Graph::with_channel_div`); 1 keeps the real widths.
    pub channel_div: usize,
}

impl ModelSpec {
    pub fn graph(&self) -> Graph {
        let g = match self.net {
            Net::Resnet20 => resnet20_graph(),
            Net::Resnet34 => resnet34_graph(self.resolution),
            Net::Resnet50 => resnet50_graph(self.resolution),
        };
        if self.channel_div > 1 {
            g.with_channel_div(self.channel_div)
        } else {
            g
        }
    }

    pub fn quant(&self) -> Option<WinogradQuantConfig> {
        self.wino_bits
            .map(|bits| WinogradQuantConfig::tapwise_po2(TileSize::F4, bits))
    }

    /// Validation inputs behind `rel_err`. Each costs an integer model a
    /// timed run's worth and its FP32 reference another; an FP32 model is
    /// compared with direct convolution, 1.5 s an input on ResNet-34 even at
    /// resolution 64.
    pub fn validation_inputs(&self, smoke: bool) -> usize {
        match self.wino_bits {
            _ if smoke => 1,
            Some(_) => 4,
            None => 2,
        }
    }

    /// The same model through the FP32 executor.
    pub fn fp32(&self) -> Self {
        Self {
            wino_bits: None,
            ..*self
        }
    }
}

/// The model both serving workloads serve: small enough (≈ 0.6 ms a run)
/// that `wino_serve` and the wire are most of a request's latency.
pub const SERVED_MODEL: ModelSpec = ModelSpec {
    net: Net::Resnet20,
    resolution: 32,
    wino_bits: None,
    batch: 1,
    channel_div: 8,
};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Resnet34Int,
    Resnet34Fp32,
    Resnet50Int,
    Resnet20Int10B8,
    ServeTcpClosed,
    ServeOverload,
}

impl Workload {
    pub const ALL: [Workload; 6] = [
        Workload::Resnet34Int,
        Workload::Resnet34Fp32,
        Workload::Resnet50Int,
        Workload::Resnet20Int10B8,
        Workload::ServeTcpClosed,
        Workload::ServeOverload,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Resnet34Int => "resnet34_int",
            Workload::Resnet34Fp32 => "resnet34_fp32",
            Workload::Resnet50Int => "resnet50_int",
            Workload::Resnet20Int10B8 => "resnet20_int10_b8",
            Workload::ServeTcpClosed => "serve_tcp_closed",
            Workload::ServeOverload => "serve_overload",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn is_serving(self) -> bool {
        matches!(self, Workload::ServeTcpClosed | Workload::ServeOverload)
    }

    /// The workload's model. `smoke` shrinks the three large networks
    /// (resolution 64, a quarter of the channels) so all six workloads
    /// finish in seconds through the same code.
    pub fn model(self, smoke: bool) -> ModelSpec {
        let res = |full: usize| if smoke { 64 } else { full };
        let channel_div = if smoke { 4 } else { 1 };
        match self {
            Workload::Resnet34Int => ModelSpec {
                net: Net::Resnet34,
                resolution: res(224),
                wino_bits: Some(8),
                batch: 1,
                channel_div,
            },
            Workload::Resnet34Fp32 => ModelSpec {
                net: Net::Resnet34,
                resolution: res(224),
                wino_bits: None,
                batch: 1,
                channel_div,
            },
            Workload::Resnet50Int => ModelSpec {
                net: Net::Resnet50,
                resolution: res(160),
                wino_bits: Some(8),
                batch: 1,
                channel_div,
            },
            Workload::Resnet20Int10B8 => ModelSpec {
                net: Net::Resnet20,
                resolution: 32,
                wino_bits: Some(10),
                batch: 8,
                channel_div: 1,
            },
            Workload::ServeTcpClosed | Workload::ServeOverload => SERVED_MODEL,
        }
    }

    /// Fresh set-up cycles behind `setup_s` (their median is reported): as
    /// many as the run's time allows. A large network's cycle takes seconds;
    /// a served model's takes a millisecond and needs the repeats.
    pub fn setup_cycles(self, smoke: bool) -> usize {
        match self {
            _ if smoke => 1,
            Workload::Resnet34Int | Workload::Resnet34Fp32 | Workload::Resnet50Int => 2,
            Workload::Resnet20Int10B8 => 3,
            Workload::ServeTcpClosed | Workload::ServeOverload => 15,
        }
    }

    /// The percentile `latency_ms_p99` is read at: fixed per workload, so a
    /// faster or slower commit is compared on the same statistic. A p99
    /// wants a thousand samples; eight seconds give about 40 runs of a
    /// 200 ms network and 330 of the batch-8 ResNet-20, where one run in
    /// twenty-five takes half as long again, so a p95 would sit on the edge of
    /// that second mode and swing with it. The serving tails are read slice
    /// by slice (`SLICES`): the one closed-loop caller gets 780 replies into
    /// a slice, which leaves a p99 seven samples beyond it and a p95 forty;
    /// the open loop gets 3600 in.
    pub fn tail_percentile(self) -> f64 {
        match self {
            Workload::Resnet34Int | Workload::Resnet34Fp32 | Workload::Resnet50Int => 75.0,
            Workload::Resnet20Int10B8 => 90.0,
            Workload::ServeTcpClosed => 95.0,
            Workload::ServeOverload => 99.0,
        }
    }

    /// Heap the process faults in before an untraced run (`heap::prefault`):
    /// what the serving worker's ever-growing arena takes over the warm-up
    /// and an 8 s window (0.3 GB closed loop, 1.4 GB under overload), and a
    /// margin. Graph workloads free what a run allocated and run again on the
    /// same pages, so they need none.
    pub fn heap_bytes(self) -> usize {
        match self {
            Workload::ServeTcpClosed => 512 << 20,
            Workload::ServeOverload => 2048 << 20,
            _ => 0,
        }
    }

    /// Ceiling on `rel_err`; above it the output check fails. Integer
    /// workloads compare against FP32 (quantization error through the whole
    /// network), FP32 ones against direct convolution (rounding only).
    fn rel_err_ceiling(self) -> f64 {
        match self {
            Workload::Resnet34Int | Workload::Resnet50Int => 0.8,
            Workload::Resnet20Int10B8 => 0.15,
            Workload::Resnet34Fp32 | Workload::ServeTcpClosed | Workload::ServeOverload => 1e-4,
        }
    }

    /// The failed output check, in words, when `rel_err` is over the
    /// workload's ceiling.
    pub fn rel_err_over_ceiling(self, rel_err: f64) -> Option<String> {
        let ceiling = self.rel_err_ceiling();
        (rel_err > ceiling).then(|| format!("rel_err {rel_err} above ceiling {ceiling}"))
    }
}

/// The end-to-end metrics, reported by every workload: `(name, unit)`.
pub fn end_to_end_names() -> Vec<(String, &'static str)> {
    [
        ("infer_ms_p50", "ms"),
        ("rel_err", "ratio"),
        ("peak_live_bytes", "bytes"),
        ("latency_ms_p50", "ms"),
        ("latency_ms_p99", "ms"),
        ("goodput_rps", "1/s"),
        ("setup_s", "s"),
    ]
    .into_iter()
    .map(|(n, u)| (n.to_string(), u))
    .collect()
}

/// The per-layer metrics of the traced run: `(name, unit)`.
pub fn per_layer_names() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = Vec::new();
    let mut put = |name: String, unit: &'static str| out.push((name, unit));
    for path in ["core.int_winograd", "core.winograd"] {
        for (shape, _, _) in SHAPES {
            put(format!("{path}.{shape}.forward_ms"), "ms");
            for phase in Phase::ALL {
                put(format!("{path}.{shape}.{}_ms", phase.name()), "ms");
            }
            put(format!("{path}.{shape}.phase_cover"), "ratio");
        }
    }
    for (shape, _, _) in SHAPES {
        put(format!("tensor.im2col.{shape}.conv_ms"), "ms");
    }
    for (shape, _, _) in SHAPES {
        for dtype in ["f32", "i8", "i16"] {
            put(format!("tensor.gemm.{shape}.{dtype}_gops"), "Gop/s");
        }
    }
    for class in [
        "int_winograd_ms",
        "winograd_f4_ms",
        "winograd_f2_ms",
        "im2col_ms",
        "structural_ms",
        "overhead_ms",
        "infer_ms_p90",
    ] {
        put(format!("core.graph_exec.{class}"), "ms");
    }
    put("core.graph_exec.allocs_per_infer".to_string(), "count");
    put("core.graph_exec.alloc_bytes_per_infer".to_string(), "bytes");
    put("core.graph_exec.arena_fresh_allocs".to_string(), "count");
    put("core.graph_exec.infer_ms_kept_arena".to_string(), "ms");
    put(
        "core.graph_exec.arena_parked_bytes_per_infer".to_string(),
        "bytes",
    );
    for phase in Phase::ALL {
        put(format!("core.graph_exec.phase.{}_ms", phase.name()), "ms");
    }
    for count in ["nodes_f4", "nodes_f2", "nodes_im2col", "fused_nodes"] {
        put(format!("core.planner.{count}"), "count");
    }
    put("trace.overhead_pct".to_string(), "%");
    put("nets.build_s".to_string(), "s");
    put("core.graph_exec.prepare_s".to_string(), "s");
    put("core.running.calibrate_s".to_string(), "s");
    put("serve.protocol.encode_us".to_string(), "us");
    put("serve.protocol.decode_us".to_string(), "us");
    put("serve.protocol.request_bytes".to_string(), "bytes");
    put("serve.protocol.reply_bytes".to_string(), "bytes");
    put("serve.net.ping_rtt_us".to_string(), "us");
    put("serve.registry.inproc_ms_p50".to_string(), "ms");
    put("core.graph_exec.model_ms_b1".to_string(), "ms");
    put("core.graph_exec.model_ms_b4".to_string(), "ms");
    put("serve.scheduler.queue_wait_ms_p50".to_string(), "ms");
    put("serve.scheduler.queue_wait_ms_p99".to_string(), "ms");
    put("serve.scheduler.mean_batch".to_string(), "count");
    put("serve.registry.submit_us".to_string(), "us");
    put("serve.registry.reject_us".to_string(), "us");
    put("serve.registry.rejected".to_string(), "count");
    put("serve.registry.shed".to_string(), "count");
    put("serve.registry.latency_ms_p50".to_string(), "ms");
    put("bench.gen_late_ms_p99".to_string(), "ms");
    put("trace.disabled_span_ns".to_string(), "ns");
    put("fault.disabled_probe_ns".to_string(), "ns");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pulls every `"key": "value"` string pair for `key` out of JSON text
    /// (enough for the flat string fields of `BENCHMARK.json`).
    fn string_fields(json: &str, key: &str) -> Vec<String> {
        let pat = format!("\"{key}\": \"");
        json.match_indices(&pat)
            .map(|(i, _)| {
                let rest = &json[i + pat.len()..];
                rest[..rest.find('"').expect("closing quote")].to_string()
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_what_the_program_reports() {
        let json = include_str!("../../../BENCHMARK.json");
        let names = string_fields(json, "name");
        let units = string_fields(json, "unit");
        let workloads: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
        let e2e = end_to_end_names();
        let layers = per_layer_names();
        let mut want = workloads.clone();
        want.extend(e2e.iter().map(|(n, _)| n.clone()));
        want.extend(layers.iter().map(|(n, _)| n.clone()));
        assert_eq!(names, want, "names (workloads, end_to_end, per_layer)");
        let want_units: Vec<&str> = e2e.iter().chain(&layers).map(|(_, u)| *u).collect();
        assert_eq!(units, want_units);
        assert!(json.contains(&format!("\"run_seconds\": {RUN_SECONDS}")));
        assert!(layers.len() <= 128);
    }

    #[test]
    fn names_follow_the_contract() {
        let all = end_to_end_names()
            .into_iter()
            .chain(per_layer_names())
            .map(|(n, _)| n)
            .chain(Workload::ALL.iter().map(|w| w.name().to_string()));
        let mut seen = std::collections::BTreeSet::new();
        for name in all {
            assert!(name.len() <= 64, "{name}");
            assert!(name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric()));
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(seen.insert(name.clone()), "{name} used twice");
        }
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
    }
}
