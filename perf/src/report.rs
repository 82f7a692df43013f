//! The metric registry (names, units, directions, bounds — mirrored by
//! `BENCHMARK.json`) and the arithmetic that turns pooled samples into metrics.

use hoplite_bench::json::Json;

use crate::spans::SpanLog;
use crate::stats::{median, percentile, Samples};

/// A reported number.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Registry name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// The value.
    pub value: f64,
    /// Observations behind it.
    pub samples: usize,
}

/// An end-to-end metric: what a caller of `HopliteClient` sees. Every workload
/// reports every one of them, and none can be zero.
pub struct EndToEnd {
    /// Name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// The gated metrics. Bounds come from `perf noise` on the reference box (README):
/// at least three times the widest interquartile spread seen on any workload.
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd { name: "round_p50_ms", unit: "ms", better: "lower", bound: 0.25 },
    EndToEnd { name: "get_p50_us", unit: "us", better: "lower", bound: 0.25 },
    EndToEnd { name: "goodput_gibps", unit: "GiB/s", better: "higher", bound: 0.25 },
    EndToEnd { name: "gets_per_s", unit: "1/s", better: "higher", bound: 0.25 },
    EndToEnd { name: "cpu_ms_per_round", unit: "ms", better: "lower", bound: 0.25 },
    EndToEnd { name: "peak_rss_mib", unit: "MiB", better: "lower", bound: 0.1 },
    EndToEnd { name: "setup_s", unit: "s", better: "lower", bound: 0.25 },
];

/// Per-layer (diagnostic, unbounded) metrics: `(name, unit, better)`. Every workload's
/// traced run reports every one of them, so each is something every workload measures;
/// what only one workload has appears here as a count or a share (0 elsewhere) and in
/// [`WORKLOAD_ONLY`] in absolute terms.
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    // Box ceilings, taken in the same run; code changes should not move them.
    ("calib.memcpy_gibps", "GiB/s", "higher"),
    ("calib.loopback_stream_gibps", "GiB/s", "higher"),
    ("calib.loopback_rtt_us", "us", "lower"),
    ("calib.thread_handoff_us", "us", "lower"),
    ("ratio.goodput_over_loopback", "ratio", "higher"),
    ("ratio.get_p50_over_loopback_rtt", "ratio", "lower"),
    // Direct timed calls into one layer.
    ("transport.framing.encode_block_ns", "ns", "lower"),
    ("transport.framing.decode_block_ns", "ns", "lower"),
    ("transport.framing.encode_ctrl_ns", "ns", "lower"),
    ("transport.framing.decode_ctrl_ns", "ns", "lower"),
    ("transport.framing.decode_inline_ns", "ns", "lower"),
    ("transport.framing.slab_reuse_ratio", "ratio", "higher"),
    ("transport.framing.cork_frames_per_write", "count", "higher"),
    ("transport.tcp.stream_gibps", "GiB/s", "higher"),
    ("transport.tcp.ctrl_rtt_us", "us", "lower"),
    ("transport.tcp.inline_rtt_us", "us", "lower"),
    ("transport.fabric.channel_rtt_us", "us", "lower"),
    ("core.buffer.append_gibps", "GiB/s", "higher"),
    ("core.buffer.coalesce_gibps", "GiB/s", "higher"),
    ("core.buffer.read_block_ns", "ns", "lower"),
    ("core.store.put_get_ns", "ns", "lower"),
    ("core.store.append_read_ns", "ns", "lower"),
    ("core.reduce.op.combine_gibps", "GiB/s", "higher"),
    ("core.directory.shard.register_ns", "ns", "lower"),
    ("core.directory.shard.query_inline_ns", "ns", "lower"),
    ("core.directory.shard.query_location_ns", "ns", "lower"),
    ("cluster.host.put_us", "us", "lower"),
    ("cluster.host.get_local_us", "us", "lower"),
    // The workload on the real cluster, short untraced run.
    ("trace.round_p50_ms", "ms", "lower"),
    ("trace.overhead_pct", "%", "lower"),
    ("round_p90_ms", "ms", "lower"),
    ("get_p90_us", "us", "lower"),
    ("reduce_p50_over_round_p50", "ratio", "lower"),
    ("cluster.host.get_p99_us", "us", "lower"),
    ("cluster.local.threads", "count", "lower"),
    ("cluster.local.ctx_switches_per_round", "count", "lower"),
    ("cluster.local.cpu_user_ms_per_round", "ms", "lower"),
    ("cluster.local.cpu_sys_ms_per_round", "ms", "lower"),
    ("transport.tcp.recv_slab_reuse", "count", "higher"),
    ("transport.tcp.corked_frames", "count", "higher"),
    ("core.node.failure.failovers_per_round", "count", "lower"),
    ("core.node.failure.gap_over_round", "ratio", "lower"),
    // Engine CPU per round, from the single-threaded traced replay.
    ("core.node.busy_ms", "ms", "lower"),
    ("core.node.broadcast.busy_share", "ratio", "lower"),
    ("core.node.reduce.busy_share", "ratio", "lower"),
    ("core.directory.busy_us", "us", "lower"),
    ("core.node.msgs", "count", "lower"),
    ("core.directory.msgs", "count", "lower"),
    ("core.directory.replicates", "count", "lower"),
    ("core.node.wire_bytes", "B", "lower"),
    ("inline.round_ms", "ms", "lower"),
    ("inline.codec_round_ms", "ms", "lower"),
    ("transport.framing.codec_ms", "ms", "lower"),
    // The budget: round = engines+codec + wire + residual.
    ("cluster.local.wire_ms_per_round", "ms", "lower"),
    ("cluster.local.residual_ms_per_round", "ms", "lower"),
    // Simulator's prediction for the same cell (the failover cell without its failure).
    ("cluster.sim.predicted_round_ms", "ms", "lower"),
    ("cluster.sim.model_error_pct", "%", "lower"),
];

/// Per-layer metrics only one workload has, in absolute terms: `(name, unit)`. Printed
/// by `perf all` and `perf trace` where they apply; not part of `BENCHMARK.json`, whose
/// list every workload must fill.
pub const WORKLOAD_ONLY: &[(&str, &str)] = &[
    ("reduce_p50_ms", "ms"),
    ("core.node.broadcast.busy_ms", "ms"),
    ("core.node.reduce.busy_ms", "ms"),
    ("core.node.failure.gap_ms", "ms"),
    ("cluster.local.rejoin_ms", "ms"),
];

/// What the children of one run produced, pooled.
#[derive(Default)]
pub struct Pooled {
    /// Per-round and per-call observations of every child, plus one `child.*` rate per
    /// child.
    pub samples: Samples,
    /// `setup_s` of each child.
    pub setup_s: Vec<f64>,
    /// `VmHWM` of each child, MiB.
    pub peak_rss_mib: Vec<f64>,
}

impl Pooled {
    /// Fold in one child's observations. Rates (work ÷ summed round time) are taken per
    /// child and reported as the median over children, so one child that met a slow
    /// regime does not set the run's number.
    pub fn add(&mut self, child: &Samples, setup_s: f64, peak_rss_mib: f64) {
        let rounds = child.get("round_ms").len() as f64;
        let seconds = child.sum("round_ms") / 1e3;
        let cpu_ms = child.sum("cpu_user_ms") + child.sum("cpu_sys_ms");
        self.samples.merge(child);
        self.samples.push("child.goodput_gibps", child.sum("bytes") / GIB / seconds);
        self.samples.push("child.gets_per_s", child.get("get_us").len() as f64 / seconds);
        self.samples.push("child.cpu_ms_per_round", cpu_ms / rounds);
        self.setup_s.push(setup_s);
        self.peak_rss_mib.push(peak_rss_mib);
    }
}

const GIB: f64 = (1u64 << 30) as f64;

/// A metric of the registry, which supplies its unit.
pub fn metric(name: &'static str, value: f64, samples: usize) -> Metric {
    let unit = END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.0, m.1)))
        .chain(WORKLOAD_ONLY.iter().copied())
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("metric {name} is not in the registry"))
        .1;
    Metric { name, unit, value, samples }
}

/// The end-to-end metrics of a run.
pub fn end_to_end(pooled: &Pooled) -> Vec<Metric> {
    let s = &pooled.samples;
    let (rounds, gets) = (s.get("round_ms"), s.get("get_us"));
    let children = pooled.setup_s.len();
    let per_child = |name: &str| median(s.get(name));
    vec![
        metric("round_p50_ms", median(rounds), rounds.len()),
        metric("get_p50_us", median(gets), gets.len()),
        metric("goodput_gibps", per_child("child.goodput_gibps"), children),
        metric("gets_per_s", per_child("child.gets_per_s"), children),
        metric("cpu_ms_per_round", per_child("child.cpu_ms_per_round"), children),
        metric("peak_rss_mib", median(&pooled.peak_rss_mib), children),
        metric("setup_s", median(&pooled.setup_s), children),
    ]
}

/// What a workload's short real-cluster runs add to the per-layer list.
pub fn real_run_layers(plain: &Pooled, traced: &Pooled, out: &mut Vec<Metric>) {
    let s = &plain.samples;
    let (rounds, gets) = (s.get("round_ms"), s.get("get_us"));
    let traced_p50 = median(traced.samples.get("round_ms"));
    let per_round = |name: &str| s.sum(name) / rounds.len() as f64;
    let or_zero = |name: &'static str, from: &str, out: &mut Vec<Metric>| {
        out.push(metric(name, s.median_or_zero(from), s.get(from).len()));
    };
    out.push(metric("trace.round_p50_ms", median(rounds), rounds.len()));
    out.push(metric(
        "trace.overhead_pct",
        (traced_p50 / median(rounds) - 1.0) * 100.0,
        traced.samples.get("round_ms").len(),
    ));
    out.push(metric("round_p90_ms", percentile(rounds, 90.0), rounds.len()));
    out.push(metric("get_p90_us", percentile(gets, 90.0), gets.len()));
    if !s.get("reduce_ms").is_empty() {
        let reduce_p50 = median(s.get("reduce_ms"));
        out.push(metric("reduce_p50_ms", reduce_p50, s.get("reduce_ms").len()));
        out.push(metric("reduce_p50_over_round_p50", reduce_p50 / median(rounds), rounds.len()));
    }
    out.push(metric("cluster.host.get_p99_us", percentile(gets, 99.0), gets.len()));
    or_zero("cluster.local.threads", "threads", out);
    out.push(metric(
        "cluster.local.ctx_switches_per_round",
        per_round("ctx_switches"),
        rounds.len(),
    ));
    out.push(metric("cluster.local.cpu_user_ms_per_round", per_round("cpu_user_ms"), rounds.len()));
    out.push(metric("cluster.local.cpu_sys_ms_per_round", per_round("cpu_sys_ms"), rounds.len()));
    // Counter deltas are read through the event loops, which only the traced run does.
    let t = &traced.samples;
    let traced_rounds = t.get("round_ms").len().max(1) as f64;
    for (name, from) in [
        ("transport.tcp.recv_slab_reuse", "recv_slab_reuse"),
        ("transport.tcp.corked_frames", "corked_frames"),
    ] {
        out.push(metric(name, t.sum(from) / traced_rounds, t.get(from).len()));
    }
    or_zero("core.node.failure.failovers_per_round", "failovers", out);
    if !s.get("gap_ms").is_empty() {
        let gap_ms = median(s.get("gap_ms"));
        out.push(metric("core.node.failure.gap_ms", gap_ms, s.get("gap_ms").len()));
        out.push(metric("core.node.failure.gap_over_round", gap_ms / median(rounds), rounds.len()));
        out.push(metric(
            "cluster.local.rejoin_ms",
            median(s.get("rejoin_ms")),
            s.get("rejoin_ms").len(),
        ));
    }
}

/// Per-round engine busy times and message counts of one inline replay, from its span
/// log and the timed windows `run_round` recorded.
pub fn inline_rounds(log: &SpanLog, windows: &Samples) -> Samples {
    let mut out = Samples::default();
    let starts = windows.get("timed_start_ms");
    let ends = windows.get("timed_end_ms");
    for (start, end) in starts.iter().zip(ends) {
        let (start_ns, end_ns) = ((start * 1e6) as u64, (end * 1e6) as u64);
        let mut sums = std::collections::BTreeMap::<&str, f64>::new();
        for span in log.spans() {
            if span.parent.is_none() || span.start_ns < start_ns || span.start_ns > end_ns {
                continue;
            }
            let ms = (span.end_ns - span.start_ns) as f64 / 1e6;
            *sums.entry(span.name).or_default() += ms;
            if span.name == "transport.framing" {
                let bytes =
                    span.attrs.iter().find(|(k, _)| *k == "frame_bytes").map_or(0.0, |a| a.1);
                *sums.entry("wire_bytes").or_default() += bytes;
            } else if span.name != "core.node.client" {
                let family = if span.name == "core.directory" { "dir_msgs" } else { "node_msgs" };
                *sums.entry(family).or_default() += 1.0;
                if span.attrs.iter().any(|(k, _)| *k == "dir_replicate") {
                    *sums.entry("replicates").or_default() += 1.0;
                }
            }
        }
        out.push("round_ms", end - start);
        for name in [
            "core.node.client",
            "core.node",
            "core.node.broadcast",
            "core.node.reduce",
            "core.directory",
            "node_msgs",
            "dir_msgs",
            "replicates",
            "wire_bytes",
        ] {
            out.push(name, sums.get(name).copied().unwrap_or(0.0));
        }
    }
    out
}

/// The engine-CPU metrics and the budget, from the two inline replays and the real
/// round time.
pub fn budget_layers(
    plain: &Samples,
    codec: &Samples,
    real_round_ms: f64,
    loopback_gibps: f64,
    out: &mut Vec<Metric>,
) {
    let rounds = codec.get("round_ms").len();
    let m = |name: &str| codec.median_or_zero(name);
    let (broadcast_ms, reduce_ms) = (m("core.node.broadcast"), m("core.node.reduce"));
    let node_ms = broadcast_ms + reduce_ms + m("core.node") + m("core.node.client");
    out.push(metric("core.node.busy_ms", node_ms, rounds));
    out.push(metric("core.node.broadcast.busy_share", broadcast_ms / node_ms, rounds));
    out.push(metric("core.node.reduce.busy_share", reduce_ms / node_ms, rounds));
    if broadcast_ms > 0.0 {
        out.push(metric("core.node.broadcast.busy_ms", broadcast_ms, rounds));
    }
    if reduce_ms > 0.0 {
        out.push(metric("core.node.reduce.busy_ms", reduce_ms, rounds));
    }
    out.push(metric("core.directory.busy_us", m("core.directory") * 1e3, rounds));
    out.push(metric("core.node.msgs", m("node_msgs"), rounds));
    out.push(metric("core.directory.msgs", m("dir_msgs"), rounds));
    out.push(metric("core.directory.replicates", m("replicates"), rounds));
    out.push(metric("core.node.wire_bytes", m("wire_bytes"), rounds));
    let inline_ms = plain.median_or_zero("round_ms");
    let codec_ms = m("round_ms");
    out.push(metric("inline.round_ms", inline_ms, plain.get("round_ms").len()));
    out.push(metric("inline.codec_round_ms", codec_ms, rounds));
    out.push(metric("transport.framing.codec_ms", codec_ms - inline_ms, rounds));
    let wire_ms = m("wire_bytes") / (loopback_gibps * GIB) * 1e3;
    out.push(metric("cluster.local.wire_ms_per_round", wire_ms, rounds));
    out.push(metric(
        "cluster.local.residual_ms_per_round",
        real_round_ms - codec_ms - wire_ms,
        rounds,
    ));
}

/// The value of `name` among `metrics`.
pub fn value_of(metrics: &[Metric], name: &str) -> f64 {
    metrics.iter().find(|m| m.name == name).map_or(0.0, |m| m.value)
}

/// The `BENCHMARK.json` per-layer list in registry order, with a 0 for every metric
/// `metrics` lacks (a count or share of something this workload does not do).
pub fn complete_per_layer(metrics: &[Metric]) -> Vec<Metric> {
    PER_LAYER
        .iter()
        .map(|&(name, _, _)| {
            metrics.iter().find(|m| m.name == name).cloned().unwrap_or_else(|| metric(name, 0.0, 0))
        })
        .collect()
}

/// `{"name": {"value": v, "unit": u}, ...}` — with sample counts when `samples`.
pub fn metrics_json(metrics: &[Metric], samples: bool) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|m| {
                let mut pairs = vec![
                    ("value".to_string(), Json::Num(m.value)),
                    ("unit".to_string(), Json::Str(m.unit.to_string())),
                ];
                if samples {
                    pairs.push(("samples".to_string(), Json::Num(m.samples as f64)));
                }
                (m.name.to_string(), Json::Obj(pairs))
            })
            .collect(),
    )
}

/// Single-line JSON (the vendored writer is pretty-print only).
pub fn compact(json: &Json) -> String {
    let pretty = json.to_pretty_string();
    let mut out = String::with_capacity(pretty.len());
    let mut in_string = false;
    let mut escaped = false;
    for c in pretty.chars() {
        if in_string {
            out.push(c);
            match c {
                _ if escaped => escaped = false,
                '\\' => escaped = true,
                '"' => in_string = false,
                _ => {}
            }
        } else if c == '"' {
            in_string = true;
            out.push(c);
        } else if !c.is_whitespace() {
            out.push(c);
            if c == ':' || c == ',' {
                out.push(' ');
            }
        }
    }
    out
}
