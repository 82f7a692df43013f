//! In-memory span log for the traced runs. Spans are recorded by the benchmark around
//! its calls into the product (never from inside it), kept in memory, and written out
//! as JSON once the run is over.

use std::collections::BTreeMap;
use std::time::Instant;

use hoplite_bench::json::Json;

/// Index of a span in its log.
pub type SpanId = u32;

/// One timed call into a layer.
#[derive(Clone, Debug)]
pub struct Span {
    /// The span that caused this one: the enclosing span on the real cluster, the
    /// span whose effect enqueued the handled message on the inline driver. `None`
    /// for a round root.
    pub parent: Option<SpanId>,
    /// Round id: every span of one round shares it.
    pub trace: u32,
    /// Layer name (`core.directory`, `cluster.host.get`, ...).
    pub name: &'static str,
    /// Node the call ran on, where that means something.
    pub node: Option<usize>,
    /// Start, nanoseconds since the log's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the log's epoch.
    pub end_ns: u64,
    /// Counter deltas observed across the span.
    pub attrs: Vec<(&'static str, f64)>,
}

/// Append-only span log with one clock.
pub struct SpanLog {
    epoch: Instant,
    spans: Vec<Span>,
}

impl SpanLog {
    /// An empty log whose clock starts now.
    pub fn new() -> SpanLog {
        SpanLog { epoch: Instant::now(), spans: Vec::new() }
    }

    /// Nanoseconds since the epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Nanoseconds since the epoch of an `Instant` taken elsewhere (a waiter thread).
    pub fn ns_of(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Start a span now; [`SpanLog::close`] ends it.
    pub fn open(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        trace: u32,
        node: Option<usize>,
    ) -> SpanId {
        let now = self.now_ns();
        self.record(name, parent, trace, node, now, now)
    }

    /// End a span now.
    pub fn close(&mut self, id: SpanId) {
        self.spans[id as usize].end_ns = self.now_ns();
    }

    /// Record a span whose interval was measured elsewhere.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        trace: u32,
        node: Option<usize>,
        start_ns: u64,
        end_ns: u64,
    ) -> SpanId {
        self.spans.push(Span { parent, trace, name, node, start_ns, end_ns, attrs: Vec::new() });
        (self.spans.len() - 1) as SpanId
    }

    /// Attach a counter delta to a span.
    pub fn attr(&mut self, id: SpanId, key: &'static str, value: f64) {
        self.spans[id as usize].attrs.push((key, value));
    }

    /// Every span, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus the part of its interval that its
    /// child spans cover.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                let p = &self.spans[parent as usize];
                let (start, end) = (span.start_ns.max(p.start_ns), span.end_ns.min(p.end_ns));
                if start < end {
                    children[parent as usize].push((start, end));
                }
            }
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .map(|(span, covered)| {
                covered.sort_unstable();
                let (mut busy, mut upto) = (0u64, span.start_ns);
                for &(start, end) in covered.iter() {
                    if end > upto {
                        busy += end - start.max(upto);
                        upto = end;
                    }
                }
                (span.end_ns - span.start_ns).saturating_sub(busy)
            })
            .collect()
    }

    /// `(span count, total self time in ns)` per span name.
    pub fn self_time_by_name(&self) -> BTreeMap<&'static str, (u64, u64)> {
        let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for (span, self_ns) in self.spans.iter().zip(self.self_times_ns()) {
            let slot = out.entry(span.name).or_default();
            slot.0 += 1;
            slot.1 += self_ns;
        }
        out
    }

    /// The log as a JSON array of span objects.
    pub fn to_json(&self) -> Json {
        let self_times = self.self_times_ns();
        Json::Arr(
            self.spans
                .iter()
                .enumerate()
                .map(|(id, s)| {
                    let mut pairs = vec![
                        ("id".to_string(), Json::Num(id as f64)),
                        (
                            "parent".to_string(),
                            s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                        ),
                        ("trace".to_string(), Json::Num(s.trace as f64)),
                        ("name".to_string(), Json::Str(s.name.to_string())),
                        ("node".to_string(), s.node.map_or(Json::Null, |n| Json::Num(n as f64))),
                        ("start_ns".to_string(), Json::Num(s.start_ns as f64)),
                        ("end_ns".to_string(), Json::Num(s.end_ns as f64)),
                        ("self_ns".to_string(), Json::Num(self_times[id] as f64)),
                    ];
                    for (k, v) in &s.attrs {
                        pairs.push((k.to_string(), Json::Num(*v)));
                    }
                    Json::Obj(pairs)
                })
                .collect(),
        )
    }
}
