//! Running an op script: the executor interface the three backends share, the round
//! runner that times and validates, and the real-cluster executor.

use std::sync::mpsc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use hoplite_cluster::{HopliteClient, LocalCluster, LocalFabric};
use hoplite_core::prelude::*;
// The prelude's one-parameter `Result` alias would shadow this.
use std::result::Result;

use crate::gen::{Inputs, Kill, Round, RoundKind, Shape, Step};
use crate::spans::{SpanId, SpanLog};
use crate::stats::{cpu_times_ms, proc_snapshot, Samples};

/// A blocking client call that has not returned after this long counts as failed.
const OP_TIMEOUT: Duration = Duration::from_secs(60);

/// A restarted node resyncs in tens of milliseconds, or (see `gen::script`) never.
const REJOIN_TIMEOUT: Duration = Duration::from_secs(5);

/// What one `get` call returned to its caller.
pub struct GetOutcome {
    /// The calling node.
    pub node: usize,
    /// The payload, or why there is none.
    pub result: Result<Payload, String>,
    /// Call latency as the caller saw it, microseconds on the executor's clock.
    pub micros: f64,
}

/// A backend that can execute [`Step`]s. Implemented by the real cluster, the inline
/// driver and the simulator lane.
pub trait Executor {
    /// `put` on `node`.
    fn put(&mut self, node: usize, object: ObjectId, payload: Payload) -> Result<(), String>;
    /// `get` on every node of `nodes`, concurrently; returns when the last has.
    fn get(&mut self, nodes: &[usize], object: ObjectId, kill: Option<Kill>) -> Vec<GetOutcome>;
    /// `reduce(sum_f32)` over all `sources` on `node`.
    fn reduce(
        &mut self,
        node: usize,
        target: ObjectId,
        sources: Vec<ObjectId>,
    ) -> Result<(), String>;
    /// `delete` on `node`.
    fn delete(&mut self, node: usize, object: ObjectId) -> Result<(), String>;
    /// Bring back the node the last kill took down.
    fn rejoin(&mut self) -> Result<(), String>;
    /// Milliseconds on the backend's clock (wall time, or simulated time).
    fn clock_ms(&self) -> f64;
    /// A round is about to start.
    fn begin_round(&mut self, _round: &Round) {}
    /// The round's last step has returned.
    fn end_round(&mut self) {}
}

/// Operation counts of a run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    /// Client calls the script contained.
    pub attempted: u64,
    /// Calls that returned `Err`, timed out, or were skipped after such a failure.
    pub failed: u64,
}

/// Number of client calls in a whole script.
pub fn script_calls(script: &[Round]) -> u64 {
    script.iter().map(|r| calls(&r.prepare) + calls(&r.timed) + calls(&r.cleanup)).sum()
}

/// Number of client calls in `steps`.
fn calls(steps: &[Step]) -> u64 {
    steps
        .iter()
        .map(|s| match s {
            Step::Get { nodes, .. } => nodes.len() as u64,
            Step::Rejoin => 0,
            _ => 1,
        })
        .sum()
}

/// A returned payload and what it should have been.
struct Check {
    expect: crate::gen::Data,
    node: usize,
    got: Payload,
}

/// What running a list of steps produced.
#[derive(Default)]
struct Applied {
    /// Client calls that returned `Ok`.
    completed: u64,
    /// Every payload a Get returned.
    checks: Vec<Check>,
    /// Latency of every Get, microseconds.
    get_us: Vec<f64>,
}

/// Run `steps`, stopping at the first failed call.
fn apply<E: Executor>(
    exec: &mut E,
    steps: &[Step],
    inputs: &Inputs,
    applied: &mut Applied,
) -> Result<(), String> {
    for step in steps {
        match step {
            Step::Put { node, object, data } => exec.put(*node, *object, inputs.payload(*data))?,
            Step::Get { nodes, object, expect, kill } => {
                for outcome in exec.get(nodes, *object, *kill) {
                    let got = outcome.result?;
                    applied.completed += 1;
                    applied.get_us.push(outcome.micros);
                    applied.checks.push(Check { expect: *expect, node: outcome.node, got });
                }
                continue;
            }
            Step::Reduce { node, target, sources } => {
                exec.reduce(*node, *target, sources.clone())?
            }
            Step::Delete { node, object } => exec.delete(*node, *object)?,
            Step::Rejoin => {
                // Not a client call: a victim that fails to come back loses the
                // rejoin observation, not the round that was already measured.
                if let Err(why) = exec.rejoin() {
                    eprintln!("perf: {why}");
                }
                continue;
            }
        }
        applied.completed += 1;
    }
    Ok(())
}

/// Run one round: `prepare` off the clock, `timed` on it, validation of every returned
/// payload after the clock stops, then `cleanup`. Timings of non-warm-up rounds go
/// into `out`. `Err` means a payload came back wrong — a benchmark failure, not a
/// failed operation.
pub fn run_round<E: Executor>(
    exec: &mut E,
    round: &Round,
    inputs: &Inputs,
    detail: bool,
    out: &mut Samples,
    tally: &mut Tally,
) -> Result<(), String> {
    let total = calls(&round.prepare) + calls(&round.timed) + calls(&round.cleanup);
    tally.attempted += total;
    exec.begin_round(round);
    let (mut untimed, mut timed) = (Applied::default(), Applied::default());

    let mut result = apply(exec, &round.prepare, inputs, &mut untimed);
    let before = detail.then(proc_snapshot);
    let (cpu0, t0) = (cpu_times_ms(), exec.clock_ms());
    if result.is_ok() {
        result = apply(exec, &round.timed, inputs, &mut timed);
    }
    let (cpu1, t1) = (cpu_times_ms(), exec.clock_ms());
    let after = detail.then(proc_snapshot);

    for check in untimed.checks.iter().chain(&timed.checks) {
        if !inputs.matches(check.expect, &check.got) {
            return Err(format!(
                "round {}: node {} got {} bytes that are not {:?}",
                round.id,
                check.node,
                check.got.len(),
                check.expect
            ));
        }
    }
    let timed_bytes: u64 = timed.checks.iter().map(|c| c.got.len()).sum();
    untimed.checks.clear();
    timed.checks.clear();

    if result.is_ok() {
        result = apply(exec, &round.cleanup, inputs, &mut untimed);
    }
    exec.end_round();
    if let Err(why) = result {
        eprintln!("perf: round {} failed: {why}", round.id);
        // The failed call and every call skipped after it.
        tally.failed += total - untimed.completed - timed.completed;
        return Ok(());
    }
    if round.warmup {
        return Ok(());
    }
    match round.kind {
        RoundKind::ReduceOnly => out.push("reduce_ms", t1 - t0),
        RoundKind::Main => {
            out.push("round_ms", t1 - t0);
            out.push("timed_start_ms", t0);
            out.push("timed_end_ms", t1);
            out.push("bytes", timed_bytes as f64);
            out.push("cpu_user_ms", cpu1.0 - cpu0.0);
            out.push("cpu_sys_ms", cpu1.1 - cpu0.1);
            for us in timed.get_us {
                out.push("get_us", us);
            }
            if let (Some(before), Some(after)) = (before, after) {
                out.push("ctx_switches", after.ctx_switches - before.ctx_switches);
                out.push("threads", after.threads);
            }
        }
    }
    Ok(())
}

/// One Get to run on a waiter thread.
struct GetJob {
    client: HopliteClient,
    object: ObjectId,
}

/// A finished [`GetJob`].
struct GetDone {
    node: usize,
    result: Result<Payload, String>,
    start: Instant,
    end: Instant,
}

/// A thread that does nothing but block in `get` for the coordinating thread
/// (`HopliteClient` is blocking-only, so concurrent Gets need one caller each).
struct Waiter {
    jobs: Option<mpsc::Sender<GetJob>>,
    thread: Option<JoinHandle<()>>,
}

impl Waiter {
    fn spawn(node: usize, done: mpsc::Sender<GetDone>) -> Waiter {
        let (jobs, rx) = mpsc::channel::<GetJob>();
        let thread = thread::Builder::new()
            .name(format!("perf-waiter-{node}"))
            .spawn(move || {
                for job in rx {
                    let start = Instant::now();
                    let result = job.client.get(job.object).map_err(|e| e.to_string());
                    let end = Instant::now();
                    if done.send(GetDone { node, result, start, end }).is_err() {
                        return;
                    }
                }
            })
            .expect("spawn waiter thread");
        Waiter { jobs: Some(jobs), thread: Some(thread) }
    }
}

/// Executes steps on a real [`LocalCluster`] through [`HopliteClient`] only.
pub struct ClusterExec {
    cluster: LocalCluster,
    clients: Vec<HopliteClient>,
    waiters: Vec<Waiter>,
    done: mpsc::Receiver<GetDone>,
    epoch: Instant,
    killed: Option<usize>,
    /// Observations of warm-up rounds are not kept.
    recording: bool,
    /// A waiter is stuck in a Get that timed out: its thread can never be joined.
    hung: bool,
    /// Span log of a traced run.
    pub spans: Option<SpanLog>,
    round_span: Option<(SpanId, u32)>,
    round_counters: Option<[f64; 4]>,
    /// Observations only this backend can make (failover gap, rejoin time, transport
    /// counters per round).
    pub extra: Samples,
}

impl ClusterExec {
    /// Start `shape.n` nodes over `fabric` and one waiter thread per node.
    pub fn start(shape: &Shape, fabric: LocalFabric, traced: bool) -> ClusterExec {
        let cluster = LocalCluster::with_fabric(shape.n, shape.cfg.clone(), fabric);
        let clients = (0..shape.n).map(|i| cluster.client(i)).collect();
        let (done_tx, done) = mpsc::channel();
        let waiters = (0..shape.n).map(|i| Waiter::spawn(i, done_tx.clone())).collect();
        ClusterExec {
            cluster,
            clients,
            waiters,
            done,
            epoch: Instant::now(),
            killed: None,
            recording: false,
            hung: false,
            spans: traced.then(SpanLog::new),
            round_span: None,
            round_counters: None,
            extra: Samples::default(),
        }
    }

    /// `true` once a call has timed out; the process must then exit without unwinding
    /// (the stuck waiter cannot be joined).
    pub fn hung(&self) -> bool {
        self.hung
    }

    fn observe(&mut self, name: &str, value: f64) {
        if self.recording {
            self.extra.push(name, value);
        }
    }

    /// Time one synchronous client call and, in a traced run, record it as a span.
    fn call<T>(
        &mut self,
        name: &'static str,
        node: usize,
        f: impl FnOnce(&HopliteClient) -> Result<T, HopliteError>,
    ) -> (Result<T, String>, f64) {
        let start = Instant::now();
        let result = f(&self.clients[node]).map_err(|e| e.to_string());
        let end = Instant::now();
        self.span(name, node, start, end);
        (result, (end - start).as_secs_f64() * 1e6)
    }

    fn span(&mut self, name: &'static str, node: usize, start: Instant, end: Instant) {
        if let (Some(log), Some((parent, trace))) = (self.spans.as_mut(), self.round_span) {
            let (start, end) = (log.ns_of(start), log.ns_of(end));
            log.record(name, Some(parent), trace, Some(node), start, end);
        }
    }

    /// Cluster-wide counters a traced round reports as deltas: messages sent, data
    /// bytes sent, receive slabs reused, frames corked.
    fn counters(&self) -> [f64; 4] {
        let mut total = NodeMetrics::default();
        for node in 0..self.cluster.len() {
            if let Some(status) = self.cluster.status(node) {
                total.merge(&status.metrics);
            }
        }
        let transport = self.cluster.transport_metrics();
        [
            total.messages_sent as f64,
            total.data_bytes_sent as f64,
            transport.recv_slab_reuse as f64,
            transport.corked_frames_per_write as f64,
        ]
    }

    fn node_metrics(&self, node: usize) -> Option<NodeMetrics> {
        self.cluster.status(node).map(|s| s.metrics)
    }

    /// Hand a Get to `node`'s waiter thread.
    fn dispatch(&self, node: usize, object: ObjectId) {
        let job = GetJob { client: self.clients[node].clone(), object };
        self.waiters[node].jobs.as_ref().expect("waiter alive").send(job).expect("waiter alive");
    }

    /// The failover Get: start it on a waiter, watch the receiver's byte counter from
    /// outside, kill the busier holder at the threshold, and time how long the
    /// receiver's bytes stand still.
    fn get_with_kill(&mut self, node: usize, object: ObjectId, kill: Kill) -> GetOutcome {
        let counters = |exec: &ClusterExec, n: usize| exec.node_metrics(n).unwrap_or_default();
        let received = |exec: &ClusterExec| counters(exec, node).data_bytes_received;
        let before = counters(self, node);
        let base = before.data_bytes_received;
        let sent_base = kill.holders.map(|h| counters(self, h).data_bytes_sent);

        self.dispatch(node, object);
        let poll = Duration::from_micros(500);
        let mut finished = None;
        while finished.is_none() && received(self) - base < kill.after_bytes {
            finished = self.done.recv_timeout(poll).ok();
        }
        let sent_now = kill.holders.map(|h| counters(self, h).data_bytes_sent);
        let victim = if sent_now[0] - sent_base[0] >= sent_now[1] - sent_base[1] {
            kill.holders[0]
        } else {
            kill.holders[1]
        };
        let at_kill = received(self);
        let killed_at = Instant::now();
        self.cluster.kill_node(victim);
        self.killed = Some(victim);
        while finished.is_none() && received(self) - at_kill < kill.resume_bytes {
            finished = self.done.recv_timeout(poll).ok();
        }
        self.observe("gap_ms", killed_at.elapsed().as_secs_f64() * 1e3);
        let done = match finished {
            Some(done) => Ok(done),
            None => self.done.recv_timeout(OP_TIMEOUT),
        };
        let failovers = counters(self, node).broadcast_failovers - before.broadcast_failovers;
        self.observe("failovers", failovers as f64);
        self.finish_get(node, done)
    }

    fn finish_get(
        &mut self,
        node: usize,
        done: Result<GetDone, mpsc::RecvTimeoutError>,
    ) -> GetOutcome {
        match done {
            Ok(done) => {
                self.span("cluster.host.get", done.node, done.start, done.end);
                GetOutcome {
                    node: done.node,
                    result: done.result,
                    micros: (done.end - done.start).as_secs_f64() * 1e6,
                }
            }
            Err(_) => {
                self.hung = true;
                GetOutcome {
                    node,
                    result: Err(format!("get timed out after {OP_TIMEOUT:?}")),
                    micros: OP_TIMEOUT.as_secs_f64() * 1e6,
                }
            }
        }
    }
}

impl Executor for ClusterExec {
    fn put(&mut self, node: usize, object: ObjectId, payload: Payload) -> Result<(), String> {
        self.call("cluster.host.put", node, |c| c.put(object, payload)).0
    }

    fn get(&mut self, nodes: &[usize], object: ObjectId, kill: Option<Kill>) -> Vec<GetOutcome> {
        if let Some(kill) = kill {
            return vec![self.get_with_kill(nodes[0], object, kill)];
        }
        if let [node] = *nodes {
            // A lone Get runs on the coordinating thread: no hand-off in its latency.
            let (result, micros) = self.call("cluster.host.get", node, |c| c.get(object));
            return vec![GetOutcome { node, result, micros }];
        }
        for &node in nodes {
            let job = GetJob { client: self.clients[node].clone(), object };
            self.waiters[node]
                .jobs
                .as_ref()
                .expect("waiter alive")
                .send(job)
                .expect("waiter alive");
        }
        (0..nodes.len())
            .map(|i| {
                let done = self.done.recv_timeout(OP_TIMEOUT);
                self.finish_get(nodes[i], done)
            })
            .collect()
    }

    fn reduce(
        &mut self,
        node: usize,
        target: ObjectId,
        sources: Vec<ObjectId>,
    ) -> Result<(), String> {
        self.call("cluster.host.reduce", node, |c| {
            c.reduce(target, sources, None, ReduceSpec::sum_f32())
        })
        .0
    }

    fn delete(&mut self, node: usize, object: ObjectId) -> Result<(), String> {
        self.call("cluster.host.delete", node, |c| c.delete(object)).0
    }

    fn rejoin(&mut self) -> Result<(), String> {
        let Some(victim) = self.killed.take() else { return Ok(()) };
        let start = Instant::now();
        self.cluster.restart_node(victim);
        while self.cluster.status(victim).is_none_or(|s| s.resyncing) {
            if start.elapsed() > REJOIN_TIMEOUT {
                return Err(format!("node {victim} had not resynced after {REJOIN_TIMEOUT:?}"));
            }
            thread::sleep(Duration::from_micros(500));
        }
        self.observe("rejoin_ms", start.elapsed().as_secs_f64() * 1e3);
        // Clients bound to the old incarnation error out.
        self.clients[victim] = self.cluster.client(victim);
        Ok(())
    }

    fn clock_ms(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e3
    }

    fn begin_round(&mut self, round: &Round) {
        self.recording = !round.warmup;
        let counters = self.spans.is_some().then(|| self.counters());
        if let Some(log) = self.spans.as_mut() {
            self.round_counters = counters;
            self.round_span = Some((log.open("round", None, round.id, None), round.id));
        }
    }

    fn end_round(&mut self) {
        let Some((span, _)) = self.round_span.take() else { return };
        self.spans.as_mut().expect("traced").close(span);
        let (before, after) = (self.round_counters.take().expect("round began"), self.counters());
        let names = ["messages_sent", "data_bytes_sent", "recv_slab_reuse", "corked_frames"];
        for (i, name) in names.into_iter().enumerate() {
            let delta = after[i] - before[i];
            self.spans.as_mut().expect("traced").attr(span, name, delta);
            self.observe(name, delta);
        }
    }
}

impl Drop for ClusterExec {
    fn drop(&mut self) {
        for waiter in &mut self.waiters {
            waiter.jobs = None;
            if let (false, Some(thread)) = (self.hung, waiter.thread.take()) {
                let _ = thread.join();
            }
        }
    }
}
