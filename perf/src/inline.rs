//! The traced replay: `n` [`NodeRuntime`]s on one thread, one FIFO of
//! `(from, to, Message)`, and a [`DriverPort`] that enqueues — the pattern of
//! `driver::tests::two_runtimes_complete_a_get_through_their_ports`, with real
//! payloads and the same op script the real cluster runs.
//!
//! With no sockets and no threads, what a round costs here is the engines' own CPU.
//! A span is recorded around **every `NodeRuntime::handle` call**, named after the
//! layer that owns the event, with the span whose effect enqueued the message as its
//! parent. In codec mode every message additionally crosses the wire format
//! (vectored encode → in-memory pipe → `FrameReader` decode) under a
//! `transport.framing` span, so the difference between the two modes is the framing
//! layer's share. All counts and busy times are derived from the span log afterwards.

use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::io::Read;
use std::rc::Rc;

use bytes::Bytes;
use hoplite_cluster::{DriverPort, NodeEvent, NodeRuntime};
use hoplite_core::prelude::*;
// The prelude's one-parameter `Result` alias would shadow this.
use hoplite_transport::framing::{encode_frame_vectored, FrameReader};
use std::result::Result;

use crate::exec::{Executor, GetOutcome};
use crate::gen::{Kill, Round, Shape};
use crate::spans::{SpanId, SpanLog};

/// The layer that handles `msg`, by message kind.
pub fn layer_of(msg: &Message) -> &'static str {
    use Message::*;
    match msg {
        DirRegister { .. }
        | DirPutInline { .. }
        | DirUnregister { .. }
        | DirQuery { .. }
        | DirQueryReply { .. }
        | DirSubscribe { .. }
        | DirUnsubscribe { .. }
        | DirPublish { .. }
        | DirTransferDone { .. }
        | DirDelete { .. }
        | DirReplicate { .. }
        | DirAck { .. }
        | DirSnapshotRequest { .. }
        | DirSnapshot { .. }
        | DirSnapshotChunk { .. }
        | DirResyncDelta { .. }
        | DirResynced { .. }
        | DirConfirm { .. } => "core.directory",
        PullRequest { .. } | PullCancel { .. } | PushBlock { .. } | PullError { .. } => {
            "core.node.broadcast"
        }
        ReduceInstruction(_) | ReduceBlock { .. } | ReduceDone { .. } | ReduceRelease { .. } => {
            "core.node.reduce"
        }
        StoreRelease { .. }
        | PeerFailureNotice { .. }
        | MembershipDigest { .. }
        | Ping { .. }
        | Ack { .. }
        | PingReq { .. }
        | Hello { .. } => "core.node",
    }
}

/// A message in flight, tagged with the span that sent it.
struct Envelope {
    from: NodeId,
    to: NodeId,
    msg: Message,
    cause: SpanId,
}

/// [`DriverPort`] that enqueues. Timers are dropped: at default configuration the
/// only one armed is the 30 s lease-expiry tick, which no round depends on.
struct Port<'a> {
    me: NodeId,
    cause: SpanId,
    queue: &'a mut VecDeque<Envelope>,
    replies: &'a mut Vec<(OpId, ClientReply)>,
}

impl DriverPort for Port<'_> {
    fn send(&mut self, to: NodeId, msg: Message) {
        self.queue.push_back(Envelope { from: self.me, to, msg, cause: self.cause });
    }

    fn reply(&mut self, op: OpId, reply: ClientReply) {
        self.replies.push((op, reply));
    }

    fn set_timer(&mut self, _token: TimerToken, _delay: Duration) {}
}

/// The byte stream of one directed edge: frame parts go in by reference, the
/// `FrameReader` copies them out into its slab exactly once, as the kernel would.
#[derive(Clone, Default)]
struct Pipe(Rc<RefCell<VecDeque<Bytes>>>);

impl Read for Pipe {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let mut parts = self.0.borrow_mut();
        let mut written = 0;
        while written < buf.len() {
            let Some(front) = parts.front_mut() else { break };
            let take = front.len().min(buf.len() - written);
            buf[written..written + take].copy_from_slice(&front[..take]);
            written += take;
            if take == front.len() {
                parts.pop_front();
            } else {
                *front = front.slice(take..);
            }
        }
        Ok(written)
    }
}

/// The wires of codec mode, keyed by `(from, to)`: the writing end and the reader.
type Wires = HashMap<(u32, u32), (Pipe, FrameReader<Pipe>)>;

/// A Get submitted and not yet answered.
struct PendingGet {
    node: usize,
    start_ns: u64,
}

/// The single-threaded backend.
pub struct InlineDriver {
    runtimes: Vec<NodeRuntime>,
    queue: VecDeque<Envelope>,
    replies: Vec<(OpId, ClientReply)>,
    /// Per-edge wire, present in codec mode.
    edges: Option<Wires>,
    next_op: u64,
    round: (Option<SpanId>, u32),
    /// Every span of the replay.
    pub log: SpanLog,
}

impl InlineDriver {
    /// `shape.n` fresh nodes holding real bytes. `codec` routes every message through
    /// the wire format.
    pub fn new(shape: &Shape, codec: bool) -> InlineDriver {
        let view = ClusterView::of_size(shape.n);
        let runtimes = view
            .nodes
            .iter()
            .map(|&id| {
                let opts =
                    NodeOptions { synthetic_data: false, pipelined_put: false, incarnation: 0 };
                NodeRuntime::new(ObjectStoreNode::new(id, shape.cfg.clone(), view.clone(), opts))
            })
            .collect();
        InlineDriver {
            runtimes,
            queue: VecDeque::new(),
            replies: Vec::new(),
            edges: codec.then(HashMap::new),
            next_op: 1,
            round: (None, 0),
            log: SpanLog::new(),
        }
    }

    /// Feed `event` to `node` under a new span and return the span.
    fn handle(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        node: usize,
        event: NodeEvent,
    ) -> SpanId {
        let span = self.log.open(name, parent, self.round.1, Some(node));
        let mut port = Port {
            me: NodeId(node as u32),
            cause: span,
            queue: &mut self.queue,
            replies: &mut self.replies,
        };
        self.runtimes[node].handle(Time(self.log.now_ns()), event, &mut port);
        self.log.close(span);
        span
    }

    /// Submit a client operation on `node`.
    fn submit(&mut self, node: usize, request: ClientOp) -> OpId {
        let op = OpId(self.next_op);
        self.next_op += 1;
        self.handle("core.node.client", self.round.0, node, NodeEvent::Client { op, request });
        op
    }

    /// Encode `msg`, push it through the edge's pipe and decode it on the far side.
    fn across_the_wire(&mut self, env: Envelope) -> Result<Envelope, String> {
        let Some(edges) = self.edges.as_mut() else { return Ok(env) };
        let span = self.log.open("transport.framing", Some(env.cause), self.round.1, None);
        let frame = encode_frame_vectored(&env.msg).map_err(|e| e.to_string())?;
        let (pipe, reader) = edges.entry((env.from.0, env.to.0)).or_insert_with(|| {
            let pipe = Pipe::default();
            (pipe.clone(), FrameReader::new(pipe))
        });
        pipe.0.borrow_mut().extend(frame.parts().cloned());
        let msg = reader.read_message().map_err(|e| e.to_string())?;
        self.log.close(span);
        self.log.attr(span, "frame_bytes", frame.frame_len() as f64);
        Ok(Envelope { msg, cause: span, ..env })
    }

    /// Deliver the oldest queued message; `false` when there is none.
    fn step(&mut self) -> Result<bool, String> {
        let Some(env) = self.queue.pop_front() else { return Ok(false) };
        let env = self.across_the_wire(env)?;
        let name = layer_of(&env.msg);
        let replicate = matches!(env.msg, Message::DirReplicate { .. });
        let event = NodeEvent::Message { from: env.from, msg: env.msg };
        let span = self.handle(name, Some(env.cause), env.to.index(), event);
        if replicate {
            self.log.attr(span, "dir_replicate", 1.0);
        }
        Ok(true)
    }

    /// Deliver queued messages until none is left.
    fn drain(&mut self) -> Result<(), String> {
        while self.step()? {}
        Ok(())
    }

    /// Take the reply to `op` out of what the nodes have answered so far.
    fn take_reply(&mut self, op: OpId) -> Result<ClientReply, String> {
        let replies = std::mem::take(&mut self.replies);
        match replies.into_iter().find(|(id, _)| *id == op) {
            Some((_, ClientReply::Error { error })) => Err(error.to_string()),
            Some((_, reply)) => Ok(reply),
            None => Err(format!("{op:?} got no reply before the cluster went quiet")),
        }
    }

    /// Drain, then take the reply to `op`.
    fn finish(&mut self, op: OpId) -> Result<ClientReply, String> {
        self.drain()?;
        self.take_reply(op)
    }
}

impl Executor for InlineDriver {
    fn put(&mut self, node: usize, object: ObjectId, payload: Payload) -> Result<(), String> {
        let op = self.submit(node, ClientOp::Put { object, payload });
        self.finish(op).map(|_| ())
    }

    fn get(&mut self, nodes: &[usize], object: ObjectId, _kill: Option<Kill>) -> Vec<GetOutcome> {
        // The failover workload replays here without its kill: what is measured is
        // the engines' cost of the transfer, not of the failure.
        let mut pending: HashMap<OpId, PendingGet> = HashMap::new();
        for &node in nodes {
            let start_ns = self.log.now_ns();
            let op = self.submit(node, ClientOp::Get { object });
            pending.insert(op, PendingGet { node, start_ns });
        }
        let mut outcomes = Vec::new();
        let mut failure = None;
        loop {
            for (op, reply) in std::mem::take(&mut self.replies) {
                let Some(get) = pending.remove(&op) else { continue };
                let result = match reply {
                    ClientReply::GetDone { payload, .. } => Ok(payload),
                    ClientReply::Error { error } => Err(error.to_string()),
                    other => Err(format!("unexpected reply to a Get: {other:?}")),
                };
                let micros = (self.log.now_ns() - get.start_ns) as f64 / 1e3;
                outcomes.push(GetOutcome { node: get.node, result, micros });
            }
            // One message at a time, so each Get's latency ends when its reply appears.
            match self.step() {
                Ok(true) => {}
                Ok(false) => break,
                Err(why) => {
                    failure = Some(why);
                    break;
                }
            }
        }
        for (_, get) in pending {
            let why = failure.clone().unwrap_or_else(|| "cluster went quiet first".to_string());
            outcomes.push(GetOutcome { node: get.node, result: Err(why), micros: 0.0 });
        }
        outcomes
    }

    fn reduce(
        &mut self,
        node: usize,
        target: ObjectId,
        sources: Vec<ObjectId>,
    ) -> Result<(), String> {
        let spec = ReduceSpec::sum_f32();
        let request = ClientOp::Reduce { target, sources, num_objects: None, spec, degree: None };
        let op = self.submit(node, request);
        // `ReduceAccepted` is immediate; the tree's traffic drains with the Get that
        // follows, as it overlaps with it on the real cluster.
        self.take_reply(op).map(|_| ())
    }

    fn delete(&mut self, node: usize, object: ObjectId) -> Result<(), String> {
        let op = self.submit(node, ClientOp::Delete { object });
        self.finish(op).map(|_| ())
    }

    fn rejoin(&mut self) -> Result<(), String> {
        Ok(())
    }

    fn clock_ms(&self) -> f64 {
        self.log.now_ns() as f64 / 1e6
    }

    fn begin_round(&mut self, round: &Round) {
        self.round = (Some(self.log.open("round", None, round.id, None)), round.id);
    }

    fn end_round(&mut self) {
        if let Some(span) = self.round.0.take() {
            self.log.close(span);
        }
    }
}
