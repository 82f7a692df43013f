//! One hosted Hoplite node: the event-loop thread every real-byte deployment shares.
//!
//! [`NodeHost`] owns a node's unified event queue and its OS thread. The same host
//! runs a node whether it is one of many inside a [`crate::local::LocalCluster`]
//! process or the single node of a `hoplited` daemon: fabric messages are forwarded
//! into the queue by a small pump thread, client commands and failure notices are
//! enqueued directly, timers live in a local deadline heap serviced with
//! `recv_timeout`, and status queries ([`NodeStatus`]) are answered inline by the
//! loop between events.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration as StdDuration, Instant};

use crossbeam_channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use hoplite_core::prelude::*;
use hoplite_transport::fabric::FabricSender;

use crate::driver::{DriverPort, NodeEvent, NodeRuntime};

/// Commands delivered to a node's event loop besides fabric messages.
enum NodeCommand {
    Client { op_id: OpId, op: ClientOp, reply: Sender<ClientReply> },
    PeerFailed(NodeId),
    PeerRecovered(NodeId),
    Status { reply: Sender<NodeStatus> },
    Shutdown,
}

/// Everything a node's unified event queue can carry.
enum LoopEvent {
    Fabric(NodeId, Message),
    Command(NodeCommand),
}

/// A point-in-time snapshot of a hosted node, answered by its event loop.
#[derive(Clone, Debug)]
pub struct NodeStatus {
    /// The node's id.
    pub node: NodeId,
    /// The incarnation this process runs at (0 for a cold boot, bumped per restart).
    pub incarnation: u64,
    /// `true` while any directory shard replica on this node is still resyncing.
    pub resyncing: bool,
    /// The node's counters.
    pub metrics: NodeMetrics,
}

/// Blocking client bound to one hosted node.
#[derive(Clone)]
pub struct HopliteClient {
    node: NodeId,
    events: Sender<LoopEvent>,
    next_op: Arc<AtomicU64>,
}

impl HopliteClient {
    /// The node this client talks to.
    pub fn node(&self) -> NodeId {
        self.node
    }

    fn submit(&self, op: ClientOp) -> Receiver<ClientReply> {
        let (tx, rx) = unbounded();
        let op_id = OpId(self.next_op.fetch_add(1, Ordering::Relaxed));
        // A send failure means the node was shut down; the disconnected receiver will
        // surface that as an error to the caller below.
        let _ = self.events.send(LoopEvent::Command(NodeCommand::Client { op_id, op, reply: tx }));
        rx
    }

    fn wait<F: Fn(&ClientReply) -> bool>(
        rx: Receiver<ClientReply>,
        accept: F,
    ) -> Result<ClientReply> {
        loop {
            match rx.recv() {
                Ok(ClientReply::Error { error }) => return Err(error),
                Ok(reply) if accept(&reply) => return Ok(reply),
                Ok(_) => continue,
                Err(_) => {
                    return Err(HopliteError::Transport("node shut down".to_string()));
                }
            }
        }
    }

    /// Store an object (Table 1 `Put`): blocks until the local store holds it.
    pub fn put(&self, object: ObjectId, payload: Payload) -> Result<()> {
        Self::wait(self.submit(ClientOp::Put { object, payload }), |r| {
            matches!(r, ClientReply::PutDone { .. })
        })
        .map(|_| ())
    }

    /// Fetch an object (Table 1 `Get`): blocks until a complete copy is local. An
    /// object larger than one block comes back as [`Payload::Segments`] — the blocks
    /// as received, not copied; [`Payload::to_owned_vec`] makes one flat buffer.
    pub fn get(&self, object: ObjectId) -> Result<Payload> {
        match Self::wait(self.submit(ClientOp::Get { object }), |r| {
            matches!(r, ClientReply::GetDone { .. })
        })? {
            ClientReply::GetDone { payload, .. } => Ok(payload),
            _ => unreachable!("wait() only accepts GetDone"),
        }
    }

    /// Reduce `num_objects` of `sources` into `target` (Table 1 `Reduce`); returns once
    /// the reduce has been accepted. Combine with [`HopliteClient::get`] on the target
    /// to obtain the result (that is also how the paper measures reduce latency).
    pub fn reduce(
        &self,
        target: ObjectId,
        sources: Vec<ObjectId>,
        num_objects: Option<usize>,
        spec: ReduceSpec,
    ) -> Result<()> {
        Self::wait(
            self.submit(ClientOp::Reduce { target, sources, num_objects, spec, degree: None }),
            |r| matches!(r, ClientReply::ReduceAccepted { .. }),
        )
        .map(|_| ())
    }

    /// Delete every copy of an object cluster-wide (Table 1 `Delete`).
    pub fn delete(&self, object: ObjectId) -> Result<()> {
        Self::wait(self.submit(ClientOp::Delete { object }), |r| {
            matches!(r, ClientReply::DeleteDone { .. })
        })
        .map(|_| ())
    }
}

/// One node's event-loop thread plus the handles to talk to it.
pub struct NodeHost {
    id: NodeId,
    events: Sender<LoopEvent>,
    next_op: Arc<AtomicU64>,
    handle: Option<JoinHandle<()>>,
}

impl NodeHost {
    /// Spawn the pump + event-loop threads for `node`. `recovering` selects whether
    /// the node starts cold or as a restarted process that must resync its directory
    /// replicas before leading again. `next_op` is the op-id source shared by every
    /// client of this process (clusters share one across all their hosts).
    pub fn spawn<S: FabricSender>(
        node: ObjectStoreNode,
        rx_fabric: Receiver<(NodeId, Message)>,
        fabric_tx: S,
        recovering: bool,
        next_op: Arc<AtomicU64>,
    ) -> NodeHost {
        let id = node.id();
        let (events_tx, events_rx) = unbounded();
        // Pump fabric messages into the unified event queue; exits when either the
        // fabric or the node loop goes away.
        let pump_tx = events_tx.clone();
        thread::Builder::new()
            .name(format!("hoplite-fabric-pump-{}", id.0))
            .spawn(move || {
                for (from, msg) in rx_fabric.iter() {
                    if pump_tx.send(LoopEvent::Fabric(from, msg)).is_err() {
                        return;
                    }
                }
            })
            .expect("spawn fabric pump thread");
        let handle = thread::Builder::new()
            .name(format!("hoplite-node-{}", id.0))
            .spawn(move || node_event_loop(node, events_rx, fabric_tx, recovering))
            .expect("spawn node thread");
        NodeHost { id, events: events_tx, next_op, handle: Some(handle) }
    }

    /// The hosted node's id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// `true` while the event-loop thread is running (not yet shut down).
    pub fn is_running(&self) -> bool {
        self.handle.is_some()
    }

    /// A blocking client bound to this node.
    pub fn client(&self) -> HopliteClient {
        HopliteClient { node: self.id, events: self.events.clone(), next_op: self.next_op.clone() }
    }

    /// Ask the event loop for a status snapshot. `None` if the node shut down.
    pub fn status(&self) -> Option<NodeStatus> {
        let (tx, rx) = unbounded();
        self.events.send(LoopEvent::Command(NodeCommand::Status { reply: tx })).ok()?;
        rx.recv().ok()
    }

    /// Inject a protocol message as if it arrived over the fabric from `from`.
    /// Control servers use this to deliver incarnation-stamped
    /// [`Message::PeerFailureNotice`]s the supervisor relays.
    pub fn inject_message(&self, from: NodeId, msg: Message) {
        let _ = self.events.send(LoopEvent::Fabric(from, msg));
    }

    /// Deliver a failure-detector verdict: `peer` is dead.
    pub fn notify_peer_failed(&self, peer: NodeId) {
        let _ = self.events.send(LoopEvent::Command(NodeCommand::PeerFailed(peer)));
    }

    /// Deliver a failure-detector verdict: `peer` is back.
    pub fn notify_peer_recovered(&self, peer: NodeId) {
        let _ = self.events.send(LoopEvent::Command(NodeCommand::PeerRecovered(peer)));
    }

    /// Stop the event loop and join its thread. Idempotent.
    pub fn shutdown(&mut self) {
        let _ = self.events.send(LoopEvent::Command(NodeCommand::Shutdown));
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for NodeHost {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// [`DriverPort`] over a real fabric: messages go out through the fabric sender,
/// replies to the per-op channels, and timers into the loop's deadline heap.
struct RealPort<'a, S: FabricSender> {
    me: NodeId,
    fabric: &'a S,
    pending_replies: &'a mut HashMap<OpId, Sender<ClientReply>>,
    timers: &'a mut BinaryHeap<Reverse<(Instant, TimerToken)>>,
}

impl<S: FabricSender> DriverPort for RealPort<'_, S> {
    fn send(&mut self, to: NodeId, msg: Message) {
        self.fabric.send(self.me, to, msg);
    }

    fn reply(&mut self, op: OpId, reply: ClientReply) {
        // `ReduceAccepted` is the only non-terminal reply (`ReduceComplete` follows);
        // everything else finishes the op, so its sender can be dropped to keep the
        // map from growing with every operation ever submitted.
        let terminal = !matches!(reply, ClientReply::ReduceAccepted { .. });
        if terminal {
            if let Some(tx) = self.pending_replies.remove(&op) {
                let _ = tx.send(reply);
            }
        } else if let Some(tx) = self.pending_replies.get(&op) {
            let _ = tx.send(reply);
        }
    }

    fn set_timer(&mut self, token: TimerToken, delay: Duration) {
        self.timers.push(Reverse((Instant::now() + delay.to_std(), token)));
    }

    fn peer_down(&mut self, node: NodeId) {
        // The node's own failure machinery (detector verdict, gossiped death,
        // digest) declared `node` dead: tear down cached connections toward it,
        // exactly as when a supervisor-relayed notice arrives over the fabric.
        self.fabric.peer_down(node);
    }
}

fn node_event_loop<S: FabricSender>(
    node: ObjectStoreNode,
    events: Receiver<LoopEvent>,
    fabric_tx: S,
    recovering: bool,
) {
    let epoch = Instant::now();
    let me = node.id();
    let mut runtime = NodeRuntime::new(node);
    let mut pending_replies: HashMap<OpId, Sender<ClientReply>> = HashMap::new();
    let mut timers: BinaryHeap<Reverse<(Instant, TimerToken)>> = BinaryHeap::new();
    // With no timers armed, sleep in generous slices so shutdown stays responsive even
    // if a sender leaks.
    const IDLE_SLICE: StdDuration = StdDuration::from_secs(3600);

    if recovering {
        // First order of business for a restarted node: request directory snapshots
        // so it can be re-admitted to its replica sets.
        let mut port = RealPort {
            me,
            fabric: &fabric_tx,
            pending_replies: &mut pending_replies,
            timers: &mut timers,
        };
        runtime.handle(Time(0), NodeEvent::Restarted, &mut port);
    }
    {
        // Cold boot or restart alike: the loop is live, so arm self-driven
        // machinery (the SWIM probe timer, when a detector is configured).
        let mut port = RealPort {
            me,
            fabric: &fabric_tx,
            pending_replies: &mut pending_replies,
            timers: &mut timers,
        };
        runtime.handle(Time(epoch.elapsed().as_nanos() as u64), NodeEvent::Started, &mut port);
    }

    loop {
        // Fire every due timer first.
        let now_wall = Instant::now();
        while let Some(&Reverse((deadline, token))) = timers.peek() {
            if deadline > now_wall {
                break;
            }
            timers.pop();
            let now = Time(epoch.elapsed().as_nanos() as u64);
            let mut port = RealPort {
                me,
                fabric: &fabric_tx,
                pending_replies: &mut pending_replies,
                timers: &mut timers,
            };
            runtime.handle(now, NodeEvent::Timer(token), &mut port);
        }
        let timeout = timers
            .peek()
            .map(|&Reverse((deadline, _))| deadline.saturating_duration_since(Instant::now()))
            .unwrap_or(IDLE_SLICE);
        let event = match events.recv_timeout(timeout) {
            Ok(LoopEvent::Fabric(from, msg)) => {
                // A failure notice names a dead peer: give the transport its cue to
                // tear down cached connections toward it (writes into a SIGKILLed
                // process's socket can succeed silently, so the transport cannot
                // detect this on its own).
                if let Message::PeerFailureNotice { node: dead, .. } = &msg {
                    fabric_tx.peer_down(*dead);
                }
                NodeEvent::Message { from, msg }
            }
            Ok(LoopEvent::Command(NodeCommand::Client { op_id, op, reply })) => {
                pending_replies.insert(op_id, reply);
                NodeEvent::Client { op: op_id, request: op }
            }
            Ok(LoopEvent::Command(NodeCommand::PeerFailed(peer))) => {
                fabric_tx.peer_down(peer);
                NodeEvent::PeerFailed(peer)
            }
            Ok(LoopEvent::Command(NodeCommand::PeerRecovered(peer))) => {
                NodeEvent::PeerRecovered(peer)
            }
            Ok(LoopEvent::Command(NodeCommand::Status { reply })) => {
                let node = runtime.node();
                let _ = reply.send(NodeStatus {
                    node: me,
                    incarnation: node.incarnation(),
                    resyncing: node.directory_is_resyncing(),
                    metrics: node.metrics().clone(),
                });
                continue;
            }
            Ok(LoopEvent::Command(NodeCommand::Shutdown)) => return,
            Err(RecvTimeoutError::Timeout) => continue,
            Err(RecvTimeoutError::Disconnected) => return,
        };
        let now = Time(epoch.elapsed().as_nanos() as u64);
        let mut port = RealPort {
            me,
            fabric: &fabric_tx,
            pending_replies: &mut pending_replies,
            timers: &mut timers,
        };
        runtime.handle(now, event, &mut port);
    }
}
