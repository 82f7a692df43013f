//! The adapter that runs a [`hoplite_core::node::ObjectStoreNode`] as a simulator
//! actor, by plugging the shared [`NodeRuntime`] into the discrete-event engine: sim
//! callbacks become [`NodeEvent`]s, and effects route through a [`DriverPort`] that
//! speaks [`SimContext`].

use std::collections::HashMap;

use hoplite_core::prelude::*;
use hoplite_simnet::prelude::*;

use crate::driver::{DriverPort, NodeEvent, NodeRuntime};

/// Record of one completed client operation.
#[derive(Clone, Debug)]
pub struct Completion {
    /// When the reply was produced (simulated time).
    pub at: SimTime,
    /// The reply itself.
    pub reply: ClientReply,
}

/// A simulator actor hosting one Hoplite object-store node.
///
/// The actor keeps the ingredients to rebuild its node: when the simulator recovers
/// a failed node it calls [`SimActor::on_start`] again, and the actor models a real
/// process restart — a fresh, empty [`ObjectStoreNode`] at the next incarnation,
/// which [`NodeEvent::Started`] puts into directory recovery (snapshot requests,
/// catch-up, `DirResynced` announcement).
pub struct HopliteActor {
    id: NodeId,
    cfg: HopliteConfig,
    cluster: ClusterView,
    opts: NodeOptions,
    runtime: NodeRuntime,
    completions: HashMap<OpId, Vec<Completion>>,
    booted: bool,
}

/// [`DriverPort`] implementation over a simulation callback context.
struct SimPort<'a, 'b> {
    ctx: &'a mut SimContext<'b, Message>,
    completions: &'a mut HashMap<OpId, Vec<Completion>>,
}

impl DriverPort for SimPort<'_, '_> {
    fn send(&mut self, to: NodeId, msg: Message) {
        let bytes = msg.wire_size();
        self.ctx.send(to.index(), msg, bytes);
    }

    fn reply(&mut self, op: OpId, reply: ClientReply) {
        self.completions.entry(op).or_default().push(Completion { at: self.ctx.now(), reply });
    }

    fn set_timer(&mut self, token: TimerToken, delay: Duration) {
        self.ctx.set_timer(SimDuration::from_nanos(delay.as_nanos()), token.0);
    }
}

impl HopliteActor {
    /// Build the actor (and its initial node) from the node's construction parts.
    pub fn new(id: NodeId, cfg: HopliteConfig, cluster: ClusterView, opts: NodeOptions) -> Self {
        let node = ObjectStoreNode::new(id, cfg.clone(), cluster.clone(), opts.clone());
        HopliteActor {
            id,
            cfg,
            cluster,
            opts,
            runtime: NodeRuntime::new(node),
            completions: HashMap::new(),
            booted: false,
        }
    }

    /// Submit a client operation (called from an external simulation event).
    pub fn submit(&mut self, op_id: OpId, op: ClientOp, ctx: &mut SimContext<'_, Message>) {
        self.drive(NodeEvent::Client { op: op_id, request: op }, ctx);
    }

    /// All replies recorded for an operation (most ops produce exactly one; `Reduce`
    /// produces `ReduceAccepted` followed by `ReduceComplete`).
    pub fn completions(&self, op: OpId) -> &[Completion] {
        self.completions.get(&op).map(|v| v.as_slice()).unwrap_or(&[])
    }

    /// The underlying node (metrics, store inspection).
    pub fn node(&self) -> &ObjectStoreNode {
        self.runtime.node()
    }

    fn drive(&mut self, event: NodeEvent, ctx: &mut SimContext<'_, Message>) {
        let now = Time(ctx.now().as_nanos());
        let mut port = SimPort { ctx, completions: &mut self.completions };
        self.runtime.handle(now, event, &mut port);
    }
}

impl SimActor for HopliteActor {
    type Msg = Message;

    fn on_start(&mut self, ctx: &mut SimContext<'_, Message>) {
        if self.booted {
            // Recovery restart: model a fresh process — empty store, empty directory
            // replicas — at the next incarnation, so it resyncs before leading any
            // shard again and stale failure notices about the old one cannot re-park
            // it. A cold boot keeps the node constructed in `new`.
            self.opts.incarnation += 1;
            let node = ObjectStoreNode::new(
                self.id,
                self.cfg.clone(),
                self.cluster.clone(),
                self.opts.clone(),
            );
            self.runtime = NodeRuntime::new(node);
        }
        self.booted = true;
        self.drive(NodeEvent::Started, ctx);
    }

    fn on_message(&mut self, from: usize, msg: Message, ctx: &mut SimContext<'_, Message>) {
        self.drive(NodeEvent::Message { from: NodeId(from as u32), msg }, ctx);
    }

    fn on_timer(&mut self, token: u64, ctx: &mut SimContext<'_, Message>) {
        self.drive(NodeEvent::Timer(TimerToken(token)), ctx);
    }

    /// The verdict reaches the node as the frame a supervisor relays, from the node
    /// itself: a `PeerFailureNotice` naming the incarnation that died.
    fn on_peer_failed(&mut self, peer: usize, incarnation: u64, ctx: &mut SimContext<'_, Message>) {
        let msg = Message::PeerFailureNotice { node: NodeId(peer as u32), incarnation };
        self.drive(NodeEvent::Message { from: self.id, msg }, ctx);
    }
}
