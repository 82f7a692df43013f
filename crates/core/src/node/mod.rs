//! The per-node Hoplite state machine.
//!
//! An [`ObjectStoreNode`] is a *facade* over three layered protocol engines plus the
//! directory plane (this node's journal of intent and the replicas it hosts):
//!
//! * [`broadcast`] — the receiver-driven broadcast engine (§3.4.1): in-progress `Get`s,
//!   the pull protocol, outgoing block transfers, and the pipelined `Put` ingest path
//!   (§3.3);
//! * [`reduce`] — the reduce engines (§3.4.2): the coordinator that grows dynamic
//!   d-ary trees from arrival order, and the per-slot participant that accumulates and
//!   streams partially-reduced blocks;
//! * [`failure`] — the failure-adaptation rules (§3.5): broadcast re-pull after sender
//!   loss and the reduce-tree restart at a new epoch.
//!
//! Each engine owns its state and talks to the world exclusively through the shared
//! [`NodeContext`] (identity, config, local store, metrics, loopback queue), emitting
//! [`Effect`]s for the driver to execute. The facade dispatches client operations,
//! protocol messages, timers and peer-failure notifications to the right engine and
//! routes cross-engine follow-ups (an object making local progress wakes both the
//! broadcast forwarding path and any reduce participants consuming it).
//!
//! **Liveness has one table and one writer.** What this node believes about each
//! peer — incarnation, alive / suspect / dead, readmitted or not — is one
//! [`crate::membership::MembershipView`], kept inside the directory's placement view,
//! which routes by it, and nothing else. Every piece of evidence, whatever carried it
//! (`PeerFailureNotice`, `Hello`, `DirResynced`, a digest, gossip, the detector's own
//! verdict, a restart-flagged snapshot request), enters through
//! `ObjectStoreNode::liveness`, which reads off the claims it makes, hands them to the
//! directory service's one liveness entry point, and runs the §3.5 failure rules once
//! per death that reports; its doc comment is the table of *evidence → claims*. The
//! SWIM detector ([`crate::detector`]) only probes: it reads the table and hands its
//! verdicts to the same function.
//!
//! **The directory seam is declared once.** Every directory op leaves the node
//! through `NodeContext::dir`, which journals it in the node's
//! [`DirectoryClient`] and sends it to the shard's primary; every server-side
//! directory frame enters [`DirectoryService::handle`]. What the node keeps of the
//! directory plane is its own: the liveness evidence a resync request or a
//! `DirResynced` carries (folded in before the request is served), the digest teaching
//! a restarted requester, and the replies addressed to its client side (`DirConfirm`,
//! `DirQueryReply`, `DirPublish`).
//!
//! The node is entirely sans-IO: the same state machine runs unchanged under the
//! discrete-event simulator (cluster scale, synthetic payloads) and over the real
//! in-process / TCP transports (real bytes, real reductions), driven by the shared
//! `NodeRuntime` in `hoplite-cluster`.

mod broadcast;
mod coordinator;
mod failure;
mod reduce;
#[cfg(test)]
mod tests;

use std::collections::VecDeque;

use crate::buffer::SlabPool;
use crate::config::HopliteConfig;
use crate::detector::{DetectorAction, FailureDetector, GossipEntry, GossipState};
use crate::directory::service::resync_frame;
use crate::directory::shard::LEASE_TTL;
use crate::directory::{DirectoryClient, DirectoryPlacement, DirectoryService};
use crate::membership::{MemberDigestEntry, MembershipView, Transition};
use crate::metrics::NodeMetrics;
use crate::object::{NodeId, ObjectId, ObjectStatus};
use crate::protocol::{ClientOp, DirOp, Effect, Message, OpId, TimerToken};
use crate::store::LocalStore;
use crate::time::{Duration, Time};

use broadcast::BroadcastEngine;
use reduce::{ReduceEngine, ReduceEvent};

/// Protocol-level debug tracing, enabled by setting `HOPLITE_TRACE=1` in the
/// environment. Used to diagnose message-ordering races; costs one cached boolean
/// check per site when disabled.
macro_rules! trace {
    ($($t:tt)*) => {
        if $crate::node::trace_enabled() {
            eprintln!($($t)*);
        }
    };
}
pub(crate) use trace;

/// Whether `HOPLITE_TRACE` tracing is on (computed once per process).
pub(crate) fn trace_enabled() -> bool {
    static ENABLED: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *ENABLED.get_or_init(|| std::env::var_os("HOPLITE_TRACE").is_some())
}

/// Static description of the cluster shared by every node: the node set and the
/// directory sharding function.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ClusterView {
    /// All node ids, in index order.
    pub nodes: Vec<NodeId>,
}

impl ClusterView {
    /// A cluster of `n` nodes numbered `0..n`.
    pub fn of_size(n: usize) -> ClusterView {
        ClusterView { nodes: (0..n as u32).map(NodeId).collect() }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` for an empty cluster (never used in practice).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The node that *initially* hosts the primary of the directory shard responsible
    /// for `object` (§3.2: a sharded hash table, one shard per node, placed by
    /// [`DirectoryPlacement::shard_index`], which reads the whole id). With
    /// replication (§3.5) the primary can move to a backup after a failure; live
    /// routing reads the node's [`crate::directory::PlacementView`], whose placement
    /// this asks, so the function stays correct for failure-free placement reasoning.
    pub fn shard_node(&self, object: ObjectId) -> NodeId {
        self.nodes[DirectoryPlacement::shard_index(object, self.nodes.len())]
    }
}

/// Node-level options that are not protocol parameters.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct NodeOptions {
    /// Use length-only payloads (simulator mode).
    pub synthetic_data: bool,
    /// Model the worker→store copy of `Put` as a pipelined, timed copy instead of an
    /// instantaneous one (§3.3). The simulator enables this; real transports complete
    /// the copy inline.
    pub pipelined_put: bool,
    /// This process's incarnation number: 0 on cold boot, bumped by whoever restarts
    /// the process (the simulator, `LocalCluster`, or `hoplitectl`). Carried on
    /// liveness messages so peers can order them against failure notices.
    pub incarnation: u64,
}

/// Shared, engine-agnostic node state: identity, configuration, the local object
/// store, the directory plane (this node's journal of intent and its service half,
/// which owns the one leadership view and the liveness table in it), metrics, and the
/// loopback message queue.
/// Engines receive `&mut NodeContext` with every call and emit [`Effect`]s through it.
pub(crate) struct NodeContext {
    pub(crate) id: NodeId,
    pub(crate) cfg: HopliteConfig,
    pub(crate) opts: NodeOptions,
    pub(crate) store: LocalStore,
    /// Where this node's engines get bulk buffers (reduce accumulators) from.
    pub(crate) pool: SlabPool,
    pub(crate) metrics: NodeMetrics,
    /// This node's journal of directory intent: every op [`NodeContext::dir`] sends
    /// is journaled here first, so a failover can re-drive what was not confirmed.
    pub(crate) directory: DirectoryClient,
    /// The directory server half: this node's shard replicas and its one leadership
    /// view, which holds the node's one liveness table. Every piece of liveness
    /// evidence is applied here, exactly once.
    pub(crate) service: DirectoryService,
    next_query_id: u64,
    next_timer: u64,
    /// Messages this node sent to itself, processed at the end of each handler.
    self_queue: VecDeque<Message>,
}

impl NodeContext {
    /// Send a message, short-circuiting messages addressed to this node through the
    /// internal loopback queue (drained at the end of every public handler) so drivers
    /// never have to route loopback traffic.
    pub(crate) fn send(&mut self, to: NodeId, msg: Message, out: &mut Vec<Effect>) {
        if to == self.id {
            self.self_queue.push_back(msg);
        } else {
            self.metrics.messages_sent += 1;
            if matches!(msg, Message::DirReplicate { .. }) {
                // Replication egress: one per live backup per op.
                self.metrics.directory_replicates_sent += 1;
            }
            out.push(Effect::Send { to, msg });
        }
    }

    /// Send every `(to, msg)` pair the directory service produced.
    pub(crate) fn send_all(&mut self, msgs: Vec<(NodeId, Message)>, out: &mut Vec<Effect>) {
        for (to, msg) in msgs {
            self.send(to, msg, out);
        }
    }

    /// The one way a directory op leaves this node: journal it (what a failover must
    /// re-drive), then send its message form to the current primary of its shard.
    /// With every replica of the shard dead there is no primary: the op is dropped,
    /// exactly as a message to a dead node would be. The believed primary is always a
    /// replica-set member, so a transiently stale answer is corrected by one
    /// server-side forward.
    pub(crate) fn dir(&mut self, op: DirOp, out: &mut Vec<Effect>) {
        self.directory.journal(&op, self.service.view());
        if let Some(primary) = self.service.primary_for(op.object()) {
            self.send(primary, op.into(), out);
        }
    }

    /// A fresh directory-query correlation id.
    pub(crate) fn fresh_query_id(&mut self) -> u64 {
        let id = self.next_query_id;
        self.next_query_id += 1;
        id
    }

    /// A fresh timer token.
    pub(crate) fn fresh_timer(&mut self) -> TimerToken {
        let token = TimerToken(self.next_timer);
        self.next_timer += 1;
        token
    }
}

/// A local-store progress notification routed between engines by the facade: `object`
/// advanced its watermark, and `completed` when it reached its total size.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Progress {
    pub(crate) object: ObjectId,
    pub(crate) completed: bool,
}

impl Progress {
    pub(crate) fn advanced(object: ObjectId) -> Progress {
        Progress { object, completed: false }
    }

    pub(crate) fn completed(object: ObjectId) -> Progress {
        Progress { object, completed: true }
    }
}

/// One piece of liveness evidence, named by what carried it (the table of the claims
/// each makes is on [`ObjectStoreNode::liveness`]).
#[derive(Clone, Copy)]
enum Evidence<'a> {
    /// `PeerFailureNotice { node, incarnation }`: a verdict naming the incarnation that
    /// died, relayed by a driver or a supervisor.
    FailureNotice(NodeId, u64),
    /// `Hello { node, incarnation }` from a (re)connecting peer.
    Hello(NodeId, u64),
    /// `DirResynced { node, incarnation }`: the peer finished its resync.
    Resynced(NodeId, u64),
    /// The entries of a `MembershipDigest`.
    Digest(&'a [MemberDigestEntry]),
    /// The gossip piggybacked on a `Ping` / `Ack` / `PingReq`.
    Gossip(&'a [GossipEntry]),
    /// Suspicions and deaths this node's own detector just reached.
    Verdicts(&'a [GossipEntry]),
    /// A `DirSnapshotRequest`: `digest` is what its sender knows (empty on a gap
    /// catch-up request), its requester's own entry the incarnation it restarted at.
    SnapshotRequest { requester: NodeId, restart: bool, digest: &'a [MemberDigestEntry] },
}

/// The Hoplite state machine for one node: the directory plane (in the shared
/// context) + broadcast engine + reduce engines behind one dispatch facade.
pub struct ObjectStoreNode {
    ctx: NodeContext,
    broadcast: BroadcastEngine,
    reduce: ReduceEngine,
    /// Outstanding bulk-expiry timer for directory leases. Armed lazily — only while
    /// a hosted shard has lease candidates — so a quiet node goes fully quiescent
    /// (the simulator runs until its event queue drains).
    lease_timer: Option<TimerToken>,
    /// The SWIM prober, present iff `HopliteConfig::detector` is set. It reads the
    /// liveness table and owns none of it; this facade turns its probes into wire
    /// messages and its verdicts into evidence like any other.
    detector: Option<FailureDetector>,
    /// Outstanding probe timer for the detector: a single perpetual chain — each
    /// tick re-arms for the detector's next deadline. Armed by
    /// [`ObjectStoreNode::handle_started`] (never on nodes without a detector, so
    /// detector-less sims still go quiescent).
    probe_timer: Option<TimerToken>,
}

impl ObjectStoreNode {
    /// Create a node.
    pub fn new(id: NodeId, cfg: HopliteConfig, cluster: ClusterView, opts: NodeOptions) -> Self {
        let service = DirectoryService::new(id, &cfg, &cluster.nodes, opts.incarnation);
        let store = LocalStore::new(cfg.store_capacity);
        // Deterministic per (node, incarnation): ring shuffles and relay picks
        // replay identically under the simulator.
        let detector_seed = (u64::from(id.0) << 32) ^ opts.incarnation;
        let detector = cfg
            .detector
            .clone()
            .map(|dc| FailureDetector::new(id, cluster.len(), dc, detector_seed, Time::ZERO));
        ObjectStoreNode {
            ctx: NodeContext {
                id,
                cfg,
                opts,
                store,
                pool: SlabPool::new(),
                metrics: NodeMetrics::default(),
                directory: DirectoryClient::default(),
                service,
                next_query_id: 1,
                next_timer: 1,
                self_queue: VecDeque::new(),
            },
            broadcast: BroadcastEngine::default(),
            reduce: ReduceEngine::default(),
            lease_timer: None,
            detector,
            probe_timer: None,
        }
    }

    /// Draw reduce accumulators from `pool` — the process's — not a private one.
    pub fn with_pool(mut self, pool: SlabPool) -> Self {
        self.ctx.pool = pool;
        self
    }

    /// This node's id.
    pub fn id(&self) -> NodeId {
        self.ctx.id
    }

    /// Configuration in effect.
    pub fn config(&self) -> &HopliteConfig {
        &self.ctx.cfg
    }

    /// Metrics counters.
    pub fn metrics(&self) -> &NodeMetrics {
        &self.ctx.metrics
    }

    /// Read-only access to the local store (tests and drivers).
    pub fn store(&self) -> &LocalStore {
        &self.ctx.store
    }

    /// Whether this node currently holds a complete copy of `object`.
    pub fn has_complete(&self, object: ObjectId) -> bool {
        self.ctx.store.is_complete(object)
    }

    /// The node this node currently believes is the primary of `object`'s directory
    /// shard (`None` once every replica of the shard has failed).
    pub fn directory_primary_for(&self, object: ObjectId) -> Option<NodeId> {
        self.ctx.service.primary_for(object)
    }

    /// The primary this node believes each directory shard has, by shard (`None` while
    /// every replica of the shard is dead or resyncing).
    pub fn directory_primaries(&self) -> Vec<Option<NodeId>> {
        let view = self.ctx.service.view();
        (0..view.placement().num_shards()).map(|shard| view.primary(shard)).collect()
    }

    /// Whether this node currently acts as the primary for `object`'s shard.
    pub fn is_directory_primary_for(&self, object: ObjectId) -> bool {
        self.ctx.service.is_primary_for(object)
    }

    /// Object locations recorded in this node's replica of `object`'s shard; `None`
    /// when this node hosts no replica of that shard. Failover tests use this to
    /// assert that no location record was lost with a primary.
    pub fn directory_locations(&self, object: ObjectId) -> Option<Vec<(NodeId, ObjectStatus)>> {
        self.ctx.service.locations(object)
    }

    /// `true` when every reduce-related map on this node is empty (participants,
    /// coordinators, parked early blocks). Reduce-state GC tests assert this after
    /// completion.
    pub fn reduce_state_is_empty(&self) -> bool {
        self.reduce.is_idle()
    }

    /// Number of directory subscriptions this node currently holds open.
    pub fn directory_subscription_count(&self) -> usize {
        self.ctx.directory.subscription_count()
    }

    /// Whether this node is still resyncing its directory replicas after a restart.
    pub fn directory_is_resyncing(&self) -> bool {
        self.ctx.service.is_resyncing()
    }

    /// This process's incarnation number (0 on cold boot, bumped per restart).
    pub fn incarnation(&self) -> u64 {
        self.membership().self_incarnation()
    }

    /// Read access to the node's one liveness table.
    pub fn membership(&self) -> &MembershipView {
        self.ctx.service.view().table()
    }

    /// Journaled directory intents not yet confirmed as replication-durable — the
    /// window a failover would re-drive.
    pub fn directory_unconfirmed_count(&self) -> usize {
        self.ctx.directory.unconfirmed_count()
    }

    // ------------------------------------------------------------------ client ops --

    /// Submit a client operation.
    pub fn handle_client(&mut self, now: Time, op_id: OpId, op: ClientOp, out: &mut Vec<Effect>) {
        match op {
            ClientOp::Put { object, payload } => {
                let progress =
                    self.broadcast.client_put(&mut self.ctx, op_id, object, payload, out);
                self.route_progress(progress, out);
            }
            ClientOp::Get { object } => {
                self.broadcast.client_get(&mut self.ctx, op_id, object, out);
            }
            ClientOp::Reduce { target, sources, num_objects, spec, degree } => {
                self.reduce.client_reduce(
                    &mut self.ctx,
                    op_id,
                    target,
                    sources,
                    num_objects,
                    spec,
                    degree,
                    out,
                );
            }
            ClientOp::Delete { object } => {
                self.ctx.dir(DirOp::Delete { object }, out);
                out.push(Effect::Reply {
                    op: op_id,
                    reply: crate::protocol::ClientReply::DeleteDone { object },
                });
            }
        }
        self.drain_self_queue(now, out);
        self.finish_turn(out);
    }

    /// Deliver a protocol message from `from`.
    pub fn handle_message(&mut self, now: Time, from: NodeId, msg: Message, out: &mut Vec<Effect>) {
        self.dispatch_message(now, from, msg, out);
        self.drain_self_queue(now, out);
        self.finish_turn(out);
    }

    /// Driver signal that this node's event loop is live (cold boot or restart):
    /// arms the failure detector's probe timer, if one is configured. Idempotent —
    /// the single probe-timer chain is never double-armed.
    pub fn handle_started(&mut self, now: Time, out: &mut Vec<Effect>) {
        self.arm_detector_timer(now, out);
        self.drain_self_queue(now, out);
        self.finish_turn(out);
    }

    /// A timer armed via [`Effect::SetTimer`] fired.
    pub fn handle_timer(&mut self, now: Time, token: TimerToken, out: &mut Vec<Effect>) {
        if self.lease_timer == Some(token) {
            self.lease_timer = None;
            self.expiry_tick(out);
        } else if self.probe_timer == Some(token) {
            self.probe_timer = None;
            self.detector_tick(now, out);
        } else if let Some(object) = self.broadcast.put_for_timer(token) {
            let progress = self.broadcast.advance_pipelined_put(&mut self.ctx, object, out);
            self.route_progress(progress, out);
        }
        self.drain_self_queue(now, out);
        self.finish_turn(out);
    }

    // ------------------------------------------------------------------ dispatch --

    fn dispatch_message(&mut self, now: Time, from: NodeId, msg: Message, out: &mut Vec<Effect>) {
        // Directory plane, server side: every frame enters the service through one
        // call. A resync request is first evidence — its digest, and the crash of the
        // requester's last incarnation when it marks a restart, even if no verdict
        // has said so yet — folded in (and its digest answered) before it is served.
        // A request for a shard the cluster does not have goes, its evidence with it.
        if let &Message::DirSnapshotRequest { shard, requester, restart, ref digest, .. } = &msg {
            if self.ctx.service.shard(shard).is_none() {
                return;
            }
            self.liveness(now, Evidence::SnapshotRequest { requester, restart, digest }, out);
            if !digest.is_empty() {
                // Having learned the requester's incarnation, teach it every entry we
                // know strictly newer: the deaths it slept through. After the first
                // round both tables agree and the reply is skipped.
                let newer = self.membership().newer_than(digest);
                if !newer.is_empty() {
                    trace!(
                        "[n{}] teaching restarted {:?} {} membership entries",
                        self.ctx.id.0,
                        requester,
                        newer.len()
                    );
                    self.ctx.send(requester, Message::MembershipDigest { entries: newer }, out);
                }
            }
        }
        let installs_resync = resync_frame(&msg).is_some();
        let mut replies = Vec::new();
        let msg = match self.ctx.service.handle(from, msg, &mut self.ctx.metrics, &mut replies) {
            Some(msg) => msg,
            None => {
                self.ctx.send_all(replies, out);
                if installs_resync {
                    // The last frame of the last stream completes this node's resync.
                    self.maybe_announce_readmission(out);
                }
                return;
            }
        };
        match msg {
            // Taken by the directory service above.
            Message::DirRegister { .. }
            | Message::DirPutInline { .. }
            | Message::DirUnregister { .. }
            | Message::DirQuery { .. }
            | Message::DirSubscribe { .. }
            | Message::DirUnsubscribe { .. }
            | Message::DirTransferDone { .. }
            | Message::DirDelete { .. }
            | Message::DirReplicate { .. }
            | Message::DirAck { .. }
            | Message::DirSnapshotRequest { .. }
            | Message::DirSnapshot { .. }
            | Message::DirSnapshotChunk { .. }
            | Message::DirResyncDelta { .. } => {}
            // This node is re-admitted only by its own resync completing: an
            // announcement naming it is dropped before it can count as evidence or
            // hand it the shards it hosts while its replicas still wait for state.
            Message::DirResynced { node, .. } if node == self.ctx.id => {}
            Message::DirResynced { node, incarnation } => {
                self.liveness(now, Evidence::Resynced(node, incarnation), out);
            }
            Message::DirConfirm { object, kind } => {
                self.ctx.directory.confirm(from, object, kind);
            }
            // Directory replies and publications addressed to this node.
            Message::DirQueryReply { object, query_id, result } => {
                self.broadcast.handle_query_reply(&mut self.ctx, object, query_id, result, out);
            }
            Message::DirPublish { object, holder, status: _, size } => {
                self.reduce.on_dir_publish(&mut self.ctx, object, holder, size, out);
            }
            Message::StoreRelease { object } => {
                self.broadcast.handle_store_release(&mut self.ctx, object, out);
            }
            // Data plane.
            Message::PullRequest { object, requester, offset } => {
                self.broadcast.handle_pull_request(&mut self.ctx, object, requester, offset, out);
            }
            Message::PullCancel { object, requester } => {
                self.broadcast.cancel_pull(object, requester);
            }
            Message::PushBlock { object, offset, total_size, payload, complete: _ } => {
                let progress = self.broadcast.handle_push_block(
                    &mut self.ctx,
                    from,
                    object,
                    offset,
                    total_size,
                    payload,
                    out,
                );
                self.route_progress(progress, out);
            }
            Message::PullError { object, reason: _ } => {
                self.broadcast.on_pull_error(&mut self.ctx, from, object, out);
            }
            // Reduce plane.
            Message::ReduceInstruction(instr) => {
                let events = self.reduce.on_instruction(&mut self.ctx, instr, out);
                self.route_reduce_events(events, out);
            }
            Message::ReduceBlock {
                target,
                to_slot,
                from_slot,
                parent_epoch,
                block_index,
                object_size,
                payload,
            } => {
                let events = self.reduce.on_block(
                    &mut self.ctx,
                    target,
                    to_slot,
                    from_slot,
                    parent_epoch,
                    block_index,
                    object_size,
                    payload,
                    out,
                );
                self.route_reduce_events(events, out);
            }
            Message::ReduceDone { target, root: _ } => {
                self.reduce.on_reduce_done(&mut self.ctx, target, out);
            }
            Message::ReduceRelease { target } => {
                self.reduce.on_release(target);
            }
            // Membership plane: each frame is evidence for the one liveness function.
            Message::PeerFailureNotice { node, incarnation } => {
                self.liveness(now, Evidence::FailureNotice(node, incarnation), out);
            }
            Message::MembershipDigest { entries } => {
                self.liveness(now, Evidence::Digest(&entries), out);
            }
            // Transport-level peer identification: consumed by connection readers to
            // tag the connection, and forwarded here as liveness evidence. A
            // reconnecting restarted peer's Hello may be the first sign of both its
            // crash and its recovery.
            Message::Hello { node, incarnation } => {
                self.liveness(now, Evidence::Hello(node, incarnation), out);
            }
            // SWIM failure-detector plane ([`crate::detector`]). Every frame
            // carries piggybacked gossip; pings are always answered (to the
            // original prober, carried as `origin` so relays stay stateless),
            // even by nodes whose own detector is disabled.
            Message::Ping { origin, probe_id, gossip } => {
                self.liveness(now, Evidence::Gossip(&gossip), out);
                let gossip = self.piggyback(origin);
                self.ctx.send(origin, Message::Ack { probe_id, gossip }, out);
            }
            Message::Ack { probe_id, gossip } => {
                self.liveness(now, Evidence::Gossip(&gossip), out);
                if let Some(det) = self.detector.as_mut() {
                    det.on_ack(probe_id);
                }
            }
            Message::PingReq { target, probe_id, gossip } => {
                self.liveness(now, Evidence::Gossip(&gossip), out);
                // Forward a probe on the requester's behalf; the target acks the
                // requester (`from`) directly, so this relay keeps no state.
                if self.detector.is_some() {
                    let gossip = self.piggyback(target);
                    self.ctx.metrics.probes_sent += 1;
                    self.ctx.send(target, Message::Ping { origin: from, probe_id, gossip }, out);
                }
            }
        }
    }

    // ----------------------------------------------------------- progress routing --

    /// Route local-store progress between engines until quiescent: forwarding chained
    /// broadcast receivers, completing parked `Get`s, and feeding reduce participants
    /// whose own input advanced. A reduce root materializing its result produces more
    /// progress, so this loops until no engine has follow-up work.
    pub(crate) fn route_progress(&mut self, progress: Vec<Progress>, out: &mut Vec<Effect>) {
        let mut queue: VecDeque<Progress> = progress.into();
        while let Some(p) = queue.pop_front() {
            if p.completed {
                self.broadcast.on_object_complete(&mut self.ctx, p.object, out);
            } else {
                self.broadcast.pump_outgoing(&mut self.ctx, p.object, out);
            }
            let events = self.reduce.pump_for(&mut self.ctx, p.object, out);
            self.enqueue_reduce_events(events, &mut queue, out);
        }
    }

    /// Route reduce-engine events produced outside the progress loop.
    pub(crate) fn route_reduce_events(&mut self, events: Vec<ReduceEvent>, out: &mut Vec<Effect>) {
        let mut queue = VecDeque::new();
        self.enqueue_reduce_events(events, &mut queue, out);
        self.route_progress(queue.into_iter().collect(), out);
    }

    fn enqueue_reduce_events(
        &mut self,
        events: Vec<ReduceEvent>,
        queue: &mut VecDeque<Progress>,
        out: &mut Vec<Effect>,
    ) {
        for event in events {
            match event {
                ReduceEvent::Progress { object, completed } => {
                    queue.push_back(Progress { object, completed });
                }
                ReduceEvent::Invalidate { object } => {
                    // A reduce root cleared a partially-materialized result (§3.5.2):
                    // abort anyone pulling it so they restart against fresh data.
                    self.broadcast.abort_outgoing(
                        &mut self.ctx,
                        object,
                        "reduce result reset",
                        out,
                    );
                }
            }
        }
    }

    // ------------------------------------------------------------ turn epilogue --

    /// End-of-handler bookkeeping: fold the directory replicas' inline evictions into
    /// the metrics block, refresh the store gauge, and lazily (re-)arm the lease
    /// expiry timer while there is expiry work to do.
    fn finish_turn(&mut self, out: &mut Vec<Effect>) {
        self.ctx.metrics.inline_evictions += self.ctx.service.take_inline_evictions();
        self.ctx.metrics.store_bytes_live = self.ctx.store.used();
        self.maybe_arm_expiry_timer(out);
    }

    /// Arm the lease-expiry timer if it is not already pending and a hosted shard
    /// might hold stale leases. A node with no lease candidates arms nothing and goes
    /// quiescent.
    fn maybe_arm_expiry_timer(&mut self, out: &mut Vec<Effect>) {
        if self.lease_timer.is_none() && self.ctx.service.has_lease_candidates() {
            let token = self.ctx.fresh_timer();
            self.lease_timer = Some(token);
            out.push(Effect::SetTimer { token, delay: LEASE_TTL });
        }
    }

    /// One bulk expiry tick: reclaim stale directory leases across every hosted
    /// shard (two-generation lazy wheel — a lease must survive a full generation
    /// before it is considered stale).
    fn expiry_tick(&mut self, out: &mut Vec<Effect>) {
        let mut msgs = Vec::new();
        self.ctx.metrics.leases_expired += self.ctx.service.expire_leases(&mut msgs);
        self.ctx.send_all(msgs, out);
    }

    // ------------------------------------------------------------------ liveness --

    /// The one way liveness evidence enters the node: it reads off the claims the
    /// evidence makes, refutes what gossip claims against this node itself (when a
    /// detector runs), and hands the rest to [`DirectoryService::liveness`], which
    /// applies them to the table and reconciles the directory once. A claim that
    /// changed the table is gossiped and counted; each death runs the §3.5 failure
    /// rules once and the net route change is re-driven once
    /// ([`ObjectStoreNode::apply_liveness`]). A peer that speaks for itself at a newer
    /// incarnation than one believed alive crashed unseen: that death is claimed first.
    ///
    /// | evidence | claims (counted) |
    /// |---|---|
    /// | `FailureNotice` | dead (`Stale` → `stale_failure_notices_dropped`) |
    /// | `Hello` | alive |
    /// | `Resynced` | alive, and readmits that incarnation (`Stale` → `stale_failure_notices_dropped`) |
    /// | `Digest`, `SnapshotRequest` | alive / dead per entry, a restart request's own entry as its `Hello`, and that incarnation not readmitted — a crash slept through if it was (a third party's `Died` → `membership_deaths_learned`) |
    /// | `Gossip` | as a digest, when a detector runs; one against this node at its incarnation or later is refuted instead (`refutations_sent`), and a refuted death resyncs as a restart does |
    /// | `Verdicts` | suspect / dead, as the detector decided (`Died` → `deaths_declared`) |
    ///
    /// Any `Suspected` counts `suspicions_raised`.
    fn liveness(&mut self, now: Time, evidence: Evidence<'_>, out: &mut Vec<Effect>) {
        use GossipState::{Alive, Dead};
        let table = self.membership();
        let mut standing = None;
        let mut claims: Vec<GossipEntry> = match evidence {
            Evidence::FailureNotice(node, inc) => vec![(node, inc, Dead)],
            Evidence::Hello(node, inc) | Evidence::Resynced(node, inc) => {
                if let Evidence::Resynced(..) = evidence {
                    standing = Some((node, inc, true));
                }
                table.digest_claims(&[(node, inc, true)], Some(node))
            }
            Evidence::Digest(entries) => table.digest_claims(entries, None),
            Evidence::SnapshotRequest { requester, restart, digest } => {
                if restart {
                    // The incarnation a restart request comes from is not caught up.
                    let own = digest.iter().find(|&&(node, _, alive)| node == requester && alive);
                    standing = own.map(|&(node, inc, _)| (node, inc, false));
                }
                table.digest_claims(digest, restart.then_some(requester))
            }
            Evidence::Gossip(entries) if self.detector.is_some() => entries.to_vec(),
            Evidence::Gossip(_) => Vec::new(),
            Evidence::Verdicts(entries) => entries.to_vec(),
        };
        let mut declared_dead = false;
        if let Evidence::Gossip(_) = evidence {
            claims.retain(|&(node, incarnation, state)| {
                if node != self.ctx.id || state == Alive {
                    return true;
                }
                if incarnation >= self.membership().self_incarnation() {
                    let bumped = self.ctx.service.refute(incarnation);
                    declared_dead |= state == Dead;
                    self.ctx.metrics.refutations_sent += 1;
                    trace!(
                        "[n{}] refuted {state:?} claim about self: now inc {bumped}",
                        self.ctx.id.0
                    );
                }
                false
            });
        }
        let mut msgs = Vec::new();
        let change = self.ctx.service.liveness(&claims, standing, now, &mut msgs);
        if declared_dead {
            // Peers purged it and stopped shipping to it: it rejoins as a restart does.
            self.ctx.service.begin_local_resync(&mut msgs);
        }
        for (&(node, incarnation, state), &transition) in claims.iter().zip(&change.transitions) {
            if !transition.changed() {
                if transition == Transition::Stale
                    && matches!(evidence, Evidence::FailureNotice(..) | Evidence::Resynced(..))
                {
                    self.ctx.metrics.stale_failure_notices_dropped += 1;
                }
                continue;
            }
            trace!("[n{}] {node:?} inc {incarnation} {state:?}: {transition:?}", self.ctx.id.0);
            if let Some(det) = self.detector.as_mut() {
                det.disseminate(node);
            }
            let hearsay = match evidence {
                Evidence::Digest(_) | Evidence::Gossip(_) => true,
                Evidence::SnapshotRequest { requester, .. } => node != requester,
                _ => false,
            };
            match transition {
                Transition::Died if hearsay => self.ctx.metrics.membership_deaths_learned += 1,
                Transition::Died if matches!(evidence, Evidence::Verdicts(_)) => {
                    self.ctx.metrics.deaths_declared += 1;
                }
                Transition::Suspected => self.ctx.metrics.suspicions_raised += 1,
                _ => {}
            }
        }
        self.apply_liveness(change.departed, change.rerouted, msgs, out);
    }

    // --------------------------------------------------------- failure detector --

    /// (Re-)arm the detector's probe timer for its next deadline. No-op without a
    /// detector or while the chain is already armed.
    fn arm_detector_timer(&mut self, now: Time, out: &mut Vec<Effect>) {
        let Some(det) = &self.detector else { return };
        if self.probe_timer.is_some() {
            return;
        }
        // Floor of 1ms so a deadline that just passed cannot spin a zero-delay
        // timer loop; the detector's periods are orders of magnitude larger.
        let wake = det.next_wake(self.ctx.service.view().table());
        let delay = wake.duration_since(now).max(Duration::from_millis(1));
        let token = self.ctx.fresh_timer();
        self.probe_timer = Some(token);
        out.push(Effect::SetTimer { token, delay });
    }

    /// One detector wake-up: advance the prober, hand its verdicts to
    /// [`ObjectStoreNode::liveness`], send its probes, and re-arm the chain. The
    /// verdicts enter the table before any probe is framed, so the gossip on this
    /// tick's probes already carries them; the effects keep the order the detector
    /// decided in (indirect probes for a missed ack, then verdicts, then the next
    /// direct probe).
    fn detector_tick(&mut self, now: Time, out: &mut Vec<Effect>) {
        let Some(det) = self.detector.as_mut() else { return };
        let mut actions = Vec::new();
        det.tick(self.ctx.service.view().table(), now, &mut actions);
        let verdicts: Vec<GossipEntry> = actions
            .iter()
            .filter_map(|action| match *action {
                DetectorAction::Suspect { node, incarnation } => {
                    Some((node, incarnation, GossipState::Suspect))
                }
                DetectorAction::Dead { node, incarnation } => {
                    Some((node, incarnation, GossipState::Dead))
                }
                _ => None,
            })
            .collect();
        let mut followups = Vec::new();
        self.liveness(now, Evidence::Verdicts(&verdicts), &mut followups);
        for action in actions {
            match action {
                DetectorAction::PingReq { relay, target, probe_id } => {
                    let gossip = self.piggyback(relay);
                    self.ctx.metrics.indirect_probes += 1;
                    self.ctx.send(relay, Message::PingReq { target, probe_id, gossip }, out);
                }
                DetectorAction::Ping { to, probe_id } => {
                    out.append(&mut followups);
                    let gossip = self.piggyback(to);
                    self.ctx.metrics.probes_sent += 1;
                    let origin = self.ctx.id;
                    self.ctx.send(to, Message::Ping { origin, probe_id, gossip }, out);
                }
                DetectorAction::Suspect { .. } | DetectorAction::Dead { .. } => {}
            }
        }
        out.append(&mut followups);
        self.arm_detector_timer(now, out);
    }

    /// The gossip to carry on a probe frame to `dest` (none without a detector).
    fn piggyback(&mut self, dest: NodeId) -> Vec<GossipEntry> {
        let Some(det) = self.detector.as_mut() else { return Vec::new() };
        let gossip = det.piggyback(self.ctx.service.view().table(), dest);
        self.ctx.metrics.gossip_entries_piggybacked += gossip.len() as u64;
        gossip
    }

    fn drain_self_queue(&mut self, now: Time, out: &mut Vec<Effect>) {
        // Bounded by a generous limit to surface accidental ping-pong loops in tests
        // instead of hanging.
        let mut budget = 100_000;
        while let Some(msg) = self.ctx.self_queue.pop_front() {
            let me = self.ctx.id;
            self.dispatch_message(now, me, msg, out);
            budget -= 1;
            if budget == 0 {
                panic!("self-message loop did not terminate");
            }
        }
    }
}
