//! The per-node directory service.
//!
//! [`DirectoryService`] is the server half living inside each node: the shard
//! replicas this node hosts, the node's one [`PlacementView`] and the liveness table
//! inside it (routing reads them, nothing mirrors them), op routing (apply as primary
//! / forward elsewhere), sequenced shipping to every live backup, chunked resync
//! serving for recovering replicas, and epoch-stamped promotion and demotion wherever
//! the view's primary moves: off a dead one (§3.5), and back onto a readmitted owner
//! (fail-back). Liveness enters through one call, [`DirectoryService::liveness`],
//! which reconciles the directory once per piece of evidence; nothing else writes it,
//! so a resync request is served only to a requester the table holds alive, and no
//! frame revives a dead incarnation.
//!
//! **One sequencer per (shard, epoch).** Leadership moves wherever the table does, so
//! a readmitted owner takes its shard back while the interim primary may not have
//! heard its `DirResynced`. A replica is promoted only above every epoch it applied,
//! every reconcile demotes one whose view names another primary, and a primary that a
//! higher-epoch shipment reaches resyncs from the shipper ([`super::replication`]). A
//! node whose view names itself while its replica does not sequence drops the shard's
//! ops and resync requests; their origins re-drive once their views move.
//!
//! **Who confirms.** A backup confirms each shipped op it applies straight to the op's
//! origin, on arrival or when the resync stream it was buffered behind ends; a primary
//! confirms an op itself only when it ships it to no live backup. Nothing goes back to
//! the primary: `DirAck`, like tag 28, is a frame nothing sends, dropped on arrival.
//! What the origin waits on is its journal's business ([`super::client`]).
//!
//! On the receiving side of a resync each fact lives once. Whether a hosted shard is
//! resyncing, from whom, and how far its chunk stream got is that replica's
//! [`super::replication::Resync`] record; whether this node is still resyncing after a
//! restart is its own table entry, alive but not readmitted. Every frame of every
//! stream — a chunk, or the retired full snapshot — becomes one [`ResyncFrame`] in one
//! place, and every request for one leaves through one pull helper. The serving side
//! keeps no state per stream: a requester it serves is alive in its table, so a live
//! backup shipped every op from its first chunk on, and the requester's last chunk
//! replays what each chunk missed (the catch-up rule in [`super::replication`]).
//!
//! **One way in.** Every server-side directory frame — the eight client ops (see
//! [`DirOp`]), `DirReplicate`, `DirSnapshotRequest`, the resync frames (tags 23 and
//! 27), and `DirAck` and tag 28, which nothing sends and which are dropped — enters
//! through [`DirectoryService::handle`], which checks the shard a frame names against
//! the cluster before indexing anything and writes each directory counter into the
//! caller's [`NodeMetrics`] where its event happens. The node, `metadata_scale` and
//! the tests below all drive the service through it, so the plane can be driven and
//! replayed on its own. What a resync request or a `DirResynced` claims about
//! liveness the node reads off the frame and hands to [`DirectoryService::liveness`].

use std::collections::BTreeMap;

use crate::config::HopliteConfig;
use crate::detector::GossipEntry;
use crate::membership::{MemberDigestEntry, MembershipView, Transition};
use crate::metrics::NodeMetrics;
use crate::object::{NodeId, ObjectId, ObjectStatus};
use crate::protocol::{DirOp, Message, ShardSnapshot};
use crate::time::Time;

use super::placement::{DirectoryPlacement, PlacementView, Rerouted};
use super::replication::{
    confirm_of, ReplayOutcome, ReplicaRole, ResyncFrame, ResyncStep, ShardReplica,
};
use super::shard::DirectoryShard;

/// The directory server half of one node: every shard replica it hosts, plus the
/// routing, replication, resync, and promotion logic around them.
#[derive(Debug)]
pub struct DirectoryService {
    me: NodeId,
    view: PlacementView,
    /// Shard index -> this node's replica of it. `BTreeMap` so iteration order (and
    /// therefore promotion order on failure) is deterministic.
    replicas: BTreeMap<usize, ShardReplica>,
    /// Set when the local resync completes, to what this node's own readmission
    /// re-routed that no liveness change re-drove; the facade drains it with
    /// [`DirectoryService::take_readmission`] and broadcasts `DirResynced`.
    readmission: Option<Rerouted>,
}

/// What one piece of liveness evidence did, net ([`DirectoryService::liveness`]).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Reconciled {
    /// Each claim's transition, in claim order.
    pub transitions: Vec<Transition>,
    /// One entry per death claimed, in order: the §3.5 failure rules run once each.
    pub departed: Vec<NodeId>,
    /// The net route change, to re-drive once.
    pub rerouted: Rerouted,
}

impl DirectoryService {
    /// Create the service for node `me`, running at `incarnation` (0 on cold boot),
    /// instantiating a replica for every shard the placement assigns it.
    pub fn new(me: NodeId, cfg: &HopliteConfig, nodes: &[NodeId], incarnation: u64) -> Self {
        let placement = DirectoryPlacement::from_config(cfg, nodes);
        let replicas = placement
            .shards_hosted_by(me)
            .into_iter()
            .map(|shard| {
                let role = if placement.replica_set(shard)[0] == me {
                    ReplicaRole::Primary
                } else {
                    ReplicaRole::Backup
                };
                (shard, ShardReplica::new(DirectoryShard::new(shard, cfg.clone()), role))
            })
            .collect();
        let table = MembershipView::new(me, nodes.len(), incarnation);
        let view = PlacementView::new(placement, table);
        DirectoryService { me, view, replicas, readmission: None }
    }

    /// The static placement in effect.
    pub fn placement(&self) -> &DirectoryPlacement {
        self.view.placement()
    }

    /// The evolving leadership view.
    pub fn view(&self) -> &PlacementView {
        &self.view
    }

    /// The current primary of the shard responsible for `object`, in this node's view.
    pub fn primary_for(&self, object: ObjectId) -> Option<NodeId> {
        self.view.primary_for(object)
    }

    /// Whether this node believes it is the primary for `object`'s shard.
    pub fn is_primary_for(&self, object: ObjectId) -> bool {
        self.primary_for(object) == Some(self.me)
    }

    /// This node's replica of `shard`, if it hosts one.
    pub fn replica(&self, shard: usize) -> Option<&ShardReplica> {
        self.replicas.get(&shard)
    }

    /// Known locations of `object` in this node's replica of its shard; `None` when
    /// this node hosts no replica of that shard.
    pub fn locations(&self, object: ObjectId) -> Option<Vec<(NodeId, ObjectStatus)>> {
        self.replicas.get(&self.view.placement().shard_of(object)).map(|r| r.locations(object))
    }

    /// Whether this node is mid-resync after a restart: its own table entry is not
    /// readmitted from [`DirectoryService::begin_local_resync`] until its last stream
    /// completes.
    pub fn is_resyncing(&self) -> bool {
        self.view.is_resyncing(self.me)
    }

    /// The shard a frame off the wire names, if this cluster has it: the one range
    /// check in front of everything that indexes by shard.
    pub fn shard(&self, wire: u64) -> Option<usize> {
        usize::try_from(wire).ok().filter(|&s| s < self.view.placement().num_shards())
    }

    /// Take one server-side directory frame from `from`, appending what it produces
    /// to `out` and counting what happened in `metrics`. The eight client ops are
    /// applied as primary or forwarded; a `DirReplicate` is applied and confirmed; a
    /// `DirSnapshotRequest` is served or forwarded; a state chunk or retired full
    /// snapshot is installed, and a retired `DirAck` or `DirResyncDelta` dropped. A
    /// frame naming a shard the cluster does not have is dropped; any other message
    /// comes back untouched.
    pub fn handle(
        &mut self,
        from: NodeId,
        msg: Message,
        metrics: &mut NodeMetrics,
        out: &mut Vec<(NodeId, Message)>,
    ) -> Option<Message> {
        let msg = match DirOp::try_from(msg) {
            Ok(op) => {
                self.handle_op(op, metrics, out);
                return None;
            }
            Err(msg) => msg,
        };
        if let Some((shard, epoch, frame, done)) = resync_frame(&msg) {
            if let Some(shard) = self.shard(shard) {
                if self.handle_resync_frame(shard, epoch, frame, done, from, out) {
                    metrics.directory_resyncs += 1;
                }
            }
            return None;
        }
        match msg {
            Message::DirReplicate { shard, epoch, seq, op } => {
                if let Some(shard) = self.shard(shard) {
                    self.handle_replicate(shard, epoch, seq, &op, from, out);
                }
            }
            Message::DirSnapshotRequest { shard: wire, requester, restart, after, .. } => {
                let hosted =
                    self.shard(wire).filter(|&s| self.view.placement().hosts(requester, s));
                if let Some(shard) = hosted {
                    match self.view.primary(shard) {
                        Some(primary) if primary != self.me && primary != requester => {
                            let digest = self.digest_if(restart);
                            let request = Message::DirSnapshotRequest {
                                shard: wire,
                                requester,
                                restart,
                                after,
                                digest,
                            };
                            out.push((primary, request));
                        }
                        // The view's primary, or a replica kept through this node's resync.
                        _ if self.sequences(shard) && self.view.is_alive(requester) => {
                            self.serve_resync(shard, requester, after, metrics, out);
                        }
                        _ => {}
                    }
                }
            }
            Message::DirAck { .. } | Message::DirResyncDelta { .. } => {}
            other => return Some(other),
        }
        None
    }

    /// Route one client directory op: apply it if this node is the shard's primary
    /// (emitting replies, and shipping the op to every live backup, which confirm it
    /// to its origin — or confirming it at once when there is none), forward it to the
    /// believed primary otherwise. A query the shard answers without changing
    /// ([`DirectoryShard::read`]: an inline hit or a tombstone) is a read: the primary
    /// replies and sequences, ships and marks nothing.
    /// Ops for a shard whose every replica died are dropped — that metadata is gone —
    /// and so are ops this node leads in its view while its replica does not sequence.
    /// Returns whether the op was applied here.
    fn handle_op(
        &mut self,
        op: DirOp,
        metrics: &mut NodeMetrics,
        out: &mut Vec<(NodeId, Message)>,
    ) -> bool {
        let shard = self.view.placement().shard_of(op.object());
        match self.view.primary(shard) {
            Some(primary) if primary == self.me && self.sequences(shard) => {
                if let DirOp::Query { object, requester, query_id, .. } = op {
                    let replica = self.replicas.get(&shard).expect("primary hosts its shard");
                    if let Some(reply) = replica.shard().read(object, requester, query_id) {
                        metrics.directory_queries_served += 1;
                        out.push((requester, reply));
                        return true;
                    }
                }
                let backups = self.view.live_backups(shard, self.me);
                let replica = self.replicas.get_mut(&shard).expect("primary hosts its shard");
                let seq = replica.apply_primary(&op, out);
                let epoch = replica.epoch();
                if backups.is_empty() {
                    // A lone replica is trivially durable: confirm immediately.
                    out.extend(confirm_of(&op));
                }
                for backup in backups {
                    out.push((
                        backup,
                        Message::DirReplicate { shard: shard as u64, epoch, seq, op: op.clone() },
                    ));
                }
                match op {
                    DirOp::Query { .. } => metrics.directory_queries_served += 1,
                    DirOp::Register { .. } | DirOp::PutInline { .. } => {
                        metrics.directory_registrations += 1;
                    }
                    _ => {}
                }
                true
            }
            Some(primary) if primary != self.me => {
                // A client with a staler failure view than ours (or a scheduling race
                // around a promotion) sent the op here; pass it along.
                out.push((primary, op.into()));
                false
            }
            _ => false,
        }
    }

    /// Replay an op shipped by a shard's primary into this node's backup replica. An
    /// applied op is confirmed straight to its origin; a gap this replica cannot
    /// bridge is answered with a resync request. Returns whether the op was applied.
    fn handle_replicate(
        &mut self,
        shard: usize,
        epoch: u64,
        seq: u64,
        op: &DirOp,
        from: NodeId,
        out: &mut Vec<(NodeId, Message)>,
    ) -> bool {
        let Some(replica) = self.replicas.get_mut(&shard) else { return false };
        match replica.apply_replicated(epoch, seq, op, out) {
            ReplayOutcome::Applied(_) => true,
            ReplayOutcome::NeedsResync => {
                self.request_resync(shard, from, false, out);
                false
            }
            ReplayOutcome::Buffered | ReplayOutcome::Rejected => false,
        }
    }

    /// Serve one round of a resync to `requester`, which the table holds alive, as the
    /// shard's primary. What the request claims about liveness — the requester's
    /// incarnation, and the crash of the one before it when it marks a restart — has
    /// already entered through [`DirectoryService::liveness`], so a restarted node
    /// asking for its shard's state back is never mistaken for the shard's leader and
    /// left wedged.
    ///
    /// Serving is **chunked and incremental**: every request gets exactly one bounded
    /// [`Message::DirSnapshotChunk`], consistent at the `seq` it carries, so chunks
    /// interleave with live op shipments and the source is never paused for O(objects)
    /// time. The requester, alive, is a live backup in this view and is shipped every
    /// op, which its last chunk replays where an earlier chunk missed it.
    fn serve_resync(
        &mut self,
        shard: usize,
        requester: NodeId,
        after: Option<ObjectId>,
        metrics: &mut NodeMetrics,
        out: &mut Vec<(NodeId, Message)>,
    ) {
        let replica = self.replicas.get(&shard).expect("primary hosts its shard");
        let budget = replica.shard().config().snapshot_chunk_bytes.max(1);
        let (epoch, seq) = (replica.epoch(), replica.applied_seq());
        let (entries, done) = replica.shard().snapshot_range(after, budget);
        let state = ShardSnapshot { entries };
        metrics.snapshot_chunks_sent += 1;
        metrics.snapshot_bytes += state.wire_size();
        out.push((
            requester,
            Message::DirSnapshotChunk { shard: shard as u64, epoch, seq, rank: 0, done, state },
        ));
    }

    /// Install one frame of a resync stream into this node's replica of `shard`: a
    /// state chunk, or the retired full snapshot (a done chunk). Mid-stream, or when
    /// the stream starts over, pull the next frame from whoever served this one — a
    /// forwarded request is served by another node than it went to, and a source death
    /// re-targets from there. On the last frame, confirm every buffered op the replica
    /// now holds; nothing goes back to the source, and the frame's `rank` is not read.
    /// Returns `true` when the stream completed here; when that also completes the
    /// node's local resync, a re-admission becomes pending — the caller checks
    /// [`DirectoryService::take_readmission`] after this (and after
    /// [`DirectoryService::liveness`], which can also complete a resync by abandoning
    /// a sourceless shard). Frames for a shard with no resync in flight and
    /// frames from a source this view considers dead are dropped: they are stragglers
    /// of an abandoned stream.
    fn handle_resync_frame(
        &mut self,
        shard: usize,
        epoch: u64,
        frame: ResyncFrame<'_>,
        done: bool,
        from: NodeId,
        out: &mut Vec<(NodeId, Message)>,
    ) -> bool {
        if !self.view.is_alive(from) {
            return false;
        }
        let Some(replica) = self.replicas.get_mut(&shard) else { return false };
        match replica.apply_resync(epoch, &frame, done, out) {
            ResyncStep::Stale => return false,
            ResyncStep::Continue => {
                self.request_resync(shard, from, false, out);
                return false;
            }
            ResyncStep::Done(_) => {}
        }
        let before = self.is_resyncing().then(|| self.view.routes());
        if let Some(before) = before.filter(|_| self.maybe_complete_local_resync()) {
            self.readmission = Some(self.view.rerouted(&before, &[]));
        }
        true
    }

    /// If the last outstanding stream was just installed or abandoned, finish the
    /// local resync: readmit this node in its own table, as every peer does on
    /// `DirResynced`, and take back the shards it now leads. Returns whether it did;
    /// the caller queues the cluster-wide `DirResynced` announcement with what the
    /// readmission re-routed.
    fn maybe_complete_local_resync(&mut self) -> bool {
        if !self.is_resyncing() || self.replicas.values().any(|r| r.resync().is_some()) {
            return false;
        }
        let incarnation = self.view.table().self_incarnation();
        self.set_readmitted(self.me, incarnation, true);
        self.reconcile_roles();
        true
    }

    /// Give every hosted replica the role the view names: promote a backup of a shard
    /// this node now leads, at the shard's epoch ([`ShardReplica::promote_to`]), and
    /// demote a primary of one another node leads. A replica whose resync was
    /// abandoned for want of a source, or a primary the view names no one in place of,
    /// is kept as it is.
    fn reconcile_roles(&mut self) {
        for (&shard, replica) in self.replicas.iter_mut() {
            match (self.view.primary(shard), replica.role()) {
                (Some(p), ReplicaRole::Backup) if p == self.me => {
                    replica.promote_to(self.view.epoch(shard));
                }
                (Some(p), ReplicaRole::Primary) if p != self.me => replica.demote(),
                _ => {}
            }
        }
    }

    /// Whether this node's replica of `shard` sequences its ops: not when a fresher
    /// primary deposed it, or the view is not yet above the epochs it applied.
    fn sequences(&self, shard: usize) -> bool {
        self.replicas.get(&shard).is_some_and(|r| r.role() == ReplicaRole::Primary)
    }

    /// Take the pending re-admission, if the local resync just completed: the shards
    /// it re-routed that no liveness change has re-driven yet. The facade re-drives
    /// those and broadcasts `DirResynced` to every peer exactly once.
    pub fn take_readmission(&mut self) -> Option<Rerouted> {
        self.readmission.take()
    }

    /// The one way liveness enters the service: one piece of evidence's claims, applied
    /// in order ([`MembershipView::claim`]), then its `standing`, `(node, incarnation,
    /// readmitted)`: a `DirResynced` readmits its incarnation; a restart request
    /// un-readmits its requester's, and one held readmitted (its restart came as
    /// gossip) crashed unseen, a death like any other. The directory then reconciles
    /// once against the table after: each death (in claim order, an unseen crash last)
    /// is purged from every hosted replica and re-targets the resyncs it sourced
    /// (abandoning a sourceless one, which can finish this node's own resync); every
    /// hosted replica takes the role the view now names; and the net route change
    /// from the table before comes back, to re-drive once.
    pub fn liveness(
        &mut self,
        claims: &[GossipEntry],
        standing: Option<(NodeId, u64, bool)>,
        now: Time,
        out: &mut Vec<(NodeId, Message)>,
    ) -> Reconciled {
        if claims.is_empty() && standing.is_none() {
            return Reconciled::default();
        }
        let mut table = self.view.table().clone();
        let mut departed = Vec::new();
        let transitions: Vec<Transition> = claims
            .iter()
            .map(|&(node, incarnation, state)| {
                let transition = table.claim(node, incarnation, state, now);
                if transition == Transition::Died {
                    departed.push(node);
                }
                transition
            })
            .collect();
        let claimed = transitions.iter().any(|t| t.changed());
        if !claimed && standing.is_none() {
            return Reconciled { transitions, ..Reconciled::default() };
        }
        // The routes as they stood before the evidence.
        let routes = self.view.routes();
        self.view.table = table;
        if let Some((node, incarnation, readmitted)) = standing.filter(|s| s.0 != self.me) {
            if self.set_readmitted(node, incarnation, readmitted) && !readmitted {
                departed.push(node);
            }
        }
        for replica in self.replicas.values_mut() {
            departed.iter().for_each(|&peer| replica.node_failed(peer));
        }
        self.reconcile_roles();
        // A stream whose source died starts over at the new source (seqs of two
        // primacies do not compare); with none left, the shard's metadata is lost and
        // the stream is abandoned, so the node can still finish its own resync.
        let sourced = |(&shard, r): (&usize, &ShardReplica)| {
            r.resync().filter(|resync| departed.contains(&resync.source)).map(|_| shard)
        };
        let stranded: Vec<usize> = self.replicas.iter().filter_map(sourced).collect();
        for shard in stranded {
            self.replicas.get_mut(&shard).expect("hosted shard").abort_resync();
            if let Some(primary) = self.view.primary(shard).filter(|&p| p != self.me) {
                let restart = self.is_resyncing();
                self.request_resync(shard, primary, restart, out);
            }
        }
        // This node's own readmission, if that finished its resync, is in the net
        // change: the announcement is queued with nothing left to re-drive.
        if self.maybe_complete_local_resync() {
            self.readmission = Some(Rerouted::default());
        }
        let rerouted = self.view.rerouted(&routes, &departed);
        Reconciled { transitions, departed, rerouted }
    }

    /// Refute a suspicion or death claimed about this node at `evidence_incarnation`
    /// or later ([`MembershipView::refute`]); the new incarnation.
    pub fn refute(&mut self, evidence_incarnation: u64) -> u64 {
        self.view.table.refute(evidence_incarnation)
    }

    /// The one write of readmission into the table ([`MembershipView::readmit`]).
    fn set_readmitted(&mut self, node: NodeId, incarnation: u64, readmitted: bool) -> bool {
        self.view.table.readmit(node, incarnation, readmitted)
    }

    /// Start recovery after a restart or a refuted death: request a snapshot of each
    /// hosted shard from its first other readmitted member, or else its first other
    /// live one, and stand not readmitted in this node's own table until the last
    /// stream completes. A shard with no other live member is kept as it is. Returns
    /// `false` when there is nothing to resync from: the node stays readmitted.
    pub fn begin_local_resync(&mut self, out: &mut Vec<(NodeId, Message)>) -> bool {
        let shards: Vec<usize> = self.replicas.keys().copied().collect();
        let mut any = false;
        for shard in shards {
            let table = self.view.table();
            let source = (self.view.placement().replica_set(shard).into_iter())
                .filter(|&n| n != self.me && table.is_alive(n))
                .min_by_key(|&n| !table.is_readmitted(n));
            let Some(source) = source else { continue };
            any = true;
            self.request_resync(shard, source, true, out);
        }
        if any {
            let incarnation = self.view.table().self_incarnation();
            self.set_readmitted(self.me, incarnation, false);
        }
        any
    }

    /// Ask `source` for the next chunk of `shard`'s resync — opening it, re-targeting
    /// it after a source death, starting it over, or pulling mid-stream — from the
    /// replica's chunk stream cursor. A restart-flagged request carries this node's
    /// digest, so the source can teach it the deaths it slept through.
    fn request_resync(
        &mut self,
        shard: usize,
        source: NodeId,
        restart: bool,
        out: &mut Vec<(NodeId, Message)>,
    ) {
        let digest = self.digest_if(restart);
        let replica = self.replicas.get_mut(&shard).expect("resyncs are of hosted shards");
        let after = replica.begin_resync(source);
        let requester = self.me;
        let request =
            Message::DirSnapshotRequest { shard: shard as u64, requester, restart, after, digest };
        out.push((source, request));
    }

    /// The table's digest for a restart-flagged resync request, empty for any other.
    fn digest_if(&self, restart: bool) -> Vec<MemberDigestEntry> {
        if restart {
            self.view.table().digest()
        } else {
            Vec::new()
        }
    }

    /// Drain the inline-eviction count across every hosted replica.
    pub fn take_inline_evictions(&mut self) -> u64 {
        self.replicas.values_mut().map(|r| r.take_inline_evictions()).sum()
    }

    /// Whether any hosted replica's lease wheel might hold candidates (drives the
    /// facade's lazy re-arming of the expiry timer; may over-approximate).
    pub fn has_lease_candidates(&self) -> bool {
        self.replicas.values().any(|r| r.has_lease_candidates())
    }

    /// Run one bulk lease-expiry tick over every hosted replica (backups expire
    /// silently). Returns how many leases were reclaimed.
    pub fn expire_leases(&mut self, out: &mut Vec<(NodeId, Message)>) -> u64 {
        self.replicas.values_mut().map(|r| r.expire_stale_leases(out)).sum()
    }
}

/// The resync-stream frame a message carries, as `(shard, epoch, frame, done)`: a state
/// chunk (tag 27), or the retired full snapshot (tag 23), the one-chunk stream it is the
/// degenerate case of.
pub(crate) fn resync_frame(msg: &Message) -> Option<(u64, u64, ResyncFrame<'_>, bool)> {
    let (shard, epoch, seq, done, state) = match msg {
        Message::DirSnapshot { shard, epoch, seq, state, .. } => (shard, epoch, seq, &true, state),
        Message::DirSnapshotChunk { shard, epoch, seq, done, state, .. } => {
            (shard, epoch, seq, done, state)
        }
        _ => return None,
    };
    let frame = ResyncFrame { seq: *seq, entries: &state.entries };
    Some((*shard, *epoch, frame, *done))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detector::GossipState::{Alive, Dead};
    use crate::protocol::{ConfirmKind, QueryResult};

    const T: Time = Time::ZERO;

    /// Liveness, stated through the one claim entry point as the node states it.
    impl DirectoryService {
        /// Submit a client op here, as `handle` does; whether it was applied here.
        fn submit(&mut self, op: DirOp, out: &mut Vec<(NodeId, Message)>) -> bool {
            self.handle_op(op, &mut NodeMetrics::default(), out)
        }

        /// `peer`'s current incarnation died (a verdict naming it).
        fn fail(&mut self, peer: NodeId, out: &mut Vec<(NodeId, Message)>) -> Rerouted {
            let incarnation = self.view().table().incarnation_of(peer);
            self.liveness(&[(peer, incarnation, Dead)], None, T, out).rerouted
        }

        /// `peer` is up at the incarnation after the one held: back from the dead and
        /// resyncing, as a restarted node's requests say.
        fn recover(&mut self, peer: NodeId) -> Rerouted {
            let incarnation = self.view().table().incarnation_of(peer) + 1;
            self.liveness(&[(peer, incarnation, Alive)], None, T, &mut Vec::new()).rerouted
        }

        /// `peer`'s current incarnation announced its resync complete (`DirResynced`).
        fn readmit(&mut self, peer: NodeId) -> Rerouted {
            let incarnation = self.view().table().incarnation_of(peer);
            let claim = [(peer, incarnation, Alive)];
            self.liveness(&claim, Some((peer, incarnation, true)), T, &mut Vec::new()).rerouted
        }
    }

    fn nodes(n: u32) -> Vec<NodeId> {
        (0..n).map(NodeId).collect()
    }

    fn obj(name: &str) -> ObjectId {
        ObjectId::from_name(name)
    }

    fn reg(o: ObjectId, holder: u32) -> DirOp {
        DirOp::Register {
            object: o,
            holder: NodeId(holder),
            status: ObjectStatus::Complete,
            size: 10,
        }
    }

    fn obj_in_shard(svc: &DirectoryService, shard: usize) -> ObjectId {
        (0u64..)
            .map(|k| obj(&format!("shard-{shard}-{k}")))
            .find(|&o| svc.placement().shard_of(o) == shard)
            .unwrap()
    }

    /// A fresh-stream resync request for `shard` from `requester`.
    fn request(shard: u64, requester: NodeId, restart: bool) -> Message {
        let (after, digest) = (None, Vec::new());
        Message::DirSnapshotRequest { shard, requester, restart, after, digest }
    }

    /// Deliver one frame to `svc` the way the node does: a `DirResynced` readmits the
    /// incarnation it names; a resync request's digest is first evidence, claimed
    /// through the one entry point (with, on a restart, the crash of the requester's
    /// last incarnation, and that incarnation not readmitted); then the service takes
    /// the frame.
    fn deliver_to(
        svc: &mut DirectoryService,
        metrics: &mut NodeMetrics,
        from: NodeId,
        msg: Message,
        out: &mut Vec<(NodeId, Message)>,
    ) {
        if let Message::DirResynced { node, incarnation } = msg {
            let claim = [(node, incarnation, Alive)];
            svc.liveness(&claim, Some((node, incarnation, true)), T, out);
            return;
        }
        if let Message::DirSnapshotRequest { requester, restart, ref digest, .. } = msg {
            let claims = svc.view().table().digest_claims(digest, restart.then_some(requester));
            let own =
                digest.iter().find(|&&(node, _, alive)| restart && node == requester && alive);
            let standing = own.map(|&(node, incarnation, _)| (node, incarnation, false));
            svc.liveness(&claims, standing, T, out);
        }
        if let Some(other) = svc.handle(from, msg, metrics, out) {
            panic!("not a directory frame: {other:?}");
        }
    }

    #[test]
    fn frames_for_a_shard_out_of_range_are_dropped() {
        // Four shards, r = 2: node 1 hosts shards 0 and 1. Shard 4 would wrap onto
        // shard 0 in the replica-set arithmetic, so without the range check a restart
        // request for it from node 0 would index past the leadership view.
        let cfg = HopliteConfig::small_for_tests();
        let mut svc = DirectoryService::new(NodeId(1), &cfg, &nodes(4), 0);
        let mut metrics = NodeMetrics::default();
        let o = obj_in_shard(&svc, 0);
        let op = reg(o, 2);
        let state = ShardSnapshot::default();
        for shard in [4, 5, u64::MAX] {
            let frames = [
                request(shard, NodeId(0), true),
                Message::DirReplicate { shard, epoch: 9, seq: 1, op: op.clone() },
                Message::DirAck { shard, epoch: 9, seq: 1 },
                Message::DirSnapshot { shard, epoch: 9, seq: 1, rank: 1, state: state.clone() },
                Message::DirSnapshotChunk {
                    shard,
                    epoch: 9,
                    seq: 1,
                    rank: 1,
                    done: true,
                    state: state.clone(),
                },
                Message::DirResyncDelta { shard, epoch: 9, ops: vec![(1, op.clone())], done: true },
            ];
            for msg in frames {
                let mut out = Vec::new();
                assert_eq!(svc.handle(NodeId(0), msg.clone(), &mut metrics, &mut out), None);
                assert!(out.is_empty(), "{msg:?} produced {out:?}");
            }
        }
        assert_eq!(metrics, NodeMetrics::default(), "nothing counted");
        assert_eq!((0..4).map(|s| svc.view().epoch(s)).collect::<Vec<_>>(), vec![0; 4]);
        assert_eq!(svc.primary_for(o), Some(NodeId(0)), "leadership unmoved");
        // A frame that is not the service's comes back untouched.
        let publish = Message::DirPublish {
            object: o,
            holder: NodeId(2),
            status: ObjectStatus::Complete,
            size: 1,
        };
        assert_eq!(
            svc.handle(NodeId(0), publish.clone(), &mut metrics, &mut Vec::new()),
            Some(publish)
        );
    }

    #[test]
    fn placement_mixes_the_whole_id_and_clamps_replication() {
        let p = DirectoryPlacement::new(nodes(4), 2);
        assert_eq!(p.num_shards(), 4);
        assert_eq!(p.replica_set(3), vec![NodeId(3), NodeId(0)]);
        // Replication larger than the cluster is clamped.
        let p1 = DirectoryPlacement::new(nodes(2), 5);
        assert_eq!(p1.replication(), 2);
        // The object hash: both id words through the splitmix64 finalizer, then a
        // multiply-shift onto the shards; the initial primary is that shard's node.
        let splitmix = |mut z: u64| {
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let p = DirectoryPlacement::new(nodes(7), 3);
        for name in ["some-object", "grad-0", "grad-8"] {
            let o = obj(name);
            let lo = u64::from_le_bytes(o.0[..8].try_into().unwrap());
            let hi = u64::from_le_bytes(o.0[8..].try_into().unwrap());
            let shard = ((splitmix(lo ^ splitmix(hi)) as u128 * 7) >> 64) as u32;
            let view = PlacementView::new(p.clone(), MembershipView::new(NodeId(0), 7, 0));
            assert_eq!(view.primary_for(o), Some(NodeId(shard)), "{name}");
        }
    }

    /// Five-name families `mid-{k}-{0..3}` and `mid-{k}-sum` (a reduce's sources and
    /// its result) fall on shards as independent draws would: the number of the 2 000
    /// families whose five shards all avoid nodes 1–4 is within 2σ of its binomial
    /// mean. A hash reading only the low bits of each byte put none there.
    #[test]
    fn name_families_spread_over_shards_as_independent_draws() {
        const FAMILIES: u32 = 2000;
        for n in [7usize, 8] {
            let clear = (0..FAMILIES)
                .filter(|k| {
                    let names = (0..4).map(|i| format!("mid-{k}-{i}"));
                    names.chain([format!("mid-{k}-sum")]).all(|name| {
                        !(1..=4).contains(&DirectoryPlacement::shard_index(obj(&name), n))
                    })
                })
                .count() as f64;
            let p = ((n - 4) as f64 / n as f64).powi(5);
            let (mean, sigma) = (FAMILIES as f64 * p, (FAMILIES as f64 * p * (1.0 - p)).sqrt());
            assert!(
                (clear - mean).abs() <= 2.0 * sigma,
                "n = {n}: {clear} vs {mean:.1} ± {sigma:.1}"
            );
        }
    }

    /// Flipping one high bit of one byte of a name (`grad-{i}0` ↔ `grad-{i}8`) moves
    /// its shard for about (n − 1)/n of names at n = 8, as an independent draw would.
    #[test]
    fn a_high_bit_of_one_byte_moves_the_shard() {
        const NAMES: u32 = 2000;
        let n = 8;
        let moved = (0..NAMES)
            .filter(|i| {
                let name = format!("grad-{i}0");
                let flipped = format!("grad-{i}8");
                assert_eq!(name.as_bytes()[name.len() - 1] ^ 0x08, b'8');
                DirectoryPlacement::shard_index(obj(&name), n)
                    != DirectoryPlacement::shard_index(obj(&flipped), n)
            })
            .count() as f64;
        let share = moved / NAMES as f64;
        let expected = (n - 1) as f64 / n as f64;
        let sigma = (expected * (1.0 - expected) / NAMES as f64).sqrt();
        assert!((share - expected).abs() <= 3.0 * sigma, "{share:.3} vs {expected:.3}");
    }

    #[test]
    fn view_primary_skips_failed_replicas_and_counts_epochs() {
        // Node 0's view of shard 1 (replicas [1, 2, 3]), which it does not host.
        let cfg = HopliteConfig { directory_replication: 3, ..HopliteConfig::small_for_tests() };
        let mut svc = DirectoryService::new(NodeId(0), &cfg, &nodes(4), 0);
        let v = |svc: &DirectoryService| (svc.view().primary(1), svc.view().epoch(1));
        assert_eq!(v(&svc), (Some(NodeId(1)), 0));
        svc.fail(NodeId(1), &mut Vec::new());
        assert_eq!(v(&svc), (Some(NodeId(2)), 1));
        svc.fail(NodeId(2), &mut Vec::new());
        assert_eq!(v(&svc), (Some(NodeId(3)), 2));
        svc.fail(NodeId(3), &mut Vec::new());
        assert_eq!(v(&svc), (None, 3), "all replicas dead");
    }

    /// One piece of liveness evidence: its claims and its standing.
    type Evidence = (Vec<GossipEntry>, Option<(NodeId, u64, bool)>);

    /// A splitmix64 step.
    fn draw(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A seeded history of one peer's life, as the evidence a viewer hears of it, in
    /// order: deaths, restarts, refutations (gossip of a newer incarnation, which
    /// keeps the readmission), readmissions, and crashes slept through — heard from
    /// the restarted node itself, or as gossip its restart request then follows.
    fn peer_history(rng: &mut u64, peer: NodeId, events: u64) -> Vec<Evidence> {
        // The peer's incarnation, and whether it is alive, readmitted, and readmitted
        // only because gossip of it kept the readmission of the one before.
        let (mut incarnation, mut alive, mut readmitted, mut kept) = (0u64, true, true, false);
        let mut history = Vec::new();
        for _ in 0..events {
            let evidence = match (alive, readmitted, kept, draw(rng) % 4) {
                (false, ..) => {
                    incarnation += 1;
                    (alive, readmitted) = (true, false);
                    (vec![(peer, incarnation, Alive)], Some((peer, incarnation, false)))
                }
                (true, _, _, 0) => {
                    (alive, kept) = (false, false);
                    (vec![(peer, incarnation, Dead)], None)
                }
                (true, false, _, 1) | (true, true, true, 1) => {
                    (readmitted, kept) = (true, false);
                    (vec![(peer, incarnation, Alive)], Some((peer, incarnation, true)))
                }
                (true, true, true, 2) => {
                    (readmitted, kept) = (false, false);
                    (vec![(peer, incarnation, Alive)], Some((peer, incarnation, false)))
                }
                (true, true, _, _) => {
                    incarnation += 1;
                    kept = true;
                    (vec![(peer, incarnation, Alive)], None)
                }
                (true, false, ..) => {
                    let claims = vec![(peer, incarnation, Dead), (peer, incarnation + 1, Alive)];
                    incarnation += 1;
                    (claims, Some((peer, incarnation, false)))
                }
            };
            history.push(evidence);
        }
        history
    }

    fn epochs_of(svc: &DirectoryService) -> Vec<u64> {
        (0..svc.placement().num_shards()).map(|s| svc.view().epoch(s)).collect()
    }

    /// Hear the peers' histories at node 0: interleaved at random, each in its own
    /// order, and runs of consecutive evidence batched at random into one call (a
    /// standing only ever last in its batch). Every change to a member's entry must
    /// strictly raise its shard's epoch, but one: a restart request naming the
    /// incarnation gossip brought in readmitted (a crash slept through) lowers that
    /// member's term by one, and the epoch must stay above every epoch the view held
    /// before that incarnation arrived, so a promotion there goes above anything the
    /// crashed incarnation's predecessor led at in this view.
    fn hear(histories: &[Vec<Evidence>], rng: &mut u64, cfg: &HopliteConfig) -> DirectoryService {
        let n = histories.len() as u32 + 1;
        let mut svc = DirectoryService::new(NodeId(0), cfg, &nodes(n), 0);
        let entries = |svc: &DirectoryService| svc.view().table().entries().collect::<Vec<_>>();
        // (peer, incarnation) -> every shard's epoch before gossip kept it readmitted.
        let mut kept = BTreeMap::new();
        let mut next = vec![0; histories.len()];
        let mut batch: Evidence = (Vec::new(), None);
        loop {
            let open: Vec<usize> =
                (0..histories.len()).filter(|&p| next[p] < histories[p].len()).collect();
            if let Some(&p) = open.get((draw(rng) % open.len().max(1) as u64) as usize) {
                let (claims, standing) = &histories[p][next[p]];
                next[p] += 1;
                batch.0.extend_from_slice(claims);
                batch.1 = *standing;
                if batch.1.is_none() && open.len() > 1 && draw(rng).is_multiple_of(2) {
                    continue;
                }
            }
            let (table, epochs) = (entries(&svc), epochs_of(&svc));
            let (claims, standing) = std::mem::take(&mut batch);
            svc.liveness(&claims, standing, T, &mut Vec::new());
            let after = entries(&svc);
            for (&(node, held, _, was), &(_, now, state, is)) in table.iter().zip(&after) {
                if was && is && now > held && state != Dead {
                    kept.insert((node, now), epochs.clone());
                }
            }
            for (shard, (&before, now)) in epochs.iter().zip(epochs_of(&svc)).enumerate() {
                let members = svc.placement().replica_set(shard);
                let moved = members.iter().any(|m| table[m.index()] != after[m.index()]);
                let slept = members.iter().find_map(|m| {
                    let ((_, held, _, was), (_, now, state, is)) =
                        (table[m.index()], after[m.index()]);
                    (was && !is && held == now && state != Dead).then(|| kept[&(*m, now)][shard])
                });
                let ctx = format!("shard {shard}: {claims:?} {standing:?}");
                match slept {
                    Some(floor) => assert!(now > floor, "{ctx}: {now} vs {floor}"),
                    None => {
                        assert!(!moved || now > before, "{ctx}");
                        assert_eq!(now, before.max(now), "{ctx}: the epoch fell");
                    }
                }
            }
            if open.is_empty() {
                return svc;
            }
        }
    }

    /// Leadership is a function of the table: 1 200 seeded histories at n = 4–8 and
    /// r = 2 and 3, each heard by two views in different interleavings and batchings,
    /// route alike and name the same epochs. A rank cursor moved by deaths in the
    /// order heard, or an epoch counting the events heard, fails this.
    #[test]
    fn two_views_holding_one_table_route_alike_in_any_order() {
        let mut rng = 51;
        for case in 0..1200u64 {
            let n = 4 + (case % 5) as u32;
            let directory_replication = 2 + (case / 5 % 2) as usize;
            let cfg = HopliteConfig { directory_replication, ..HopliteConfig::small_for_tests() };
            let histories: Vec<Vec<Evidence>> = (1..n)
                .map(|p| {
                    let events = draw(&mut rng) % 6;
                    peer_history(&mut rng, NodeId(p), events)
                })
                .collect();
            let [a, b] = [0, 1].map(|_| hear(&histories, &mut rng, &cfg));
            assert_eq!(a.view().table(), b.view().table(), "case {case}");
            assert_eq!(a.view().routes(), b.view().routes(), "case {case}: {histories:?}");
            assert_eq!(epochs_of(&a), epochs_of(&b), "case {case}: {histories:?}");
        }
    }

    #[test]
    fn a_readmitted_owner_fails_back_at_a_strictly_higher_epoch() {
        // Node 2's view of shard 0 on a 3-node cluster with r = 2: replicas [0, 1].
        let cfg = HopliteConfig::small_for_tests();
        let mut svc = DirectoryService::new(NodeId(2), &cfg, &nodes(3), 0);
        let v = |svc: &DirectoryService| (svc.view().primary(0), svc.view().epoch(0));
        assert_eq!(v(&svc), (Some(NodeId(0)), 0));
        svc.fail(NodeId(0), &mut Vec::new());
        assert_eq!(v(&svc), (Some(NodeId(1)), 1));
        // Node 0 recovers: still not a candidate while resyncing.
        svc.recover(NodeId(0));
        assert!(svc.view().is_resyncing(NodeId(0)));
        assert_eq!(v(&svc), (Some(NodeId(1)), 2));
        // Re-admission: the owner leads its shard again, above every epoch before.
        let back = svc.readmit(NodeId(0));
        assert!(!svc.view().is_resyncing(NodeId(0)));
        assert_eq!(back.moved, vec![0], "shard 0 fails back: {back:?}");
        assert_eq!(v(&svc), (Some(NodeId(0)), 3));
        // When the owner dies again, the backup leads at a higher epoch still.
        svc.fail(NodeId(0), &mut Vec::new());
        assert_eq!(v(&svc), (Some(NodeId(1)), 4));
    }

    #[test]
    fn service_applies_as_primary_ships_the_sequenced_log_and_confirms() {
        let cfg = HopliteConfig::small_for_tests();
        let ns = nodes(4);
        let mut svc = DirectoryService::new(NodeId(0), &cfg, &ns, 0);
        let o = obj_in_shard(&svc, 0);
        let mut out = Vec::new();
        assert!(svc.submit(reg(o, 2), &mut out));
        assert_eq!(svc.locations(o).unwrap().len(), 1);
        // The op was shipped, sequenced, to the shard's backup (node 1).
        let (backup, seq) = out
            .iter()
            .find_map(|(to, m)| match m {
                Message::DirReplicate { shard: 0, epoch: 0, seq, .. } => Some((*to, *seq)),
                _ => None,
            })
            .expect("log shipment");
        assert_eq!(backup, NodeId(1));
        assert_eq!(seq, 1);
        // The primary confirms nothing: it has a live backup.
        assert!(!out.iter().any(|(_, m)| matches!(m, Message::DirConfirm { .. })), "{out:?}");
        // The backup applies the shipment and confirms it to the origin (node 2)
        // itself; nothing goes back to the primary.
        let mut backup_svc = DirectoryService::new(NodeId(1), &cfg, &ns, 0);
        let mut sent = Vec::new();
        for (_, msg) in out {
            let mut metrics = NodeMetrics::default();
            assert_eq!(backup_svc.handle(NodeId(0), msg, &mut metrics, &mut sent), None);
        }
        let kind = ConfirmKind::Location { status: ObjectStatus::Complete };
        assert_eq!(sent, vec![(NodeId(2), Message::DirConfirm { object: o, kind })]);
        assert_eq!(backup_svc.locations(o).unwrap().len(), 1);
    }

    #[test]
    fn a_primary_with_no_live_backup_confirms_at_once() {
        let cfg = HopliteConfig::small_for_tests();
        let kind = ConfirmKind::Location { status: ObjectStatus::Complete };
        // r = 2 with the backup dead, and r = 1: the lone replica confirms itself.
        let lone = DirectoryService::new(
            NodeId(0),
            &HopliteConfig { directory_replication: 1, ..cfg.clone() },
            &nodes(2),
            0,
        );
        let mut orphaned = DirectoryService::new(NodeId(0), &cfg, &nodes(2), 0);
        orphaned.fail(NodeId(1), &mut Vec::new());
        for mut svc in [lone, orphaned] {
            let o = obj_in_shard(&svc, 0);
            let mut out = Vec::new();
            assert!(svc.submit(reg(o, 1), &mut out));
            assert_eq!(out, vec![(NodeId(1), Message::DirConfirm { object: o, kind })]);
        }
    }

    #[test]
    fn non_primary_forwards_to_the_believed_primary() {
        let cfg = HopliteConfig::small_for_tests();
        let ns = nodes(4);
        let mut svc = DirectoryService::new(NodeId(3), &cfg, &ns, 0);
        let o = obj_in_shard(&svc, 1);
        let mut out = Vec::new();
        let applied = svc.submit(DirOp::Subscribe { object: o, subscriber: NodeId(3) }, &mut out);
        assert!(!applied);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].0, NodeId(1));
        assert!(matches!(out[0].1, Message::DirSubscribe { .. }));
    }

    #[test]
    fn backup_promotes_when_the_primary_dies() {
        let cfg = HopliteConfig::small_for_tests();
        let ns = nodes(3);
        // Node 1 backs up shard 0 (replica set [0, 1]).
        let mut svc = DirectoryService::new(NodeId(1), &cfg, &ns, 0);
        let o = obj_in_shard(&svc, 0);
        // Replicated state arrives from the primary before it dies, and is confirmed
        // to its origin (node 2), not acked to the primary.
        let mut out = Vec::new();
        assert!(svc.handle_replicate(0, 0, 1, &reg(o, 2), NodeId(0), &mut out));
        let kind = ConfirmKind::Location { status: ObjectStatus::Complete };
        assert_eq!(out, vec![(NodeId(2), Message::DirConfirm { object: o, kind })]);
        out.clear();
        let changed = svc.fail(NodeId(0), &mut out);
        assert_eq!(changed.moved, vec![0], "shard 0 failed over");
        assert_eq!(changed.backups, vec![2], "shard 2 only lost its backup");
        assert_eq!(svc.primary_for(o), Some(NodeId(1)));
        assert_eq!(svc.replica(0).unwrap().epoch(), 1, "promotion at the shard's epoch");
        // The replicated record survived the failover, and the promoted replica now
        // answers ops itself.
        let mut out = Vec::new();
        assert!(svc.submit(
            DirOp::Query { object: o, requester: NodeId(2), query_id: 1, exclude: vec![] },
            &mut out,
        ));
        assert!(svc.locations(o).unwrap().iter().any(|(n, _)| *n == NodeId(2)));
    }

    #[test]
    fn acked_prefix_alone_survives_failover_without_any_client_redrive() {
        // The acceptance scenario at the service level, clients fully gagged: ops are
        // applied at the primary, shipped, and acked; the primary then dies. The
        // promoted backup must hold every acked registration with no client re-drive
        // of any kind.
        let cfg = HopliteConfig::small_for_tests();
        let ns = nodes(3);
        let mut primary_svc = DirectoryService::new(NodeId(0), &cfg, &ns, 0);
        let mut backup_svc = DirectoryService::new(NodeId(1), &cfg, &ns, 0);
        // Five distinct objects, all in shard 0.
        let objects: Vec<ObjectId> = (0u64..)
            .map(|k| obj(&format!("gagged-{k}")))
            .filter(|&o| primary_svc.placement().shard_of(o) == 0)
            .take(5)
            .collect();
        let mut out = Vec::new();
        for (i, &o) in objects.iter().enumerate() {
            // Holders are third-party nodes, not the dying primary (a dead node's own
            // locations are purged by definition).
            assert!(primary_svc.submit(reg(o, 10 + i as u32), &mut out));
        }
        // Deliver the shipments to the backup (ack replies ignored — the primary is
        // about to die anyway).
        let mut acks = Vec::new();
        for (to, m) in out.drain(..) {
            if let Message::DirReplicate { shard, epoch, seq, op } = m {
                assert_eq!(to, NodeId(1));
                backup_svc.handle_replicate(shard as usize, epoch, seq, &op, NodeId(0), &mut acks);
            }
        }
        // The primary dies. Nobody re-drives anything.
        backup_svc.fail(NodeId(0), &mut Vec::new());
        for &o in &objects {
            assert_eq!(
                backup_svc.locations(o).map(|l| l.len()),
                Some(1),
                "acked registration for {o:?} survived with clients gagged"
            );
        }
    }

    #[test]
    fn resync_completed_by_source_death_promotes_and_announces() {
        // Node 0 restarts and requests snapshots for both hosted shards; every
        // snapshot source dies before serving. The resync must still complete (via
        // the abandonment path), the re-admission announcement must become pending,
        // and — since node 0 is now each shard's only eligible replica — its
        // replicas must be *promoted*, not left as Backups the cluster routes to.
        let cfg = HopliteConfig::small_for_tests();
        let ns = nodes(3);
        let mut restarted = DirectoryService::new(NodeId(0), &cfg, &ns, 1);
        let mut requests = Vec::new();
        assert!(restarted.begin_local_resync(&mut requests));
        let mut out = Vec::new();
        restarted.fail(NodeId(1), &mut out); // shard 0's source
        assert!(restarted.is_resyncing(), "shard 2's snapshot still outstanding");
        assert!(restarted.take_readmission().is_none());
        let rerouted = restarted.fail(NodeId(2), &mut out); // shard 2's source
        assert!(!restarted.is_resyncing(), "no sources left: resync completes");
        // The one net route change covers the readmission: both hosted shards now have
        // this node as primary, shard 0 leaderless before, shard 2 led by the dead node.
        assert_eq!(rerouted.moved, vec![0, 2], "both hosted shards re-routed to this node");
        let pending = restarted.take_readmission().expect("DirResynced must be broadcast");
        assert!(pending.is_empty(), "re-driven once, by the liveness change");
        assert!(restarted.take_readmission().is_none(), "announced exactly once");
        // Both hosted shards are now led — and *servable* — by node 0.
        for shard in [0usize, 2] {
            let replica = restarted.replica(shard).unwrap();
            assert_eq!(replica.role(), ReplicaRole::Primary, "shard {shard} promoted");
            assert_eq!(replica.resync(), None);
            let o = obj_in_shard(&restarted, shard);
            let mut ops_out = Vec::new();
            assert!(restarted.submit(reg(o, 5), &mut ops_out), "shard {shard} applies ops");
        }
    }

    #[test]
    fn restart_request_from_a_believed_primary_is_served_not_dropped() {
        // Node 0 crashes and restarts *before* the failure detector tells node 1.
        // Node 1 still believes node 0 leads shard 0, so node 0's restart snapshot
        // request must itself carry the news: its digest names incarnation 1, and with
        // the crash of incarnation 0 that implies claimed (by the node's evidence
        // function, mirrored by `deliver_to`) node 1 promotes itself and serves the
        // snapshot — instead of silently dropping the request and wedging node 0 in
        // resync forever.
        let cfg = HopliteConfig::small_for_tests();
        let ns = nodes(3);
        let mut survivor = DirectoryService::new(NodeId(1), &cfg, &ns, 0);
        let o = obj_in_shard(&survivor, 0);
        assert_eq!(survivor.primary_for(o), Some(NodeId(0)), "failure not yet detected");
        let mut requests = Vec::new();
        assert!(DirectoryService::new(NodeId(0), &cfg, &ns, 1).begin_local_resync(&mut requests));
        let restart = requests
            .into_iter()
            .find_map(|(_, m)| {
                matches!(m, Message::DirSnapshotRequest { shard: 0, .. }).then_some(m)
            })
            .expect("a restart request for shard 0");
        let mut out = Vec::new();
        let mut metrics = NodeMetrics::default();
        deliver_to(&mut survivor, &mut metrics, NodeId(0), restart, &mut out);
        assert_eq!(survivor.primary_for(o), Some(NodeId(1)), "implied failure folded in");
        assert_eq!(survivor.replica(0).unwrap().role(), ReplicaRole::Primary);
        assert!(
            out.iter().any(|(to, m)| *to == NodeId(0)
                && matches!(m, Message::DirSnapshotChunk { shard: 0, done: true, .. })),
            "resync served to the restarted node: {out:?}"
        );
        // The detector's own verdict about incarnation 0, arriving later, is stale.
        let verdict = [(NodeId(0), 0, Dead)];
        let late = survivor.liveness(&verdict, None, T, &mut out);
        assert_eq!(late.transitions, vec![Transition::Stale]);
        assert_eq!(late.rerouted, Rerouted::default(), "already failed over");
        // A *gap* catch-up request from a live backup must not depose anyone.
        let mut survivor2 = DirectoryService::new(NodeId(1), &cfg, &ns, 0);
        let mut out2 = Vec::new();
        let gap = request(1, NodeId(2), false);
        deliver_to(&mut survivor2, &mut metrics, NodeId(2), gap, &mut out2);
        assert_eq!(survivor2.view().primary(2), Some(NodeId(2)), "live backup untouched");
    }

    #[test]
    fn readmission_returns_the_leaderless_shards_for_redrive() {
        // Node 0's view of shard 1, replicas [1, 2] on a 3-node cluster. Both die; the
        // shard is leaderless. When node 1 is readmitted (restarted + resynced from
        // nothing), the net route change must name shard 1 as moved so clients
        // re-drive their unconfirmed intents at it.
        let cfg = HopliteConfig::small_for_tests();
        let mut svc = DirectoryService::new(NodeId(0), &cfg, &nodes(3), 0);
        svc.fail(NodeId(1), &mut Vec::new());
        svc.fail(NodeId(2), &mut Vec::new());
        assert_eq!(svc.view().primary(1), None);
        let e = svc.view().epoch(1);
        svc.recover(NodeId(1));
        assert_eq!(svc.view().primary(1), None, "resyncing nodes do not lead");
        let regained = svc.readmit(NodeId(1));
        assert_eq!(regained, Rerouted { moved: vec![1], backups: vec![] }, "leaderless -> led");
        assert_eq!(svc.view().primary(1), Some(NodeId(1)));
        assert!(svc.view().epoch(1) > e);
        // A readmission that does not change any primary regains nothing.
        assert_eq!(svc.readmit(NodeId(1)), Rerouted::default());
    }

    #[test]
    fn recovering_replica_resyncs_and_is_readmitted() {
        let cfg = HopliteConfig::small_for_tests();
        let ns = nodes(3);
        // Shard 0: replicas [0, 1]; node 0 also backs up shard 2 (replicas [2, 0]).
        // Node 0 dies; node 1 promotes shard 0 and accumulates state; node 0 restarts
        // and resyncs both hosted shards.
        let mut svcs: Vec<DirectoryService> =
            (0..3).map(|i| DirectoryService::new(NodeId(i), &cfg, &ns, 0)).collect();
        let mut m = vec![NodeMetrics::default(); 3];
        let mut out = Vec::new();
        svcs[1].fail(NodeId(0), &mut out);
        svcs[2].fail(NodeId(0), &mut out);
        let o = obj_in_shard(&svcs[1], 0);
        assert!(svcs[1].submit(reg(o, 2), &mut out));
        out.clear();

        // Node 0 restarts empty and begins recovery.
        svcs[0] = DirectoryService::new(NodeId(0), &cfg, &ns, 1);
        let mut requests = Vec::new();
        assert!(svcs[0].begin_local_resync(&mut requests));
        assert!(svcs[0].is_resyncing());
        // While resyncing, the restarted node does not believe it leads shard 0.
        assert_ne!(svcs[0].primary_for(o), Some(NodeId(0)));

        // Route messages between the three services until the resync settles —
        // the stream shape (chunks, continuation requests) is the services' own
        // business here.
        let mut queue: Vec<(NodeId, NodeId, Message)> =
            requests.into_iter().map(|(to, m)| (NodeId(0), to, m)).collect();
        while let Some((from, to, msg)) = queue.pop() {
            queue.extend(deliver(&mut svcs, &mut m, from, to, msg));
        }
        let restarted = &svcs[0];
        assert!(!restarted.is_resyncing(), "local resync completed");
        // The resynced replica holds the record registered while it was down.
        assert_eq!(restarted.locations(o).map(|l| l.len()), Some(1));
        // It takes its shard back at once, strictly above the survivor's epoch.
        let epoch = |svc: &DirectoryService| svc.replica(0).map(|r| (r.role(), r.epoch()));
        let (Some((ReplicaRole::Primary, interim)), Some((ReplicaRole::Primary, back))) =
            (epoch(&svcs[1]), epoch(restarted))
        else {
            panic!("both still sequence until the survivor hears the rejoiner")
        };
        assert!(restarted.is_primary_for(o));
        assert!(back > interim, "fail-back at {back}, above {interim}");
        // The rejoiner's `DirResynced` hands the shard back at the survivor, whose
        // replica stops sequencing in the same reconcile.
        let changed = svcs[1].readmit(NodeId(0));
        assert!(changed.moved.contains(&0), "{changed:?}");
        assert_eq!(svcs[1].primary_for(o), Some(NodeId(0)));
        assert_eq!(epoch(&svcs[1]), Some((ReplicaRole::Backup, interim)));
        assert_eq!(svcs[1].view().epoch(0), back, "both views name one epoch");
    }

    #[test]
    fn r3_primary_ships_every_op_to_every_live_backup() {
        let cfg = HopliteConfig { directory_replication: 3, ..HopliteConfig::small_for_tests() };
        let ns = nodes(3);
        let mut p = DirectoryService::new(NodeId(0), &cfg, &ns, 0);
        let o = obj_in_shard(&p, 0);
        let mut out = Vec::new();
        assert!(p.submit(reg(o, 1), &mut out));
        let mut ships: Vec<NodeId> = out
            .iter()
            .filter_map(|(to, m)| matches!(m, Message::DirReplicate { .. }).then_some(*to))
            .collect();
        ships.sort_by_key(|n| n.0);
        assert_eq!(ships, vec![NodeId(1), NodeId(2)], "star ships to every live backup");
        // Each backup confirms to the origin (node 1) itself; the primary confirms
        // nothing while it ships.
        assert!(!out.iter().any(|(_, m)| matches!(m, Message::DirConfirm { .. })), "{out:?}");
        let kind = ConfirmKind::Location { status: ObjectStatus::Complete };
        for backup in [1, 2] {
            let mut svc = DirectoryService::new(NodeId(backup), &cfg, &ns, 0);
            let mut sent = Vec::new();
            for (_, msg) in out.iter().filter(|(to, _)| *to == NodeId(backup)) {
                let mut metrics = NodeMetrics::default();
                assert_eq!(svc.handle(NodeId(0), msg.clone(), &mut metrics, &mut sent), None);
            }
            assert_eq!(sent, vec![(NodeId(1), Message::DirConfirm { object: o, kind })]);
        }
        // A dead backup stops being shipped to.
        p.fail(NodeId(2), &mut Vec::new());
        out.clear();
        assert!(p.submit(reg(obj_in_shard(&p, 0), 1), &mut out));
        assert!(!out.iter().any(|(to, _)| *to == NodeId(2)), "dead backup not shipped to");
    }

    // --------------------------------------------------------- chunked resync ----

    /// Route a single message to its recipient (services and their metrics indexed by
    /// node id) and return the resulting sends as `(from, to, msg)` triples.
    /// What goes to clients (`DirConfirm`s and replies) is swallowed — the resync tests
    /// don't assert on it.
    fn deliver(
        svcs: &mut [DirectoryService],
        metrics: &mut [NodeMetrics],
        from: NodeId,
        to: NodeId,
        msg: Message,
    ) -> Vec<(NodeId, NodeId, Message)> {
        if matches!(
            msg,
            Message::DirConfirm { .. }
                | Message::DirPublish { .. }
                | Message::DirQueryReply { .. }
                | Message::StoreRelease { .. }
        ) {
            return Vec::new();
        }
        let at = to.0 as usize;
        let mut out = Vec::new();
        deliver_to(&mut svcs[at], &mut metrics[at], from, msg, &mut out);
        out.into_iter().map(|(to2, m2)| (to, to2, m2)).collect()
    }

    #[test]
    fn a_live_backup_with_a_gap_is_caught_up_by_chunks() {
        // Shard 0 replicas [0, 1] on a 3-node cluster: node 0 primary, node 1 backup.
        let cfg = HopliteConfig::small_for_tests();
        let ns = nodes(3);
        let mut svcs: Vec<DirectoryService> =
            (0..2).map(|i| DirectoryService::new(NodeId(i), &cfg, &ns, 0)).collect();
        let mut m = vec![NodeMetrics::default(); 2];
        let objects: Vec<ObjectId> = (0u64..)
            .map(|k| obj(&format!("gap-{k}")))
            .filter(|&o| svcs[0].placement().shard_of(o) == 0)
            .take(4)
            .collect();
        // Op 1 replicates normally and is acked.
        let mut out = Vec::new();
        assert!(svcs[0].submit(reg(objects[0], 2), &mut out));
        let mut queue: Vec<_> = out.drain(..).map(|(to, m)| (NodeId(0), to, m)).collect();
        while let Some((from, to, msg)) = queue.pop() {
            queue.extend(deliver(&mut svcs, &mut m, from, to, msg));
        }
        // Ops 2 and 3 are applied at the primary but their shipments are lost.
        assert!(svcs[0].submit(reg(objects[1], 2), &mut out));
        assert!(svcs[0].submit(reg(objects[2], 2), &mut out));
        out.clear();
        // Op 4's shipment arrives and exposes the gap.
        assert!(svcs[0].submit(reg(objects[3], 2), &mut out));
        let (seq4, op4) = out
            .iter()
            .find_map(|(_, m)| match m {
                Message::DirReplicate { seq, op, .. } => Some((*seq, op.clone())),
                _ => None,
            })
            .expect("op 4 shipped");
        let mut requests = Vec::new();
        svcs[1].handle_replicate(0, 0, seq4, &op4, NodeId(0), &mut requests);
        assert_eq!(svcs[1].replica(0).unwrap().applied_seq(), 1, "backup applied only op 1");
        assert!(
            matches!(
                requests[..],
                [(
                    NodeId(0),
                    Message::DirSnapshotRequest { shard: 0, restart: false, after: None, .. }
                )]
            ),
            "the gap opens a fresh chunk stream: {requests:?}"
        );
        // The primary streams the shard's state; the backup installs it, holds the
        // buffered op 4 the last chunk already covers, and confirms it — and nothing
        // else: ops 2 and 3 never reached it.
        let mut confirmed = Vec::new();
        let mut queue: Vec<_> = requests.into_iter().map(|(to, m)| (NodeId(1), to, m)).collect();
        while let Some((from, to, msg)) = queue.pop() {
            assert!(!matches!(msg, Message::DirAck { .. }), "nothing is acked");
            if let Message::DirConfirm { object, .. } = msg {
                confirmed.push((from, object));
            }
            queue.extend(deliver(&mut svcs, &mut m, from, to, msg));
        }
        assert!(m[0].snapshot_chunks_sent >= 1, "caught up by state chunks");
        assert_eq!(m[1].directory_resyncs, 1, "one stream installed");
        assert_eq!(confirmed, vec![(NodeId(1), objects[3])], "the backup confirmed op 4");
        assert_eq!(svcs[1].replica(0).unwrap().resync(), None);
        assert_eq!(svcs[1].replica(0).unwrap().applied_seq(), 4);
        for &o in &objects {
            assert_eq!(svcs[1].locations(o).map(|l| l.len()), Some(1), "record installed");
        }
    }

    #[test]
    fn a_backup_promoted_mid_stream_keeps_every_confirmed_record() {
        // Shard 0 replicas [0, 1] on a 3-node cluster. A tiny chunk budget makes the
        // shard's state a stream of many chunks.
        let cfg = HopliteConfig { snapshot_chunk_bytes: 64, ..HopliteConfig::small_for_tests() };
        let ns = nodes(3);
        let mut svcs: Vec<DirectoryService> =
            (0..2).map(|i| DirectoryService::new(NodeId(i), &cfg, &ns, 0)).collect();
        let mut m = vec![NodeMetrics::default(); 2];
        let objects: Vec<ObjectId> = (0u64..)
            .map(|k| obj(&format!("mid-{k}")))
            .filter(|&o| svcs[0].placement().shard_of(o) == 0)
            .take(10)
            .collect();
        // Eight registrations replicate, are acked and confirmed to their holder.
        let mut confirmed = Vec::new();
        for &o in &objects[..8] {
            let mut out = Vec::new();
            assert!(svcs[0].submit(reg(o, 2), &mut out));
            let mut queue: Vec<_> = out.drain(..).map(|(to, m)| (NodeId(0), to, m)).collect();
            while let Some((from, to, msg)) = queue.pop() {
                if let Message::DirConfirm { object, .. } = msg {
                    confirmed.push(object);
                }
                queue.extend(deliver(&mut svcs, &mut m, from, to, msg));
            }
        }
        assert_eq!(confirmed, objects[..8], "every registration confirmed");
        // The ninth's shipment is lost; the tenth's exposes the gap.
        let mut out = Vec::new();
        assert!(svcs[0].submit(reg(objects[8], 2), &mut out));
        out.clear();
        assert!(svcs[0].submit(reg(objects[9], 2), &mut out));
        let mut queue: Vec<_> = out.drain(..).map(|(to, m)| (NodeId(0), to, m)).collect();
        let mut requests = Vec::new();
        while let Some((from, to, msg)) = queue.pop() {
            match msg {
                Message::DirSnapshotRequest { .. } => requests.push((from, to, msg)),
                msg => queue.extend(deliver(&mut svcs, &mut m, from, to, msg)),
            }
        }
        // The primary serves one frame and the backup installs it; then the primary
        // dies before serving the backup's next request.
        let [(from, to, msg)] = &requests[..] else { panic!("one resync request: {requests:?}") };
        for (from, to, msg) in deliver(&mut svcs, &mut m, *from, *to, msg.clone()) {
            deliver(&mut svcs, &mut m, from, to, msg);
        }
        svcs[1].fail(NodeId(0), &mut Vec::new());
        let replica = svcs[1].replica(0).unwrap();
        assert_eq!(replica.role(), ReplicaRole::Primary);
        assert_eq!(replica.resync(), None);
        assert!(replica.applied_seq() >= 8, "the promotion builds on the applied prefix");
        for &o in &confirmed {
            assert_eq!(svcs[1].locations(o).map(|l| l.len()), Some(1), "confirmed record kept");
        }
    }

    #[test]
    fn chunked_resync_streams_bounded_chunks_and_replays_what_they_missed() {
        // Two nodes, r = 2: shard 0 replicas [0, 1], shard 1 replicas [1, 0]. A tiny
        // chunk budget forces a long stream so live mutations can land mid-flight.
        let cfg = HopliteConfig { snapshot_chunk_bytes: 256, ..HopliteConfig::small_for_tests() };
        let ns = nodes(2);
        let mut svcs: Vec<DirectoryService> =
            (0..2).map(|i| DirectoryService::new(NodeId(i), &cfg, &ns, 0)).collect();
        let mut m = vec![NodeMetrics::default(); 2];
        // Node 0 dies; node 1 promotes shard 0 (epoch 1) and leads everything.
        svcs[1].fail(NodeId(0), &mut Vec::new());
        let mut objects = Vec::new();
        for shard in 0..2usize {
            objects.extend(
                (0u64..)
                    .map(|k| obj(&format!("scale-{shard}-{k}")))
                    .filter(|&o| svcs[1].placement().shard_of(o) == shard)
                    .take(20),
            );
        }
        let mut scratch = Vec::new();
        for &o in &objects {
            assert!(svcs[1].submit(reg(o, 1), &mut scratch));
        }
        scratch.clear();
        // Node 0 restarts empty and resyncs both shards it hosts by chunks.
        svcs[0] = DirectoryService::new(NodeId(0), &cfg, &ns, 1);
        let mut requests = Vec::new();
        assert!(svcs[0].begin_local_resync(&mut requests));
        let mut queue: Vec<(NodeId, NodeId, Message)> =
            requests.into_iter().map(|(to, m)| (NodeId(0), to, m)).collect();
        let mut victim: Option<ObjectId> = None;
        let (mut chunks_seen, mut fresh_requests) = (0u64, 0);
        while let Some((from, to, msg)) = queue.pop() {
            fresh_requests +=
                usize::from(matches!(msg, Message::DirSnapshotRequest { after: None, .. }));
            if let Message::DirSnapshotChunk { state, done, .. } = &msg {
                chunks_seen += 1;
                assert!(
                    state.wire_size() <= 256 || state.entries.len() == 1,
                    "chunk over budget: {} bytes, {} entries",
                    state.wire_size(),
                    state.entries.len()
                );
                if victim.is_none() {
                    // First chunk in flight: mutate one of its entries at the
                    // source while the stream is still running, and deliver the
                    // shipment at once. The chunk already carries the entry, so only
                    // the buffered op, replayed by the last chunk, brings the change.
                    assert!(!done, "20 objects cannot fit one 256-byte chunk");
                    let object = state.entries.first().expect("chunk carries entries").object;
                    victim = Some(object);
                    let mut live = Vec::new();
                    assert!(svcs[1]
                        .submit(DirOp::Subscribe { object, subscriber: NodeId(1) }, &mut live,));
                    for (to2, m2) in live {
                        assert!(deliver(&mut svcs, &mut m, NodeId(1), to2, m2).is_empty());
                    }
                }
            }
            queue.extend(deliver(&mut svcs, &mut m, from, to, msg));
        }
        assert_eq!(chunks_seen, 14, "two shards of 20 entries at 3 per chunk");
        assert_eq!(fresh_requests, 2, "neither stream started over");
        assert_eq!(m[1].snapshot_chunks_sent, chunks_seen);
        assert!(m[1].snapshot_bytes > 0);
        assert_eq!(m[0].directory_resyncs, 2, "both shards resynced by chunks");
        // The restarted node converged on every record...
        assert!(!svcs[0].is_resyncing());
        for &o in &objects {
            assert_eq!(svcs[0].locations(o).map(|l| l.len()), Some(1));
        }
        // ...including the mutation that landed mid-stream behind the cursor: the
        // last chunk replayed the buffered shipment onto the staged entry.
        let victim = victim.expect("a chunk was served");
        let shard = svcs[0].placement().shard_of(victim);
        assert_eq!(
            svcs[0].replica(shard).unwrap().shard().subscriber_count(victim),
            1,
            "the shipped op was replayed onto the entry its chunk had carried"
        );
    }

    /// A frame in flight: `(from, to, msg)`.
    type Flight = (NodeId, NodeId, Message);

    /// Node 1 restarted empty and resyncs shard 0 from node 0, which holds `objects`:
    /// two nodes, r = 2, a 256-byte chunk budget. Returns the services, their metrics
    /// and node 1's requests.
    fn restarted_behind(
        objects: &[ObjectId],
    ) -> (Vec<DirectoryService>, Vec<NodeMetrics>, Vec<Flight>) {
        let cfg = HopliteConfig { snapshot_chunk_bytes: 256, ..HopliteConfig::small_for_tests() };
        let ns = nodes(2);
        let mut svcs: Vec<DirectoryService> =
            (0..2).map(|i| DirectoryService::new(NodeId(i), &cfg, &ns, 0)).collect();
        svcs[0].fail(NodeId(1), &mut Vec::new());
        for &o in objects {
            assert!(svcs[0].submit(reg(o, 0), &mut Vec::new()));
        }
        svcs[1] = DirectoryService::new(NodeId(1), &cfg, &ns, 1);
        let mut out = Vec::new();
        assert!(svcs[1].begin_local_resync(&mut out));
        let queue = out.into_iter().map(|(to, m)| (NodeId(1), to, m)).collect();
        (svcs, vec![NodeMetrics::default(); 2], queue)
    }

    /// Whether `a` and `b` hold `shard` identically, entry for entry.
    fn same_shard(a: &DirectoryService, b: &DirectoryService, shard: usize) -> bool {
        let [a, b] =
            [a, b].map(|s| s.replica(shard).unwrap().shard().snapshot_range(None, u64::MAX));
        a == b
    }

    #[test]
    fn a_lost_mid_stream_shipment_starts_the_stream_over() {
        let probe =
            DirectoryService::new(NodeId(0), &HopliteConfig::small_for_tests(), &nodes(2), 0);
        let objects: Vec<ObjectId> = (0u64..)
            .map(|k| obj(&format!("lost-{k}")))
            .filter(|&o| probe.placement().shard_of(o) == 0)
            .take(20)
            .collect();
        let (mut svcs, mut m, mut queue) = restarted_behind(&objects);
        // Once node 1 has installed shard 0's first chunk, node 0 applies an op on an
        // entry that chunk carried, and its shipment to node 1 is lost.
        let mut victim = None;
        let mut fresh_requests = 0;
        while let Some((from, to, msg)) = queue.pop() {
            if let Message::DirSnapshotRequest { shard: 0, after: None, .. } = msg {
                fresh_requests += 1;
            }
            let installs_first = victim.is_none()
                && matches!(&msg, Message::DirSnapshotChunk { shard: 0, done: false, .. });
            queue.extend(deliver(&mut svcs, &mut m, from, to, msg));
            if installs_first {
                let cursor = svcs[1].replica(0).unwrap().resync().unwrap().cursor;
                let object = objects.iter().copied().filter(|&o| Some(o) <= cursor).min();
                victim = object;
                let op = DirOp::Subscribe { object: object.unwrap(), subscriber: NodeId(0) };
                let mut live = Vec::new();
                assert!(svcs[0].submit(op, &mut live));
                let lost = live.iter().filter(|(to, m)| {
                    *to == NodeId(1) && matches!(m, Message::DirReplicate { .. })
                });
                assert_eq!(lost.count(), 1, "the op was shipped to the requester: {live:?}");
            }
        }
        assert_eq!(fresh_requests, 2, "the last chunk found the shipment missing and restarted");
        assert!(!svcs[1].is_resyncing());
        assert_eq!(svcs[1].replica(0).unwrap().resync(), None);
        let victim = victim.expect("a first chunk was installed");
        assert_eq!(svcs[1].replica(0).unwrap().shard().subscriber_count(victim), 1);
        assert!(same_shard(&svcs[0], &svcs[1], 0));
    }

    #[test]
    fn a_resyncing_backup_confirms_the_ops_it_replays_when_its_stream_ends() {
        let probe =
            DirectoryService::new(NodeId(0), &HopliteConfig::small_for_tests(), &nodes(2), 0);
        let objects: Vec<ObjectId> = (0u64..)
            .map(|k| obj(&format!("replayed-{k}")))
            .filter(|&o| probe.placement().shard_of(o) == 0)
            .take(20)
            .collect();
        let (mut svcs, mut m, mut queue) = restarted_behind(&objects);
        // Once node 1 has installed shard 0's first chunk, node 2 subscribes to an entry
        // that chunk carried, through node 0; the shipment reaches node 1 mid-stream.
        let mut live = None;
        let mut confirms = Vec::new();
        while let Some((from, to, msg)) = queue.pop() {
            if let Message::DirConfirm { object, kind } = msg {
                confirms.push((from, to, object, kind));
                continue;
            }
            let installs_first = live.is_none()
                && matches!(&msg, Message::DirSnapshotChunk { shard: 0, done: false, .. });
            queue.extend(deliver(&mut svcs, &mut m, from, to, msg));
            if installs_first {
                let cursor = svcs[1].replica(0).unwrap().resync().unwrap().cursor;
                let object = objects.iter().copied().filter(|&o| Some(o) <= cursor).min();
                let op = DirOp::Subscribe { object: object.unwrap(), subscriber: NodeId(2) };
                let mut sent = Vec::new();
                assert!(svcs[0].submit(op, &mut sent));
                assert!(!sent.iter().any(|(_, m)| matches!(m, Message::DirConfirm { .. })));
                for (to, msg) in sent {
                    assert!(deliver(&mut svcs, &mut m, NodeId(0), to, msg).is_empty(), "buffered");
                }
                live = object;
            }
        }
        assert!(!svcs[1].is_resyncing());
        // The last chunk replayed the subscription, and node 1 confirmed it to node 2.
        let live = live.expect("a first chunk was installed");
        assert_eq!(svcs[1].replica(0).unwrap().shard().subscriber_count(live), 1);
        let kind = ConfirmKind::Subscription;
        assert_eq!(confirms, vec![(NodeId(1), NodeId(2), live, kind)]);
    }

    #[test]
    fn a_stream_cut_by_its_sources_death_starts_over_at_the_new_primacy() {
        // Three nodes, r = 3, a 256-byte chunk budget: a restarted node is served a
        // multi-chunk stream.
        let cfg = HopliteConfig {
            directory_replication: 3,
            snapshot_chunk_bytes: 256,
            ..HopliteConfig::small_for_tests()
        };
        let ns = nodes(3);
        let mut svcs: Vec<DirectoryService> =
            (0..3).map(|i| DirectoryService::new(NodeId(i), &cfg, &ns, 0)).collect();
        let mut m = vec![NodeMetrics::default(); 3];
        let objects: Vec<ObjectId> = (0u64..)
            .map(|k| obj(&format!("resume-{k}")))
            .filter(|&o| svcs[0].placement().shard_of(o) == 0)
            .take(18)
            .collect();
        // Populate shard 0 through its primary; both backups apply and ack.
        let mut out = Vec::new();
        for &o in &objects {
            assert!(svcs[0].submit(reg(o, 2), &mut out));
            let mut queue: Vec<_> = out.drain(..).map(|(to, m)| (NodeId(0), to, m)).collect();
            while let Some((from, to, msg)) = queue.pop() {
                queue.extend(deliver(&mut svcs, &mut m, from, to, msg));
            }
        }
        // Node 1 dies and restarts empty; survivors digest the failure.
        svcs[0].fail(NodeId(1), &mut out);
        svcs[2].fail(NodeId(1), &mut out);
        out.clear();
        svcs[1] = DirectoryService::new(NodeId(1), &cfg, &ns, 1);
        let mut requests = Vec::new();
        assert!(svcs[1].begin_local_resync(&mut requests));
        // Run the resync until two chunks of shard 0 (served by node 0, the
        // primary) have been installed, then kill node 0 mid-stream.
        let mut queue: Vec<(NodeId, NodeId, Message)> =
            requests.into_iter().map(|(to, m)| (NodeId(1), to, m)).collect();
        let mut installed = 0;
        while installed < 2 {
            let (from, to, msg) = queue.pop().expect("shard 0 stream still in flight");
            if to == NodeId(1) && matches!(msg, Message::DirSnapshotChunk { shard: 0, .. }) {
                installed += 1;
            }
            queue.extend(deliver(&mut svcs, &mut m, from, to, msg));
        }
        let resync = svcs[1].replica(0).unwrap().resync().expect("stream in flight");
        assert!(resync.cursor.is_some(), "two chunks staged");
        // The crash drops everything in flight to or from node 0.
        queue.retain(|(from, to, _)| *from != NodeId(0) && *to != NodeId(0));
        let mut q1 = Vec::new();
        svcs[1].fail(NodeId(0), &mut q1);
        let mut q2 = Vec::new();
        svcs[2].fail(NodeId(0), &mut q2);
        // The stranded stream re-targets the new primary (node 2) and starts over: the
        // staged chunks came from another primacy, whose seqs do not compare.
        let restarted_after = q1
            .iter()
            .find_map(|(to, m)| match m {
                Message::DirSnapshotRequest { shard: 0, after, .. } => {
                    assert_eq!(*to, NodeId(2));
                    Some(*after)
                }
                _ => None,
            })
            .expect("stranded resync re-targeted");
        assert_eq!(restarted_after, None, "the stream starts over from its first chunk");
        assert_eq!(svcs[1].replica(0).unwrap().resync().unwrap().cursor, None);
        queue.extend(q1.into_iter().map(|(to, m)| (NodeId(1), to, m)));
        queue.extend(q2.into_iter().map(|(to, m)| (NodeId(2), to, m)));
        let mut restreamed = 0;
        while let Some((from, to, msg)) = queue.pop() {
            if to == NodeId(0) {
                continue;
            }
            if let Message::DirSnapshotChunk { shard: 0, epoch, ref state, .. } = msg {
                assert!(epoch > 0, "only the new primacy serves");
                restreamed += state.entries.len();
            }
            queue.extend(deliver(&mut svcs, &mut m, from, to, msg));
        }
        // Node 2 shipped all eighteen entries and the restarted replica converged.
        assert_eq!(restreamed, objects.len());
        assert!(!svcs[1].is_resyncing(), "resync completed at the new source");
        for &o in &objects {
            assert_eq!(svcs[1].locations(o).map(|l| l.len()), Some(1));
        }
        assert!(same_shard(&svcs[1], &svcs[2], 0));
    }

    #[test]
    fn an_op_applied_after_the_requesters_last_chunk_reaches_it_by_shipping() {
        // Two nodes, r = 2: node 0 leads both shards once node 1 dies. Node 1 restarts
        // and resyncs from node 0. Node 0's table learns of incarnation 1 once, as its
        // node reads the first request's digest, and then the frames go straight to
        // `handle`, which writes no liveness.
        let cfg = HopliteConfig::small_for_tests();
        let ns = nodes(2);
        let mut svcs: Vec<DirectoryService> =
            (0..2).map(|i| DirectoryService::new(NodeId(i), &cfg, &ns, 0)).collect();
        let mut metrics = NodeMetrics::default();
        svcs[0].fail(NodeId(1), &mut Vec::new());
        let o = obj_in_shard(&svcs[0], 0);
        assert!(svcs[0].submit(reg(o, 0), &mut Vec::new()));
        svcs[1] = DirectoryService::new(NodeId(1), &cfg, &ns, 1);
        let mut out = Vec::new();
        assert!(svcs[1].begin_local_resync(&mut out));
        // While the table holds node 1 dead, its request is not served.
        for (_, msg) in out.clone() {
            let mut sent = Vec::new();
            assert_eq!(svcs[0].handle(NodeId(1), msg, &mut metrics, &mut sent), None);
            assert!(sent.is_empty(), "served a requester the table holds dead: {sent:?}");
        }
        svcs[0].recover(NodeId(1));
        let mut queue: Vec<_> = out.into_iter().map(|(to, m)| (NodeId(1), to, m)).collect();
        while let Some((from, to, msg)) = queue.pop() {
            let mut sent = Vec::new();
            assert_eq!(svcs[to.0 as usize].handle(from, msg, &mut metrics, &mut sent), None);
            queue.extend(sent.into_iter().map(|(to2, m)| (to, to2, m)));
        }
        assert!(!svcs[1].is_resyncing(), "both chunk streams installed");
        assert_eq!(svcs[1].locations(o).map(|l| l.len()), Some(1));

        // Node 1 is alive in node 0's table, so a live backup: an op landing after the
        // final chunk is shipped to it, and node 1 confirms it.
        let late = (0u64..)
            .map(|k| obj(&format!("late-{k}")))
            .find(|&l| svcs[0].placement().shard_of(l) == 0)
            .unwrap();
        let mut out = Vec::new();
        assert!(svcs[0].submit(reg(late, 0), &mut out));
        assert!(!out.iter().any(|(_, m)| matches!(m, Message::DirConfirm { .. })), "{out:?}");
        let mut confirms = Vec::new();
        for (to, msg) in out {
            assert_eq!(to, NodeId(1));
            assert_eq!(svcs[1].handle(NodeId(0), msg, &mut metrics, &mut confirms), None);
        }
        assert_eq!(svcs[1].locations(late).map(|l| l.len()), Some(1), "shipped op applied");
        let kind = ConfirmKind::Location { status: ObjectStatus::Complete };
        assert_eq!(
            confirms,
            vec![(NodeId(0), Message::DirConfirm { object: late, kind })],
            "the requester confirms the op to its origin, and acks nothing"
        );
        // Its re-admission re-ships nothing and hands shard 1 back to its owner.
        let back = svcs[0].readmit(NodeId(1));
        assert_eq!(back, Rerouted { moved: vec![1], backups: vec![] });
        assert_eq!(svcs[0].replica(1).map(|r| r.role()), Some(ReplicaRole::Backup));
    }

    /// The catch-up rule converges under interleaved ops, lost shipments and ops that
    /// name ids the shard never held. Node 1 restarts empty and resyncs both shards
    /// from node 0 in 200-byte chunks while node 0 applies 60 random ops on 30
    /// registered ids and 10 unknown ones; on odd seeds one in nine shipments to node 1
    /// is lost, but never the shipment of a shard's last op, so a gap on either shard
    /// always shows behind it. Frames between two nodes arrive in the order sent, as
    /// every transport delivers them, and the two directions interleave at random.
    /// Node 1's completed resync is announced to node 0 as its node does
    /// (`DirResynced`), which hands shard 1 back to it: node 0 forwards the script's
    /// later shard-1 ops there, and a shipment of node 0's that reached node 1 after
    /// its promotion is a straggler it rejects, which the op's origin would re-drive.
    /// So a last op per shard, at the end, exposes any suffix a demoted node 0 holds.
    /// Every seed must finish its streams within a step bound, with no resync left in
    /// flight and node 1's shards equal to node 0's, entry for entry. Inline puts are
    /// left out: a resynced replica's inline put-order stamps can differ from its
    /// source's, which entry equality would report.
    #[test]
    fn seeded_streams_with_live_ops_and_lost_shipments_converge() {
        const STEP_BOUND: usize = 20_000;
        for seed in 1..=400u64 {
            let cfg =
                HopliteConfig { snapshot_chunk_bytes: 200, ..HopliteConfig::small_for_tests() };
            // The last ten ids are never registered.
            let ids: Vec<ObjectId> = (0..40).map(|k| obj(&format!("conv-{k}"))).collect();
            let mut svcs: Vec<DirectoryService> =
                (0..2).map(|i| DirectoryService::new(NodeId(i), &cfg, &nodes(2), 0)).collect();
            let mut m = vec![NodeMetrics::default(); 2];
            svcs[0].fail(NodeId(1), &mut Vec::new());
            for &o in &ids[..30] {
                assert!(svcs[0].submit(reg(o, 0), &mut Vec::new()));
            }
            svcs[1] = DirectoryService::new(NodeId(1), &cfg, &nodes(2), 1);
            let mut out = Vec::new();
            assert!(svcs[1].begin_local_resync(&mut out));
            let mut queue: Vec<_> = out.into_iter().map(|(to, m)| (NodeId(1), to, m)).collect();
            let mut state = seed;
            let mut draw = |n: u64| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state % n
            };
            let mut script: Vec<DirOp> = (0..60)
                .map(|_| {
                    let object = ids[draw(40) as usize];
                    let node = NodeId(draw(2) as u32);
                    match draw(7) {
                        0 => reg(object, node.0),
                        1 => DirOp::Unregister { object, holder: node },
                        2 => query(object, node.0, draw(4)),
                        3 => DirOp::Subscribe { object, subscriber: node },
                        4 => DirOp::Unsubscribe { object, subscriber: node },
                        5 => DirOp::TransferDone { object, receiver: node, sender: NodeId(0) },
                        _ => DirOp::Delete { object },
                    }
                })
                .collect();
            let shard_of = |op: &DirOp| svcs[0].placement().shard_of(op.object());
            let tail = |shard: usize| {
                (0u64..).map(|k| reg(obj(&format!("tail-{k}")), 0)).find(|op| shard_of(op) == shard)
            };
            script.extend((0..2).filter_map(tail));
            let (mut ops, mut steps) = (0, 0);
            while ops < script.len() || !queue.is_empty() {
                steps += 1;
                assert!(steps <= STEP_BOUND, "seed {seed}: streams unfinished after {steps} steps");
                let tails = ops >= 60 && queue.is_empty();
                if ops < 60 && (queue.is_empty() || draw(3) == 0) || tails {
                    let op = script[ops].clone();
                    // Only the shipments and forwarded ops travel (the rest are client
                    // replies). The last ops' are never lost, so a gap always shows.
                    let lossy = seed % 2 == 1 && ops < 60;
                    ops += 1;
                    let mut live = Vec::new();
                    svcs[0].submit(op, &mut live);
                    for (to, msg) in live {
                        let shipped = matches!(msg, Message::DirReplicate { .. });
                        if DirOp::try_from(msg.clone()).is_ok()
                            || shipped && !(lossy && draw(9) == 0)
                        {
                            queue.push((NodeId(0), to, msg));
                        }
                    }
                    continue;
                }
                // The oldest frame between a random pair of nodes.
                let (from, to, _) = queue[draw(queue.len() as u64) as usize];
                let next = queue.iter().position(|q| (q.0, q.1) == (from, to)).expect("queued");
                let (from, to, msg) = queue.remove(next);
                queue.extend(deliver(&mut svcs, &mut m, from, to, msg));
                if svcs[1].take_readmission().is_some() {
                    queue.push((
                        NodeId(1),
                        NodeId(0),
                        Message::DirResynced { node: NodeId(1), incarnation: 1 },
                    ));
                }
            }
            assert!(!svcs[1].is_resyncing(), "seed {seed}");
            for shard in 0..2 {
                assert_eq!(svcs[1].replica(shard).unwrap().resync(), None, "seed {seed}");
                assert!(same_shard(&svcs[0], &svcs[1], shard), "seed {seed} shard {shard}");
            }
        }
    }

    /// Shard 0 of a three-node cluster as its two replicas: node 0 leads it, node 1
    /// backs it up.
    fn leader_and_backup() -> Vec<DirectoryService> {
        let cfg =
            HopliteConfig { directory_inline_cache_bytes: 64, ..HopliteConfig::small_for_tests() };
        (0..2).map(|i| DirectoryService::new(NodeId(i), &cfg, &nodes(3), 0)).collect()
    }

    /// Hand `op` to node 0 and run the log shipping it causes until quiescent; what
    /// node 0 emitted for `op` itself.
    fn run_op(
        svcs: &mut [DirectoryService],
        metrics: &mut [NodeMetrics],
        op: DirOp,
    ) -> Vec<(NodeId, Message)> {
        let mut sent = Vec::new();
        deliver_to(&mut svcs[0], &mut metrics[0], NodeId(2), op.into(), &mut sent);
        let mut queue: Vec<_> = sent.iter().map(|(to, m)| (NodeId(0), *to, m.clone())).collect();
        while let Some((from, to, msg)) = queue.pop() {
            if matches!(msg, Message::DirReplicate { .. }) {
                queue.extend(deliver(svcs, metrics, from, to, msg));
            }
        }
        sent
    }

    /// A replica's applied sequence number.
    fn log_of(svc: &DirectoryService) -> u64 {
        svc.replica(0).expect("hosts shard 0").applied_seq()
    }

    fn query(object: ObjectId, requester: u32, query_id: u64) -> DirOp {
        DirOp::Query { object, requester: NodeId(requester), query_id, exclude: vec![] }
    }

    fn shipped(sent: &[(NodeId, Message)]) -> usize {
        sent.iter().filter(|(_, m)| matches!(m, Message::DirReplicate { .. })).count()
    }

    #[test]
    fn an_inline_hit_or_a_tombstone_at_the_primary_emits_its_reply_and_nothing_else() {
        let (mut svcs, mut metrics) = (leader_and_backup(), vec![NodeMetrics::default(); 2]);
        let o = obj_in_shard(&svcs[0], 0);
        let payload = crate::buffer::Payload::from_vec(vec![3; 16]);
        let put = DirOp::PutInline { object: o, holder: NodeId(1), payload: payload.clone() };
        assert_eq!(shipped(&run_op(&mut svcs, &mut metrics, put)), 1);
        let logs = [log_of(&svcs[0]), log_of(&svcs[1])];
        let result = QueryResult::Inline { payload };
        let reply = Message::DirQueryReply { object: o, query_id: 7, result };
        assert_eq!(run_op(&mut svcs, &mut metrics, query(o, 2, 7)), vec![(NodeId(2), reply)]);
        assert_eq!([log_of(&svcs[0]), log_of(&svcs[1])], logs, "a read is logged nowhere");
        assert_eq!(metrics[0].directory_queries_served, 1, "a read is still served");

        run_op(&mut svcs, &mut metrics, DirOp::Delete { object: o });
        let logs = [log_of(&svcs[0]), log_of(&svcs[1])];
        let result = QueryResult::Deleted;
        let reply = Message::DirQueryReply { object: o, query_id: 8, result };
        assert_eq!(run_op(&mut svcs, &mut metrics, query(o, 2, 8)), vec![(NodeId(2), reply)]);
        assert_eq!([log_of(&svcs[0]), log_of(&svcs[1])], logs, "a read is logged nowhere");
        assert_eq!(metrics[0].directory_queries_served, 2);
    }

    #[test]
    fn a_query_that_changes_the_shard_is_still_logged_and_shipped() {
        let (mut svcs, mut metrics) = (leader_and_backup(), vec![NodeMetrics::default(); 2]);
        let o = obj_in_shard(&svcs[0], 0);
        let mut ships = |svcs: &mut [DirectoryService], op| {
            let seq = log_of(&svcs[0]);
            let sent = run_op(svcs, &mut metrics, op);
            assert_eq!(log_of(&svcs[0]), log_of(&svcs[1]), "the backup applied it too");
            (shipped(&sent), log_of(&svcs[0]) - seq)
        };
        // A location answer leases node 1 to node 2.
        ships(&mut svcs, reg(o, 1));
        assert_eq!(ships(&mut svcs, query(o, 2, 1)), (1, 1), "a location query");
        // Node 2 still holds that lease when the object turns inline: its query drops
        // the edge, so it is a write; the next one is a read.
        let payload = crate::buffer::Payload::from_vec(vec![4; 16]);
        ships(&mut svcs, DirOp::PutInline { object: o, holder: NodeId(1), payload });
        assert_eq!(ships(&mut svcs, query(o, 2, 2)), (1, 1), "a lease-holding requester");
        assert_eq!(ships(&mut svcs, query(o, 2, 3)), (0, 0), "the read after it");
        // A query for an id never put parks; a second one joins it.
        let p = (0u64..)
            .map(|k| obj(&format!("parked-{k}")))
            .find(|&p| svcs[0].placement().shard_of(p) == 0)
            .unwrap();
        assert_eq!(ships(&mut svcs, query(p, 2, 4)), (1, 1), "an id never put");
        assert_eq!(ships(&mut svcs, query(p, 0, 5)), (1, 1), "a query parked behind another");
    }

    /// Reads leave replicas identical: a seeded mix of inline puts, queries,
    /// registrations and deletes through the primary leaves the backup's shard equal
    /// to the primary's after every op, inline stamps and evictions included.
    #[test]
    fn seeded_ops_leave_the_primary_and_its_backup_equal_after_every_step() {
        for seed in 1..=8u64 {
            let (mut svcs, mut metrics) = (leader_and_backup(), vec![NodeMetrics::default(); 2]);
            let objects: Vec<ObjectId> = (0u64..)
                .map(|k| obj(&format!("equal-{k}")))
                .filter(|&o| svcs[0].placement().shard_of(o) == 0)
                .take(4)
                .collect();
            let mut state = seed;
            let mut draw = |n: u64| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state % n
            };
            let mut reads = 0;
            for step in 0..200 {
                let object = objects[draw(4) as usize];
                let node = NodeId(draw(3) as u32);
                let op = match draw(8) {
                    0 | 1 => {
                        let payload = vec![step as u8; 1 + draw(32) as usize];
                        let payload = crate::buffer::Payload::from_vec(payload);
                        DirOp::PutInline { object, holder: node, payload }
                    }
                    2..=4 => query(object, node.0, step),
                    5 | 6 => {
                        let status =
                            [ObjectStatus::Partial, ObjectStatus::Complete][draw(2) as usize];
                        DirOp::Register { object, holder: node, status, size: 100 }
                    }
                    _ => DirOp::Delete { object },
                };
                let sent = run_op(&mut svcs, &mut metrics, op.clone());
                reads += usize::from(matches!(op, DirOp::Query { .. }) && shipped(&sent) == 0);
                let [primary, backup] = [&svcs[0], &svcs[1]]
                    .map(|svc| svc.replica(0).unwrap().shard().snapshot_range(None, u64::MAX));
                assert_eq!(primary, backup, "seed {seed} step {step}: {op:?}");
            }
            assert!(reads > 0, "seed {seed} drew no read");
        }
    }
}
