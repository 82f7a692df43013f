//! The per-node directory service.
//!
//! [`DirectoryService`] is the server half living inside each node: the shard
//! replicas this node hosts, the node's one [`PlacementView`] (routing reads it,
//! liveness transitions mutate it, nothing mirrors it), op routing (apply as primary /
//! forward elsewhere), sequenced log shipping to every live backup with acks and
//! origin confirms, chunk-or-delta resync serving for recovering replicas, and
//! epoch-stamped promotion when a primary dies (§3.5).
//!
//! On the receiving side of a resync each fact lives once. Whether a hosted shard is
//! resyncing, from whom, and how far its chunk stream got is that replica's
//! [`super::replication::Resync`] record; whether this node is still resyncing after a
//! restart is the view's `resyncing ∋ me`. Every frame of every stream — chunk,
//! delta, or the retired full snapshot — becomes one [`ResyncFrame`] in one place, and
//! every request for one leaves through one pull helper.
//!
//! **One way in.** Every server-side directory frame — the eight client ops (see
//! [`DirOp`]), `DirReplicate`, `DirAck`, `DirSnapshotRequest` and the three resync
//! frames (tags 23, 27 and 28) — enters through [`DirectoryService::handle`], which
//! checks the shard a frame names against the cluster before indexing anything and
//! writes each directory counter into the caller's [`NodeMetrics`] where its event
//! happens. The node, `metadata_scale` and the tests below all drive the service
//! through it, so the plane can be driven and replayed on its own. What a resync
//! request implies about its requester's liveness, and `DirResynced`, stay with the
//! node: they are liveness evidence, not directory state.

use std::collections::{BTreeMap, BTreeSet};

use crate::config::HopliteConfig;
use crate::metrics::NodeMetrics;
use crate::object::{NodeId, ObjectId, ObjectStatus};
use crate::protocol::{DirOp, Message, ShardSnapshot, CONTROL};

use super::placement::{DirectoryPlacement, PlacementView};
use super::replication::{ReplayOutcome, ReplicaRole, ResyncFrame, ResyncStep, ShardReplica};
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
    /// Set when the local resync completes, to the shards that regained a primary
    /// with this node's own re-admission; the facade drains it with
    /// [`DirectoryService::take_readmission`], re-drives those shards and broadcasts
    /// `DirResynced`.
    readmission: Option<Vec<usize>>,
    /// Source-side state of chunked resync streams this node is serving, keyed by
    /// `(shard, requester)`: the cursor confirmed by the requester's last request
    /// plus the objects mutated behind it since (re-shipped with the next chunk).
    streams: BTreeMap<(usize, NodeId), ChunkStream>,
}

/// Source-side bookkeeping of one chunked resync stream. Entries at or before the
/// requester-confirmed cursor that a later op mutates are tracked here and
/// re-shipped, so the assembled state at the receiver converges to the source's
/// even though the source never pauses op processing. (Failure purges need no
/// tracking: the receiver applies the same deterministic purge to its partial
/// state when the failure notice reaches it.)
#[derive(Debug, Default)]
struct ChunkStream {
    /// Highest object id shipped so far (entries at or before it are "behind" the
    /// stream and must be re-shipped if mutated).
    cursor: Option<ObjectId>,
    dirty: BTreeSet<ObjectId>,
}

impl DirectoryService {
    /// Create the service for node `me`, instantiating a replica for every shard the
    /// placement assigns it.
    pub fn new(me: NodeId, cfg: &HopliteConfig, nodes: &[NodeId]) -> Self {
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
        DirectoryService {
            me,
            view: PlacementView::new(placement),
            replicas,
            readmission: None,
            streams: BTreeMap::new(),
        }
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

    /// Whether this node is mid-resync after a restart: the view holds it resyncing
    /// from [`DirectoryService::begin_local_resync`] until its last stream completes.
    pub fn is_resyncing(&self) -> bool {
        self.view.is_resyncing(self.me)
    }

    /// The live backups of `shard` in this node's view (replica-set members other
    /// than this node that are not failed — resyncing members included, since they
    /// are catching up on the same log). Every one of them is shipped to, and every
    /// one's ack gates durability.
    fn live_backups(&self, shard: usize) -> Vec<NodeId> {
        self.view
            .placement()
            .replica_set(shard)
            .into_iter()
            .filter(|&n| n != self.me && self.view.is_alive(n))
            .collect()
    }

    /// The shard a frame off the wire names, if this cluster has it: the one range
    /// check in front of everything that indexes by shard.
    pub fn shard(&self, wire: u64) -> Option<usize> {
        usize::try_from(wire).ok().filter(|&s| s < self.view.placement().num_shards())
    }

    /// Take one server-side directory frame from `from`, appending what it produces
    /// to `out` and counting what happened in `metrics`. The eight client ops are
    /// applied as primary or forwarded; `DirReplicate` and `DirAck` run the
    /// replication log; a `DirSnapshotRequest` is served or forwarded; a state chunk,
    /// delta replay or retired full snapshot is installed. A frame naming a shard the
    /// cluster does not have is dropped; any other message comes back untouched.
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
            Message::DirAck { shard, epoch, seq } => {
                if let Some(shard) = self.shard(shard) {
                    self.handle_ack(shard, from, epoch, seq, out);
                }
            }
            Message::DirSnapshotRequest {
                shard: wire,
                requester,
                restart,
                after,
                have_epoch,
                have_seq,
                ..
            } => {
                let hosted =
                    self.shard(wire).filter(|&s| self.view.placement().hosts(requester, s));
                if let Some(shard) = hosted {
                    match self.view.primary(shard) {
                        Some(primary) if primary == self.me => {
                            let have = (have_epoch, have_seq);
                            self.serve_resync(shard, requester, after, have, metrics, out);
                        }
                        Some(primary) if primary != requester => {
                            let digest = Vec::new();
                            let request = Message::DirSnapshotRequest {
                                shard: wire,
                                requester,
                                restart,
                                after,
                                have_epoch,
                                have_seq,
                                digest,
                            };
                            out.push((primary, request));
                        }
                        _ => {}
                    }
                }
            }
            other => return Some(other),
        }
        None
    }

    /// Route one client directory op: apply it if this node is the shard's primary
    /// (emitting replies, log-shipping the op, and later confirming it to its
    /// origin), forward it to the believed primary otherwise. Ops for a shard whose
    /// every replica died are dropped — that metadata is gone. Returns whether the op
    /// was applied here.
    fn handle_op(
        &mut self,
        op: DirOp,
        metrics: &mut NodeMetrics,
        out: &mut Vec<(NodeId, Message)>,
    ) -> bool {
        let shard = self.view.placement().shard_of(op.object());
        match self.view.primary(shard) {
            Some(primary) if primary == self.me => {
                // Entries already streamed to a mid-resync requester go stale when
                // a later op touches them; mark them for re-shipment.
                let object = op.object();
                for ((s, _), stream) in self.streams.iter_mut() {
                    if *s == shard && stream.cursor.is_some_and(|c| object <= c) {
                        stream.dirty.insert(object);
                    }
                }
                let backups = self.live_backups(shard);
                let replica = self.replicas.get_mut(&shard).expect("primary hosts its shard");
                out.extend(replica.set_tracked_backups(&backups));
                let seq = replica.apply_primary(&op, out);
                let epoch = replica.epoch();
                if backups.is_empty() {
                    // A lone replica is trivially durable: confirm immediately.
                    out.extend(replica.take_durable_confirms());
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
            Some(primary) => {
                // A client with a staler failure view than ours (or a scheduling race
                // around a promotion) sent the op here; pass it along.
                out.push((primary, op.into()));
                false
            }
            None => false,
        }
    }

    /// Replay an op shipped by a shard's primary into this node's backup replica. An
    /// applied op is acked straight back to the shipper; a log gap this replica
    /// cannot bridge is answered with a resync request.
    fn handle_replicate(
        &mut self,
        shard: usize,
        epoch: u64,
        seq: u64,
        op: &DirOp,
        from: NodeId,
        out: &mut Vec<(NodeId, Message)>,
    ) -> bool {
        self.view.note_epoch(shard, epoch);
        let Some(replica) = self.replicas.get_mut(&shard) else { return false };
        match replica.apply_replicated(epoch, seq, op) {
            ReplayOutcome::Acked(acked) => {
                let epoch = replica.epoch();
                out.push((from, Message::DirAck { shard: shard as u64, epoch, seq: acked }));
                true
            }
            ReplayOutcome::NeedsResync => {
                self.request_resync(shard, from, false, out);
                false
            }
            ReplayOutcome::Buffered | ReplayOutcome::Rejected => false,
        }
    }

    /// Fold a backup's cumulative ack into the shard's log, emitting any confirms
    /// that became due (acks reaching a non-primary replica are ignored).
    fn handle_ack(
        &mut self,
        shard: usize,
        from: NodeId,
        epoch: u64,
        seq: u64,
        out: &mut Vec<(NodeId, Message)>,
    ) {
        self.view.note_epoch(shard, epoch);
        if let Some(replica) = self.replicas.get_mut(&shard) {
            out.extend(replica.record_ack(from, seq));
        }
    }

    /// Serve one round of a recovering replica's resync as the shard's primary. What
    /// the request implies about the requester's liveness — it is up, and crashed
    /// first if it marks a restart — has already been folded into the view by the
    /// node's evidence function, so a restarted node asking for its shard's state back
    /// is never mistaken for the shard's leader and left wedged.
    ///
    /// Serving is **chunked and incremental**: a requester whose gap `have` (its
    /// epoch and applied prefix) the retained log suffix covers gets a
    /// [`Message::DirResyncDelta`] op replay; everyone else gets exactly one bounded
    /// [`Message::DirSnapshotChunk`] per request, so chunks interleave with live op
    /// shipments and the source is never paused for O(objects) time.
    fn serve_resync(
        &mut self,
        shard: usize,
        requester: NodeId,
        after: Option<ObjectId>,
        (have_epoch, have_seq): (u64, u64),
        metrics: &mut NodeMetrics,
        out: &mut Vec<(NodeId, Message)>,
    ) {
        let rank = self.view.current_rank(shard) as u64;
        let key = (shard, requester);
        let replica = self.replicas.get(&shard).expect("primary hosts its shard");
        let budget = replica.shard().config().snapshot_chunk_bytes.max(1);
        let epoch = replica.epoch();
        let seq = replica.applied_seq();

        // Delta path: a stream-opening request whose prefix the retained suffix
        // covers replays ops instead of shipping state. (Replayed history can
        // transiently resurrect a location registered by a node that has since
        // failed; the receiver re-applies the purges for currently-dead peers on
        // completion, and any residual staleness heals like every other stale
        // directory hint: the pull fails and the receiver re-queries.)
        if after.is_none() && replica.delta_covers(have_epoch, have_seq) {
            self.streams.remove(&key);
            let all = replica.delta_ops(have_seq);
            let total = all.len();
            // One budget-bounded frame per request — the receiver pulls the next
            // frame with an updated `have_seq`, so reordering cannot complete a
            // stream with holes and a long suffix never becomes an O(gap) burst.
            let mut ops: Vec<(u64, DirOp)> = Vec::new();
            let mut used = 0u64;
            for (op_seq, op) in all {
                // What this op would cost as a one-op frame.
                let sz = CONTROL + op.wire_size();
                if !ops.is_empty() && used + sz > budget {
                    break;
                }
                used += sz;
                ops.push((op_seq, op));
            }
            let done = ops.len() == total;
            if done {
                metrics.delta_resyncs += 1;
            }
            out.push((
                requester,
                Message::DirResyncDelta { shard: shard as u64, epoch, ops, done },
            ));
            return;
        }

        // Chunk path: serve exactly one bounded chunk per request. Entries mutated
        // behind the requester's cursor since they were shipped are flushed first
        // (in their own chunks when they do not fit); fresh range entries advance
        // the cursor; `done` only once the range is exhausted and no dirty backlog
        // remains.
        if after.is_none() {
            // A fresh stream (or a from-scratch restart of one): forget any
            // previous progress for this requester.
            self.streams.remove(&key);
        }
        let stream = self.streams.entry(key).or_default();
        stream.cursor = stream.cursor.max(after);
        let dirty_backlog = std::mem::take(&mut stream.dirty);
        let (entries, done) = if dirty_backlog.is_empty() {
            replica.shard().snapshot_range(after, budget)
        } else {
            let mut kept = Vec::new();
            let mut used = 0u64;
            for entry in replica.shard().snapshot_entries_for(dirty_backlog.iter().copied()) {
                let sz = entry.wire_size();
                if kept.is_empty() || used + sz <= budget {
                    used += sz;
                    kept.push(entry);
                }
            }
            (kept, false)
        };
        stream
            .dirty
            .extend(dirty_backlog.into_iter().filter(|o| !entries.iter().any(|e| e.object == *o)));
        stream.cursor = stream.cursor.max(entries.last().map(|e| e.object));
        if done {
            self.streams.remove(&key);
        }
        let state = ShardSnapshot { entries };
        metrics.snapshot_chunks_sent += 1;
        metrics.snapshot_bytes += state.wire_size();
        out.push((
            requester,
            Message::DirSnapshotChunk { shard: shard as u64, epoch, seq, rank, done, state },
        ));
    }

    /// Install one frame of a resync stream into this node's replica of `shard`: a
    /// state chunk, a delta replay, or the retired full snapshot (a done chunk).
    /// Mid-stream, pull the next frame from whoever served this one — a forwarded
    /// request is served by another node than it went to, and a source death
    /// re-targets from there. On the last frame, ack the catch-up point: a chunk
    /// stream also adopts the source's rank cursor, and a delta replay re-applies the
    /// purges of peers that failed inside its window (a delta-served replica's view was
    /// never behind). Returns `true` when the stream completed here; when that also
    /// completes the node's local resync, a re-admission becomes pending — the caller
    /// checks [`DirectoryService::take_readmission`] after this (and after
    /// [`DirectoryService::on_peer_failed`], which can also complete a resync by
    /// abandoning a sourceless shard). Frames for a shard with no resync in flight and
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
        self.view.note_epoch(shard, epoch);
        if !self.view.is_alive(from) {
            return false;
        }
        let Some(replica) = self.replicas.get_mut(&shard) else { return false };
        let acked = match replica.apply_resync(epoch, &frame, done) {
            ResyncStep::Stale => return false,
            ResyncStep::Continue => {
                self.request_resync(shard, from, false, out);
                return false;
            }
            ResyncStep::Done(acked) => acked,
        };
        match frame {
            ResyncFrame::Chunk { rank, .. } => self.view.set_rank(shard, rank),
            // Replayed history may re-register locations held by peers that died (or
            // restarted and are still resyncing) inside the replay window; re-apply
            // their purges, as the source did when it observed the failures.
            ResyncFrame::Delta { .. } => {
                for &peer in self.view.placement().nodes() {
                    if !self.view.is_alive(peer) || self.view.is_resyncing(peer) {
                        replica.node_failed(peer);
                    }
                }
            }
        }
        out.push((from, Message::DirAck { shard: shard as u64, epoch, seq: acked }));
        self.maybe_complete_local_resync();
        true
    }

    /// If the last outstanding stream was just installed or abandoned, finish the
    /// local resync: become eligible again (the same epoch bump every peer applies on
    /// `DirResynced`), promote wherever this node is now the shard's leader, and
    /// queue the cluster-wide `DirResynced` announcement.
    fn maybe_complete_local_resync(&mut self) {
        if !self.is_resyncing() || self.replicas.values().any(|r| r.resync().is_some()) {
            return;
        }
        let regained = self.view.on_peer_readmitted(self.me);
        self.promote_where_leader();
        self.readmission = Some(regained);
    }

    /// Promote any hosted Backup replica for a shard this node's view says it now
    /// leads (e.g. the interim primary died while this node was still resyncing, so
    /// eligibility only returned with the resync's completion). A replica whose
    /// resync was abandoned for want of a source is adopted as-is.
    fn promote_where_leader(&mut self) {
        let shards: Vec<usize> = self.replicas.keys().copied().collect();
        for shard in shards {
            if self.view.primary(shard) != Some(self.me) {
                continue;
            }
            let backups = self.live_backups(shard);
            let epoch = self.view.epoch(shard);
            let replica = self.replicas.get_mut(&shard).expect("iterating hosted shards");
            if replica.role() == ReplicaRole::Backup {
                replica.promote_to(epoch);
                replica.set_tracked_backups(&backups);
            }
        }
    }

    /// Take the pending re-admission, if the local resync just completed: the shards
    /// that regained a primary with it. The facade re-drives those and broadcasts
    /// `DirResynced` to every peer exactly once.
    pub fn take_readmission(&mut self) -> Option<Vec<usize>> {
        self.readmission.take()
    }

    /// Digest a peer failure: update the leadership view, purge the dead node from
    /// every hosted replica, release confirms its pending ack was gating, promote
    /// this node's replicas wherever it just became the shard's leader, and
    /// re-target any in-flight resync that was sourced from the dead node. Returns
    /// the shards whose primary moved off `peer` onto a survivor (the re-drive set).
    pub fn on_peer_failed(&mut self, peer: NodeId, out: &mut Vec<(NodeId, Message)>) -> Vec<usize> {
        let changed = self.view.on_peer_failed(peer);
        // Chunk streams this node was serving to the dead peer are abandoned.
        self.streams.retain(|(_, requester), _| *requester != peer);
        let shards: Vec<usize> = self.replicas.keys().copied().collect();
        for shard in shards {
            let backups = self.live_backups(shard);
            let epoch = self.view.epoch(shard);
            let leads = self.view.primary(shard) == Some(self.me);
            let replica = self.replicas.get_mut(&shard).expect("iterating hosted shards");
            replica.node_failed(peer);
            if replica.role() == ReplicaRole::Primary {
                // The dead node no longer gates durability.
                out.extend(replica.set_tracked_backups(&backups));
            } else if leads {
                replica.promote_to(epoch);
                replica.set_tracked_backups(&backups);
            }
        }
        // Re-target interrupted resyncs whose source died.
        let stranded: Vec<usize> = self
            .replicas
            .iter()
            .filter(|(_, r)| r.resync().is_some_and(|resync| resync.source == peer))
            .map(|(&shard, _)| shard)
            .collect();
        for shard in stranded {
            match self.view.primary(shard) {
                Some(primary) if primary != self.me => {
                    let restart = self.is_resyncing();
                    self.request_resync(shard, primary, restart, out);
                }
                // No surviving source: the shard's metadata is lost. Stop waiting so
                // the node can still finish its overall resync.
                _ => self.replicas.get_mut(&shard).expect("hosted shard").abort_resync(),
            }
        }
        // Every outstanding stream may now be installed or abandoned; if so, finish
        // the local resync (which also promotes wherever this node became leader and
        // queues the re-admission announcement).
        self.maybe_complete_local_resync();
        changed
    }

    /// Digest a peer recovery notice (alive again, resyncing — shipped to, not yet a
    /// primary candidate).
    pub fn on_peer_recovered(&mut self, peer: NodeId) {
        self.view.on_peer_recovered(peer);
    }

    /// Digest a peer's catch-up announcement (full replica again). Ops applied after
    /// the peer's catch-up stream closed but before this announcement were never
    /// shipped (the peer was not yet tracked), so a primary re-ships its retained
    /// suffix: a caught-up peer drops the duplicates, a peer missing ops within the
    /// ring applies them, and a peer behind by more than the ring sees a sequence gap
    /// and requests a (delta) resync itself. Returns the shards that regained a
    /// primary with this re-admission (the re-drive set). An announcement naming this
    /// node changes nothing: it is re-admitted only by its own resync completing.
    pub fn on_peer_readmitted(
        &mut self,
        peer: NodeId,
        out: &mut Vec<(NodeId, Message)>,
    ) -> Vec<usize> {
        if peer == self.me {
            return Vec::new();
        }
        let regained = self.view.on_peer_readmitted(peer);
        let shards: Vec<usize> = self.replicas.keys().copied().collect();
        for shard in shards {
            if !self.view.placement().hosts(peer, shard) {
                continue;
            }
            let backups = self.live_backups(shard);
            let replica = self.replicas.get_mut(&shard).expect("iterating hosted shards");
            if replica.role() != ReplicaRole::Primary {
                continue;
            }
            out.extend(replica.set_tracked_backups(&backups));
            let epoch = replica.epoch();
            for (seq, op) in replica.delta_ops(0) {
                out.push((peer, Message::DirReplicate { shard: shard as u64, epoch, seq, op }));
            }
        }
        regained
    }

    /// Start recovery after a restart: demote every hosted replica, mark this node
    /// resyncing, and request a snapshot of each hosted shard from another replica.
    /// Returns `false` when there is nothing to resync from (single-replica shards
    /// only), in which case the node proceeds as a cold-started primary.
    pub fn begin_local_resync(&mut self, out: &mut Vec<(NodeId, Message)>) -> bool {
        let shards: Vec<usize> = self.replicas.keys().copied().collect();
        let mut any = false;
        for shard in shards {
            let source =
                self.view.placement().replica_set(shard).into_iter().find(|&n| n != self.me);
            let Some(source) = source else { continue };
            any = true;
            self.request_resync(shard, source, true, out);
        }
        if any {
            self.view.begin_self_resync(self.me);
        }
        any
    }

    /// Ask `source` for the next frame of `shard`'s resync — opening it, re-targeting
    /// it after a source death, or pulling mid-stream — from what the replica has:
    /// its applied prefix, and its chunk stream's cursor, from which the new source
    /// resumes instead of restarting.
    fn request_resync(
        &mut self,
        shard: usize,
        source: NodeId,
        restart: bool,
        out: &mut Vec<(NodeId, Message)>,
    ) {
        let replica = self.replicas.get_mut(&shard).expect("resyncs are of hosted shards");
        let after = replica.begin_resync(source);
        out.push((
            source,
            Message::DirSnapshotRequest {
                shard: shard as u64,
                requester: self.me,
                restart,
                after,
                have_epoch: replica.epoch(),
                have_seq: replica.applied_seq(),
                digest: Vec::new(),
            },
        ));
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
/// chunk (tag 27), a delta replay (tag 28), or the retired full snapshot (tag 23), the
/// one-chunk stream it is the degenerate case of.
pub(crate) fn resync_frame(msg: &Message) -> Option<(u64, u64, ResyncFrame<'_>, bool)> {
    let (shard, epoch, seq, rank, done, state) = match msg {
        Message::DirSnapshot { shard, epoch, seq, rank, state } => {
            (shard, epoch, seq, rank, &true, state)
        }
        Message::DirSnapshotChunk { shard, epoch, seq, rank, done, state } => {
            (shard, epoch, seq, rank, done, state)
        }
        Message::DirResyncDelta { shard, epoch, ops, done } => {
            return Some((*shard, *epoch, ResyncFrame::Delta { ops }, *done));
        }
        _ => return None,
    };
    let frame = ResyncFrame::Chunk { seq: *seq, rank: *rank as usize, entries: &state.entries };
    Some((*shard, *epoch, frame, *done))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::ConfirmKind;

    impl DirectoryService {
        /// Submit a client op here, as `handle` does; whether it was applied here.
        fn submit(&mut self, op: DirOp, out: &mut Vec<(NodeId, Message)>) -> bool {
            self.handle_op(op, &mut NodeMetrics::default(), out)
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

    /// A fresh-stream resync request for `shard` from `requester`, which has applied
    /// `have = (epoch, seq)`.
    fn request(shard: u64, requester: NodeId, restart: bool, have: (u64, u64)) -> Message {
        let (have_epoch, have_seq) = have;
        let after = None;
        let digest = Vec::new();
        Message::DirSnapshotRequest {
            shard,
            requester,
            restart,
            after,
            have_epoch,
            have_seq,
            digest,
        }
    }

    /// Deliver one frame to `svc` the way the node does: a resync request is first
    /// evidence about its requester, folded into the view (a restart request from a
    /// peer held healthy is a failure; any request is a recovery); then the service
    /// takes the frame.
    fn deliver_to(
        svc: &mut DirectoryService,
        metrics: &mut NodeMetrics,
        from: NodeId,
        msg: Message,
        out: &mut Vec<(NodeId, Message)>,
    ) {
        if let Message::DirSnapshotRequest { requester, restart, .. } = msg {
            if restart && svc.view().is_alive(requester) && !svc.view().is_resyncing(requester) {
                svc.on_peer_failed(requester, out);
            }
            svc.on_peer_recovered(requester);
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
        let mut svc = DirectoryService::new(NodeId(1), &cfg, &nodes(4));
        let mut metrics = NodeMetrics::default();
        let o = obj_in_shard(&svc, 0);
        let op = reg(o, 2);
        let state = ShardSnapshot::default();
        for shard in [4, 5, u64::MAX] {
            let frames = [
                request(shard, NodeId(0), true, (0, 0)),
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
        assert_eq!(svc.primary_for(o), Some(NodeId(0)), "no rank adopted");
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
    fn placement_matches_seed_hash_and_clamps_replication() {
        let p = DirectoryPlacement::new(nodes(4), 2);
        assert_eq!(p.num_shards(), 4);
        assert_eq!(p.replica_set(3), vec![NodeId(3), NodeId(0)]);
        // Replication larger than the cluster is clamped.
        let p1 = DirectoryPlacement::new(nodes(2), 5);
        assert_eq!(p1.replication(), 2);
        // The object hash is the seed's: initial primary == the old shard_node.
        let p = DirectoryPlacement::new(nodes(7), 3);
        let o = obj("some-object");
        let h = u64::from_le_bytes(o.0[..8].try_into().unwrap());
        assert_eq!(PlacementView::new(p).primary_for(o), Some(NodeId((h % 7) as u32)));
    }

    #[test]
    fn view_primary_skips_failed_replicas_and_counts_epochs() {
        let mut v = PlacementView::new(DirectoryPlacement::new(nodes(4), 3));
        assert_eq!(v.primary(1), Some(NodeId(1)));
        assert_eq!(v.epoch(1), 0);
        v.on_peer_failed(NodeId(1));
        assert_eq!(v.primary(1), Some(NodeId(2)));
        assert_eq!(v.epoch(1), 1);
        v.on_peer_failed(NodeId(2));
        assert_eq!(v.primary(1), Some(NodeId(3)));
        assert_eq!(v.epoch(1), 2);
        v.on_peer_failed(NodeId(3));
        assert_eq!(v.primary(1), None, "all replicas dead");
        assert_eq!(v.epoch(1), 3);
    }

    #[test]
    fn readmitted_node_does_not_fail_back_but_leads_again_after_the_next_failure() {
        // Shard 0 on a 3-node cluster with r = 2: replicas [0, 1].
        let mut v = PlacementView::new(DirectoryPlacement::new(nodes(3), 2));
        assert_eq!(v.primary(0), Some(NodeId(0)));
        v.on_peer_failed(NodeId(0));
        assert_eq!(v.primary(0), Some(NodeId(1)));
        // Node 0 recovers: still not a candidate while resyncing.
        v.on_peer_recovered(NodeId(0));
        assert_eq!(v.primary(0), Some(NodeId(1)));
        // Re-admission: eligible again, but the cursor does not rewind — no fail-back.
        v.on_peer_readmitted(NodeId(0));
        assert_eq!(v.primary(0), Some(NodeId(1)), "no automatic fail-back");
        let e = v.epoch(0);
        // When the interim primary dies, leadership cycles back to the restarted node
        // with a strictly higher epoch.
        v.on_peer_failed(NodeId(1));
        assert_eq!(v.primary(0), Some(NodeId(0)), "restarted node leads again");
        assert!(v.epoch(0) > e);
    }

    #[test]
    fn service_applies_as_primary_ships_the_sequenced_log_and_confirms() {
        let cfg = HopliteConfig::small_for_tests();
        let ns = nodes(4);
        let mut svc = DirectoryService::new(NodeId(0), &cfg, &ns);
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
        // No confirm yet: the backup has not acked.
        assert!(!out.iter().any(|(_, m)| matches!(m, Message::DirConfirm { .. })));
        out.clear();
        svc.handle_ack(0, NodeId(1), 0, seq, &mut out);
        assert!(
            out.iter().any(|(to, m)| *to == NodeId(2)
                && matches!(m, Message::DirConfirm { kind: ConfirmKind::Location { .. }, .. })),
            "origin confirmed once the backup acked: {out:?}"
        );
    }

    #[test]
    fn non_primary_forwards_to_the_believed_primary() {
        let cfg = HopliteConfig::small_for_tests();
        let ns = nodes(4);
        let mut svc = DirectoryService::new(NodeId(3), &cfg, &ns);
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
        let mut svc = DirectoryService::new(NodeId(1), &cfg, &ns);
        let o = obj_in_shard(&svc, 0);
        // Replicated state arrives from the primary before it dies, and is acked.
        let mut out = Vec::new();
        assert!(svc.handle_replicate(0, 0, 1, &reg(o, 2), NodeId(0), &mut out));
        assert!(out
            .iter()
            .any(|(to, m)| *to == NodeId(0) && matches!(m, Message::DirAck { seq: 1, .. })));
        out.clear();
        let changed = svc.on_peer_failed(NodeId(0), &mut out);
        assert_eq!(changed, vec![0], "shard 0 failed over (shard 2 only lost its backup)");
        assert_eq!(svc.primary_for(o), Some(NodeId(1)));
        assert_eq!(svc.replica(0).unwrap().epoch(), 1, "promotion at the failover epoch");
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
        let mut primary_svc = DirectoryService::new(NodeId(0), &cfg, &ns);
        let mut backup_svc = DirectoryService::new(NodeId(1), &cfg, &ns);
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
        backup_svc.on_peer_failed(NodeId(0), &mut Vec::new());
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
        let mut restarted = DirectoryService::new(NodeId(0), &cfg, &ns);
        let mut requests = Vec::new();
        assert!(restarted.begin_local_resync(&mut requests));
        let mut out = Vec::new();
        restarted.on_peer_failed(NodeId(1), &mut out); // shard 0's source
        assert!(restarted.is_resyncing(), "shard 2's snapshot still outstanding");
        assert!(restarted.take_readmission().is_none());
        restarted.on_peer_failed(NodeId(2), &mut out); // shard 2's source
        assert!(!restarted.is_resyncing(), "no sources left: resync completes");
        let regained = restarted.take_readmission().expect("DirResynced must be broadcast");
        assert_eq!(regained, vec![0, 2], "both leaderless shards regained a primary: this node");
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
        // request must itself carry the news: with the implied failure folded in
        // (by the node's evidence function, mirrored by `deliver_to`)
        // node 1 promotes itself and serves the snapshot — instead of silently
        // dropping the request and wedging node 0 in resync forever.
        let cfg = HopliteConfig::small_for_tests();
        let ns = nodes(3);
        let mut survivor = DirectoryService::new(NodeId(1), &cfg, &ns);
        let o = obj_in_shard(&survivor, 0);
        assert_eq!(survivor.primary_for(o), Some(NodeId(0)), "failure not yet detected");
        let mut out = Vec::new();
        let mut metrics = NodeMetrics::default();
        let restart = request(0, NodeId(0), true, (0, 0));
        deliver_to(&mut survivor, &mut metrics, NodeId(0), restart, &mut out);
        assert_eq!(survivor.primary_for(o), Some(NodeId(1)), "implied failure folded in");
        assert_eq!(survivor.replica(0).unwrap().role(), ReplicaRole::Primary);
        assert!(
            out.iter().any(|(to, m)| *to == NodeId(0)
                && matches!(
                    m,
                    Message::DirSnapshotChunk { shard: 0, done: true, .. }
                        | Message::DirResyncDelta { shard: 0, done: true, .. }
                )),
            "resync served to the restarted node: {out:?}"
        );
        // The detector's own notices, arriving later, are harmless: the failure is
        // a no-op for an already-resyncing peer's shards' leadership.
        let changed = survivor.on_peer_failed(NodeId(0), &mut out);
        assert!(changed.is_empty(), "already failed over");
        // A *gap* catch-up request from a live backup must not depose anyone.
        let mut survivor2 = DirectoryService::new(NodeId(1), &cfg, &ns);
        let mut out2 = Vec::new();
        let gap = request(1, NodeId(2), false, (0, 0));
        deliver_to(&mut survivor2, &mut metrics, NodeId(2), gap, &mut out2);
        assert_eq!(survivor2.view().primary(2), Some(NodeId(2)), "live backup untouched");
    }

    #[test]
    fn readmission_returns_the_leaderless_shards_for_redrive() {
        // Shard 1 replicas [1, 2] on a 3-node cluster. Both die; the shard is
        // leaderless. When node 1 is readmitted (restarted + resynced from nothing),
        // the view must report shard 1 as regained so clients re-drive their
        // unconfirmed intents at it.
        let mut v = PlacementView::new(DirectoryPlacement::new(nodes(3), 2));
        v.on_peer_failed(NodeId(1));
        v.on_peer_failed(NodeId(2));
        assert_eq!(v.primary(1), None);
        let e = v.epoch(1);
        v.on_peer_recovered(NodeId(1));
        assert_eq!(v.primary(1), None, "resyncing nodes do not lead");
        let regained = v.on_peer_readmitted(NodeId(1));
        assert_eq!(regained, vec![1], "shard 1 went leaderless -> led");
        assert_eq!(v.primary(1), Some(NodeId(1)));
        assert!(v.epoch(1) > e);
        // A readmission that does not change any primary regains nothing.
        assert_eq!(v.on_peer_readmitted(NodeId(1)), Vec::<usize>::new());
    }

    #[test]
    fn recovering_replica_resyncs_and_is_readmitted() {
        let cfg = HopliteConfig::small_for_tests();
        let ns = nodes(3);
        // Shard 0: replicas [0, 1]; node 0 also backs up shard 2 (replicas [2, 0]).
        // Node 0 dies; node 1 promotes shard 0 and accumulates state; node 0 restarts
        // and resyncs both hosted shards.
        let mut svcs: Vec<DirectoryService> =
            (0..3).map(|i| DirectoryService::new(NodeId(i), &cfg, &ns)).collect();
        let mut m = vec![NodeMetrics::default(); 3];
        let mut out = Vec::new();
        svcs[1].on_peer_failed(NodeId(0), &mut out);
        svcs[2].on_peer_failed(NodeId(0), &mut out);
        let o = obj_in_shard(&svcs[1], 0);
        assert!(svcs[1].submit(reg(o, 2), &mut out));
        out.clear();

        // Node 0 restarts empty and begins recovery.
        svcs[0] = DirectoryService::new(NodeId(0), &cfg, &ns);
        let mut requests = Vec::new();
        assert!(svcs[0].begin_local_resync(&mut requests));
        assert!(svcs[0].is_resyncing());
        // While resyncing, the restarted node does not believe it leads shard 0.
        assert_ne!(svcs[0].primary_for(o), Some(NodeId(0)));

        // Route messages between the three services until the resync settles —
        // the stream shape (chunks, deltas, continuation requests) is the
        // services' own business here.
        let mut queue: Vec<(NodeId, NodeId, Message)> =
            requests.into_iter().map(|(to, m)| (NodeId(0), to, m)).collect();
        while let Some((from, to, msg)) = queue.pop() {
            queue.extend(deliver(&mut svcs, &mut m, from, to, msg));
        }
        let restarted = &svcs[0];
        assert!(!restarted.is_resyncing(), "local resync completed");
        // The resynced replica holds the record registered while it was down.
        assert_eq!(restarted.locations(o).map(|l| l.len()), Some(1));
        // It adopted the survivor's rank cursor: no fail-back to itself.
        assert_eq!(restarted.primary_for(o), Some(NodeId(1)));
        // Survivor readmits node 0; when the survivor later dies, node 0 leads again
        // at a strictly higher epoch.
        svcs[1].on_peer_readmitted(NodeId(0), &mut Vec::new());
        let changed = svcs[0].on_peer_failed(NodeId(1), &mut Vec::new());
        assert!(changed.contains(&0), "restarted node serves as primary again");
        assert!(svcs[0].is_primary_for(o));
        assert!(svcs[0].replica(0).unwrap().epoch() >= 2);
    }

    #[test]
    fn r3_primary_ships_every_op_to_every_live_backup() {
        let cfg = HopliteConfig { directory_replication: 3, ..HopliteConfig::small_for_tests() };
        let ns = nodes(3);
        let mut p = DirectoryService::new(NodeId(0), &cfg, &ns);
        let o = obj_in_shard(&p, 0);
        let mut out = Vec::new();
        assert!(p.submit(reg(o, 1), &mut out));
        let mut ships: Vec<NodeId> = out
            .iter()
            .filter_map(|(to, m)| matches!(m, Message::DirReplicate { .. }).then_some(*to))
            .collect();
        ships.sort_by_key(|n| n.0);
        assert_eq!(ships, vec![NodeId(1), NodeId(2)], "star ships to every live backup");
        // Both acks gate the confirm: one of two is not durable yet.
        out.clear();
        p.handle_ack(0, NodeId(1), 0, 1, &mut out);
        assert!(out.is_empty(), "one of two backups acked: {out:?}");
        p.handle_ack(0, NodeId(2), 0, 1, &mut out);
        assert!(out.iter().any(|(_, m)| matches!(m, Message::DirConfirm { .. })), "{out:?}");
        // A dead backup stops being shipped to.
        p.on_peer_failed(NodeId(2), &mut Vec::new());
        out.clear();
        assert!(p.submit(reg(obj_in_shard(&p, 0), 1), &mut out));
        assert!(!out.iter().any(|(to, _)| *to == NodeId(2)), "dead backup not shipped to");
    }

    // --------------------------------------------------- chunked/delta resync ----

    /// Route a single message to its recipient (services and their metrics indexed by
    /// node id) and return the resulting sends as `(from, to, msg)` triples.
    /// `DirConfirm`s are swallowed — the resync tests don't assert on client confirms.
    fn deliver(
        svcs: &mut [DirectoryService],
        metrics: &mut [NodeMetrics],
        from: NodeId,
        to: NodeId,
        msg: Message,
    ) -> Vec<(NodeId, NodeId, Message)> {
        if matches!(
            msg,
            Message::DirConfirm { .. } | Message::DirPublish { .. } | Message::DirQueryReply { .. }
        ) {
            return Vec::new();
        }
        let at = to.0 as usize;
        let mut out = Vec::new();
        deliver_to(&mut svcs[at], &mut metrics[at], from, msg, &mut out);
        out.into_iter().map(|(to2, m2)| (to, to2, m2)).collect()
    }

    #[test]
    fn gap_resync_uses_the_delta_path_instead_of_shipping_state() {
        // Shard 0 replicas [0, 1] on a 3-node cluster: node 0 primary, node 1 backup.
        let cfg = HopliteConfig::small_for_tests();
        let ns = nodes(3);
        let mut svcs: Vec<DirectoryService> =
            (0..2).map(|i| DirectoryService::new(NodeId(i), &cfg, &ns)).collect();
        let mut m = vec![NodeMetrics::default(); 2];
        let objects: Vec<ObjectId> = (0u64..)
            .map(|k| obj(&format!("delta-{k}")))
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
        let mut req_out = Vec::new();
        svcs[1].handle_replicate(0, 0, seq4, &op4, NodeId(0), &mut req_out);
        let (have_epoch, have_seq) = req_out
            .iter()
            .find_map(|(to, m)| match m {
                Message::DirSnapshotRequest { shard: 0, after, have_epoch, have_seq, .. } => {
                    assert_eq!(*to, NodeId(0));
                    assert!(after.is_none(), "fresh stream, no cursor");
                    Some((*have_epoch, *have_seq))
                }
                _ => None,
            })
            .expect("gap triggers a resync request");
        assert_eq!(have_seq, 1, "backup applied only op 1");
        // The primary's retained suffix covers the gap: it replays ops, ships no
        // state, and the backup converges and acks the full prefix.
        let mut frames = Vec::new();
        let gap = request(0, NodeId(1), false, (have_epoch, have_seq));
        deliver_to(&mut svcs[0], &mut m[0], NodeId(1), gap, &mut frames);
        assert_eq!((m[0].snapshot_chunks_sent, m[0].snapshot_bytes), (0, 0), "no state chunks");
        assert_eq!(m[0].delta_resyncs, 1, "served as a delta");
        let mut completed = false;
        let mut queue: Vec<_> = frames.into_iter().map(|(to, m)| (NodeId(0), to, m)).collect();
        while let Some((from, to, msg)) = queue.pop() {
            if to == NodeId(1) {
                if let Message::DirResyncDelta { shard: 0, ref ops, done, .. } = msg {
                    assert!(done, "a four-op gap fits one frame");
                    assert_eq!(ops.first().map(|(s, _)| *s), Some(2), "replay resumes past op 1");
                }
            }
            if matches!(msg, Message::DirAck { shard: 0, seq: 4, .. }) && to == NodeId(0) {
                completed = true;
            }
            queue.extend(deliver(&mut svcs, &mut m, from, to, msg));
        }
        assert!(completed, "backup acked the replayed prefix");
        assert_eq!(svcs[1].replica(0).unwrap().resync(), None);
        for &o in &objects {
            assert_eq!(svcs[1].locations(o).map(|l| l.len()), Some(1), "record replayed");
        }
    }

    #[test]
    fn chunked_resync_streams_bounded_chunks_and_reships_dirty_entries() {
        // Two nodes, r = 2: shard 0 replicas [0, 1], shard 1 replicas [1, 0]. A tiny
        // chunk budget forces a long stream so live mutations can land mid-flight.
        let cfg = HopliteConfig { snapshot_chunk_bytes: 256, ..HopliteConfig::small_for_tests() };
        let ns = nodes(2);
        let mut svcs: Vec<DirectoryService> =
            (0..2).map(|i| DirectoryService::new(NodeId(i), &cfg, &ns)).collect();
        let mut m = vec![NodeMetrics::default(); 2];
        // Node 0 dies; node 1 promotes shard 0 (epoch 1) and leads everything.
        svcs[1].on_peer_failed(NodeId(0), &mut Vec::new());
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
        // Node 0 restarts empty. Shard 0 resyncs via chunks (its epoch moved), shard
        // 1 via delta replay (same epoch, retained log covers the whole history).
        svcs[0] = DirectoryService::new(NodeId(0), &cfg, &ns);
        let mut requests = Vec::new();
        assert!(svcs[0].begin_local_resync(&mut requests));
        let mut queue: Vec<(NodeId, NodeId, Message)> =
            requests.into_iter().map(|(to, m)| (NodeId(0), to, m)).collect();
        let mut victim: Option<ObjectId> = None;
        let mut chunks_seen = 0u64;
        while let Some((from, to, msg)) = queue.pop() {
            match &msg {
                Message::DirSnapshotChunk { state, done, .. } => {
                    chunks_seen += 1;
                    assert!(
                        state.wire_size() <= 256 || state.entries.len() == 1,
                        "chunk over budget: {} bytes, {} entries",
                        state.wire_size(),
                        state.entries.len()
                    );
                    if victim.is_none() {
                        // First chunk in flight: mutate one of its entries at the
                        // source while the stream is still running. The entry went
                        // stale behind the cursor, so it must be re-shipped.
                        assert!(!done, "20 objects cannot fit one 256-byte chunk");
                        let object = state.entries.first().expect("chunk carries entries").object;
                        victim = Some(object);
                        let mut live = Vec::new();
                        assert!(
                            svcs[1].submit(
                                DirOp::Subscribe { object, subscriber: NodeId(1) },
                                &mut live,
                            )
                        );
                        queue.extend(live.into_iter().map(|(to2, m2)| (NodeId(1), to2, m2)));
                    }
                }
                Message::DirResyncDelta { ops, .. } => {
                    assert!(ops.len() <= 1, "two replayed ops never fit a 256-byte frame");
                }
                _ => {}
            }
            queue.extend(deliver(&mut svcs, &mut m, from, to, msg));
        }
        assert!(chunks_seen >= 8, "20 entries at 3 per chunk plus a dirty flush: {chunks_seen}");
        assert_eq!(m[1].snapshot_chunks_sent, chunks_seen);
        assert!(m[1].snapshot_bytes > 0);
        assert_eq!(m[1].delta_resyncs, 1, "shard 1 resynced as a delta");
        // The restarted node converged on every record...
        assert!(!svcs[0].is_resyncing());
        for &o in &objects {
            assert_eq!(svcs[0].locations(o).map(|l| l.len()), Some(1));
        }
        // ...including the mutation that landed mid-stream: the subscription exists
        // only in the re-shipped copy of the entry (the buffered live shipment was
        // superseded by the stream's final sequence number).
        let victim = victim.expect("a chunk was served");
        let shard = svcs[0].placement().shard_of(victim);
        assert_eq!(
            svcs[0].replica(shard).unwrap().shard().subscriber_count(victim),
            1,
            "stale streamed entry was re-shipped with its new subscriber"
        );
    }

    #[test]
    fn chunk_stream_resumes_from_the_cursor_when_the_source_dies() {
        // Three nodes, r = 3, zero log retention: a restarted node
        // can only be served state chunks, never a delta.
        let cfg = HopliteConfig {
            directory_replication: 3,
            directory_log_retention: 0,
            snapshot_chunk_bytes: 256,
            ..HopliteConfig::small_for_tests()
        };
        let ns = nodes(3);
        let mut svcs: Vec<DirectoryService> =
            (0..3).map(|i| DirectoryService::new(NodeId(i), &cfg, &ns)).collect();
        let mut m = vec![NodeMetrics::default(); 3];
        let objects: Vec<ObjectId> = (0u64..)
            .map(|k| obj(&format!("resume-{k}")))
            .filter(|&o| svcs[0].placement().shard_of(o) == 0)
            .take(18)
            .collect();
        // Populate shard 0 through its primary; both backups apply and ack, so the
        // primary's log is fully trimmed (and nothing is retained).
        let mut out = Vec::new();
        for &o in &objects {
            assert!(svcs[0].submit(reg(o, 2), &mut out));
            let mut queue: Vec<_> = out.drain(..).map(|(to, m)| (NodeId(0), to, m)).collect();
            while let Some((from, to, msg)) = queue.pop() {
                queue.extend(deliver(&mut svcs, &mut m, from, to, msg));
            }
        }
        // Node 1 dies and restarts empty; survivors digest the failure.
        svcs[0].on_peer_failed(NodeId(1), &mut out);
        svcs[2].on_peer_failed(NodeId(1), &mut out);
        out.clear();
        svcs[1] = DirectoryService::new(NodeId(1), &cfg, &ns);
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
        let cursor = resync.cursor.expect("mid-stream cursor");
        // The crash drops everything in flight to or from node 0.
        queue.retain(|(from, to, _)| *from != NodeId(0) && *to != NodeId(0));
        let mut q1 = Vec::new();
        svcs[1].on_peer_failed(NodeId(0), &mut q1);
        let mut q2 = Vec::new();
        svcs[2].on_peer_failed(NodeId(0), &mut q2);
        // The stranded stream re-targets the new primary (node 2) and asks it to
        // resume from the installed cursor, not from scratch.
        let resumed_after = q1
            .iter()
            .find_map(|(to, m)| match m {
                Message::DirSnapshotRequest { shard: 0, after, .. } => {
                    assert_eq!(*to, NodeId(2));
                    Some(*after)
                }
                _ => None,
            })
            .expect("stranded resync re-targeted");
        assert_eq!(resumed_after, Some(cursor), "resume from the cursor");
        queue.extend(q1.into_iter().map(|(to, m)| (NodeId(1), to, m)));
        queue.extend(q2.into_iter().map(|(to, m)| (NodeId(2), to, m)));
        let mut resumed_entries = 0;
        while let Some((from, to, msg)) = queue.pop() {
            if to == NodeId(0) {
                continue;
            }
            if let Message::DirSnapshotChunk { shard: 0, ref state, .. } = msg {
                for e in &state.entries {
                    assert!(e.object > cursor, "already-installed prefix re-shipped");
                    resumed_entries += 1;
                }
            }
            queue.extend(deliver(&mut svcs, &mut m, from, to, msg));
        }
        // Two 3-entry chunks landed before the crash; node 2 shipped exactly the
        // remaining twelve entries and the restarted replica converged.
        assert_eq!(resumed_entries, objects.len() - 6);
        assert!(!svcs[1].is_resyncing(), "resync completed at the new source");
        for &o in &objects {
            assert_eq!(svcs[1].locations(o).map(|l| l.len()), Some(1));
        }
    }

    #[test]
    fn delta_stream_retargets_the_new_primary_when_the_source_dies() {
        // Three nodes, r = 3, a 256-byte frame budget: a restarted node whose gap
        // the primary's log covers is caught up by a delta replay of one op per
        // frame.
        let cfg = HopliteConfig {
            directory_replication: 3,
            snapshot_chunk_bytes: 256,
            ..HopliteConfig::small_for_tests()
        };
        let ns = nodes(3);
        let mut svcs: Vec<DirectoryService> =
            (0..3).map(|i| DirectoryService::new(NodeId(i), &cfg, &ns)).collect();
        let mut m = vec![NodeMetrics::default(); 3];
        let objects: Vec<ObjectId> = (0u64..)
            .map(|k| obj(&format!("delta-resume-{k}")))
            .filter(|&o| svcs[0].placement().shard_of(o) == 0)
            .take(12)
            .collect();
        let mut out = Vec::new();
        for &o in &objects {
            assert!(svcs[0].submit(reg(o, 2), &mut out));
            let mut queue: Vec<_> = out.drain(..).map(|(to, m)| (NodeId(0), to, m)).collect();
            while let Some((from, to, msg)) = queue.pop() {
                queue.extend(deliver(&mut svcs, &mut m, from, to, msg));
            }
        }
        // Node 1 dies and restarts empty; survivors digest the failure. Node 0 still
        // leads shard 0 at epoch 0, so the restarted replica's gap is a delta.
        svcs[0].on_peer_failed(NodeId(1), &mut out);
        svcs[2].on_peer_failed(NodeId(1), &mut out);
        out.clear();
        svcs[1] = DirectoryService::new(NodeId(1), &cfg, &ns);
        let mut requests = Vec::new();
        assert!(svcs[1].begin_local_resync(&mut requests));
        let mut queue: Vec<(NodeId, NodeId, Message)> =
            requests.into_iter().map(|(to, m)| (NodeId(1), to, m)).collect();
        // Install three delta frames of shard 0 from node 0, then kill node 0.
        let mut installed = 0;
        while installed < 3 {
            let (from, to, msg) = queue.pop().expect("shard 0 delta stream still in flight");
            if let Message::DirResyncDelta { shard: 0, ref ops, done, .. } = msg {
                assert_eq!((from, ops.len(), done), (NodeId(0), 1, false), "one op per frame");
                installed += 1;
            }
            queue.extend(deliver(&mut svcs, &mut m, from, to, msg));
        }
        assert_eq!(svcs[1].replica(0).unwrap().applied_seq(), 3);
        queue.retain(|(from, to, _)| *from != NodeId(0) && *to != NodeId(0));
        let mut q1 = Vec::new();
        svcs[1].on_peer_failed(NodeId(0), &mut q1);
        let mut q2 = Vec::new();
        svcs[2].on_peer_failed(NodeId(0), &mut q2);
        // The stranded stream re-targets the new primary (node 2) from the replayed
        // prefix; there is no chunk cursor to resume from.
        let retargeted = q1
            .iter()
            .find_map(|(to, m)| match m {
                Message::DirSnapshotRequest { shard: 0, after, have_seq, .. } => {
                    Some((*to, *after, *have_seq))
                }
                _ => None,
            })
            .expect("stranded delta stream re-targeted");
        assert_eq!(retargeted, (NodeId(2), None, 3));
        queue.extend(q1.into_iter().map(|(to, m)| (NodeId(1), to, m)));
        queue.extend(q2.into_iter().map(|(to, m)| (NodeId(2), to, m)));
        // Promotion moved node 2's epoch past the restarted replica's, so the new
        // source serves state chunks, never a delta.
        let mut chunks = 0;
        while let Some((from, to, msg)) = queue.pop() {
            if to == NodeId(0) {
                continue;
            }
            match msg {
                Message::DirSnapshotChunk { shard: 0, .. } => chunks += 1,
                Message::DirResyncDelta { shard: 0, .. } => panic!("delta after promotion"),
                _ => {}
            }
            queue.extend(deliver(&mut svcs, &mut m, from, to, msg));
        }
        assert!(chunks > 1, "the new source streamed the shard in chunks: {chunks}");
        assert!(!svcs[1].is_resyncing(), "resync completed at the new source");
        for &o in &objects {
            assert_eq!(svcs[1].locations(o).map(|l| l.len()), Some(1));
        }
    }
}
