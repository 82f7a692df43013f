//! Failure-adaptation rules (§3.5).
//!
//! Hoplite adapts in-flight collectives instead of restarting them:
//!
//! * **Broadcast (§3.5.1)** — a receiver whose sender failed keeps the blocks it
//!   already has, excludes the failed sender, and re-queries the directory; the reply
//!   points it at another (possibly partial) copy and the pull resumes from its
//!   current watermark. The directory shard refuses assignments that would create
//!   cyclic fetch dependencies among the survivors.
//! * **Reduce (§3.5.2)** — the coordinator vacates every slot the failed node owned,
//!   bumps the accumulation epoch of the slot's ancestors (at most `log_d n` of them),
//!   and refills vacancies from the ready pool. Participants receiving a higher epoch
//!   clear their partial accumulation; participants whose parent changed re-send their
//!   finalized blocks from the start (re-parenting).
//!
//! * **Directory (§3.5)** — the directory is replicated behind a sequenced, acked op
//!   log; when a shard primary dies, a surviving backup is promoted (at the shard's
//!   failover epoch, derived from the shared event stream) and every client
//!   re-drives at the new primary only the *genuinely-unacked window*: journaled
//!   intents the old primary never confirmed as replication-durable, plus its
//!   outstanding location queries. Confirmed intents already live in the promoted
//!   backup's acked prefix.
//! * **Recovery (§3.5)** — a restarted node rejoins its replica sets through a state
//!   transfer orchestrated here: demote every hosted replica, request a resync of
//!   each shard from the current primary ([`ObjectStoreNode::begin_recovery`]),
//!   install the chunk stream (or replay the delta) it answers with plus the buffered
//!   log tail, then broadcast `DirResynced` so the survivors re-admit the node as a
//!   primary candidate. An interrupted transfer (the source dies mid-resync) is
//!   re-targeted at the next primary.
//!
//! This module hosts the facade-level orchestration plus the failure-specific methods
//! of the broadcast and reduce engines, so every §3.5 rule lives in one place.

use crate::object::{NodeId, ObjectId};
use crate::protocol::{DirOp, Effect, Message};
use crate::time::Time;

use super::broadcast::BroadcastEngine;
use super::reduce::ReduceEngine;
use super::{trace, NodeContext, ObjectStoreNode};

impl ObjectStoreNode {
    /// Facade-level handling of a peer failure: promote and purge directory replicas,
    /// re-drive directory client state, stop serving the failed node, fail over
    /// in-flight pulls, and repair reduce trees. Called by
    /// [`ObjectStoreNode::liveness`] only, once the liveness table says so.
    pub(crate) fn peer_failed_impl(&mut self, peer: NodeId, out: &mut Vec<Effect>) {
        if peer == self.ctx.id {
            return;
        }
        // Tell the driver first: whatever sourced this verdict (a supervisor
        // notice, the gossip detector, a digest), transports holding real
        // connections to the dead peer must tear them down. Idempotent at the
        // driver; drivers without per-peer state ignore it.
        out.push(Effect::PeerDown { node: peer });
        self.fail_over_directory(peer, None, out);
        // Stop serving transfers destined to the dead node.
        self.broadcast.drop_transfers_to(peer);
        // Broadcast receivers that were pulling from it fail over (§3.5.1).
        for object in self.broadcast.pulls_from(peer) {
            self.ctx.metrics.broadcast_failovers += 1;
            self.broadcast.restart_get(&mut self.ctx, object, Some(peer), out);
        }
        // Reduce coordinators repair their trees (§3.5.2).
        self.reduce.on_peer_failed(&mut self.ctx, peer, out);
    }

    /// The directory side of `peer`'s failure, and the node's one call into
    /// [`DirectoryService::on_peer_failed`](crate::directory::DirectoryService::on_peer_failed),
    /// whether a verdict or a restart request implied the failure.
    /// Service side first: every hosted replica purges the dead node, this node
    /// promotes itself wherever it just became the shard's leader (at the shard's
    /// failover epoch), confirms gated by the dead backup's ack are released, and an
    /// interrupted resync sourced from the dead node is re-targeted — all before any
    /// client re-drive below can loop back into the service. The service's messages
    /// go out at once, or into `replies` when a snapshot request implied the failure
    /// (they then leave with what serves it). The failure may also have completed this
    /// node's own resync (its last outstanding resync source died): re-admission is
    /// announced here. Last, the client side re-drives
    /// at the new primaries the genuinely-unacked window — journaled intents the dead
    /// primary never confirmed as replication-durable. Everything confirmed is already
    /// inside the promoted backup's acked prefix, and every re-driven op is idempotent
    /// at the shard.
    pub(crate) fn fail_over_directory(
        &mut self,
        peer: NodeId,
        replies: Option<&mut Vec<(NodeId, Message)>>,
        out: &mut Vec<Effect>,
    ) {
        let mut msgs = Vec::new();
        let failed_over = self.ctx.service.on_peer_failed(peer, replies.unwrap_or(&mut msgs));
        self.ctx.send_all(msgs, out);
        if !failed_over.is_empty() {
            trace!("[n{}] shards {:?} failed over off {:?}", self.ctx.id.0, failed_over, peer);
        }
        self.maybe_announce_readmission(out);
        self.redrive_shards(failed_over, out);
    }

    /// Re-send the genuinely-unacked window at the new primaries of `shards` — the
    /// list a liveness transition of the directory service returned: shards that
    /// failed over, or that a re-admission gave a primary back. Outstanding location
    /// queries for those shards are re-issued too (same correlation id; the shard
    /// deduplicates).
    pub(crate) fn redrive_shards(&mut self, shards: Vec<usize>, out: &mut Vec<Effect>) {
        let redrive = self.ctx.directory.redrive_for(self.ctx.service.placement(), shards);
        let me = self.ctx.id;
        for (object, reg) in redrive.reregister {
            if !self.ctx.store.contains(object) {
                // The journaled copy is gone (evicted or deleted mid-flight).
                self.ctx.directory.forget(object);
                continue;
            }
            self.ctx.metrics.directory_redrives += 1;
            let inline = if reg.inline { self.ctx.store.get_complete(object) } else { None };
            let op = match inline {
                Some(payload) => DirOp::PutInline { object, holder: me, payload },
                None => DirOp::Register { object, holder: me, status: reg.status, size: reg.size },
            };
            self.ctx.dir(op, out);
        }
        for object in redrive.resubscribe {
            self.ctx.metrics.directory_redrives += 1;
            self.ctx.dir(DirOp::Subscribe { object, subscriber: me }, out);
        }
        self.broadcast.requery_after_failover(&mut self.ctx, &redrive.changed_shards, out);
    }

    /// If the directory service just completed this node's resync (last stream
    /// installed, or the last sourceless shard abandoned), re-drive the unconfirmed
    /// window of any shard this node itself just gave a primary back to (to
    /// ourselves, via loopback), and broadcast `DirResynced` to every peer.
    pub(crate) fn maybe_announce_readmission(&mut self, out: &mut Vec<Effect>) {
        let Some(regained) = self.ctx.service.take_readmission() else { return };
        trace!("[n{}] resync complete; announcing re-admission", self.ctx.id.0);
        self.redrive_shards(regained, out);
        let me = self.ctx.id;
        let incarnation = self.ctx.membership.self_incarnation();
        let peers: Vec<NodeId> =
            self.ctx.service.placement().nodes().iter().copied().filter(|&n| n != me).collect();
        for peer in peers {
            self.ctx.send(peer, Message::DirResynced { node: me, incarnation }, out);
        }
    }

    /// Begin recovery after a process restart: demote every hosted directory replica,
    /// route this node's own directory traffic away from itself, and request a resync
    /// of each hosted shard from the believed current primary. The driver calls this
    /// exactly once on a node it restarted (never on cold boot). When the last stream
    /// installs, [`ObjectStoreNode::maybe_announce_readmission`] announces
    /// `DirResynced` cluster-wide and the node becomes a primary candidate again.
    pub fn begin_recovery(&mut self, now: Time, out: &mut Vec<Effect>) {
        let mut requests = Vec::new();
        if self.ctx.service.begin_local_resync(&mut requests) {
            trace!("[n{}] restarted: requesting {} shard resyncs", self.ctx.id.0, requests.len());
        }
        self.ctx.send_all(requests, out);
        self.drain_self_queue(now, out);
        self.finish_turn(out);
    }
}

impl BroadcastEngine {
    /// Restart a `Get` after its sender became unusable: remember the exclusion and
    /// re-query the directory. Data below the current watermark is kept; the next pull
    /// resumes from it (§3.5.1).
    pub(crate) fn restart_get(
        &mut self,
        ctx: &mut NodeContext,
        object: ObjectId,
        failed_sender: Option<NodeId>,
        out: &mut Vec<Effect>,
    ) {
        let Some(g) = self.gets.get_mut(&object) else { return };
        if let Some(failed) = failed_sender {
            if !g.excluded.contains(&failed) {
                g.excluded.push(failed);
            }
        }
        g.pulling_from = None;
        self.issue_directory_query(ctx, object, out);
    }

    /// Re-issue every outstanding directory query that was addressed to a shard whose
    /// primary just changed. The reply from the dead primary may or may not have been
    /// sent; re-issuing with the *same* correlation id is safe because the shard
    /// replaces a parked duplicate instead of stacking it, and the client ignores
    /// replies for ids it no longer tracks.
    pub(crate) fn requery_after_failover(
        &mut self,
        ctx: &mut NodeContext,
        changed_shards: &[usize],
        out: &mut Vec<Effect>,
    ) {
        if changed_shards.is_empty() {
            return;
        }
        let stranded: Vec<(ObjectId, u64)> = self
            .gets
            .iter()
            .filter(|(object, g)| {
                g.query_id.is_some()
                    && changed_shards.contains(&ctx.service.placement().shard_of(**object))
            })
            .map(|(object, g)| (*object, g.query_id.expect("filtered on Some")))
            .collect();
        for (object, query_id) in stranded {
            ctx.metrics.directory_failovers += 1;
            let exclude = self.gets.get(&object).map(|g| g.excluded.clone()).unwrap_or_default();
            ctx.dir(DirOp::Query { object, requester: ctx.id, query_id, exclude }, out);
        }
    }

    /// The sender reported it cannot serve our pull (evicted, deleted, or reset): fail
    /// over exactly as if the sender had died.
    pub(crate) fn on_pull_error(
        &mut self,
        ctx: &mut NodeContext,
        from: NodeId,
        object: ObjectId,
        out: &mut Vec<Effect>,
    ) {
        if let Some(get) = self.gets.get(&object) {
            if get.pulling_from == Some(from) {
                ctx.metrics.broadcast_failovers += 1;
                self.restart_get(ctx, object, Some(from), out);
            }
        }
    }
}

impl ReduceEngine {
    /// Repair every coordinated reduce tree after `peer` failed: vacate its slots,
    /// bump ancestor epochs, refill from the ready pool, and re-issue the affected
    /// instructions (§3.5.2).
    pub(crate) fn on_peer_failed(
        &mut self,
        ctx: &mut NodeContext,
        peer: NodeId,
        out: &mut Vec<Effect>,
    ) {
        for coord in self.coordinators.values_mut() {
            if let Some(plan) = coord.plan.as_mut() {
                let affected = plan.on_node_failed(peer);
                coord.issue_instructions(ctx, &affected, out);
            }
        }
    }
}
