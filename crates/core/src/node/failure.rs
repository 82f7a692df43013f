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
//!   refills vacancies from the ready pool and restarts the whole tree at a new epoch
//!   (the rule, and its price, is stated once in [`crate::reduce::tree`]).
//!
//! * **Directory (§3.5)** — the directory is replicated by shipping sequenced ops to
//!   every live backup, each of which confirms what it applies to the op's origin;
//!   when a shard primary dies, a surviving backup is promoted (at the shard's epoch,
//!   a function of its members' liveness-table entries) and every client re-drives
//!   there only its *unconfirmed window*: journaled intents some replica they waited
//!   on never confirmed, plus its outstanding location queries. A backup's death or
//!   return re-drives its shards' unconfirmed window too, since it changes who
//!   confirms. Confirmed intents are already held by every replica they waited on.
//! * **Recovery (§3.5)** — a restarted node rejoins its replica sets through a state
//!   transfer orchestrated here: it stands not readmitted in its own table, requests
//!   a resync of each shard from another replica ([`ObjectStoreNode::begin_recovery`]),
//!   installs the chunk stream it answers with plus the buffered log tail, then
//!   broadcasts `DirResynced` so the survivors readmit the node as a primary
//!   candidate; it takes back the shards it owns, and the interim primaries hand
//!   them over. An interrupted transfer (the source dies mid-resync) is
//!   re-targeted at the next primary.
//!
//! This module hosts the facade-level orchestration plus the failure-specific methods
//! of the broadcast and reduce engines, so every §3.5 rule lives in one place.

use crate::directory::Rerouted;
use crate::object::{NodeId, ObjectId};
use crate::protocol::{DirOp, Effect, Message};
use crate::time::Time;

use super::broadcast::BroadcastEngine;
use super::reduce::ReduceEngine;
use super::{trace, NodeContext, ObjectStoreNode};

impl ObjectStoreNode {
    /// What follows one piece of liveness evidence once the directory service has
    /// reconciled it: tell the driver of each death (a transport tears its connections
    /// down), send the service's messages, re-drive the net route change once, announce
    /// a readmission it completed, then run each death's §3.5 rules on the data plane.
    pub(crate) fn apply_liveness(
        &mut self,
        departed: Vec<NodeId>,
        rerouted: Rerouted,
        msgs: Vec<(NodeId, Message)>,
        out: &mut Vec<Effect>,
    ) {
        for &peer in &departed {
            out.push(Effect::PeerDown { node: peer });
        }
        self.ctx.send_all(msgs, out);
        if !rerouted.moved.is_empty() {
            trace!(
                "[n{}] shards {:?} failed over off {:?}",
                self.ctx.id.0,
                rerouted.moved,
                departed
            );
        }
        self.redrive_shards(rerouted, out);
        self.maybe_announce_readmission(out);
        for peer in departed {
            self.broadcast.drop_transfers_to(peer);
            // Broadcast receivers that were pulling from it fail over (§3.5.1).
            for object in self.broadcast.pulls_from(peer) {
                self.ctx.metrics.broadcast_failovers += 1;
                self.broadcast.restart_get(&mut self.ctx, object, Some(peer), out);
            }
            // Reduce coordinators repair their trees (§3.5.2).
            self.reduce.on_peer_failed(&mut self.ctx, peer, out);
        }
    }

    /// Re-send the unconfirmed window of the shards a liveness change of the directory
    /// service re-routed: shards that failed over, that a re-admission gave a primary
    /// back, or whose live backups changed. Each re-sent entry is
    /// re-journaled against the view as it now stands, and every re-driven op is
    /// idempotent at the shard. Outstanding location queries for the shards whose
    /// primary moved are re-issued too (same correlation id; the shard deduplicates).
    pub(crate) fn redrive_shards(&mut self, rerouted: Rerouted, out: &mut Vec<Effect>) {
        let redrive = self.ctx.directory.redrive_for(self.ctx.service.placement(), rerouted);
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
    /// ourselves, via loopback) that no liveness change re-drove already, and
    /// broadcast `DirResynced` to every peer.
    pub(crate) fn maybe_announce_readmission(&mut self, out: &mut Vec<Effect>) {
        let Some(regained) = self.ctx.service.take_readmission() else { return };
        trace!("[n{}] resync complete; announcing re-admission", self.ctx.id.0);
        self.redrive_shards(regained, out);
        let me = self.ctx.id;
        let incarnation = self.incarnation();
        let peers: Vec<NodeId> =
            self.ctx.service.placement().nodes().iter().copied().filter(|&n| n != me).collect();
        for peer in peers {
            self.ctx.send(peer, Message::DirResynced { node: me, incarnation }, out);
        }
    }

    /// Begin recovery after a process restart: stand not readmitted in this node's own
    /// table, so its directory traffic routes away from itself, and request a resync
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

    /// The sender reported it cannot serve our pull (evicted, deleted, or reset): drop
    /// it as the current source and re-query. It is not excluded — exclusion follows
    /// death verdicts only — because a live sender may hold the object again soon: a
    /// reduce root that a repair reset is the result's only holder once it refills.
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
                self.restart_get(ctx, object, None, out);
            }
        }
    }
}

impl ReduceEngine {
    /// Repair every coordinated reduce tree after `peer` failed: vacate its slots,
    /// refill from the ready pool, and re-instruct every slot at the new epoch.
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
