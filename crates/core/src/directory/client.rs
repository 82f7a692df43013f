//! The directory client: this node's journal of durable intent.
//!
//! Every node expresses its directory intent — locations it registered, inline
//! objects it published, subscriptions it opened — through a [`DirectoryClient`],
//! which journals it and builds the wire message; the node facade routes that
//! message to the shard's current primary as read from the node's one
//! [`super::PlacementView`] (owned by its [`super::DirectoryService`]).
//!
//! With the acked replication log, the journal tracks **confirmation**: the primary
//! sends a [`Message::DirConfirm`] once an op's log entry has been acked by every
//! tracked backup, at which point the op is durable *inside* the replication layer —
//! a promoted backup is guaranteed to hold it. The loss window that remains is ops
//! still in flight to (or unconfirmed at) a dying primary, so
//! `DirectoryClient::redrive_for` selects exactly that genuinely-unacked window for
//! the shards whose primary just changed, instead of the full journal. All re-drives
//! are idempotent at the shard.

use std::collections::HashMap;

use crate::buffer::Payload;
use crate::object::{NodeId, ObjectId, ObjectStatus};
use crate::protocol::{ConfirmKind, Message};

use super::placement::DirectoryPlacement;

/// The journaled intent of one registration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Registration {
    /// Last status this node registered for the object.
    pub status: ObjectStatus,
    /// Object size as registered.
    pub size: u64,
    /// Whether the object went through the inline (small-object) fast path, in which
    /// case a re-drive must re-ship the payload, not just the location.
    pub inline: bool,
    /// Whether the primary confirmed the registration as replication-durable
    /// ([`Message::DirConfirm`]); confirmed entries are excluded from failover
    /// re-drive.
    pub confirmed: bool,
}

/// State to re-drive at the new primaries after a failover, computed by
/// `DirectoryClient::redrive_for`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FailoverRedrive {
    /// Shards whose primary changed (failover) or came back (re-admission).
    pub changed_shards: Vec<usize>,
    /// Unconfirmed registrations to re-send (the genuinely-unacked window).
    pub reregister: Vec<(ObjectId, Registration)>,
    /// Unconfirmed subscriptions to re-open in those shards.
    pub resubscribe: Vec<ObjectId>,
}

/// Per-node journal of directory intent. Each intent method records what a failover
/// must be able to re-drive and returns the message to send to the shard's primary.
#[derive(Debug)]
pub struct DirectoryClient {
    me: NodeId,
    registrations: HashMap<ObjectId, Registration>,
    /// Open subscriptions, with their confirmation state.
    subscriptions: HashMap<ObjectId, bool>,
}

impl DirectoryClient {
    /// Create the client for node `me`.
    pub fn new(me: NodeId) -> Self {
        DirectoryClient { me, registrations: HashMap::new(), subscriptions: HashMap::new() }
    }

    /// Number of open subscriptions (GC tests).
    pub fn subscription_count(&self) -> usize {
        self.subscriptions.len()
    }

    /// Number of journaled-but-unconfirmed intents (registrations + subscriptions):
    /// the window a failover would re-drive.
    pub fn unconfirmed_count(&self) -> usize {
        self.registrations.values().filter(|r| !r.confirmed).count()
            + self.subscriptions.values().filter(|c| !**c).count()
    }

    /// Register (or refresh) this node as a location of `object`.
    pub fn register(&mut self, object: ObjectId, status: ObjectStatus, size: u64) -> Message {
        self.registrations
            .insert(object, Registration { status, size, inline: false, confirmed: false });
        Message::DirRegister { object, holder: self.me, status, size }
    }

    /// Publish a small object through the inline fast path.
    pub fn put_inline(&mut self, object: ObjectId, payload: Payload) -> Message {
        self.registrations.insert(
            object,
            Registration {
                status: ObjectStatus::Complete,
                size: payload.len(),
                inline: true,
                confirmed: false,
            },
        );
        Message::DirPutInline { object, holder: self.me, payload }
    }

    /// Withdraw this node's location for `object`.
    pub fn unregister(&mut self, object: ObjectId) -> Message {
        self.registrations.remove(&object);
        Message::DirUnregister { object, holder: self.me }
    }

    /// Issue a synchronous location query (not journaled: the broadcast engine
    /// tracks outstanding queries and re-issues them itself).
    pub fn query(&self, object: ObjectId, query_id: u64, exclude: Vec<NodeId>) -> Message {
        Message::DirQuery { object, requester: self.me, query_id, exclude }
    }

    /// Open a location subscription.
    pub fn subscribe(&mut self, object: ObjectId) -> Message {
        self.subscriptions.insert(object, false);
        Message::DirSubscribe { object, subscriber: self.me }
    }

    /// Close a location subscription.
    pub fn unsubscribe(&mut self, object: ObjectId) -> Message {
        self.subscriptions.remove(&object);
        Message::DirUnsubscribe { object, subscriber: self.me }
    }

    /// Report a finished transfer so the sender's lease is released.
    pub fn transfer_done(&self, object: ObjectId, sender: NodeId) -> Message {
        Message::DirTransferDone { object, receiver: self.me, sender }
    }

    /// Delete every copy of `object` cluster-wide.
    pub fn delete(&mut self, object: ObjectId) -> Message {
        self.registrations.remove(&object);
        self.subscriptions.remove(&object);
        Message::DirDelete { object }
    }

    /// The local copy of `object` is gone (delete fan-out or eviction): drop the
    /// journaled registration so a failover does not resurrect it.
    pub fn forget(&mut self, object: ObjectId) {
        self.registrations.remove(&object);
    }

    /// Fold a primary's durability confirmation into the journal. The confirm names
    /// what it covers, so an ack for a superseded intent (e.g. a `Partial`
    /// registration later upgraded to `Complete`) does not mark the newer intent
    /// confirmed.
    pub fn confirm(&mut self, object: ObjectId, kind: ConfirmKind) {
        match kind {
            ConfirmKind::Location { status } => {
                if let Some(r) = self.registrations.get_mut(&object) {
                    if !r.inline && r.status == status {
                        r.confirmed = true;
                    }
                }
            }
            ConfirmKind::Inline => {
                if let Some(r) = self.registrations.get_mut(&object) {
                    if r.inline {
                        r.confirmed = true;
                    }
                }
            }
            ConfirmKind::Subscription => {
                if let Some(c) = self.subscriptions.get_mut(&object) {
                    *c = true;
                }
            }
        }
    }

    /// The genuinely-unacked window for `shards` — the shards the leadership view
    /// reported as failed over (their primary died) or regained (a re-admission gave
    /// a leaderless shard a primary back): every journaled-but-unconfirmed intent
    /// whose shard is in the list. Confirmed entries are already inside the promoted
    /// backup's acked prefix and are not re-sent.
    pub(crate) fn redrive_for(
        &self,
        placement: &DirectoryPlacement,
        changed_shards: Vec<usize>,
    ) -> FailoverRedrive {
        if changed_shards.is_empty() {
            return FailoverRedrive::default();
        }
        let in_changed = |o: &ObjectId| changed_shards.contains(&placement.shard_of(*o));
        let reregister = self
            .registrations
            .iter()
            .filter(|(o, r)| !r.confirmed && in_changed(o))
            .map(|(o, r)| (*o, *r))
            .collect();
        let resubscribe = self
            .subscriptions
            .iter()
            .filter(|(o, confirmed)| !**confirmed && in_changed(o))
            .map(|(o, _)| *o)
            .collect();
        FailoverRedrive { changed_shards, reregister, resubscribe }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::HopliteConfig;
    use crate::directory::PlacementView;

    /// A client beside the leadership view its node would route through.
    fn client(n: u32, me: u32) -> (DirectoryClient, PlacementView) {
        let nodes: Vec<NodeId> = (0..n).map(NodeId).collect();
        let placement = DirectoryPlacement::from_config(&HopliteConfig::small_for_tests(), &nodes);
        (DirectoryClient::new(NodeId(me)), PlacementView::new(placement))
    }

    fn obj_with_primary(v: &PlacementView, primary: u32) -> ObjectId {
        (0u64..)
            .map(|k| ObjectId::from_name(&format!("cli-{k}")))
            .find(|&o| v.primary_for(o) == Some(NodeId(primary)))
            .unwrap()
    }

    /// What the facade does on a peer failure: one view transition, one re-drive set.
    fn fail(c: &DirectoryClient, v: &mut PlacementView, peer: u32) -> FailoverRedrive {
        let changed = v.on_peer_failed(NodeId(peer));
        c.redrive_for(v.placement(), changed)
    }

    #[test]
    fn routes_to_the_current_primary() {
        let (mut c, mut v) = client(4, 2);
        let o = obj_with_primary(&v, 1);
        let msg = c.register(o, ObjectStatus::Complete, 10);
        assert!(matches!(msg, Message::DirRegister { holder: NodeId(2), .. }));
        assert_eq!(v.primary_for(o), Some(NodeId(1)));
        // After node 1 dies the same object routes to the next replica (node 2).
        fail(&c, &mut v, 1);
        assert!(matches!(c.query(o, 1, vec![]), Message::DirQuery { requester: NodeId(2), .. }));
        assert_eq!(v.primary_for(o), Some(NodeId(2)));
    }

    #[test]
    fn failover_redrives_journaled_state_for_changed_shards_only() {
        let (mut c, mut v) = client(4, 0);
        let on_dead = obj_with_primary(&v, 3);
        let elsewhere = obj_with_primary(&v, 1);
        c.register(on_dead, ObjectStatus::Complete, 10);
        c.register(elsewhere, ObjectStatus::Partial, 20);
        c.subscribe(on_dead);
        c.subscribe(elsewhere);
        let redrive = fail(&c, &mut v, 3);
        assert_eq!(redrive.changed_shards, vec![3]);
        assert_eq!(redrive.reregister.len(), 1);
        assert_eq!(redrive.reregister[0].0, on_dead);
        assert_eq!(redrive.resubscribe, vec![on_dead]);
        // A repeated notification is a no-op.
        assert_eq!(fail(&c, &mut v, 3), FailoverRedrive::default());
    }

    #[test]
    fn confirmed_intents_shrink_the_redrive_window() {
        let (mut c, mut v) = client(4, 0);
        let confirmed = obj_with_primary(&v, 3);
        let unacked = (0u64..)
            .map(|k| ObjectId::from_name(&format!("win-{k}")))
            .find(|&o| v.primary_for(o) == Some(NodeId(3)) && o != confirmed)
            .unwrap();
        c.register(confirmed, ObjectStatus::Complete, 10);
        c.register(unacked, ObjectStatus::Complete, 20);
        c.subscribe(confirmed);
        assert_eq!(c.unconfirmed_count(), 3);
        c.confirm(confirmed, ConfirmKind::Location { status: ObjectStatus::Complete });
        c.confirm(confirmed, ConfirmKind::Subscription);
        assert_eq!(c.unconfirmed_count(), 1);
        let redrive = fail(&c, &mut v, 3);
        // Only the genuinely-unacked registration is re-driven; the confirmed
        // registration and subscription live in the promoted backup's acked prefix.
        assert_eq!(redrive.reregister.len(), 1);
        assert_eq!(redrive.reregister[0].0, unacked);
        assert!(redrive.resubscribe.is_empty());
    }

    #[test]
    fn stale_confirm_does_not_cover_an_upgraded_registration() {
        let (mut c, mut v) = client(4, 0);
        let o = obj_with_primary(&v, 3);
        c.register(o, ObjectStatus::Partial, 10);
        // The registration is upgraded before the Partial confirm arrives.
        c.register(o, ObjectStatus::Complete, 10);
        c.confirm(o, ConfirmKind::Location { status: ObjectStatus::Partial });
        let redrive = fail(&c, &mut v, 3);
        assert_eq!(redrive.reregister.len(), 1, "the Complete upgrade is still unacked");
        assert_eq!(redrive.reregister[0].1.status, ObjectStatus::Complete);
    }

    #[test]
    fn forgotten_and_deleted_objects_are_not_redriven() {
        let (mut c, mut v) = client(3, 0);
        let a = obj_with_primary(&v, 2);
        c.put_inline(a, Payload::zeros(16));
        c.forget(a);
        let b = (0u64..)
            .map(|k| ObjectId::from_name(&format!("del-{k}")))
            .find(|&o| v.primary_for(o) == Some(NodeId(2)))
            .unwrap();
        c.register(b, ObjectStatus::Complete, 10);
        c.subscribe(b);
        c.delete(b);
        let redrive = fail(&c, &mut v, 2);
        assert!(redrive.reregister.is_empty());
        assert!(redrive.resubscribe.is_empty());
    }

    #[test]
    fn exhausted_replica_set_yields_no_target() {
        let (mut c, mut v) = client(2, 0);
        let o = obj_with_primary(&v, 1);
        c.register(o, ObjectStatus::Complete, 10);
        fail(&c, &mut v, 1);
        // replication = 2 on a 2-node cluster: replicas are nodes 1 and 0.
        assert_eq!(v.primary_for(o), Some(NodeId(0)));
        // The last replica dies: no target, so nothing is re-driven anywhere.
        let redrive = fail(&c, &mut v, 0);
        assert_eq!(v.primary_for(o), None);
        assert_eq!(redrive, FailoverRedrive::default());
    }

    #[test]
    fn readmission_redrives_the_unconfirmed_window_of_leaderless_shards() {
        // Shard with replicas [1, 2] (client is node 0, a non-member). Both replicas
        // die, so the client's unconfirmed registration has nowhere to go; when node
        // 1 is readmitted after restarting, the shard regains a primary and the
        // client must re-drive the registration there — the re-admitted replica may
        // have resynced from nothing.
        let (mut c, mut v) = client(3, 0);
        let o = obj_with_primary(&v, 1);
        c.register(o, ObjectStatus::Complete, 10);
        let first = fail(&c, &mut v, 1);
        assert_eq!(first.reregister.len(), 1, "failover to node 2 re-drives");
        let second = fail(&c, &mut v, 2);
        // Node 2's death also fails over shard 2 ([2, 0]), but the *leaderless*
        // shard of `o` has no target and is not re-driven.
        assert!(!second.changed_shards.contains(&v.placement().shard_of(o)));
        assert!(second.reregister.is_empty(), "nothing to re-drive at a dead shard");
        assert_eq!(v.primary_for(o), None);
        v.on_peer_recovered(NodeId(1));
        let regained = v.on_peer_readmitted(NodeId(1));
        let redrive = c.redrive_for(v.placement(), regained);
        assert_eq!(redrive.reregister.len(), 1, "regained shard re-drives the window");
        assert_eq!(redrive.reregister[0].0, o);
        assert_eq!(v.primary_for(o), Some(NodeId(1)));
    }

    #[test]
    fn self_resync_routes_away_until_finished() {
        let (_, mut v) = client(3, 0);
        let o = obj_with_primary(&v, 0);
        v.begin_self_resync(NodeId(0));
        // While resyncing, ops for shards this node owns go to the backup.
        assert_eq!(v.primary_for(o), Some(NodeId(1)));
        assert!(v.on_peer_readmitted(NodeId(0)).is_empty(), "the shard was never leaderless");
        // The cursor did not move, so once re-admitted the node routes to itself
        // again only where the cursor still points at it.
        assert_eq!(v.primary_for(o), Some(NodeId(0)));
    }
}
