//! The directory client: this node's journal of durable intent.
//!
//! Every directory op leaves a node through one path: the node facade's `dir(op)`
//! journals the [`DirOp`] here ([`DirectoryClient::journal`], one match over the op
//! kinds: locations registered, inline objects published, subscriptions opened, and
//! what withdraws them), then sends its message form to the shard's current primary
//! as read from the node's one [`super::PlacementView`] (owned by its
//! [`super::DirectoryService`]).
//!
//! With the acked replication log, the journal tracks **confirmation**: the primary
//! sends a [`crate::protocol::Message::DirConfirm`] once an op's log entry has been
//! acked by every tracked backup, at which point the op is durable *inside* the
//! replication layer — a promoted backup is guaranteed to hold it. The loss window
//! that remains is ops still in flight to (or unconfirmed at) a dying primary, so
//! `DirectoryClient::redrive_for` selects exactly that genuinely-unacked window for
//! the shards whose primary just changed, instead of the full journal. All re-drives
//! are idempotent at the shard.

use std::collections::BTreeMap;

use crate::object::{ObjectId, ObjectStatus};
use crate::protocol::{ConfirmKind, DirOp};

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
    /// ([`crate::protocol::Message::DirConfirm`]); confirmed entries are excluded from
    /// failover re-drive.
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

/// Per-node journal of directory intent: every op this node sends is journaled here
/// first ([`DirectoryClient::journal`]), recording what a failover must be able to
/// re-drive.
#[derive(Debug, Default)]
pub struct DirectoryClient {
    registrations: BTreeMap<ObjectId, Registration>,
    /// Open subscriptions, with their confirmation state.
    subscriptions: BTreeMap<ObjectId, bool>,
}

impl DirectoryClient {
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

    /// Whether a registration of `object` is on record: sent, and neither withdrawn
    /// nor forgotten since.
    pub fn is_registered(&self, object: ObjectId) -> bool {
        self.registrations.contains_key(&object)
    }

    /// Journal an op this node is about to send. A registration or inline put is
    /// recorded unconfirmed (replacing any earlier intent for the object), a
    /// subscription opened unconfirmed; unregister, unsubscribe and delete withdraw
    /// what they undo. Queries are not journaled (the broadcast engine tracks
    /// outstanding queries and re-issues them itself), nor are transfer reports.
    pub fn journal(&mut self, op: &DirOp) {
        let intent = |status, size, inline| Registration { status, size, inline, confirmed: false };
        match op {
            DirOp::Register { object, status, size, .. } => {
                self.registrations.insert(*object, intent(*status, *size, false));
            }
            DirOp::PutInline { object, payload, .. } => {
                let size = payload.len();
                self.registrations.insert(*object, intent(ObjectStatus::Complete, size, true));
            }
            DirOp::Unregister { object, .. } => {
                self.registrations.remove(object);
            }
            DirOp::Subscribe { object, .. } => {
                self.subscriptions.insert(*object, false);
            }
            DirOp::Unsubscribe { object, .. } => {
                self.subscriptions.remove(object);
            }
            DirOp::Delete { object } => {
                self.registrations.remove(object);
                self.subscriptions.remove(object);
            }
            DirOp::Query { .. } | DirOp::TransferDone { .. } => {}
        }
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
    /// whose shard is in the list, in object order. Confirmed entries are already
    /// inside the promoted backup's acked prefix and are not re-sent.
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
    use crate::buffer::Payload;
    use crate::config::HopliteConfig;
    use crate::directory::PlacementView;
    use crate::object::NodeId;

    /// A client beside the leadership view its node would route through.
    fn client(n: u32) -> (DirectoryClient, PlacementView) {
        let nodes: Vec<NodeId> = (0..n).map(NodeId).collect();
        let placement = DirectoryPlacement::from_config(&HopliteConfig::small_for_tests(), &nodes);
        (DirectoryClient::default(), PlacementView::new(placement))
    }

    /// The ops these tests journal, as node 0 sends them.
    fn register(c: &mut DirectoryClient, object: ObjectId, status: ObjectStatus, size: u64) {
        c.journal(&DirOp::Register { object, holder: NodeId(0), status, size });
    }

    fn subscribe(c: &mut DirectoryClient, object: ObjectId) {
        c.journal(&DirOp::Subscribe { object, subscriber: NodeId(0) });
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
        let (mut c, mut v) = client(4);
        let o = obj_with_primary(&v, 1);
        register(&mut c, o, ObjectStatus::Complete, 10);
        assert_eq!(v.primary_for(o), Some(NodeId(1)));
        // After node 1 dies the same object routes to the next replica (node 2), and
        // the journaled registration is what the failover re-drives there.
        let redrive = fail(&c, &mut v, 1);
        assert_eq!(v.primary_for(o), Some(NodeId(2)));
        assert_eq!(redrive.reregister.iter().map(|r| r.0).collect::<Vec<_>>(), vec![o]);
    }

    /// Each op kind, journaled alone on a fresh client, leaves exactly its own intent:
    /// `(registration, subscription)` per kind, before and after a prior intent of both.
    #[test]
    fn journal_records_each_op_kind() {
        let o = ObjectId::from_name("journal");
        let (me, peer) = (NodeId(0), NodeId(1));
        let located = Registration {
            status: ObjectStatus::Partial,
            size: 7,
            inline: false,
            confirmed: false,
        };
        let inline = Registration {
            status: ObjectStatus::Complete,
            size: 16,
            inline: true,
            confirmed: false,
        };
        let cases = [
            (
                DirOp::Register { object: o, holder: me, status: ObjectStatus::Partial, size: 7 },
                Some(located),
                None,
            ),
            (
                DirOp::PutInline { object: o, holder: me, payload: Payload::zeros(16) },
                Some(inline),
                None,
            ),
            (DirOp::Unregister { object: o, holder: me }, None, None),
            (
                DirOp::Query { object: o, requester: me, query_id: 3, exclude: vec![peer] },
                None,
                None,
            ),
            (DirOp::Subscribe { object: o, subscriber: me }, None, Some(false)),
            (DirOp::Unsubscribe { object: o, subscriber: me }, None, None),
            (DirOp::TransferDone { object: o, receiver: me, sender: peer }, None, None),
            (DirOp::Delete { object: o }, None, None),
        ];
        for (op, registration, subscription) in cases {
            let mut c = DirectoryClient::default();
            c.journal(&op);
            assert_eq!(c.registrations.get(&o).copied(), registration, "{op:?}");
            assert_eq!(c.subscriptions.get(&o).copied(), subscription, "{op:?}");
            // Over a confirmed registration and subscription: a new intent replaces
            // the registration unconfirmed, a withdrawal removes what it undoes, and
            // the rest leave both as they were.
            let mut c = DirectoryClient::default();
            register(&mut c, o, ObjectStatus::Complete, 9);
            subscribe(&mut c, o);
            c.confirm(o, ConfirmKind::Location { status: ObjectStatus::Complete });
            c.confirm(o, ConfirmKind::Subscription);
            let before = (c.registrations.get(&o).copied(), c.subscriptions.get(&o).copied());
            c.journal(&op);
            let after = (c.registrations.get(&o).copied(), c.subscriptions.get(&o).copied());
            let expected = match op {
                DirOp::Register { .. } | DirOp::PutInline { .. } => (registration, before.1),
                DirOp::Subscribe { .. } => (before.0, subscription),
                DirOp::Unregister { .. } => (None, before.1),
                DirOp::Unsubscribe { .. } => (before.0, None),
                DirOp::Delete { .. } => (None, None),
                DirOp::Query { .. } | DirOp::TransferDone { .. } => before,
            };
            assert_eq!(after, expected, "{op:?} over confirmed intents");
        }
    }

    #[test]
    fn failover_redrives_journaled_state_for_changed_shards_only() {
        let (mut c, mut v) = client(4);
        let on_dead = obj_with_primary(&v, 3);
        let elsewhere = obj_with_primary(&v, 1);
        register(&mut c, on_dead, ObjectStatus::Complete, 10);
        register(&mut c, elsewhere, ObjectStatus::Partial, 20);
        subscribe(&mut c, on_dead);
        subscribe(&mut c, elsewhere);
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
        let (mut c, mut v) = client(4);
        let confirmed = obj_with_primary(&v, 3);
        let unacked = (0u64..)
            .map(|k| ObjectId::from_name(&format!("win-{k}")))
            .find(|&o| v.primary_for(o) == Some(NodeId(3)) && o != confirmed)
            .unwrap();
        register(&mut c, confirmed, ObjectStatus::Complete, 10);
        register(&mut c, unacked, ObjectStatus::Complete, 20);
        subscribe(&mut c, confirmed);
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
        let (mut c, mut v) = client(4);
        let o = obj_with_primary(&v, 3);
        register(&mut c, o, ObjectStatus::Partial, 10);
        // The registration is upgraded before the Partial confirm arrives.
        register(&mut c, o, ObjectStatus::Complete, 10);
        c.confirm(o, ConfirmKind::Location { status: ObjectStatus::Partial });
        let redrive = fail(&c, &mut v, 3);
        assert_eq!(redrive.reregister.len(), 1, "the Complete upgrade is still unacked");
        assert_eq!(redrive.reregister[0].1.status, ObjectStatus::Complete);
    }

    #[test]
    fn forgotten_and_deleted_objects_are_not_redriven() {
        let (mut c, mut v) = client(3);
        let a = obj_with_primary(&v, 2);
        c.journal(&DirOp::PutInline { object: a, holder: NodeId(0), payload: Payload::zeros(16) });
        c.forget(a);
        let b = (0u64..)
            .map(|k| ObjectId::from_name(&format!("del-{k}")))
            .find(|&o| v.primary_for(o) == Some(NodeId(2)))
            .unwrap();
        register(&mut c, b, ObjectStatus::Complete, 10);
        subscribe(&mut c, b);
        c.journal(&DirOp::Delete { object: b });
        let redrive = fail(&c, &mut v, 2);
        assert!(redrive.reregister.is_empty());
        assert!(redrive.resubscribe.is_empty());
    }

    #[test]
    fn exhausted_replica_set_yields_no_target() {
        let (mut c, mut v) = client(2);
        let o = obj_with_primary(&v, 1);
        register(&mut c, o, ObjectStatus::Complete, 10);
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
        let (mut c, mut v) = client(3);
        let o = obj_with_primary(&v, 1);
        register(&mut c, o, ObjectStatus::Complete, 10);
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
        let (_, mut v) = client(3);
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
