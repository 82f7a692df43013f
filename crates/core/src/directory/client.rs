//! The directory client: this node's journal of durable intent.
//!
//! Every directory op leaves a node through one path: the node facade's `dir(op)`
//! journals the [`DirOp`] here ([`DirectoryClient::journal`], one match over the op
//! kinds: locations registered, inline objects published, subscriptions opened, and
//! what withdraws them), then sends its message form to the shard's current primary
//! as read from the node's one [`super::PlacementView`] (owned by its
//! [`super::DirectoryService`]).
//!
//! The journal tracks **confirmation**. Each entry waits on the replicas fixed when it
//! is journaled or re-driven ([`super::PlacementView::confirmers`]): the shard's
//! replica set minus the primary it is sent to, filtered by this node's liveness view
//! — the set that primary ships to when the two views agree — or that primary alone
//! when the set is empty. Each of them sends a
//! [`crate::protocol::Message::DirConfirm`] once it holds the op, and the entry is
//! confirmed when all of them have: the op is then durable *inside* the replication
//! layer, and a promoted backup is guaranteed to hold it. An entry can wait on a
//! replica that will never confirm it (one that died, or one the primary did not ship
//! to because the views disagreed), so every liveness transition that re-routes a
//! shard — moves its primary or changes its live backups — re-drives the shard's
//! unconfirmed entries ([`DirectoryClient::redrive_for`]), re-journaled against the new
//! view. All re-drives are idempotent at the shard.

use std::collections::BTreeMap;

use crate::object::{NodeId, ObjectId, ObjectStatus};
use crate::protocol::{ConfirmKind, DirOp};

use super::placement::{DirectoryPlacement, PlacementView, Rerouted};

/// The journaled intent of one registration.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Registration {
    /// Last status this node registered for the object.
    pub status: ObjectStatus,
    /// Object size as registered.
    pub size: u64,
    /// Whether the object went through the inline (small-object) fast path, in which
    /// case a re-drive must re-ship the payload, not just the location.
    pub inline: bool,
    /// The replicas that have not yet confirmed the registration
    /// ([`crate::protocol::Message::DirConfirm`]); empty once it is
    /// replication-durable, which excludes it from failover re-drive.
    pub waiting: Vec<NodeId>,
}

/// State to re-drive after a liveness transition, computed by
/// `DirectoryClient::redrive_for`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FailoverRedrive {
    /// Shards whose primary changed (failover) or came back (re-admission): queries
    /// outstanding there are re-issued.
    pub changed_shards: Vec<usize>,
    /// Unconfirmed registrations to re-send in every re-routed shard.
    pub reregister: Vec<(ObjectId, Registration)>,
    /// Unconfirmed subscriptions to re-open in every re-routed shard.
    pub resubscribe: Vec<ObjectId>,
}

/// Per-node journal of directory intent: every op this node sends is journaled here
/// first ([`DirectoryClient::journal`]), recording what a failover must be able to
/// re-drive.
#[derive(Debug, Default)]
pub struct DirectoryClient {
    registrations: BTreeMap<ObjectId, Registration>,
    /// Open subscriptions, each with the replicas that have not yet confirmed it.
    subscriptions: BTreeMap<ObjectId, Vec<NodeId>>,
}

impl DirectoryClient {
    /// Number of open subscriptions (GC tests).
    pub fn subscription_count(&self) -> usize {
        self.subscriptions.len()
    }

    /// Number of journaled-but-unconfirmed intents (registrations + subscriptions):
    /// the window a failover would re-drive.
    pub fn unconfirmed_count(&self) -> usize {
        self.registrations.values().filter(|r| !r.waiting.is_empty()).count()
            + self.subscriptions.values().filter(|w| !w.is_empty()).count()
    }

    /// Whether a registration of `object` is on record: sent, and neither withdrawn
    /// nor forgotten since.
    pub fn is_registered(&self, object: ObjectId) -> bool {
        self.registrations.contains_key(&object)
    }

    /// Journal an op this node is about to send to the current primary of its shard
    /// in `view`. A registration or inline put is recorded waiting on that shard's
    /// confirmers (replacing any earlier intent for the object), a subscription opened
    /// likewise; unregister, unsubscribe and delete withdraw what they undo. Queries
    /// are not journaled (the broadcast engine tracks outstanding queries and
    /// re-issues them itself), nor are transfer reports.
    pub fn journal(&mut self, op: &DirOp, view: &PlacementView) {
        let waiting = || view.confirmers(view.placement().shard_of(op.object()));
        let intent =
            |status, size, inline| Registration { status, size, inline, waiting: waiting() };
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
                self.subscriptions.insert(*object, waiting());
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

    /// Fold replica `from`'s confirmation into the journal: the entry stops waiting on
    /// it. The confirm names what it covers, so one for a superseded intent (e.g. a
    /// `Partial` registration later upgraded to `Complete`) does not count for the
    /// newer intent.
    pub fn confirm(&mut self, from: NodeId, object: ObjectId, kind: ConfirmKind) {
        let waiting = match kind {
            ConfirmKind::Location { status } => self
                .registrations
                .get_mut(&object)
                .filter(|r| !r.inline && r.status == status)
                .map(|r| &mut r.waiting),
            ConfirmKind::Inline => {
                self.registrations.get_mut(&object).filter(|r| r.inline).map(|r| &mut r.waiting)
            }
            ConfirmKind::Subscription => self.subscriptions.get_mut(&object),
        };
        if let Some(waiting) = waiting {
            waiting.retain(|&n| n != from);
        }
    }

    /// The unconfirmed entries of the shards a liveness transition re-routed, in
    /// object order. Confirmed entries are already held by every replica they waited
    /// on and are not re-sent.
    pub(crate) fn redrive_for(
        &self,
        placement: &DirectoryPlacement,
        rerouted: Rerouted,
    ) -> FailoverRedrive {
        if rerouted.is_empty() {
            return FailoverRedrive::default();
        }
        let in_rerouted = |o: &ObjectId| {
            let shard = placement.shard_of(*o);
            rerouted.moved.contains(&shard) || rerouted.backups.contains(&shard)
        };
        let reregister = self
            .registrations
            .iter()
            .filter(|(o, r)| !r.waiting.is_empty() && in_rerouted(o))
            .map(|(o, r)| (*o, r.clone()))
            .collect();
        let resubscribe = self
            .subscriptions
            .iter()
            .filter(|(o, waiting)| !waiting.is_empty() && in_rerouted(o))
            .map(|(o, _)| *o)
            .collect();
        FailoverRedrive { changed_shards: rerouted.moved, reregister, resubscribe }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::Payload;
    use crate::config::HopliteConfig;
    use crate::detector::GossipState::{self, Alive, Dead};
    use crate::directory::DirectoryService;
    use crate::object::NodeId;
    use crate::protocol::Message;
    use crate::time::Time;

    /// A client beside the directory service its node (node 0) would route through.
    fn client(n: u32) -> (DirectoryClient, DirectoryService) {
        replicated(n, HopliteConfig::small_for_tests().directory_replication)
    }

    fn replicated(n: u32, replication: usize) -> (DirectoryClient, DirectoryService) {
        let nodes: Vec<NodeId> = (0..n).map(NodeId).collect();
        let cfg = HopliteConfig {
            directory_replication: replication,
            ..HopliteConfig::small_for_tests()
        };
        (DirectoryClient::default(), DirectoryService::new(NodeId(0), &cfg, &nodes, 0))
    }

    /// The ops these tests journal, as node 0 sends them.
    fn register(
        c: &mut DirectoryClient,
        v: &DirectoryService,
        object: ObjectId,
        status: ObjectStatus,
        size: u64,
    ) {
        c.journal(&DirOp::Register { object, holder: NodeId(0), status, size }, v.view());
    }

    fn subscribe(c: &mut DirectoryClient, v: &DirectoryService, object: ObjectId) {
        c.journal(&DirOp::Subscribe { object, subscriber: NodeId(0) }, v.view());
    }

    /// Every replica `object`'s entries wait on in `v` confirms `kind`.
    fn confirm(c: &mut DirectoryClient, v: &DirectoryService, object: ObjectId, kind: ConfirmKind) {
        for from in v.view().confirmers(v.placement().shard_of(object)) {
            c.confirm(from, object, kind);
        }
    }

    fn obj_with_primary(v: &DirectoryService, primary: u32) -> ObjectId {
        (0u64..)
            .map(|k| ObjectId::from_name(&format!("cli-{k}")))
            .find(|&o| v.primary_for(o) == Some(NodeId(primary)))
            .unwrap()
    }

    /// One claim about `peer` through the service's liveness entry point, at its held
    /// incarnation plus `ahead`: the net route change.
    fn claim(v: &mut DirectoryService, peer: u32, ahead: u64, state: GossipState) -> Rerouted {
        let peer = NodeId(peer);
        let incarnation = v.view().table().incarnation_of(peer) + ahead;
        v.liveness(&[(peer, incarnation, state)], None, Time::ZERO, &mut Vec::new()).rerouted
    }

    /// What the facade does on a verdict about `peer`: one claim, one re-drive set.
    fn fail(c: &DirectoryClient, v: &mut DirectoryService, peer: u32) -> FailoverRedrive {
        let changed = claim(v, peer, 0, Dead);
        c.redrive_for(v.placement(), changed)
    }

    #[test]
    fn routes_to_the_current_primary() {
        let (mut c, mut v) = client(4);
        let o = obj_with_primary(&v, 1);
        register(&mut c, &v, o, ObjectStatus::Complete, 10);
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
        let (_, v) = client(4);
        let waiting = v.view().confirmers(v.placement().shard_of(o));
        assert_eq!(waiting.len(), 1, "r = 2: the live backup");
        let located = Registration {
            status: ObjectStatus::Partial,
            size: 7,
            inline: false,
            waiting: waiting.clone(),
        };
        let inline = Registration {
            status: ObjectStatus::Complete,
            size: 16,
            inline: true,
            waiting: waiting.clone(),
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
            (DirOp::Subscribe { object: o, subscriber: me }, None, Some(waiting.clone())),
            (DirOp::Unsubscribe { object: o, subscriber: me }, None, None),
            (DirOp::TransferDone { object: o, receiver: me, sender: peer }, None, None),
            (DirOp::Delete { object: o }, None, None),
        ];
        for (op, registration, subscription) in cases {
            let mut c = DirectoryClient::default();
            c.journal(&op, v.view());
            assert_eq!(c.registrations.get(&o).cloned(), registration, "{op:?}");
            assert_eq!(c.subscriptions.get(&o).cloned(), subscription, "{op:?}");
            // Over a confirmed registration and subscription: a new intent replaces
            // the registration unconfirmed, a withdrawal removes what it undoes, and
            // the rest leave both as they were.
            let mut c = DirectoryClient::default();
            register(&mut c, &v, o, ObjectStatus::Complete, 9);
            subscribe(&mut c, &v, o);
            confirm(&mut c, &v, o, ConfirmKind::Location { status: ObjectStatus::Complete });
            confirm(&mut c, &v, o, ConfirmKind::Subscription);
            let before = (c.registrations.get(&o).cloned(), c.subscriptions.get(&o).cloned());
            c.journal(&op, v.view());
            let after = (c.registrations.get(&o).cloned(), c.subscriptions.get(&o).cloned());
            let expected = match op {
                DirOp::Register { .. } | DirOp::PutInline { .. } => {
                    (registration, before.1.clone())
                }
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
        register(&mut c, &v, on_dead, ObjectStatus::Complete, 10);
        register(&mut c, &v, elsewhere, ObjectStatus::Partial, 20);
        subscribe(&mut c, &v, on_dead);
        subscribe(&mut c, &v, elsewhere);
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
        register(&mut c, &v, confirmed, ObjectStatus::Complete, 10);
        register(&mut c, &v, unacked, ObjectStatus::Complete, 20);
        subscribe(&mut c, &v, confirmed);
        assert_eq!(c.unconfirmed_count(), 3);
        confirm(&mut c, &v, confirmed, ConfirmKind::Location { status: ObjectStatus::Complete });
        confirm(&mut c, &v, confirmed, ConfirmKind::Subscription);
        assert_eq!(c.unconfirmed_count(), 1);
        let redrive = fail(&c, &mut v, 3);
        // Only the unconfirmed registration is re-driven; the confirmed registration
        // and subscription are held by the promoted backup, which confirmed them.
        assert_eq!(redrive.reregister.len(), 1);
        assert_eq!(redrive.reregister[0].0, unacked);
        assert!(redrive.resubscribe.is_empty());
    }

    #[test]
    fn stale_confirm_does_not_cover_an_upgraded_registration() {
        let (mut c, mut v) = client(4);
        let o = obj_with_primary(&v, 3);
        register(&mut c, &v, o, ObjectStatus::Partial, 10);
        // The registration is upgraded before the Partial confirm arrives.
        register(&mut c, &v, o, ObjectStatus::Complete, 10);
        confirm(&mut c, &v, o, ConfirmKind::Location { status: ObjectStatus::Partial });
        let redrive = fail(&c, &mut v, 3);
        assert_eq!(redrive.reregister.len(), 1, "the Complete upgrade is still unacked");
        assert_eq!(redrive.reregister[0].1.status, ObjectStatus::Complete);
    }

    #[test]
    fn forgotten_and_deleted_objects_are_not_redriven() {
        let (mut c, mut v) = client(3);
        let a = obj_with_primary(&v, 2);
        let payload = Payload::zeros(16);
        c.journal(&DirOp::PutInline { object: a, holder: NodeId(0), payload }, v.view());
        c.forget(a);
        let b = (0u64..)
            .map(|k| ObjectId::from_name(&format!("del-{k}")))
            .find(|&o| v.primary_for(o) == Some(NodeId(2)))
            .unwrap();
        register(&mut c, &v, b, ObjectStatus::Complete, 10);
        subscribe(&mut c, &v, b);
        c.journal(&DirOp::Delete { object: b }, v.view());
        let redrive = fail(&c, &mut v, 2);
        assert!(redrive.reregister.is_empty());
        assert!(redrive.resubscribe.is_empty());
    }

    #[test]
    fn exhausted_replica_set_yields_no_target() {
        let (mut c, mut v) = client(3);
        let o = obj_with_primary(&v, 1);
        register(&mut c, &v, o, ObjectStatus::Complete, 10);
        fail(&c, &mut v, 1);
        // replication = 2 on a 3-node cluster: the shard's replicas are nodes 1 and 2.
        assert_eq!(v.primary_for(o), Some(NodeId(2)));
        // The last replica dies: no target, so the shard is re-driven nowhere.
        let redrive = fail(&c, &mut v, 2);
        assert!(redrive.reregister.is_empty(), "{redrive:?}");
        assert_eq!(v.primary_for(o), None);
        assert!(!redrive.changed_shards.contains(&v.placement().shard_of(o)));
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
        register(&mut c, &v, o, ObjectStatus::Complete, 10);
        let first = fail(&c, &mut v, 1);
        assert_eq!(first.reregister.len(), 1, "failover to node 2 re-drives");
        let second = fail(&c, &mut v, 2);
        // Node 2's death also fails over shard 2 ([2, 0]), but the *leaderless*
        // shard of `o` has no target and is not re-driven.
        assert!(!second.changed_shards.contains(&v.placement().shard_of(o)));
        assert!(second.reregister.is_empty(), "nothing to re-drive at a dead shard");
        assert_eq!(v.primary_for(o), None);
        claim(&mut v, 1, 1, Alive);
        let incarnation = v.view().table().incarnation_of(NodeId(1));
        let back = [(NodeId(1), incarnation, Alive)];
        let readmit = Some((NodeId(1), incarnation, true));
        let regained = v.liveness(&back, readmit, Time::ZERO, &mut Vec::new()).rerouted;
        let redrive = c.redrive_for(v.placement(), regained);
        assert_eq!(redrive.reregister.len(), 1, "regained shard re-drives the window");
        assert_eq!(redrive.reregister[0].0, o);
        assert_eq!(v.primary_for(o), Some(NodeId(1)));
    }

    #[test]
    fn an_entry_waits_on_every_replica_its_primary_ships_to() {
        // r = 3 on four nodes: an op sent to the primary waits on both backups.
        let (mut c, v) = replicated(4, 3);
        let o = obj_with_primary(&v, 1);
        register(&mut c, &v, o, ObjectStatus::Complete, 10);
        assert_eq!(c.registrations[&o].waiting, vec![NodeId(2), NodeId(3)]);
        let kind = ConfirmKind::Location { status: ObjectStatus::Complete };
        // Neither the primary nor a node outside the set counts.
        c.confirm(NodeId(1), o, kind);
        c.confirm(NodeId(0), o, kind);
        c.confirm(NodeId(2), o, kind);
        assert_eq!(c.unconfirmed_count(), 1, "one of two backups confirmed");
        c.confirm(NodeId(3), o, kind);
        assert_eq!(c.unconfirmed_count(), 0);
        // With every backup dead, the primary alone confirms.
        let (mut c, mut v) = replicated(4, 3);
        claim(&mut v, 2, 0, Dead);
        claim(&mut v, 3, 0, Dead);
        subscribe(&mut c, &v, o);
        assert_eq!(c.subscriptions[&o], vec![NodeId(1)]);
        c.confirm(NodeId(1), o, ConfirmKind::Subscription);
        assert_eq!(c.unconfirmed_count(), 0);
    }

    #[test]
    fn a_backup_that_dies_or_returns_reroutes_the_shards_it_backs_up() {
        let (mut c, mut v) = client(4);
        // Shard 1 lives on [1, 2]: node 2 is its backup.
        let o = obj_with_primary(&v, 1);
        register(&mut c, &v, o, ObjectStatus::Complete, 10);
        let redrive = fail(&c, &mut v, 2);
        assert!(redrive.changed_shards.iter().all(|&s| s != 1), "the primary did not move");
        assert_eq!(redrive.reregister.iter().map(|r| r.0).collect::<Vec<_>>(), vec![o]);
        // Re-journaled against the new view, it waits on the lone primary; the
        // backup's return re-routes the shard again.
        register(&mut c, &v, o, ObjectStatus::Complete, 10);
        assert_eq!(c.registrations[&o].waiting, vec![NodeId(1)]);
        let rerouted = claim(&mut v, 2, 1, Alive);
        assert_eq!(rerouted, Rerouted { moved: vec![], backups: vec![1, 2] });
        let redrive = c.redrive_for(v.placement(), rerouted);
        assert_eq!(redrive.reregister.iter().map(|r| r.0).collect::<Vec<_>>(), vec![o]);
        assert!(redrive.changed_shards.is_empty(), "no query is re-issued");
    }

    #[test]
    fn self_resync_routes_away_until_finished() {
        let (_, mut v) = client(3);
        let o = obj_with_primary(&v, 0);
        let mut requests = Vec::new();
        assert!(v.begin_local_resync(&mut requests));
        // While resyncing, ops for shards this node owns go to the backup.
        assert_eq!(v.primary_for(o), Some(NodeId(1)));
        // Each source answers with one empty last chunk: the resync completes.
        for (source, request) in requests {
            let Message::DirSnapshotRequest { shard, .. } = request else { panic!("{request:?}") };
            let state = crate::protocol::ShardSnapshot::default();
            let chunk =
                Message::DirSnapshotChunk { shard, epoch: 0, seq: 0, rank: 0, done: true, state };
            let mut metrics = crate::metrics::NodeMetrics::default();
            assert_eq!(v.handle(source, chunk, &mut metrics, &mut Vec::new()), None);
        }
        // Once readmitted, the node leads the shards it owns again, and that is a
        // route change to re-drive.
        let readmission = v.take_readmission().expect("the resync completed");
        let shard = v.placement().shard_of(o);
        assert_eq!(readmission, Rerouted { moved: vec![shard], backups: vec![] });
        assert_eq!(v.primary_for(o), Some(NodeId(0)));
    }
}
