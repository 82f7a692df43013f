//! Shard placement and the per-node leadership view.
//!
//! [`DirectoryPlacement`] is the pure, cluster-wide map from objects to shards and
//! from shards to replica sets: there is one shard per node, and shard `s` lives on
//! nodes `s, (s+1) % n, ...` (`directory_replication` of them).
//!
//! [`PlacementView`] is a node's view of who leads each shard — one per node, owned by
//! its [`super::DirectoryService`]; routing reads the same view the server half
//! reconciles against. It holds the placement and the node's one liveness table
//! ([`crate::membership::MembershipView`]) and nothing else: leadership is a function
//! of the table, read on every routed op. A dead peer is neither shipped to nor a
//! primary candidate, an alive peer not yet readmitted (resyncing after a restart,
//! this node included) is shipped to but does not lead, and a readmitted one is a
//! candidate. A shard's **primary** is the first readmitted member of its replica set,
//! in placement order, so a restarted owner leads its shard again from its
//! readmission on (fail-back). A shard's **epoch** is a strictly monotone function of
//! its members' table entries ([`PlacementView::epoch`]): every death, restart,
//! refutation and readmission of a member raises it, so a promotion stamped with it
//! is above what the primary it replaces shipped at. Two views that hold the same
//! table route alike and name the same epochs, whatever order or batching brought
//! the claims; survivors agree on the current primary without a coordination round,
//! and transient disagreement is absorbed by op forwarding.

use crate::config::HopliteConfig;
use crate::membership::MembershipView;
use crate::object::{NodeId, ObjectId};

/// The static map from objects to shards and shards to replica sets.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DirectoryPlacement {
    nodes: Vec<NodeId>,
    replication: usize,
}

impl DirectoryPlacement {
    /// Build the placement for a cluster: one shard per node, `replication` clamped to
    /// the cluster size.
    pub fn new(nodes: Vec<NodeId>, replication: usize) -> Self {
        assert!(!nodes.is_empty(), "placement needs at least one node");
        let replication = replication.clamp(1, nodes.len());
        DirectoryPlacement { nodes, replication }
    }

    /// Build the placement from a node's configuration.
    pub fn from_config(cfg: &HopliteConfig, nodes: &[NodeId]) -> Self {
        DirectoryPlacement::new(nodes.to_vec(), cfg.directory_replication)
    }

    /// Every node in the cluster, in index order.
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// Number of shards: one per node.
    pub fn num_shards(&self) -> usize {
        self.nodes.len()
    }

    /// Number of replicas per shard.
    pub fn replication(&self) -> usize {
        self.replication
    }

    /// The shard responsible for `object`: [`DirectoryPlacement::shard_index`], so the
    /// initial primary of an object's shard is `ClusterView::shard_node`.
    pub fn shard_of(&self, object: ObjectId) -> usize {
        DirectoryPlacement::shard_index(object, self.num_shards())
    }

    /// The one spelling of the object → shard hash, for a given shard count. Both
    /// words of the id go through a splitmix64 finalizer, so every bit of it moves
    /// the shard, and a multiply-shift maps the mixed word onto `0..num_shards`
    /// (Lemire, "Fast Random Integer Generation in an Interval", 2019): ids that
    /// differ anywhere land on independent shards.
    pub fn shard_index(object: ObjectId, num_shards: usize) -> usize {
        fn mix(mut z: u64) -> u64 {
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
        let word = |i: usize| u64::from_le_bytes(object.0[i..i + 8].try_into().expect("id width"));
        let h = mix(word(0) ^ mix(word(8)));
        ((u128::from(h) * num_shards as u128) >> 64) as usize
    }

    /// The `i`-th member of `shard`'s replica set, in initial-candidate order: the node
    /// owning the shard first, then its successors on the ring.
    pub fn member(&self, shard: usize, i: usize) -> NodeId {
        self.nodes[(shard + i) % self.nodes.len()]
    }

    /// The replica set of a shard, in initial-candidate order.
    pub fn replica_set(&self, shard: usize) -> Vec<NodeId> {
        (0..self.replication).map(|i| self.member(shard, i)).collect()
    }

    /// Whether `node` hosts a replica of `shard`.
    pub fn hosts(&self, node: NodeId, shard: usize) -> bool {
        (0..self.replication).any(|i| self.member(shard, i) == node)
    }

    /// Shards for which `node` is a replica.
    pub fn shards_hosted_by(&self, node: NodeId) -> Vec<usize> {
        (0..self.num_shards()).filter(|&s| self.hosts(node, s)).collect()
    }
}

/// The shards a liveness change re-routed. An op sent to one of them before the change
/// may be confirmed by other replicas than the ones its journal entry waits on, so the
/// client re-drives its unconfirmed entries there.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Rerouted {
    /// Shards whose primary moved onto a live replica: a failover, or a leaderless
    /// shard regaining one. Queries outstanding there are re-issued too.
    pub moved: Vec<usize>,
    /// Shards that kept their primary but whose live backups changed: one died or
    /// came back.
    pub backups: Vec<usize>,
}

impl Rerouted {
    /// Whether no shard was re-routed.
    pub fn is_empty(&self) -> bool {
        self.moved.is_empty() && self.backups.is_empty()
    }
}

/// A shard's primary and the live backups it ships to.
pub(crate) type Route = (Option<NodeId>, Vec<NodeId>);

/// A node's view of shard leadership, derived from its liveness table (see module
/// docs).
#[derive(Clone, Debug)]
pub struct PlacementView {
    placement: DirectoryPlacement,
    /// The node's one liveness table. Only the directory service's liveness entry
    /// point writes it.
    pub(super) table: MembershipView,
}

impl PlacementView {
    /// A view over a placement and a liveness table.
    pub fn new(placement: DirectoryPlacement, table: MembershipView) -> Self {
        PlacementView { placement, table }
    }

    /// The static placement underneath.
    pub fn placement(&self) -> &DirectoryPlacement {
        &self.placement
    }

    /// The node's liveness table, which every standing is read from.
    pub fn table(&self) -> &MembershipView {
        &self.table
    }

    /// Whether `node` should receive log shipments (alive, possibly still resyncing).
    pub fn is_alive(&self, node: NodeId) -> bool {
        self.table.is_alive(node)
    }

    /// Whether `node` is alive but not yet readmitted: shipped to, not a candidate.
    pub fn is_resyncing(&self, node: NodeId) -> bool {
        self.table.is_alive(node) && !self.table.is_readmitted(node)
    }

    /// The members of `shard`'s replica set, in placement order.
    fn members(&self, shard: usize) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.placement.replication()).map(move |i| self.placement.member(shard, i))
    }

    /// The current primary of a shard: its first readmitted member, in placement
    /// order. `None` when every replica is dead or resyncing. Runs on every routed op:
    /// one table index per member, no allocation.
    pub fn primary(&self, shard: usize) -> Option<NodeId> {
        self.members(shard).find(|&n| self.table.is_readmitted(n))
    }

    /// The current primary of the shard responsible for `object`.
    pub fn primary_for(&self, object: ObjectId) -> Option<NodeId> {
        self.primary(self.placement.shard_of(object))
    }

    /// The shard's epoch: over its members, `3·incarnation` plus 0 while resyncing, 1
    /// while readmitted and 2 once dead, less the replication (a fresh cluster is at 0).
    /// An entry only moves up that order, so every change raises the epoch — except a
    /// restart request naming an incarnation gossip brought in readmitted, which lowers
    /// it by one, to above every epoch held before the gossip raised it by three.
    pub fn epoch(&self, shard: usize) -> u64 {
        let standing = |n: NodeId| match (self.table.is_alive(n), self.table.is_readmitted(n)) {
            (true, false) => 0,
            (true, true) => 1,
            (false, _) => 2,
        };
        let term =
            |n: NodeId| self.table.incarnation_of(n).saturating_mul(3).saturating_add(standing(n));
        let sum = self.members(shard).fold(0u64, |sum, n| sum.saturating_add(term(n)));
        sum.saturating_sub(self.placement.replication() as u64)
    }

    /// The replicas `primary` ships `shard`'s ops to: every other member of its replica
    /// set that is alive (resyncing members included, since they are catching up on
    /// the same stream).
    pub fn live_backups(&self, shard: usize, primary: NodeId) -> Vec<NodeId> {
        let members = self.placement.replica_set(shard);
        members.into_iter().filter(|&n| n != primary && self.is_alive(n)).collect()
    }

    /// The replicas that confirm an op sent to `shard`'s current primary: the live
    /// backups it ships to, or the primary alone when it has none. With no primary,
    /// the whole replica set, so the op stays unconfirmed until one returns.
    pub fn confirmers(&self, shard: usize) -> Vec<NodeId> {
        let Some(primary) = self.primary(shard) else { return self.placement.replica_set(shard) };
        let backups = self.live_backups(shard, primary);
        if backups.is_empty() {
            vec![primary]
        } else {
            backups
        }
    }

    /// Every shard's current primary and the live backups it ships to, by shard.
    pub(crate) fn routes(&self) -> Vec<Route> {
        (0..self.placement.num_shards())
            .map(|shard| {
                let primary = self.primary(shard);
                (primary, primary.map_or_else(Vec::new, |p| self.live_backups(shard, p)))
            })
            .collect()
    }

    /// The net route change from `before`: each shard that has a primary and whose
    /// primary moved, or whose primary died meanwhile, is `moved`; one that kept its
    /// primary but whose live backups changed, or one of which died meanwhile (a death
    /// and a return are a change even when the node id is the same), is `backups`.
    pub(crate) fn rerouted(&self, before: &[Route], departed: &[NodeId]) -> Rerouted {
        let mut rerouted = Rerouted::default();
        for (shard, (now, old)) in self.routes().into_iter().zip(before).enumerate() {
            let died = |n: &NodeId| departed.contains(n);
            if now.0.is_none() {
                continue;
            }
            if now.0 != old.0 || old.0.as_ref().is_some_and(died) {
                rerouted.moved.push(shard);
            } else if now.1 != old.1 || old.1.iter().any(died) {
                rerouted.backups.push(shard);
            }
        }
        rerouted
    }
}
