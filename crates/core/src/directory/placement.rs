//! Shard placement and the per-node leadership view.
//!
//! [`DirectoryPlacement`] is the pure, cluster-wide map from objects to shards and
//! from shards to replica sets: there is one shard per node, and shard `s` lives on
//! nodes `s, (s+1) % n, ...` (`directory_replication` of them).
//!
//! [`PlacementView`] is a node's *evolving* view of who leads each shard — one per
//! node, owned by its [`super::DirectoryService`]; routing reads the same view the
//! server half mutates. It is **epoch-versioned** rather than failure-monotonic: each
//! shard carries a primary *rank cursor* that advances (cyclically) when the current
//! primary fails and never rewinds, plus a *failover epoch* counter bumped on every
//! failure **and** every re-admission of a replica-set member. A node that recovers is
//! first marked *resyncing* (alive, shipped to, but not a primary candidate); once it
//! announces catch-up it is re-admitted and becomes eligible again — so after a
//! rolling restart the original owners end up leading their shards again, with
//! strictly increasing epochs protecting against deposed primaries' stragglers. A
//! peer's standing (`Failed` or `Resyncing`; absent means healthy) is kept once, in
//! one ordered map, and is the only record of that state, for this node too: it is
//! resyncing after a restart while the map says so, until its own last stream
//! completes.
//! Because every node folds the same broadcast failure/recovery/re-admission notices
//! into the same deterministic rules, survivors agree on the current primary without
//! a coordination round; transient disagreement is absorbed by op forwarding.

use std::collections::BTreeMap;

use crate::config::HopliteConfig;
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

    /// The replica set of a shard, initial-candidate order: the node owning the shard
    /// first, then its successors on the ring.
    pub fn replica_set(&self, shard: usize) -> Vec<NodeId> {
        let n = self.nodes.len();
        (0..self.replication).map(|i| self.nodes[(shard + i) % n]).collect()
    }

    /// Whether `node` hosts a replica of `shard`.
    pub fn hosts(&self, node: NodeId, shard: usize) -> bool {
        self.replica_set(shard).contains(&node)
    }

    /// Shards for which `node` is a replica.
    pub fn shards_hosted_by(&self, node: NodeId) -> Vec<usize> {
        (0..self.num_shards()).filter(|&s| self.hosts(node, s)).collect()
    }
}

/// The shards a liveness transition re-routed. An op sent to one of them before the
/// transition may be confirmed by other replicas than the ones its journal entry waits
/// on, so the client re-drives its unconfirmed entries there.
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
    /// The shards whose primary moved, and nothing else.
    pub fn moved(moved: Vec<usize>) -> Self {
        Rerouted { moved, backups: Vec::new() }
    }

    /// Whether no shard was re-routed.
    pub fn is_empty(&self) -> bool {
        self.moved.is_empty() && self.backups.is_empty()
    }

    /// Fold `other` in.
    pub fn merge(&mut self, other: Rerouted) {
        self.moved.extend(other.moved);
        self.backups.extend(other.backups);
    }
}

/// A shard's primary and the live backups it ships to.
type Route = (Option<NodeId>, Vec<NodeId>);

/// Where a peer stands in the leadership view, when it is not healthy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Standing {
    /// Dead: neither shipped to nor a primary candidate.
    Failed,
    /// Recovered but not yet caught up: alive (shipped to) but not a primary
    /// candidate. This node itself stands here while it resyncs after a restart.
    Resyncing,
}

/// A node's evolving, epoch-versioned view of shard leadership (see module docs).
#[derive(Clone, Debug)]
pub struct PlacementView {
    placement: DirectoryPlacement,
    /// Every peer that is not healthy, with its standing.
    standing: BTreeMap<NodeId, Standing>,
    /// Per-shard primary cursor into the replica set; advances on primary failure,
    /// never rewinds on re-admission (no automatic fail-back).
    rank: Vec<usize>,
    /// Per-shard failover epoch: counts failures and re-admissions of replica-set
    /// members, raised further by epochs observed on the wire. Promotions stamp
    /// themselves with this counter.
    epochs: Vec<u64>,
}

impl PlacementView {
    /// A fresh view over a placement: rank cursors at the shard owners, epochs at 0.
    pub fn new(placement: DirectoryPlacement) -> Self {
        let shards = placement.num_shards();
        PlacementView {
            placement,
            standing: BTreeMap::new(),
            rank: vec![0; shards],
            epochs: vec![0; shards],
        }
    }

    /// The static placement underneath.
    pub fn placement(&self) -> &DirectoryPlacement {
        &self.placement
    }

    /// Whether `node` is currently a primary candidate.
    fn eligible(&self, node: NodeId) -> bool {
        !self.standing.contains_key(&node)
    }

    /// Whether `node` should receive log shipments (alive, possibly still resyncing).
    pub fn is_alive(&self, node: NodeId) -> bool {
        self.standing.get(&node) != Some(&Standing::Failed)
    }

    /// Whether `node` is currently marked as resyncing.
    pub fn is_resyncing(&self, node: NodeId) -> bool {
        self.standing.get(&node) == Some(&Standing::Resyncing)
    }

    /// The current primary of a shard: the first eligible member scanning cyclically
    /// from the rank cursor. `None` when every replica is dead or resyncing.
    pub fn primary(&self, shard: usize) -> Option<NodeId> {
        let members = self.placement.replica_set(shard);
        let r = members.len();
        (0..r).map(|i| members[(self.rank[shard] + i) % r]).find(|&n| self.eligible(n))
    }

    /// The current primary of the shard responsible for `object`.
    pub fn primary_for(&self, object: ObjectId) -> Option<NodeId> {
        self.primary(self.placement.shard_of(object))
    }

    /// The shard's current failover epoch.
    pub fn epoch(&self, shard: usize) -> u64 {
        self.epochs[shard]
    }

    /// Fold an epoch observed on the wire (a shipment, ack, or resync frame) into the
    /// counter, so a node that missed events can still promote above them.
    pub fn note_epoch(&mut self, shard: usize, epoch: u64) {
        if let Some(e) = self.epochs.get_mut(shard) {
            *e = (*e).max(epoch);
        }
    }

    /// Adopt an authoritative rank cursor learned from a completed chunk stream, so
    /// a restarted node's routing agrees with the survivors' (no fail-back to itself).
    pub fn set_rank(&mut self, shard: usize, rank: usize) {
        self.rank[shard] = rank % self.placement.replication();
    }

    /// This shard's rank cursor.
    pub fn current_rank(&self, shard: usize) -> usize {
        self.rank[shard]
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

    /// `shard`'s current primary and the live backups it ships to.
    fn route(&self, shard: usize) -> Route {
        let primary = self.primary(shard);
        (primary, primary.map_or_else(Vec::new, |p| self.live_backups(shard, p)))
    }

    /// The shards `peer` hosts, each with its route (the "before" picture a liveness
    /// transition compares against).
    fn routes_of_shards_hosted_by(&self, peer: NodeId) -> Vec<(usize, Route)> {
        let hosted = (0..self.placement.num_shards()).filter(|&s| self.placement.hosts(peer, s));
        hosted.map(|s| (s, self.route(s))).collect()
    }

    /// The shards among `before` whose route changed and that still have a primary.
    fn rerouted(&self, before: Vec<(usize, Route)>) -> Rerouted {
        let mut rerouted = Rerouted::default();
        for (shard, old) in before {
            let now = self.route(shard);
            if now.0.is_some() && now.0 != old.0 {
                rerouted.moved.push(shard);
            } else if now.0.is_some() && now != old {
                rerouted.backups.push(shard);
            }
        }
        rerouted
    }

    /// Digest a peer failure. Returns the shards it re-routed: those whose primary
    /// moved off `peer` onto a surviving replica, and those that lost `peer` as a live
    /// backup.
    pub fn on_peer_failed(&mut self, peer: NodeId) -> Rerouted {
        if !self.is_alive(peer) {
            return Rerouted::default();
        }
        let before = self.routes_of_shards_hosted_by(peer);
        self.standing.insert(peer, Standing::Failed);
        for (shard, (old, _)) in &before {
            let shard = *shard;
            self.epochs[shard] += 1;
            if *old != Some(peer) {
                continue;
            }
            // Advance the cursor past the dead primary so a later re-admission does
            // not fail back to it.
            if let Some(new_primary) = self.primary(shard) {
                let members = self.placement.replica_set(shard);
                if let Some(pos) = members.iter().position(|&n| n == new_primary) {
                    self.rank[shard] = pos;
                }
            }
        }
        self.rerouted(before)
    }

    /// A peer is back (its own traffic says so, at a newer incarnation): alive again,
    /// shipped to, but it must resync before it can lead anything. Returns the shards
    /// that gained it as a live backup; empty when it was not news.
    pub fn on_peer_recovered(&mut self, peer: NodeId) -> Rerouted {
        if self.is_alive(peer) {
            return Rerouted::default();
        }
        let before = self.routes_of_shards_hosted_by(peer);
        self.standing.insert(peer, Standing::Resyncing);
        self.rerouted(before)
    }

    /// Digest a catch-up announcement (a peer's, or this node's own resync
    /// completing): the node is a full replica again. Bumps the failover epoch of
    /// every shard it hosts (re-admission is a leadership-relevant event, exactly like
    /// a failure). Returns the shards that regained a primary with this re-admission —
    /// a shard whose every other replica died while `peer` was out goes
    /// `None → Some(peer)` here, and clients must re-drive their unconfirmed intents
    /// at it just as they would after a failover.
    pub fn on_peer_readmitted(&mut self, peer: NodeId) -> Vec<usize> {
        if self.eligible(peer) {
            return Vec::new();
        }
        let affected = self.routes_of_shards_hosted_by(peer);
        self.standing.remove(&peer);
        let mut regained = Vec::new();
        for (shard, (old, _)) in affected {
            self.epochs[shard] += 1;
            if old.is_none() && self.primary(shard).is_some() {
                regained.push(shard);
            }
        }
        regained
    }

    /// Mark this node itself as resyncing after a restart (all shards).
    pub fn begin_self_resync(&mut self, me: NodeId) {
        self.standing.insert(me, Standing::Resyncing);
    }
}
