//! One directory shard as a pure state machine (§3.2 of the paper).
//!
//! The directory is a sharded hash table mapping each `ObjectID` to its size and the
//! set of node locations holding a partial or complete copy. This module implements a
//! single shard as a pure, deterministic state machine; the replication layer
//! ([`super::replication`]) wraps it in a replica role, and the service layer
//! ([`super::service`]) routes client operations into the right replica.
//!
//! Determinism matters here: backups replay the primary's op log against their own
//! mirror shard, so applying the same ops in the same order must produce the same
//! state and the same messages on every replica. Every collection is ordered, so the
//! messages an op emits come out in key order too.
//!
//! The shard also implements the two behaviours that make Hoplite's broadcast
//! receiver-driven (§3.4.1):
//!
//! * when answering a location query it *leases* the chosen sender to the requester,
//!   so each copy serves at most one receiver at a time and later receivers are
//!   spread over earlier ones;
//! * it refuses assignments that would create cyclic fetch dependencies after a
//!   failure (§3.5.1).
//!
//! Both read one fact: the entry's lease edges, one `receiver -> sender` edge per
//! receiver. A holder is leased while an edge names it as the sender; answering a
//! receiver again replaces its edge, and nothing else records a lease.
//!
//! Finally, objects at or below the inline threshold are cached in the shard itself
//! and served straight from the query reply (the small-object fast path).

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::ops::Bound::{Excluded, Unbounded};

use crate::buffer::Payload;
use crate::config::HopliteConfig;
use crate::object::{NodeId, ObjectId, ObjectStatus};
use crate::protocol::{Message, QueryResult, SnapshotEntry};
use crate::time::Duration;

/// How long a granted lease may stay unresolved before the shard reclaims it: the
/// expiry wheel ticks once per this period, and a lease lives between one and two
/// of them (see [`DirectoryShard::expire_stale_leases`]).
pub const LEASE_TTL: Duration = Duration::from_secs(30);

/// A parked synchronous query waiting for a location to appear.
#[derive(Clone, Debug)]
struct PendingQuery {
    requester: NodeId,
    query_id: u64,
    exclude: Vec<NodeId>,
}

/// Directory state for one object.
#[derive(Clone, Debug, Default)]
struct Entry {
    size: Option<u64>,
    locations: BTreeMap<NodeId, ObjectStatus>,
    /// The inline-cached payload and its put-order stamp. Stamps are assigned from a
    /// logical clock that only puts (and resync installs) advance — a query is a read
    /// and stamps nothing — so every replica agrees on the order and evicts the same
    /// victims.
    inline: Option<(Payload, u64)>,
    pending: VecDeque<PendingQuery>,
    subscribers: BTreeSet<NodeId>,
    /// Lease edges: receiver -> the sender the shard gave it. Used both for leasing
    /// and for cycle avoidance.
    pulls: BTreeMap<NodeId, NodeId>,
    deleted: bool,
}

impl Entry {
    /// The receiver `holder` is leased to, if an edge names it.
    fn lessee(&self, holder: NodeId) -> Option<NodeId> {
        self.pulls.iter().find(|(_, sender)| **sender == holder).map(|(receiver, _)| *receiver)
    }
}

/// A lease candidate in the expiry wheel: `(object, holder, receiver)`. Validated
/// lazily at expiry time — candidates whose lease has since resolved are skipped —
/// so the many code paths that clear leases never have to touch the wheel.
type LeaseCandidate = (ObjectId, NodeId, NodeId);

/// One shard of the object directory.
///
/// Entries live in a `BTreeMap` so chunked resync can stream them in bounded,
/// cursor-resumable slices ([`DirectoryShard::snapshot_range`]).
#[derive(Debug)]
pub struct DirectoryShard {
    shard_id: usize,
    cfg: HopliteConfig,
    entries: BTreeMap<ObjectId, Entry>,
    /// Logical clock for inline-cache put-order stamps.
    inline_clock: u64,
    /// Put-order index: stamp -> object, for every entry with an inline payload.
    inline_order: BTreeMap<u64, ObjectId>,
    /// Total bytes of inline payloads currently cached.
    inline_bytes: u64,
    /// Inline payloads evicted to stay under `directory_inline_cache_bytes`.
    inline_evictions: u64,
    /// Two-generation lease expiry wheel: candidates age from `current` to `prev`
    /// and are expired (if still leased) on the tick after that, so a lease lives
    /// between one and two TTLs without any per-lease timer.
    lease_wheel_current: Vec<LeaseCandidate>,
    lease_wheel_prev: Vec<LeaseCandidate>,
}

impl DirectoryShard {
    /// Create an empty shard.
    pub fn new(shard_id: usize, cfg: HopliteConfig) -> Self {
        DirectoryShard {
            shard_id,
            cfg,
            entries: BTreeMap::new(),
            inline_clock: 0,
            inline_order: BTreeMap::new(),
            inline_bytes: 0,
            inline_evictions: 0,
            lease_wheel_current: Vec::new(),
            lease_wheel_prev: Vec::new(),
        }
    }

    /// The shard's configuration.
    pub fn config(&self) -> &HopliteConfig {
        &self.cfg
    }

    /// The shard's index.
    pub fn shard_id(&self) -> usize {
        self.shard_id
    }

    /// Number of objects this shard currently tracks.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when the shard tracks no objects.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Known locations of an object (for tests and introspection).
    pub fn locations(&self, object: ObjectId) -> Vec<(NodeId, ObjectStatus)> {
        self.entries
            .get(&object)
            .map(|e| e.locations.iter().map(|(n, s)| (*n, *s)).collect())
            .unwrap_or_default()
    }

    /// Register a location. Also answers parked queries and publishes to subscribers.
    pub fn register(
        &mut self,
        object: ObjectId,
        holder: NodeId,
        status: ObjectStatus,
        size: u64,
        out: &mut Vec<(NodeId, Message)>,
    ) {
        let entry = self.entries.entry(object).or_default();
        if entry.deleted {
            // The task framework may recreate a deleted object id (lineage
            // reconstruction); a fresh registration revives the entry.
            *entry = Entry::default();
        }
        entry.size = Some(size);
        entry.locations.insert(holder, status);
        // A holder that finished its copy is no longer pulling from anyone.
        if status.is_complete() {
            entry.pulls.remove(&holder);
        }
        for sub in &entry.subscribers {
            out.push((*sub, Message::DirPublish { object, holder, status, size }));
        }
        self.drain_pending(object, out);
    }

    /// Cache a small object inline (§3.2 fast path) and answer parked queries. The
    /// inline cache is bounded: when `directory_inline_cache_bytes` is exceeded
    /// payloads are dropped oldest put first (their location records stay).
    pub fn put_inline(
        &mut self,
        object: ObjectId,
        holder: NodeId,
        payload: Payload,
        out: &mut Vec<(NodeId, Message)>,
    ) {
        let size = payload.len();
        let entry = self.entries.entry(object).or_default();
        if entry.deleted {
            *entry = Entry::default();
        }
        entry.size = Some(size);
        entry.locations.insert(holder, ObjectStatus::Complete);
        for sub in &entry.subscribers {
            out.push((
                *sub,
                Message::DirPublish { object, holder, status: ObjectStatus::Complete, size },
            ));
        }
        self.inline_clock += 1;
        let stamp = self.inline_clock;
        if let Some((old, old_stamp)) = entry.inline.replace((payload, stamp)) {
            self.inline_order.remove(&old_stamp);
            self.inline_bytes -= old.len();
        }
        self.inline_order.insert(stamp, object);
        self.inline_bytes += size;
        self.enforce_inline_budget();
        self.drain_pending(object, out);
    }

    /// Evict inline payloads, oldest put first, until the cache fits its budget.
    /// An entry whose inline payload is the only complete copy of the object is
    /// never evicted (dropping it would lose the last copy); such entries are
    /// skipped and the budget may be exceeded until a pull-servable copy appears.
    fn enforce_inline_budget(&mut self) {
        let budget = self.cfg.directory_inline_cache_bytes;
        let mut cursor = 0u64;
        while self.inline_bytes > budget {
            let Some((&stamp, &object)) =
                self.inline_order.range((Excluded(cursor), Unbounded)).next()
            else {
                break;
            };
            cursor = stamp;
            let entry = self.entries.get_mut(&object).expect("the order index tracks live entries");
            if !entry.locations.values().any(|s| s.is_complete()) {
                continue;
            }
            let (payload, _) = entry.inline.take().expect("the order index tracks inline payloads");
            self.inline_order.remove(&stamp);
            self.inline_bytes -= payload.len();
            self.inline_evictions += 1;
        }
    }

    /// Bytes of inline payloads currently cached (introspection and benches).
    pub fn inline_bytes(&self) -> u64 {
        self.inline_bytes
    }

    /// Drain the count of inline payloads evicted since the last call.
    pub fn take_inline_evictions(&mut self) -> u64 {
        std::mem::take(&mut self.inline_evictions)
    }

    /// Remove one holder's location (local eviction or an explicit unregister).
    pub fn unregister(&mut self, object: ObjectId, holder: NodeId) {
        if let Some(entry) = self.entries.get_mut(&object) {
            entry.locations.remove(&holder);
            // Any lease the holder was granting disappears with it.
            entry.pulls.retain(|_, sender| *sender != holder);
        }
    }

    /// Handle a synchronous location query. Replies immediately when possible,
    /// otherwise parks the query until a usable location is registered.
    ///
    /// A fresh query supersedes whatever assignment the requester held before: its
    /// lease edge is dropped (the requester only re-queries after abandoning that
    /// pull, §3.5.1), and a parked duplicate with the same correlation id is replaced
    /// rather than queued twice — which makes the failover-aware client's re-issued
    /// queries idempotent.
    pub fn query(
        &mut self,
        object: ObjectId,
        requester: NodeId,
        query_id: u64,
        exclude: Vec<NodeId>,
        out: &mut Vec<(NodeId, Message)>,
    ) {
        if let Some(reply) = self.read(object, requester, query_id) {
            out.push((requester, reply));
            return;
        }
        let entry = self.entries.entry(object).or_default();
        entry.pulls.remove(&requester);
        entry.pending.retain(|p| !(p.requester == requester && p.query_id == query_id));
        entry.pending.push_back(PendingQuery { requester, query_id, exclude });
        self.drain_pending(object, out);
    }

    /// The reply to a query that the entry answers as it stands, if answering it
    /// changes nothing: the entry is a tombstone, or it holds an inline payload, the
    /// requester holds no lease edge and no query is parked on it. Such a query is a
    /// read — the primary answers it without logging it, and [`DirectoryShard::query`]
    /// takes the same branch, so a replica replaying a logged query agrees.
    pub fn read(&self, object: ObjectId, requester: NodeId, query_id: u64) -> Option<Message> {
        let entry = self.entries.get(&object)?;
        let result = if entry.deleted {
            QueryResult::Deleted
        } else {
            let (payload, _) = entry.inline.as_ref()?;
            let untouched = entry.pending.is_empty() && !entry.pulls.contains_key(&requester);
            if !untouched || payload.len() > self.cfg.inline_threshold {
                return None;
            }
            QueryResult::Inline { payload: payload.clone() }
        };
        Some(Message::DirQueryReply { object, query_id, result })
    }

    /// Subscribe to location publications; current locations are published right away.
    pub fn subscribe(
        &mut self,
        object: ObjectId,
        subscriber: NodeId,
        out: &mut Vec<(NodeId, Message)>,
    ) {
        let entry = self.entries.entry(object).or_default();
        entry.subscribers.insert(subscriber);
        let size = entry.size.unwrap_or(0);
        for (&holder, &status) in &entry.locations {
            out.push((subscriber, Message::DirPublish { object, holder, status, size }));
        }
    }

    /// Drop a subscription (the asynchronous counterpart of a query timeout; reduce
    /// coordinators unsubscribe when their reduce completes).
    pub fn unsubscribe(&mut self, object: ObjectId, subscriber: NodeId) {
        if let Some(entry) = self.entries.get_mut(&object) {
            entry.subscribers.remove(&subscriber);
        }
    }

    /// Number of subscribers of an object (introspection for GC tests).
    pub fn subscriber_count(&self, object: ObjectId) -> usize {
        self.entries.get(&object).map(|e| e.subscribers.len()).unwrap_or(0)
    }

    /// A receiver finished copying from `sender`: drop its lease edge so the sender is
    /// available to other receivers again (§3.4.1 "adds the sender's location back").
    pub fn transfer_done(&mut self, object: ObjectId, receiver: NodeId, sender: NodeId) {
        if let Some(entry) = self.entries.get_mut(&object) {
            if entry.pulls.get(&receiver) == Some(&sender) {
                entry.pulls.remove(&receiver);
            }
        }
    }

    /// Delete an object: answer parked queries with `Deleted`, tell every holder to
    /// drop its copy, and tombstone the entry.
    pub fn delete(&mut self, object: ObjectId, out: &mut Vec<(NodeId, Message)>) {
        let entry = self.entries.entry(object).or_default();
        entry.deleted = true;
        if let Some((payload, stamp)) = entry.inline.take() {
            self.inline_order.remove(&stamp);
            self.inline_bytes -= payload.len();
        }
        for pending in entry.pending.drain(..) {
            out.push((
                pending.requester,
                Message::DirQueryReply {
                    object,
                    query_id: pending.query_id,
                    result: QueryResult::Deleted,
                },
            ));
        }
        for holder in entry.locations.keys() {
            out.push((*holder, Message::StoreRelease { object }));
        }
        entry.locations.clear();
        entry.pulls.clear();
        entry.subscribers.clear();
    }

    /// Purge all state belonging to a failed node: its locations, leases in either
    /// direction, parked queries and subscriptions (§3.5).
    pub fn node_failed(&mut self, node: NodeId) {
        for entry in self.entries.values_mut() {
            entry.locations.remove(&node);
            entry.subscribers.remove(&node);
            entry.pending.retain(|p| p.requester != node);
            entry.pulls.retain(|receiver, sender| *receiver != node && *sender != node);
        }
    }

    /// Serialize one entry. The `leased_to` column of a location is derived from the
    /// lease edges; parked queries keep their arrival order, which is part of the
    /// shard's semantics.
    fn entry_snapshot(object: ObjectId, e: &Entry) -> SnapshotEntry {
        SnapshotEntry {
            object,
            size: e.size,
            locations: e.locations.iter().map(|(n, s)| (*n, *s, e.lessee(*n))).collect(),
            inline: e.inline.as_ref().map(|(p, _)| p.clone()),
            pending: e
                .pending
                .iter()
                .map(|p| (p.requester, p.query_id, p.exclude.clone()))
                .collect(),
            subscribers: e.subscribers.iter().copied().collect(),
            pulls: e.pulls.iter().map(|(r, s)| (*r, *s)).collect(),
            deleted: e.deleted,
            inline_stamp: e.inline.as_ref().map_or(0, |(_, stamp)| *stamp),
        }
    }

    /// One bounded, cursor-resumable slice of the shard for transfer to a recovering
    /// replica (§3.5 state transfer): entries in object-id order (the map is ordered)
    /// strictly after `after` (or from the start when `None`), accumulated until the
    /// next entry would push the slice past `max_bytes`. Always returns at least one
    /// entry when any remain — a single entry larger than the budget is shipped
    /// alone. The second element is `true` when the shard is exhausted.
    pub fn snapshot_range(
        &self,
        after: Option<ObjectId>,
        max_bytes: u64,
    ) -> (Vec<SnapshotEntry>, bool) {
        let lower = match after {
            Some(o) => Excluded(o),
            None => Unbounded,
        };
        let mut out: Vec<SnapshotEntry> = Vec::new();
        let mut bytes = 0u64;
        for (object, entry) in self.entries.range((lower, Unbounded)) {
            let se = Self::entry_snapshot(*object, entry);
            let sz = se.wire_size();
            if !out.is_empty() && bytes + sz > max_bytes {
                return (out, false);
            }
            bytes += sz;
            out.push(se);
        }
        (out, true)
    }

    /// An empty shard with this one's id, configuration and inline clock: what a
    /// resync stream installs into. The clock must stay monotonic across re-baselines.
    pub fn empty_like(&self) -> DirectoryShard {
        DirectoryShard {
            inline_clock: self.inline_clock,
            ..Self::new(self.shard_id, self.cfg.clone())
        }
    }

    /// Install (upsert) one chunk of snapshot entries, maintaining the inline-cache
    /// accounting and re-arming a lease candidate per lease edge. The `leased_to`
    /// column is ignored: the edges are the leases.
    pub fn install_entries(&mut self, entries: &[SnapshotEntry]) {
        for se in entries {
            if let Some((old, stamp)) = self.entries.get(&se.object).and_then(|e| e.inline.as_ref())
            {
                self.inline_order.remove(stamp);
                self.inline_bytes -= old.len();
            }
            let inline = se.inline.clone().map(|payload| {
                let mut stamp = se.inline_stamp;
                if stamp == 0 || self.inline_order.contains_key(&stamp) {
                    // Defensive: stamps are unique per source and a stream has one
                    // source, but a stray frame may collide; a collision gets a fresh
                    // stamp instead of corrupting the index.
                    self.inline_clock += 1;
                    stamp = self.inline_clock;
                }
                self.inline_bytes += payload.len();
                self.inline_order.insert(stamp, se.object);
                self.inline_clock = self.inline_clock.max(stamp);
                (payload, stamp)
            });
            let entry = Entry {
                size: se.size,
                locations: se.locations.iter().map(|(n, status, _)| (*n, *status)).collect(),
                inline,
                pending: se
                    .pending
                    .iter()
                    .map(|(requester, query_id, exclude)| PendingQuery {
                        requester: *requester,
                        query_id: *query_id,
                        exclude: exclude.clone(),
                    })
                    .collect(),
                subscribers: se.subscribers.iter().copied().collect(),
                pulls: se.pulls.iter().copied().collect(),
                deleted: se.deleted,
            };
            for (receiver, sender) in &entry.pulls {
                self.lease_wheel_current.push((se.object, *sender, *receiver));
            }
            self.entries.insert(se.object, entry);
        }
        self.enforce_inline_budget();
    }

    /// Advance the lease expiry wheel one generation: candidates that aged through a
    /// full generation and are *still* leased are reclaimed (lease edge dropped) and
    /// their parked queries re-drained. Returns the number of leases expired. Runs
    /// locally on every replica — leases are not replicated state transitions, so
    /// replicas may transiently disagree; each one's own wheel clears its stale leases
    /// within two ticks.
    pub fn expire_stale_leases(&mut self, out: &mut Vec<(NodeId, Message)>) -> u64 {
        let due = std::mem::take(&mut self.lease_wheel_prev);
        self.lease_wheel_prev = std::mem::take(&mut self.lease_wheel_current);
        let mut expired = 0u64;
        let mut affected: Vec<ObjectId> = Vec::new();
        for (object, holder, receiver) in due {
            let Some(entry) = self.entries.get_mut(&object) else { continue };
            if entry.pulls.get(&receiver) != Some(&holder) {
                continue; // resolved (or re-leased) since: stale candidate
            }
            entry.pulls.remove(&receiver);
            expired += 1;
            affected.push(object);
        }
        for object in affected {
            self.drain_pending(object, out);
        }
        expired
    }

    /// Whether the expiry wheel still holds candidates (drives lazy re-arming of
    /// the expiry timer; an over-approximation — stale candidates count too, but
    /// they drain within two ticks).
    pub fn has_lease_candidates(&self) -> bool {
        !self.lease_wheel_current.is_empty() || !self.lease_wheel_prev.is_empty()
    }

    /// Answer as many parked queries for `object` as possible.
    fn drain_pending(&mut self, object: ObjectId, out: &mut Vec<(NodeId, Message)>) {
        let Some(entry) = self.entries.get_mut(&object) else { return };
        let mut still_waiting = VecDeque::new();
        while let Some(q) = entry.pending.pop_front() {
            if let Some(reply) =
                Self::try_answer(&self.cfg, object, entry, &q, &mut self.lease_wheel_current)
            {
                out.push((q.requester, reply));
            } else {
                still_waiting.push_back(q);
            }
        }
        entry.pending = still_waiting;
    }

    /// Try to answer a single query against the current entry state.
    fn try_answer(
        cfg: &HopliteConfig,
        object: ObjectId,
        entry: &mut Entry,
        q: &PendingQuery,
        lease_wheel: &mut Vec<LeaseCandidate>,
    ) -> Option<Message> {
        // Fast path: inline cache.
        if let Some((payload, _)) = &entry.inline {
            if payload.len() <= cfg.inline_threshold {
                return Some(Message::DirQueryReply {
                    object,
                    query_id: q.query_id,
                    result: QueryResult::Inline { payload: payload.clone() },
                });
            }
        }
        let size = entry.size?;
        // Candidate senders: not the requester, not excluded, not already leased, and
        // not (transitively) depending on the requester. Prefer complete copies, then
        // the lowest node id (the map's order), so simulated runs are reproducible.
        let (&holder, &status) = entry
            .locations
            .iter()
            .filter(|(holder, _)| {
                **holder != q.requester
                    && !q.exclude.contains(holder)
                    && entry.lessee(**holder).is_none()
                    && !Self::depends_on(entry, **holder, q.requester)
            })
            .min_by_key(|(_, status)| !status.is_complete())?;
        // Lease the chosen sender to the requester (replacing any edge the requester
        // held); the requester will immediately register itself as a partial location
        // (§3.4.1).
        entry.pulls.insert(q.requester, holder);
        lease_wheel.push((object, holder, q.requester));
        Some(Message::DirQueryReply {
            object,
            query_id: q.query_id,
            result: QueryResult::Location { node: holder, status, size },
        })
    }

    /// `true` if `node` transitively pulls from `target` (so assigning `node` as a
    /// sender for `target` would create a cycle).
    fn depends_on(entry: &Entry, node: NodeId, target: NodeId) -> bool {
        let mut cur = node;
        let mut hops = 0;
        while let Some(&sender) = entry.pulls.get(&cur) {
            if sender == target {
                return true;
            }
            cur = sender;
            hops += 1;
            if hops > entry.pulls.len() {
                // Defensive: a cycle in the edge map itself (should not happen).
                return true;
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shard() -> DirectoryShard {
        DirectoryShard::new(0, HopliteConfig { inline_threshold: 64, ..HopliteConfig::default() })
    }

    fn obj(name: &str) -> ObjectId {
        ObjectId::from_name(name)
    }

    fn query_reply(out: &[(NodeId, Message)]) -> Vec<(NodeId, QueryResult)> {
        out.iter()
            .filter_map(|(to, m)| match m {
                Message::DirQueryReply { result, .. } => Some((*to, result.clone())),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn query_waits_until_location_registered() {
        let mut s = shard();
        let mut out = Vec::new();
        s.query(obj("x"), NodeId(2), 1, vec![], &mut out);
        assert!(query_reply(&out).is_empty(), "no location yet, query parks");
        s.register(obj("x"), NodeId(0), ObjectStatus::Partial, 1 << 20, &mut out);
        let replies = query_reply(&out);
        assert_eq!(replies.len(), 1);
        match &replies[0].1 {
            QueryResult::Location { node, status, size } => {
                assert_eq!(*node, NodeId(0));
                assert_eq!(*status, ObjectStatus::Partial);
                assert_eq!(*size, 1 << 20);
            }
            other => panic!("unexpected reply {other:?}"),
        }
    }

    #[test]
    fn complete_copies_are_preferred() {
        let mut s = shard();
        let mut out = Vec::new();
        s.register(obj("x"), NodeId(5), ObjectStatus::Partial, 100, &mut out);
        s.register(obj("x"), NodeId(3), ObjectStatus::Complete, 100, &mut out);
        out.clear();
        s.query(obj("x"), NodeId(9), 7, vec![], &mut out);
        match &query_reply(&out)[0].1 {
            QueryResult::Location { node, .. } => assert_eq!(*node, NodeId(3)),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn leased_sender_is_not_reused() {
        // Figure 4: S sends to R1; when R2 arrives, S is busy so R2 is pointed at R1's
        // partial copy.
        let mut s = shard();
        let mut out = Vec::new();
        s.register(obj("x"), NodeId(0), ObjectStatus::Complete, 100, &mut out);
        out.clear();
        s.query(obj("x"), NodeId(1), 1, vec![], &mut out); // R1 takes S
        out.clear();
        // R1 registers itself as a partial location as soon as it starts pulling.
        s.register(obj("x"), NodeId(1), ObjectStatus::Partial, 100, &mut out);
        out.clear();
        s.query(obj("x"), NodeId(2), 2, vec![], &mut out); // R2 must get R1
        match &query_reply(&out)[0].1 {
            QueryResult::Location { node, status, .. } => {
                assert_eq!(*node, NodeId(1));
                assert_eq!(*status, ObjectStatus::Partial);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn transfer_done_releases_the_lease() {
        let mut s = shard();
        let mut out = Vec::new();
        s.register(obj("x"), NodeId(0), ObjectStatus::Complete, 100, &mut out);
        s.query(obj("x"), NodeId(1), 1, vec![], &mut out);
        out.clear();
        // While R1 still pulls from S, a third receiver parks (R1 hasn't registered).
        s.query(obj("x"), NodeId(2), 2, vec![], &mut out);
        assert!(query_reply(&out).is_empty());
        s.transfer_done(obj("x"), NodeId(1), NodeId(0));
        s.register(obj("x"), NodeId(1), ObjectStatus::Complete, 100, &mut out);
        let replies = query_reply(&out);
        assert_eq!(replies.len(), 1, "parked query answered once the lease clears");
    }

    #[test]
    fn cyclic_dependencies_are_refused() {
        // R1 pulls from S. S fails. R1 re-queries excluding S; the only other location
        // is R2 which is pulling from R1 — the shard must not return R2 to R1.
        let mut s = shard();
        let mut out = Vec::new();
        s.register(obj("x"), NodeId(0), ObjectStatus::Complete, 100, &mut out);
        s.query(obj("x"), NodeId(1), 1, vec![], &mut out); // R1 <- S
        s.register(obj("x"), NodeId(1), ObjectStatus::Partial, 100, &mut out);
        s.query(obj("x"), NodeId(2), 2, vec![], &mut out); // R2 <- R1
        s.register(obj("x"), NodeId(2), ObjectStatus::Partial, 100, &mut out);
        out.clear();
        s.node_failed(NodeId(0));
        s.query(obj("x"), NodeId(1), 3, vec![NodeId(0)], &mut out);
        assert!(
            query_reply(&out).is_empty(),
            "R2 depends on R1, so R1's re-query must park instead of creating a cycle"
        );
        // Once R2 finishes (complete copy, no longer pulling), R1 can fetch from it —
        // this is exactly Figure 4(c')/(d') with roles swapped.
        s.register(obj("x"), NodeId(2), ObjectStatus::Complete, 100, &mut out);
        let replies = query_reply(&out);
        assert_eq!(replies.len(), 1);
        match &replies[0].1 {
            QueryResult::Location { node, .. } => assert_eq!(*node, NodeId(2)),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn inline_objects_served_from_cache() {
        let mut s = shard();
        let mut out = Vec::new();
        s.put_inline(obj("small"), NodeId(0), Payload::from_vec(vec![7; 32]), &mut out);
        out.clear();
        s.query(obj("small"), NodeId(4), 11, vec![], &mut out);
        match &query_reply(&out)[0].1 {
            QueryResult::Inline { payload } => assert_eq!(payload.len(), 32),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn subscribe_publishes_current_and_future_locations() {
        let mut s = shard();
        let mut out = Vec::new();
        s.register(obj("x"), NodeId(0), ObjectStatus::Partial, 10, &mut out);
        out.clear();
        s.subscribe(obj("x"), NodeId(8), &mut out);
        assert_eq!(out.len(), 1, "existing location published immediately");
        out.clear();
        s.register(obj("x"), NodeId(1), ObjectStatus::Complete, 10, &mut out);
        assert!(out
            .iter()
            .any(|(to, m)| *to == NodeId(8) && matches!(m, Message::DirPublish { .. })));
    }

    #[test]
    fn delete_tombstones_and_notifies_holders() {
        let mut s = shard();
        let mut out = Vec::new();
        s.register(obj("x"), NodeId(0), ObjectStatus::Complete, 10, &mut out);
        s.register(obj("x"), NodeId(1), ObjectStatus::Complete, 10, &mut out);
        out.clear();
        s.delete(obj("x"), &mut out);
        let releases: Vec<NodeId> = out
            .iter()
            .filter_map(|(to, m)| matches!(m, Message::StoreRelease { .. }).then_some(*to))
            .collect();
        assert_eq!(releases.len(), 2);
        out.clear();
        s.query(obj("x"), NodeId(5), 9, vec![], &mut out);
        assert!(matches!(query_reply(&out)[0].1, QueryResult::Deleted));
        // A later registration revives the id (lineage reconstruction can recreate a
        // deleted object).
        s.register(obj("x"), NodeId(2), ObjectStatus::Complete, 10, &mut out);
        assert_eq!(s.locations(obj("x")).len(), 1);
    }

    #[test]
    fn node_failure_purges_locations_and_pending() {
        let mut s = shard();
        let mut out = Vec::new();
        s.register(obj("x"), NodeId(0), ObjectStatus::Complete, 10, &mut out);
        s.query(obj("y"), NodeId(0), 1, vec![], &mut out);
        s.node_failed(NodeId(0));
        assert!(s.locations(obj("x")).is_empty());
        // The parked query from the failed node is gone: registering y produces no
        // reply destined to node 0.
        out.clear();
        s.register(obj("y"), NodeId(1), ObjectStatus::Complete, 10, &mut out);
        assert!(!out.iter().any(|(to, _)| *to == NodeId(0)));
    }

    #[test]
    fn requery_releases_previous_lease_and_dedupes() {
        // R1 pulls from S, then re-queries (e.g. after a pull error): S's lease must be
        // released so the re-query can be answered — excluding S — by another holder.
        let mut s = shard();
        let mut out = Vec::new();
        s.register(obj("x"), NodeId(0), ObjectStatus::Complete, 100, &mut out);
        s.register(obj("x"), NodeId(2), ObjectStatus::Complete, 100, &mut out);
        s.query(obj("x"), NodeId(1), 1, vec![], &mut out); // R1 <- S (node 0, lowest id)
        out.clear();
        s.query(obj("x"), NodeId(1), 2, vec![NodeId(0)], &mut out);
        match &query_reply(&out)[0].1 {
            QueryResult::Location { node, .. } => assert_eq!(*node, NodeId(2)),
            other => panic!("unexpected {other:?}"),
        }
        out.clear();
        // Node 0's lease was cleared by the re-query, so a third receiver can use it.
        s.query(obj("x"), NodeId(3), 3, vec![], &mut out);
        match &query_reply(&out)[0].1 {
            QueryResult::Location { node, .. } => assert_eq!(*node, NodeId(0)),
            other => panic!("unexpected {other:?}"),
        }
        // A re-issued duplicate of a parked query replaces it instead of stacking.
        let mut s = shard();
        let mut out = Vec::new();
        s.query(obj("y"), NodeId(4), 9, vec![], &mut out);
        s.query(obj("y"), NodeId(4), 9, vec![], &mut out);
        s.register(obj("y"), NodeId(0), ObjectStatus::Complete, 10, &mut out);
        assert_eq!(query_reply(&out).len(), 1, "one reply for the deduplicated query");
    }

    #[test]
    fn unsubscribe_stops_publications() {
        let mut s = shard();
        let mut out = Vec::new();
        s.subscribe(obj("x"), NodeId(8), &mut out);
        assert_eq!(s.subscriber_count(obj("x")), 1);
        s.unsubscribe(obj("x"), NodeId(8));
        assert_eq!(s.subscriber_count(obj("x")), 0);
        out.clear();
        s.register(obj("x"), NodeId(1), ObjectStatus::Complete, 10, &mut out);
        assert!(!out.iter().any(|(to, _)| *to == NodeId(8)));
    }

    #[test]
    fn inline_eviction_drops_payload_but_keeps_locations() {
        // Budget fits two 32-byte payloads; the third put must evict the coldest,
        // keeping its Complete location record so the object is still servable via
        // the normal pull path.
        let mut s = DirectoryShard::new(
            0,
            HopliteConfig {
                inline_threshold: 64,
                directory_inline_cache_bytes: 64,
                ..HopliteConfig::default()
            },
        );
        let mut out = Vec::new();
        s.put_inline(obj("a"), NodeId(0), Payload::from_vec(vec![1; 32]), &mut out);
        s.put_inline(obj("b"), NodeId(1), Payload::from_vec(vec![2; 32]), &mut out);
        assert_eq!(s.take_inline_evictions(), 0);
        s.put_inline(obj("c"), NodeId(2), Payload::from_vec(vec![3; 32]), &mut out);
        assert_eq!(s.take_inline_evictions(), 1, "coldest payload evicted");
        assert!(s.inline_bytes() <= 64);
        // "a" was the coldest; its location record survives and answers queries as
        // a pull-path Location instead of an Inline hit.
        assert_eq!(s.locations(obj("a")).len(), 1);
        out.clear();
        s.query(obj("a"), NodeId(7), 1, vec![], &mut out);
        match &query_reply(&out)[0].1 {
            QueryResult::Location { node, .. } => assert_eq!(*node, NodeId(0)),
            other => panic!("evicted object must fall back to the pull path, got {other:?}"),
        }
        // The survivors still serve inline.
        out.clear();
        s.query(obj("c"), NodeId(8), 2, vec![], &mut out);
        assert!(matches!(&query_reply(&out)[0].1, QueryResult::Inline { .. }));
    }

    #[test]
    fn inline_eviction_follows_put_order() {
        let mut s = DirectoryShard::new(
            0,
            HopliteConfig {
                inline_threshold: 64,
                directory_inline_cache_bytes: 64,
                ..HopliteConfig::default()
            },
        );
        let mut out = Vec::new();
        let mut served_inline = |s: &mut DirectoryShard, name: &str| {
            out.clear();
            s.query(obj(name), NodeId(7), 1, vec![], &mut out);
            matches!(&query_reply(&out)[0].1, QueryResult::Inline { .. })
        };
        s.put_inline(obj("a"), NodeId(0), Payload::from_vec(vec![1; 32]), &mut Vec::new());
        s.put_inline(obj("b"), NodeId(1), Payload::from_vec(vec![2; 32]), &mut Vec::new());
        // Reading "a" leaves it the oldest put, so the next put evicts it.
        assert!(served_inline(&mut s, "a"));
        s.put_inline(obj("c"), NodeId(2), Payload::from_vec(vec![3; 32]), &mut Vec::new());
        assert_eq!(s.take_inline_evictions(), 1);
        assert!(!served_inline(&mut s, "a"), "a read saved \"a\" from eviction");
        // Re-putting "b" makes it the newest, so the next put evicts "c".
        s.put_inline(obj("b"), NodeId(1), Payload::from_vec(vec![2; 32]), &mut Vec::new());
        s.put_inline(obj("d"), NodeId(3), Payload::from_vec(vec![4; 32]), &mut Vec::new());
        assert_eq!(s.take_inline_evictions(), 1);
        assert!(served_inline(&mut s, "b"), "the re-put kept \"b\"");
        assert!(!served_inline(&mut s, "c"));
    }

    #[test]
    fn inline_eviction_never_orphans_the_last_copy() {
        // The holder of "a" dies, so its inline payload is the only copy left; the
        // budget squeeze must skip it (and exceed the budget) rather than lose it.
        let mut s = DirectoryShard::new(
            0,
            HopliteConfig {
                inline_threshold: 64,
                directory_inline_cache_bytes: 64,
                ..HopliteConfig::default()
            },
        );
        let mut out = Vec::new();
        s.put_inline(obj("a"), NodeId(0), Payload::from_vec(vec![1; 32]), &mut out);
        s.node_failed(NodeId(0));
        assert!(s.locations(obj("a")).is_empty());
        s.put_inline(obj("b"), NodeId(1), Payload::from_vec(vec![2; 32]), &mut out);
        s.put_inline(obj("c"), NodeId(2), Payload::from_vec(vec![3; 32]), &mut out);
        // "a" is older than "b" but unevictable; "b" takes the hit instead.
        assert_eq!(s.take_inline_evictions(), 1);
        out.clear();
        s.query(obj("a"), NodeId(7), 1, vec![], &mut out);
        assert!(
            matches!(&query_reply(&out)[0].1, QueryResult::Inline { .. }),
            "last-copy inline payload survived the squeeze"
        );
    }

    #[test]
    fn lease_expiry_releases_parked_queries() {
        let mut s = shard();
        let mut out = Vec::new();
        s.register(obj("x"), NodeId(0), ObjectStatus::Complete, 100, &mut out);
        s.query(obj("x"), NodeId(1), 1, vec![], &mut out); // R1 leases S
        out.clear();
        s.query(obj("x"), NodeId(2), 2, vec![], &mut out); // R2 parks behind the lease
        assert!(query_reply(&out).is_empty());
        assert!(s.has_lease_candidates());
        // One full wheel generation must pass before a lease is reclaimed.
        assert_eq!(s.expire_stale_leases(&mut out), 0);
        assert!(query_reply(&out).is_empty());
        let expired = s.expire_stale_leases(&mut out);
        assert_eq!(expired, 1, "R1's unresolved lease reclaimed in bulk");
        let replies = query_reply(&out);
        assert_eq!(replies.len(), 1, "the parked query got the freed sender");
        assert_eq!(replies[0].0, NodeId(2));
    }

    #[test]
    fn resolved_leases_are_not_expired() {
        let mut s = shard();
        let mut out = Vec::new();
        s.register(obj("x"), NodeId(0), ObjectStatus::Complete, 100, &mut out);
        s.query(obj("x"), NodeId(1), 1, vec![], &mut out);
        s.transfer_done(obj("x"), NodeId(1), NodeId(0));
        assert_eq!(s.expire_stale_leases(&mut out), 0);
        assert_eq!(s.expire_stale_leases(&mut out), 0, "resolved candidate skipped lazily");
        assert!(!s.has_lease_candidates(), "wheel drains once candidates resolve");
    }

    #[test]
    fn snapshot_range_respects_budget_and_resumes_to_full_coverage() {
        let mut s = shard();
        let mut out = Vec::new();
        for i in 0..50 {
            s.register(obj(&format!("o{i}")), NodeId(i % 4), ObjectStatus::Complete, 100, &mut out);
        }
        let budget = 256u64;
        let mut cursor: Option<ObjectId> = None;
        let mut collected = Vec::new();
        let mut rounds = 0;
        loop {
            let (entries, done) = s.snapshot_range(cursor, budget);
            let bytes: u64 = entries.iter().map(|e| e.wire_size()).sum();
            assert!(
                bytes <= budget || entries.len() == 1,
                "chunk of {bytes} bytes exceeds the {budget}-byte bound"
            );
            assert!(!entries.is_empty() || done);
            if let Some(last) = entries.last() {
                cursor = Some(last.object);
            }
            collected.extend(entries);
            rounds += 1;
            assert!(rounds < 100, "cursor walk did not terminate");
            if done {
                break;
            }
        }
        assert!(rounds > 1, "budget forced multiple chunks");
        let (whole, done) = s.snapshot_range(None, u64::MAX);
        assert!(done);
        assert_eq!(collected, whole, "chunk walk covers the exact full state");
    }

    #[test]
    fn the_same_ops_emit_the_same_messages_in_the_same_order() {
        let run = || {
            let mut s = shard();
            let mut out = Vec::new();
            for n in 0..8 {
                s.subscribe(obj("x"), NodeId(n), &mut out);
            }
            s.register(obj("x"), NodeId(9), ObjectStatus::Complete, 10, &mut out);
            out
        };
        let out = run();
        assert_eq!(out.len(), 8);
        assert_eq!(out, run(), "two fresh shards fed the same ops sent different orders");
    }

    #[test]
    fn put_inline_over_a_leased_holder_keeps_the_lease() {
        // Node 0 holds a large object and is leased to node 1. Re-putting it inline
        // (over the threshold here, so queries still pull) must not free node 0 for a
        // second receiver while node 1 still pulls from it.
        let mut s = shard();
        let mut out = Vec::new();
        s.register(obj("x"), NodeId(0), ObjectStatus::Complete, 100, &mut out);
        s.query(obj("x"), NodeId(1), 1, vec![], &mut out);
        s.put_inline(obj("x"), NodeId(0), Payload::from_vec(vec![1; 100]), &mut out);
        out.clear();
        s.query(obj("x"), NodeId(2), 2, vec![], &mut out);
        assert!(query_reply(&out).is_empty(), "node 0 is still leased to node 1");
        let (entries, _) = s.snapshot_range(None, u64::MAX);
        assert_eq!(
            entries[0].locations,
            vec![(NodeId(0), ObjectStatus::Complete, Some(NodeId(1)))]
        );
        assert_eq!(entries[0].pulls, vec![(NodeId(1), NodeId(0))]);
    }

    #[test]
    fn excluded_nodes_are_not_returned() {
        let mut s = shard();
        let mut out = Vec::new();
        s.register(obj("x"), NodeId(0), ObjectStatus::Complete, 10, &mut out);
        s.register(obj("x"), NodeId(1), ObjectStatus::Complete, 10, &mut out);
        out.clear();
        s.query(obj("x"), NodeId(2), 1, vec![NodeId(0)], &mut out);
        match &query_reply(&out)[0].1 {
            QueryResult::Location { node, .. } => assert_eq!(*node, NodeId(1)),
            other => panic!("unexpected {other:?}"),
        }
    }
}
