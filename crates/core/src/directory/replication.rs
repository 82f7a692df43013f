//! Primary/backup replication of one directory shard (§3.5): a sequenced op stream
//! confirmed by the replicas that apply it, and the receiving end of chunked state
//! transfer.
//!
//! The paper keeps the object directory available across node failures by
//! replicating it; this module implements the per-replica half of that design as a
//! pure state machine layered on [`DirectoryShard`]:
//!
//! * the **primary** applies every client op, emits the replies, stamps the op with a
//!   contiguous per-shard **sequence number**, and ships it to its live backups. It
//!   keeps no log and no acks: nothing comes back to it;
//! * a **backup** replays shipped ops in sequence order against its mirror shard with
//!   replies suppressed, and **confirms** each op it holds to the op's origin
//!   ([`DirOp::confirm_target`]) itself, whether it applies the op on arrival or
//!   replays it from its buffered shipments when a resync stream ends. The origin's
//!   journal counts the op durable once every replica it waits on has confirmed (see
//!   [`super::client`]); a primary with no live backup confirms at once. A gap in the
//!   sequence (ops lost while the replica was down or deposed) cannot be bridged from
//!   shipments alone: the replica asks the current primary for a **resync**, and holds
//!   one record of it while it is in flight ([`Resync`]: the source asked, and how far
//!   the chunk stream got). Every bounded state chunk the source answers with goes
//!   through [`ShardReplica::apply_resync`], which says whether to drop it, pull the
//!   next one, or stop. Chunks build a staged shard beside the replica's own, which
//!   keeps its applied prefix until the last chunk swaps the staged one in;
//! * **one catch-up rule** closes a stream. The source ships the requester every op
//!   from the first chunk it serves, and each chunk is consistent at the `seq` it
//!   carries. So the last chunk replays each buffered op onto the staged entries whose
//!   chunk was served before that op, and then whatever was buffered past its own
//!   `seq`; every buffered op the replica now holds is confirmed. A shipment missing
//!   from the stream's window, or a chunk from another primacy, starts the stream over
//!   from its first chunk;
//! * a replica is promoted at its view's **epoch**, only above every epoch it applied;
//!   replicated ops stamped with a lower epoch (stragglers from a deposed primary) are
//!   rejected, and any buffered out-of-order suffix beyond the contiguously-applied
//!   prefix is discarded — promotion only ever builds on the applied prefix, which
//!   holds every op this replica confirmed. A primary that a higher-epoch shipment
//!   reaches is **deposed**: it resyncs from the shipper, whose stream need not hold
//!   what it sequenced since, and those ops' origins re-drive them.
//!
//! Which replica *is* the primary, and whether the node itself is still resyncing
//! after a restart, is decided by the placement view in [`super::placement`], a
//! function of the liveness table; this module only implements the mechanics.

use std::collections::BTreeMap;

use crate::object::{NodeId, ObjectId, ObjectStatus};
use crate::protocol::{DirOp, Message, SnapshotEntry};

use super::shard::DirectoryShard;

/// The role a replica currently plays for its shard.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReplicaRole {
    /// Applies client ops, sends replies, ships the sequenced ops to backups.
    Primary,
    /// Mirrors the primary by replaying its ops in order; replies are suppressed, and
    /// each op is confirmed to its origin.
    Backup,
}

/// What a backup should do after replaying one shipped op.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReplayOutcome {
    /// The op was applied (or was an already-applied duplicate) and confirmed; the
    /// replica's contiguously-applied prefix now ends at this sequence number.
    Applied(u64),
    /// The op arrived while a resync is in flight and was buffered for replay after
    /// the resync completes. No confirm yet.
    Buffered,
    /// The op exposes a sequence gap (or an epoch jump over lost state) that the log
    /// alone cannot bridge: the replica buffered it and must request a resync from
    /// the shipper.
    NeedsResync,
    /// A deposed primary's straggler (stale epoch): discarded.
    Rejected,
}

/// A resync in flight on one replica.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Resync {
    /// The node the last request went to (re-targeted if it dies).
    pub source: NodeId,
    /// While a chunk stream is installing: the highest object id installed so far,
    /// from which the next pull continues. `None` until the first chunk, and again
    /// when the stream starts over.
    pub cursor: Option<ObjectId>,
}

/// One chunk of a resync stream, as the receiving replica installs it: bounded shard
/// state from a cursor-driven stream.
#[derive(Clone, Copy, Debug)]
pub struct ResyncFrame<'a> {
    /// The stream's consistency point: the assembled state is consistent at it.
    pub seq: u64,
    /// The state carried by this chunk.
    pub entries: &'a [SnapshotEntry],
}

/// What installing one resync frame came to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ResyncStep {
    /// No resync in flight, or a deposed source's older epoch: discarded untouched.
    Stale,
    /// Pull the next frame from the stream's cursor: mid-stream, or from the first
    /// chunk when the stream starts over.
    Continue,
    /// The stream is complete and its ops confirmed: the replica is a backup again,
    /// its applied prefix ending at this sequence number.
    Done(u64),
}

/// What the chunk stream in flight has installed so far.
#[derive(Debug)]
struct Staged {
    /// The epoch its chunks were served at: a chunk from another starts it over.
    epoch: u64,
    /// The first chunk's `seq`: every op past it is shipped to this replica.
    first_seq: u64,
    /// Each installed chunk's last object id and its `seq`, in stream order.
    chunks: Vec<(ObjectId, u64)>,
    shard: DirectoryShard,
}

/// One replica of one directory shard: the shard state machine plus its replication
/// role, promotion epoch and applied prefix.
#[derive(Debug)]
pub struct ShardReplica {
    shard: DirectoryShard,
    role: ReplicaRole,
    epoch: u64,
    /// Highest contiguously-applied sequence number (`next assigned - 1` on the
    /// primary).
    applied_seq: u64,
    /// Backup: out-of-order shipments buffered while a resync is in flight.
    pending: BTreeMap<u64, (u64, DirOp)>,
    /// The source of the resync in flight, if any.
    resync: Option<NodeId>,
    /// What the resync in flight has installed so far. `shard` keeps the applied
    /// prefix — what a promotion mid-stream builds on — until the last chunk.
    staged: Option<Staged>,
}

impl ShardReplica {
    /// Create an empty replica with the given starting role.
    pub fn new(shard: DirectoryShard, role: ReplicaRole) -> Self {
        ShardReplica {
            shard,
            role,
            epoch: 0,
            applied_seq: 0,
            pending: BTreeMap::new(),
            resync: None,
            staged: None,
        }
    }

    /// Current role.
    pub fn role(&self) -> ReplicaRole {
        self.role
    }

    /// Current promotion epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Highest contiguously-applied sequence number.
    pub fn applied_seq(&self) -> u64 {
        self.applied_seq
    }

    /// The resync in flight, if any.
    pub fn resync(&self) -> Option<Resync> {
        let cursor = self.staged.as_ref().and_then(|s| s.chunks.last()).map(|&(last, _)| last);
        self.resync.map(|source| Resync { source, cursor })
    }

    /// Read-only view of the underlying shard (introspection and tests).
    pub fn shard(&self) -> &DirectoryShard {
        &self.shard
    }

    /// Promote this replica to primary at `epoch`, its view of the shard's, if that is
    /// strictly above every epoch it applied, so it never shares one with a primary it
    /// followed; otherwise a fresher view sequences there, and it waits as a backup.
    /// Promotion builds only on the contiguously-applied prefix: a buffered suffix and
    /// a resync in flight, with what it staged, are discarded.
    pub fn promote_to(&mut self, epoch: u64) {
        if epoch > self.epoch {
            self.abort_resync();
            self.role = ReplicaRole::Primary;
            self.epoch = epoch;
        }
    }

    /// Stop sequencing, at the applied prefix and epoch: the view names another primary.
    pub fn demote(&mut self) {
        self.role = ReplicaRole::Backup;
    }

    /// Enter a resync from `source`, or pull the next chunk of the one in flight from
    /// it: this replica's state is behind the stream in a way shipments cannot bridge.
    /// It demotes to backup and buffers shipments until the resync completes. Returns
    /// the chunk stream's cursor, from which the request continues.
    pub fn begin_resync(&mut self, source: NodeId) -> Option<ObjectId> {
        self.role = ReplicaRole::Backup;
        self.resync = Some(source);
        self.resync().and_then(|r| r.cursor)
    }

    /// Abandon an in-flight resync: its source died, so the stream starts over at the
    /// next one, or the whole replica set died. The replica stays a backup over its
    /// applied prefix, and the state the stream staged is dropped.
    pub fn abort_resync(&mut self) {
        self.resync = None;
        self.staged = None;
        self.pending.clear();
    }

    /// Apply a client op as the primary: mutate the shard, collect the replies it
    /// wants delivered, and assign the op its sequence number (returned so the caller
    /// ships `DirReplicate { seq, .. }` to the backups, or confirms the op itself when
    /// there are none).
    ///
    /// Panics in debug builds if called on a backup — the service layer routes ops to
    /// the primary before applying.
    pub fn apply_primary(&mut self, op: &DirOp, out: &mut Vec<(NodeId, Message)>) -> u64 {
        debug_assert_eq!(self.role, ReplicaRole::Primary, "client ops apply on the primary");
        apply_op(&mut self.shard, op, out);
        self.applied_seq += 1;
        self.applied_seq
    }

    /// Replay an op shipped by the shard's primary, appending to `confirms` the
    /// confirm of every op it left applied. See [`ReplayOutcome`] for what the caller
    /// must do with the result. Replies are discarded: only the primary talks to
    /// clients.
    pub fn apply_replicated(
        &mut self,
        epoch: u64,
        seq: u64,
        op: &DirOp,
        confirms: &mut Vec<(NodeId, Message)>,
    ) -> ReplayOutcome {
        if epoch < self.epoch || (self.role == ReplicaRole::Primary && epoch == self.epoch) {
            return ReplayOutcome::Rejected;
        }
        if self.role == ReplicaRole::Primary {
            // Deposed: start over from the shipper's state, at its epoch.
            self.role = ReplicaRole::Backup;
            self.epoch = epoch;
            self.buffer(seq, epoch, op);
            return ReplayOutcome::NeedsResync;
        }
        if self.resync.is_some() {
            self.buffer(seq, epoch, op);
            return ReplayOutcome::Buffered;
        }
        if seq <= self.applied_seq && epoch == self.epoch {
            // Duplicate of something already in the applied prefix, which holds it:
            // confirm it again, in case this replica's first confirm never went out.
            confirms.extend(confirm_of(op));
            return ReplayOutcome::Applied(self.applied_seq);
        }
        if seq == self.applied_seq + 1 {
            // The happy path — including a seamless epoch handover, where the promoted
            // primary continues the sequence right where this replica's prefix ends.
            self.epoch = epoch;
            self.apply_in_order(op, confirms);
            self.drain_pending(confirms);
            return ReplayOutcome::Applied(self.applied_seq);
        }
        // A gap (same epoch: shipments lost while this node was isolated; higher
        // epoch: a promoted primary whose prefix diverges from ours). Shipments cannot
        // bridge it; buffer the op and ask for a resync.
        self.buffer(seq, epoch, op);
        ReplayOutcome::NeedsResync
    }

    /// Install one chunk of the resync in flight. A chunk from an older epoch than
    /// this replica's (a deposed source's straggler), or with no resync in flight, is
    /// [`ResyncStep::Stale`] and changes nothing.
    ///
    /// Chunks install into a staged shard; the replica's own shard and applied prefix
    /// stay as they are until the last chunk (`done`) replays what the chunks missed
    /// ([`ShardReplica::replay_missed`]) and replaces them wholesale — a deposed
    /// primary's unshipped suffix included, since the re-baselined sequence numbering
    /// invalidates it. Shipments buffered past the last chunk's `seq` replay on top,
    /// and every buffered op the replica then holds is confirmed into `confirms`. A
    /// chunk from a newer epoch than the staged ones starts the stream over: seqs of
    /// two primacies do not compare, and a deposed primary's chunks may hold ops no
    /// backup applied.
    pub fn apply_resync(
        &mut self,
        epoch: u64,
        frame: &ResyncFrame<'_>,
        done: bool,
        confirms: &mut Vec<(NodeId, Message)>,
    ) -> ResyncStep {
        if self.resync.is_none() || epoch < self.epoch {
            return ResyncStep::Stale;
        }
        self.epoch = epoch;
        if self.staged.as_ref().is_some_and(|s| s.epoch != epoch) {
            self.staged = None;
            return ResyncStep::Continue;
        }
        let staged = self.staged.get_or_insert_with(|| Staged {
            epoch,
            first_seq: frame.seq,
            chunks: Vec::new(),
            shard: self.shard.empty_like(),
        });
        staged.shard.install_entries(frame.entries);
        if let Some(last) = frame.entries.last() {
            staged.chunks.push((last.object, frame.seq));
        }
        if !done {
            return ResyncStep::Continue;
        }
        let staged = self.staged.take().expect("a chunk was just staged");
        let Some(shard) = self.replay_missed(staged, frame.seq) else {
            return ResyncStep::Continue;
        };
        // Every op buffered at the stream's epoch up to its last chunk is now held: the
        // chunks carried it, or the catch-up rule just replayed it.
        let held = self.pending.range(..=frame.seq).filter(|(_, (e, _))| *e == epoch);
        confirms.extend(held.filter_map(|(_, (_, op))| confirm_of(op)));
        self.shard = shard;
        self.applied_seq = frame.seq;
        self.role = ReplicaRole::Backup;
        self.resync = None;
        self.drain_pending(confirms);
        ResyncStep::Done(self.applied_seq)
    }

    /// The catch-up rule: the staged shard with every op its chunks missed applied, or
    /// `None` when a shipment the stream needs never arrived. Every op in the window
    /// `(first chunk's seq, last chunk's seq]` must be buffered at the stream's epoch;
    /// each applies iff its seq is above the `seq` of the chunk that covered its object
    /// (an object past the last chunk's last entry counts as covered by the last chunk).
    fn replay_missed(&self, staged: Staged, last_seq: u64) -> Option<DirectoryShard> {
        let Staged { epoch, first_seq, chunks, mut shard } = staged;
        let window = (first_seq..last_seq).map(|seq| seq + 1);
        if !window.clone().all(|seq| self.pending.get(&seq).is_some_and(|(e, _)| *e == epoch)) {
            return None;
        }
        for seq in window {
            let (_, op) = &self.pending[&seq];
            let covering = chunks.partition_point(|&(last, _)| last < op.object());
            if seq > chunks.get(covering).map_or(last_seq, |&(_, chunk_seq)| chunk_seq) {
                apply_op(&mut shard, op, &mut Vec::new());
            }
        }
        Some(shard)
    }

    /// Buffer a shipment for replay after the resync. At a seq two primaries both
    /// shipped, the higher epoch's op stays: the other is a deposed one's straggler.
    fn buffer(&mut self, seq: u64, epoch: u64, op: &DirOp) {
        let slot = self.pending.entry(seq).or_insert_with(|| (epoch, op.clone()));
        if slot.0 < epoch {
            *slot = (epoch, op.clone());
        }
    }

    /// Apply a replayed op and confirm it.
    fn apply_in_order(&mut self, op: &DirOp, confirms: &mut Vec<(NodeId, Message)>) {
        apply_op(&mut self.shard, op, &mut Vec::new());
        self.applied_seq += 1;
        confirms.extend(confirm_of(op));
    }

    fn drain_pending(&mut self, confirms: &mut Vec<(NodeId, Message)>) {
        while let Some((epoch, op)) = self.pending.remove(&(self.applied_seq + 1)) {
            if epoch >= self.epoch {
                self.epoch = epoch;
                self.apply_in_order(&op, confirms);
            }
        }
        // Anything at or below the applied prefix is stale.
        self.pending = self.pending.split_off(&(self.applied_seq + 1));
    }

    /// Run one bulk lease-expiry tick over the shard's timer wheel. Requery nudges
    /// to waiting receivers are emitted only on the primary; backups expire
    /// silently. Lease grants and expiries are local decisions on each replica (not
    /// replicated transitions), so replicas may transiently disagree about a lease —
    /// they reconverge within two ticks. Returns how many leases were reclaimed.
    pub fn expire_stale_leases(&mut self, out: &mut Vec<(NodeId, Message)>) -> u64 {
        let mut suppressed = Vec::new();
        let staged =
            self.staged.as_mut().map_or(0, |s| s.shard.expire_stale_leases(&mut suppressed));
        let out = if self.role == ReplicaRole::Primary { out } else { &mut suppressed };
        staged + self.shard.expire_stale_leases(out)
    }

    /// Whether the shard's lease wheel (or a staged one's) might hold candidates
    /// (drives lazy re-arming of the expiry timer; may over-approximate).
    pub fn has_lease_candidates(&self) -> bool {
        self.shard.has_lease_candidates()
            || self.staged.as_ref().is_some_and(|s| s.shard.has_lease_candidates())
    }

    /// Drain the shard's (and a staged one's) count of inline payloads evicted by the
    /// cache budget.
    pub fn take_inline_evictions(&mut self) -> u64 {
        let staged = self.staged.as_mut().map_or(0, |s| s.shard.take_inline_evictions());
        staged + self.shard.take_inline_evictions()
    }

    /// Purge everything the shard — and the state a resync in flight staged — knows
    /// about a failed node. Applied directly on every replica (the failure detector
    /// notifies all nodes, and the purge is deterministic), so it does not travel
    /// through the replication log.
    pub fn node_failed(&mut self, node: NodeId) {
        self.shard.node_failed(node);
        if let Some(staged) = self.staged.as_mut() {
            staged.shard.node_failed(node);
        }
    }

    /// Known locations of an object (introspection for failover assertions).
    pub fn locations(&self, object: ObjectId) -> Vec<(NodeId, ObjectStatus)> {
        self.shard.locations(object)
    }
}

/// The confirm an op's origin is owed once a replica holds it, if the op has one.
pub(crate) fn confirm_of(op: &DirOp) -> Option<(NodeId, Message)> {
    let (to, kind) = op.confirm_target()?;
    Some((to, Message::DirConfirm { object: op.object(), kind }))
}

/// Dispatch one op into a shard.
fn apply_op(shard: &mut DirectoryShard, op: &DirOp, out: &mut Vec<(NodeId, Message)>) {
    match op {
        DirOp::Register { object, holder, status, size } => {
            shard.register(*object, *holder, *status, *size, out)
        }
        DirOp::PutInline { object, holder, payload } => {
            shard.put_inline(*object, *holder, payload.clone(), out)
        }
        DirOp::Unregister { object, holder } => shard.unregister(*object, *holder),
        DirOp::Query { object, requester, query_id, exclude } => {
            shard.query(*object, *requester, *query_id, exclude.clone(), out)
        }
        DirOp::Subscribe { object, subscriber } => shard.subscribe(*object, *subscriber, out),
        DirOp::Unsubscribe { object, subscriber } => shard.unsubscribe(*object, *subscriber),
        DirOp::TransferDone { object, receiver, sender } => {
            shard.transfer_done(*object, *receiver, *sender)
        }
        DirOp::Delete { object } => shard.delete(*object, out),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::HopliteConfig;
    use crate::protocol::{ConfirmKind, QueryResult};

    fn obj(name: &str) -> ObjectId {
        ObjectId::from_name(name)
    }

    fn pair() -> (ShardReplica, ShardReplica) {
        let cfg = HopliteConfig::small_for_tests();
        (
            ShardReplica::new(DirectoryShard::new(0, cfg.clone()), ReplicaRole::Primary),
            ShardReplica::new(DirectoryShard::new(0, cfg), ReplicaRole::Backup),
        )
    }

    fn register(name: &str, holder: u32) -> DirOp {
        DirOp::Register {
            object: obj(name),
            holder: NodeId(holder),
            status: ObjectStatus::Complete,
            size: 100,
        }
    }

    /// The confirm a replica owes the origin of `register(name, holder)`.
    fn confirm_of(name: &str, holder: u32) -> (NodeId, Message) {
        let kind = ConfirmKind::Location { status: ObjectStatus::Complete };
        (NodeId(holder), Message::DirConfirm { object: obj(name), kind })
    }

    /// Transfer `source`'s whole state to `sink` as a one-chunk stream.
    fn transfer(source: &ShardReplica, sink: &mut ShardReplica) -> ResyncStep {
        let (entries, done) = source.shard().snapshot_range(None, u64::MAX);
        assert!(done, "an unbounded budget covers the shard in one chunk");
        sink.apply_resync(source.epoch(), &chunk(source.applied_seq(), &entries), true, &mut vec![])
    }

    fn chunk(seq: u64, entries: &[SnapshotEntry]) -> ResyncFrame<'_> {
        ResyncFrame { seq, entries }
    }

    fn cursor(replica: &ShardReplica) -> Option<ObjectId> {
        replica.resync().and_then(|r| r.cursor)
    }

    /// Ship one op primary → backup, asserting the happy path.
    fn replicate(primary: &mut ShardReplica, backup: &mut ShardReplica, op: &DirOp) {
        let mut replies = Vec::new();
        let seq = primary.apply_primary(op, &mut replies);
        let outcome = backup.apply_replicated(primary.epoch(), seq, op, &mut replies);
        assert_eq!(outcome, ReplayOutcome::Applied(seq));
    }

    /// Replay a shipped op on `backup`, dropping its confirms.
    fn replay(backup: &mut ShardReplica, epoch: u64, seq: u64, op: &DirOp) -> ReplayOutcome {
        backup.apply_replicated(epoch, seq, op, &mut Vec::new())
    }

    #[test]
    fn backup_mirrors_the_primary_through_the_op_log() {
        let (mut primary, mut backup) = pair();
        let ops = vec![
            register("a", 1),
            DirOp::Query { object: obj("a"), requester: NodeId(2), query_id: 7, exclude: vec![] },
            DirOp::Register {
                object: obj("a"),
                holder: NodeId(2),
                status: ObjectStatus::Partial,
                size: 100,
            },
            DirOp::Subscribe { object: obj("b"), subscriber: NodeId(3) },
        ];
        let mut replies = Vec::new();
        for op in &ops {
            let seq = primary.apply_primary(op, &mut replies);
            assert!(matches!(
                replay(&mut backup, primary.epoch(), seq, op),
                ReplayOutcome::Applied(_)
            ));
        }
        // The primary answered the query; the backup replayed it silently but holds
        // the identical post-query state: same locations, same lease on node 1.
        assert!(replies.iter().any(|(to, m)| *to == NodeId(2)
            && matches!(
                m,
                Message::DirQueryReply {
                    result: QueryResult::Location { node: NodeId(1), .. },
                    ..
                }
            )));
        let sorted = |mut v: Vec<(NodeId, ObjectStatus)>| {
            v.sort_by_key(|(n, _)| n.0);
            v
        };
        assert_eq!(sorted(primary.locations(obj("a"))), sorted(backup.locations(obj("a"))));
        assert_eq!(backup.shard().subscriber_count(obj("b")), 1);
        assert_eq!(backup.applied_seq(), 4);
    }

    #[test]
    fn promotion_bumps_epoch_and_rejects_stragglers() {
        let (mut primary, mut backup) = pair();
        replicate(&mut primary, &mut backup, &register("x", 0));

        // The primary dies; the backup is promoted at the shard's epoch.
        backup.promote_to(1);
        assert_eq!(backup.role(), ReplicaRole::Primary);
        assert_eq!(backup.epoch(), 1);

        // A straggler shipped by the deposed primary (epoch 0) must be rejected.
        let stale = DirOp::Delete { object: obj("x") };
        assert_eq!(replay(&mut backup, 0, 2, &stale), ReplayOutcome::Rejected);
        assert_eq!(backup.locations(obj("x")).len(), 1, "stale delete was not applied");

        // A promotion at an epoch the replica already applied changes nothing.
        backup.promote_to(1);
        assert_eq!((backup.role(), backup.epoch()), (ReplicaRole::Primary, 1));
    }

    #[test]
    fn a_primary_deposed_by_a_higher_epoch_stops_sequencing_and_resyncs() {
        // A primary at epoch 0 sequenced "mine" at seq 2; a fresher primary, built on
        // the base at seq 1, ships its own seq 2 at epoch 3. The old primary must not
        // take that op as a duplicate of its own: it is deposed, buffers the op and
        // asks the shipper for its state.
        let (mut old, mut other) = pair();
        replicate(&mut old, &mut other, &register("base", 1));
        let mut out = Vec::new();
        old.apply_primary(&register("mine", 2), &mut out);
        other.promote_to(3);
        let theirs = register("theirs", 3);
        let seq = other.apply_primary(&theirs, &mut out);
        assert_eq!(seq, 2);
        // An equal or lower epoch is a straggler to a primary, not a deposal.
        assert_eq!(replay(&mut old, 0, 2, &theirs), ReplayOutcome::Rejected);
        assert_eq!(old.role(), ReplicaRole::Primary);
        assert_eq!(replay(&mut old, 3, seq, &theirs), ReplayOutcome::NeedsResync);
        assert_eq!((old.role(), old.epoch()), (ReplicaRole::Backup, 3));
        // Its view cannot promote it back at the epoch that deposed it.
        old.promote_to(3);
        assert_eq!(old.role(), ReplicaRole::Backup);
        // The resync replaces its suffix with the shipper's and confirms the buffered op.
        old.begin_resync(NodeId(9));
        let (entries, _) = other.shard().snapshot_range(None, u64::MAX);
        let mut confirms = Vec::new();
        assert_eq!(
            old.apply_resync(3, &chunk(seq, &entries), true, &mut confirms),
            ResyncStep::Done(2)
        );
        assert_eq!(confirms, vec![confirm_of("theirs", 3)]);
        assert!(old.locations(obj("mine")).is_empty(), "its own suffix is gone");
        assert_eq!(old.locations(obj("theirs")).len(), 1);
    }

    #[test]
    fn failover_epochs_reject_a_short_lived_predecessors_stragglers() {
        // Replicas [A, B, C]. A dies; B promotes at epoch 1 and ships an op at epoch 1
        // that C never receives before B dies too. C promotes at epoch 2 (every node
        // counts both failures), so B's straggler is recognizably stale.
        let cfg = HopliteConfig::small_for_tests();
        let mut c = ShardReplica::new(DirectoryShard::new(0, cfg), ReplicaRole::Backup);
        assert_eq!(replay(&mut c, 0, 1, &register("x", 3)), ReplayOutcome::Applied(1));
        c.promote_to(2);
        assert_eq!(c.epoch(), 2);
        let straggler = DirOp::Delete { object: obj("x") };
        assert_eq!(replay(&mut c, 1, 2, &straggler), ReplayOutcome::Rejected);
        assert_eq!(c.locations(obj("x")).len(), 1);
    }

    #[test]
    fn promoted_backup_answers_parked_queries() {
        // A query parks on the primary, is replicated, the primary dies, and the
        // promoted backup answers it when a location finally registers: no metadata —
        // not even parked queries — is lost with the primary.
        let (mut primary, mut backup) = pair();
        let query =
            DirOp::Query { object: obj("w"), requester: NodeId(5), query_id: 3, exclude: vec![] };
        let mut out = Vec::new();
        let seq = primary.apply_primary(&query, &mut out);
        assert!(out.is_empty(), "no location yet; the query parks");
        assert_eq!(replay(&mut backup, primary.epoch(), seq, &query), ReplayOutcome::Applied(1));

        backup.promote_to(1);
        backup.node_failed(NodeId(0));
        let mut replies = Vec::new();
        backup.apply_primary(&register("w", 4), &mut replies);
        assert!(replies
            .iter()
            .any(|(to, m)| *to == NodeId(5)
                && matches!(m, Message::DirQueryReply { query_id: 3, .. })));
    }

    #[test]
    fn a_backup_confirms_each_op_it_holds() {
        let (mut primary, mut backup) = pair();
        let mut out = Vec::new();
        let query =
            DirOp::Query { object: obj("x"), requester: NodeId(5), query_id: 1, exclude: vec![] };
        let s1 = primary.apply_primary(&register("x", 7), &mut out);
        let s2 = primary.apply_primary(&query, &mut out);
        assert!(out.iter().all(|(_, m)| !matches!(m, Message::DirConfirm { .. })), "{out:?}");
        // The backup confirms the registration to its origin; a query has none.
        let mut confirms = Vec::new();
        backup.apply_replicated(0, s1, &register("x", 7), &mut confirms);
        backup.apply_replicated(0, s2, &query, &mut confirms);
        assert_eq!(confirms, vec![confirm_of("x", 7)]);
        // A duplicate of an op it holds is confirmed again, and not re-applied.
        confirms.clear();
        let outcome = backup.apply_replicated(0, s1, &register("x", 7), &mut confirms);
        assert_eq!(outcome, ReplayOutcome::Applied(2));
        assert_eq!(confirms, vec![confirm_of("x", 7)]);
        // Out of order, it confirms nothing until it holds the op.
        let (mut primary, mut backup) = pair();
        let (a, b) = (register("a", 1), register("b", 2));
        let (sa, sb) = (primary.apply_primary(&a, &mut out), primary.apply_primary(&b, &mut out));
        confirms.clear();
        assert_eq!(backup.apply_replicated(0, sb, &b, &mut confirms), ReplayOutcome::NeedsResync);
        assert!(confirms.is_empty());
        backup.abort_resync();
        assert_eq!(backup.apply_replicated(0, sa, &a, &mut confirms), ReplayOutcome::Applied(1));
        assert_eq!(confirms, vec![confirm_of("a", 1)]);
    }

    #[test]
    fn the_ops_a_stream_replays_at_its_end_are_confirmed() {
        let (mut primary, mut backup) = pair();
        let mut out = Vec::new();
        for i in 0..3u32 {
            primary.apply_primary(&register(&format!("pre{i}"), i), &mut out);
        }
        backup.begin_resync(NodeId(9));
        let (first, done) = primary.shard().snapshot_range(None, 100);
        assert!(!done);
        let mut confirms = Vec::new();
        let step = backup.apply_resync(0, &chunk(3, &first), false, &mut confirms);
        assert_eq!(step, ResyncStep::Continue);
        // Two ops ship mid-stream and are buffered unconfirmed; the last chunk is
        // served between them.
        let mut rest = None;
        for (name, holder) in [("mid", 7), ("late", 8)] {
            let op = register(name, holder);
            let seq = primary.apply_primary(&op, &mut out);
            assert_eq!(
                backup.apply_replicated(0, seq, &op, &mut confirms),
                ReplayOutcome::Buffered
            );
            rest = rest.or_else(|| Some(primary.shard().snapshot_range(cursor(&backup), u64::MAX)));
        }
        assert!(confirms.is_empty());
        // The last chunk is served at seq 4, after "mid" and before "late": the replica
        // holds both when the stream ends, and confirms both.
        let (rest, done) = rest.expect("the last chunk was served");
        assert!(done);
        assert_eq!(
            backup.apply_resync(0, &chunk(4, &rest), true, &mut confirms),
            ResyncStep::Done(5)
        );
        assert_eq!(confirms, vec![confirm_of("mid", 7), confirm_of("late", 8)]);
        assert_eq!(transfer_state(&backup), transfer_state(&primary));
    }

    #[test]
    fn sequence_gap_triggers_resync_and_snapshot_catches_up() {
        let (mut primary, mut backup) = pair();
        replicate(&mut primary, &mut backup, &register("a", 1));
        // Ops 2 and 3 are applied at the primary but never reach the backup.
        let mut out = Vec::new();
        primary.apply_primary(&register("b", 2), &mut out);
        primary.apply_primary(&register("c", 3), &mut out);
        // Op 4 arrives at the backup: a gap it cannot bridge.
        let op4 = register("d", 4);
        let seq4 = primary.apply_primary(&op4, &mut out);
        assert_eq!(replay(&mut backup, primary.epoch(), seq4, &op4), ReplayOutcome::NeedsResync);
        backup.begin_resync(NodeId(9));
        // Op 5 ships while the snapshot is in flight: buffered.
        let op5 = register("e", 5);
        let seq5 = primary.apply_primary(&op5, &mut out);
        assert_eq!(replay(&mut backup, primary.epoch(), seq5, &op5), ReplayOutcome::Buffered);
        // The state is captured at seq 5 (after op5); installing it drops the
        // buffered duplicate and the backup is fully caught up.
        assert_eq!(primary.applied_seq(), 5, "state captured after op5");
        assert_eq!(transfer(&primary, &mut backup), ResyncStep::Done(5));
        for name in ["a", "b", "c", "d", "e"] {
            assert_eq!(backup.locations(obj(name)).len(), 1, "object {name} present");
        }
        assert_eq!(backup.resync(), None);
    }

    #[test]
    fn deposed_primary_unacked_suffix_is_discarded_on_promotion_and_resync() {
        // P applies ops 1..=5; the backup B only ever receives 1..=3 and confirms them.
        // Ops 4 and 5 are P's unconfirmed suffix. P is deposed (declared failed), B
        // promotes on its applied prefix, and when P later rejoins via snapshot its
        // suffix is gone — exactly the contract: promotion and re-admission only
        // consider what the backup applied.
        let (mut p, mut b) = pair();
        let mut out = Vec::new();
        for (i, name) in ["a", "b", "c"].iter().enumerate() {
            let op = register(name, 10 + i as u32);
            let seq = p.apply_primary(&op, &mut out);
            assert_eq!(replay(&mut b, p.epoch(), seq, &op), ReplayOutcome::Applied(seq));
        }
        p.apply_primary(&register("d", 13), &mut out);
        p.apply_primary(&register("e", 14), &mut out);

        // B promotes; its prefix ends at seq 3.
        b.promote_to(1);
        assert_eq!(b.applied_seq(), 3);
        assert!(b.locations(obj("d")).is_empty());

        // P rejoins as a backup via state transfer from B: its old suffix is replaced
        // wholesale by B's applied prefix.
        b.apply_primary(&register("f", 15), &mut out); // seq 4 under the new primacy
        p.begin_resync(NodeId(9));
        assert_eq!(transfer(&b, &mut p), ResyncStep::Done(4));
        assert_eq!(p.role(), ReplicaRole::Backup);
        assert!(p.locations(obj("d")).is_empty(), "unacked suffix discarded");
        assert!(p.locations(obj("e")).is_empty(), "unacked suffix discarded");
        assert_eq!(p.locations(obj("f")).len(), 1, "new primacy's op present");
    }

    #[test]
    fn reack_after_snapshot_catchup_is_idempotent() {
        let (mut primary, mut backup) = pair();
        let mut out = Vec::new();
        let ops: Vec<DirOp> = (0..4).map(|i| register(&format!("o{i}"), i)).collect();
        let mut seqs = Vec::new();
        for op in &ops {
            seqs.push(primary.apply_primary(op, &mut out));
        }
        backup.begin_resync(NodeId(9));
        let epoch = primary.epoch();
        assert_eq!(transfer(&primary, &mut backup), ResyncStep::Done(4));
        // Shipments delayed in flight from before the snapshot now arrive: each is a
        // duplicate of the installed prefix, confirmed again at the same watermark
        // without double-applying.
        for (i, (op, s)) in ops.iter().zip(&seqs).enumerate() {
            let mut confirms = Vec::new();
            assert_eq!(
                backup.apply_replicated(epoch, *s, op, &mut confirms),
                ReplayOutcome::Applied(4)
            );
            assert_eq!(confirms, vec![confirm_of(&format!("o{i}"), i as u32)]);
        }
        for i in 0..4 {
            assert_eq!(backup.locations(obj(&format!("o{i}"))).len(), 1);
        }
    }

    #[test]
    fn unsubscribe_survives_a_resync() {
        // Subscriptions — and their removal — transfer through the snapshot: a
        // subscriber that unsubscribed before the snapshot stays unsubscribed on the
        // re-admitted replica, while live subscriptions survive.
        let (mut primary, mut backup) = pair();
        let mut out = Vec::new();
        primary.apply_primary(
            &DirOp::Subscribe { object: obj("keep"), subscriber: NodeId(5) },
            &mut out,
        );
        primary.apply_primary(
            &DirOp::Subscribe { object: obj("drop"), subscriber: NodeId(6) },
            &mut out,
        );
        primary.apply_primary(
            &DirOp::Unsubscribe { object: obj("drop"), subscriber: NodeId(6) },
            &mut out,
        );
        backup.begin_resync(NodeId(9));
        assert_eq!(transfer(&primary, &mut backup), ResyncStep::Done(3));
        assert_eq!(backup.shard().subscriber_count(obj("keep")), 1);
        assert_eq!(backup.shard().subscriber_count(obj("drop")), 0);
    }

    #[test]
    fn stale_snapshot_from_deposed_primary_is_rejected() {
        let (mut primary, mut backup) = pair();
        replicate(&mut primary, &mut backup, &register("x", 1));
        backup.promote_to(2);
        assert_eq!(transfer(&primary, &mut backup), ResyncStep::Stale);
        assert_eq!(backup.role(), ReplicaRole::Primary, "stale snapshot cannot demote");
    }

    #[test]
    fn a_chunk_from_a_new_primacy_starts_the_stream_over() {
        let (mut primary, mut backup) = pair();
        let mut out = Vec::new();
        for i in 0..12u32 {
            primary.apply_primary(&register(&format!("obj-{i:02}"), i), &mut out);
        }
        backup.begin_resync(NodeId(9));
        let (first, _) = primary.shard().snapshot_range(None, 200);
        let step = backup.apply_resync(0, &chunk(12, &first), false, &mut vec![]);
        assert_eq!(step, ResyncStep::Continue);
        assert!(cursor(&backup).is_some());
        // The next pull is answered at epoch 1 (the source died and its successor,
        // standing in here with the same state, promoted): the staged chunk is dropped.
        primary.promote_to(1);
        let (next, done) = primary.shard().snapshot_range(cursor(&backup), 200);
        assert_eq!(
            backup.apply_resync(1, &chunk(12, &next), done, &mut vec![]),
            ResyncStep::Continue
        );
        assert_eq!(cursor(&backup), None, "the stream starts over from its first chunk");
        assert!(backup.resync().is_some());
        loop {
            let (entries, done) = primary.shard().snapshot_range(cursor(&backup), 200);
            match backup.apply_resync(1, &chunk(12, &entries), done, &mut vec![]) {
                ResyncStep::Done(acked) => {
                    assert_eq!(acked, 12);
                    break;
                }
                ResyncStep::Continue => assert!(!done, "a one-epoch stream does not restart"),
                ResyncStep::Stale => panic!("fresh chunk rejected"),
            }
        }
        assert_eq!(backup.shard().snapshot_range(None, u64::MAX), transfer_state(&primary));
    }

    /// A replica's whole shard as one snapshot.
    fn transfer_state(replica: &ShardReplica) -> (Vec<SnapshotEntry>, bool) {
        replica.shard().snapshot_range(None, u64::MAX)
    }

    #[test]
    fn chunked_install_covers_the_shard_and_resumes_by_cursor() {
        let (mut primary, mut backup) = pair();
        let mut out = Vec::new();
        for i in 0..12u32 {
            primary.apply_primary(&register(&format!("obj-{i:02}"), i), &mut out);
        }
        backup.begin_resync(NodeId(9));
        let (epoch, seq) = (primary.epoch(), primary.applied_seq());
        // Stream the shard in bounded chunks, feeding the receiver's cursor back
        // into each range request — the same loop the service runs over the wire.
        let budget = 200;
        let mut rounds = 0;
        loop {
            let (entries, done) = primary.shard().snapshot_range(cursor(&backup), budget);
            assert!(entries.len() < 12, "bounded chunks, not one burst");
            rounds += 1;
            match backup.apply_resync(epoch, &chunk(seq, &entries), done, &mut vec![]) {
                ResyncStep::Done(acked) => {
                    assert_eq!(acked, seq);
                    break;
                }
                ResyncStep::Continue => continue,
                ResyncStep::Stale => panic!("fresh chunk rejected"),
            }
        }
        assert!(rounds > 1, "the stream took multiple chunks");
        assert_eq!(backup.resync(), None);
        assert_eq!(backup.applied_seq(), seq);
        assert!(cursor(&backup).is_none(), "cursor cleared at completion");
        for i in 0..12 {
            assert_eq!(backup.locations(obj(&format!("obj-{i:02}"))).len(), 1);
        }
    }

    #[test]
    fn first_chunk_replaces_local_state_wholesale_and_stale_chunks_are_rejected() {
        let (mut primary, mut backup) = pair();
        let mut out = Vec::new();
        // Divergent histories: the backup applied an op the primary never had.
        assert_eq!(replay(&mut backup, 0, 1, &register("only-mine", 9)), ReplayOutcome::Applied(1));
        primary.apply_primary(&register("live", 1), &mut out);

        // A deposed source's chunk (stale epoch) is discarded outright.
        backup.promote_to(2);
        assert_eq!(backup.apply_resync(1, &chunk(5, &[]), true, &mut vec![]), ResyncStep::Stale);
        assert_eq!(backup.locations(obj("only-mine")).len(), 1);

        // A fresh stream replaces local state wholesale.
        backup.begin_resync(NodeId(9));
        let (entries, done) = primary.shard().snapshot_range(None, u64::MAX);
        assert!(done);
        assert_eq!(
            backup.apply_resync(3, &chunk(1, &entries), true, &mut vec![]),
            ResyncStep::Done(1)
        );
        assert_eq!(backup.role(), ReplicaRole::Backup);
        assert!(backup.locations(obj("only-mine")).is_empty(), "divergent state discarded");
        assert_eq!(backup.locations(obj("live")).len(), 1);
    }

    #[test]
    fn shipments_buffered_during_a_chunk_stream_replay_after_the_final_chunk() {
        let (mut primary, mut backup) = pair();
        let mut out = Vec::new();
        for i in 0..3u32 {
            primary.apply_primary(&register(&format!("pre{i}"), i), &mut out);
        }
        backup.begin_resync(NodeId(9));
        let (epoch, seq) = (primary.epoch(), primary.applied_seq());
        let (first, done) = primary.shard().snapshot_range(None, 100);
        assert!(!done);
        let step = backup.apply_resync(epoch, &chunk(seq, &first), false, &mut vec![]);
        assert_eq!(step, ResyncStep::Continue);
        // A live op ships mid-stream: buffered (the replica is still resyncing).
        let mid = register("mid", 7);
        let s_mid = primary.apply_primary(&mid, &mut out);
        assert_eq!(replay(&mut backup, epoch, s_mid, &mid), ReplayOutcome::Buffered);
        // Finish the stream, each chunk consistent at the seq it is served at: the
        // buffered op is replayed where the chunk covering "mid" was served before it.
        loop {
            let (entries, done) = primary.shard().snapshot_range(cursor(&backup), 100);
            let frame = chunk(primary.applied_seq(), &entries);
            match backup.apply_resync(epoch, &frame, done, &mut vec![]) {
                ResyncStep::Done(acked) => {
                    assert_eq!(acked, s_mid, "the stream ends consistent after the op");
                    break;
                }
                ResyncStep::Continue => continue,
                ResyncStep::Stale => panic!("fresh chunk rejected"),
            }
        }
        assert_eq!(backup.locations(obj("mid")).len(), 1);
        assert_eq!(transfer_state(&backup), transfer_state(&primary));
    }
}
