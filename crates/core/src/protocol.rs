//! Wire protocol of the Hoplite control and data planes, and the effect type through
//! which the sans-IO node state machine talks to its driver.
//!
//! The paper's implementation uses gRPC for the directory service and raw TCP pushes
//! for the data plane (§4). This reproduction keeps a single message enum; drivers are
//! free to map it onto any transport (the simulator models its size, the TCP transport
//! frames it).
//!
//! A directory operation is a [`DirOp`], which carries the op docs. On the wire each op
//! kind is one client-facing `Dir*` message; one eight-row table declares that pairing,
//! and both conversions (`From<DirOp> for Message`, `TryFrom<Message> for DirOp`) are
//! derived from it. [`DirOp::wire_size`] sizes an op alone and inside a `DirReplicate`.

use crate::buffer::Payload;
use crate::error::HopliteError;
use crate::object::{NodeId, ObjectId, ObjectStatus};
use crate::reduce::ReduceSpec;
use crate::time::Duration;

/// Approximate wire size in bytes of a control message's header and fixed fields.
pub(crate) const CONTROL: u64 = 96;

/// Identifier correlating a client request with its reply on one node.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct OpId(pub u64);

/// Identifier of a timer registered by the node with its driver.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct TimerToken(pub u64);

/// Result of a directory location query.
#[derive(Clone, Debug, PartialEq)]
pub enum QueryResult {
    /// Small object served straight from the directory cache (§3.2 fast path).
    Inline {
        /// The object contents.
        payload: Payload,
    },
    /// A location to pull from. The directory has recorded the requester as an
    /// in-flight receiver of `node` (one receiver per sender at a time, §3.4.1).
    Location {
        /// Chosen sender.
        node: NodeId,
        /// Whether the sender currently holds a partial or complete copy.
        status: ObjectStatus,
        /// Total object size.
        size: u64,
    },
    /// The object was deleted while the query was pending.
    Deleted,
}

/// Everything one reduce participant needs to know about its place in the tree.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReduceInstruction {
    /// The reduce output object id; doubles as the reduce identifier.
    pub target: ObjectId,
    /// Node coordinating the reduce (where the client called `Reduce`).
    pub coordinator: NodeId,
    /// The slot this participant owns (generalized in-order rank).
    pub slot: usize,
    /// The participant's own input object.
    pub own_object: ObjectId,
    /// Operator and element type.
    pub spec: ReduceSpec,
    /// Size in bytes of every input object (and of the output).
    pub object_size: u64,
    /// Pipelining block size to use for streaming partial results.
    pub block_size: u64,
    /// Number of inputs this slot combines: its own object plus one stream per child
    /// slot (children counted even if not yet assigned).
    pub num_inputs: usize,
    /// Accumulation epoch; a higher epoch than previously seen means "clear partial
    /// results and start over" (§3.5.2).
    pub epoch: u64,
    /// Parent slot (`None` for the root, which materializes the result object).
    pub parent: Option<ReduceParent>,
    /// Currently-assigned children, for diagnostics and eager validation.
    pub children: Vec<(usize, NodeId, ObjectId)>,
    /// Whether this slot is the root.
    pub is_root: bool,
    /// Total number of slots in the tree.
    pub total_slots: usize,
}

/// Identity of a reduce participant's parent.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReduceParent {
    /// Parent slot index.
    pub slot: usize,
    /// Node that owns the parent slot.
    pub node: NodeId,
    /// Parent's accumulation epoch; streamed blocks are tagged with it so stale blocks
    /// can be discarded after a repair.
    pub epoch: u64,
}

/// One directory operation (§3.2), in the one form every directory plane uses: a node
/// journals it ([`crate::directory::DirectoryClient::journal`]) and sends it to the
/// shard's primary as its `Dir*` message, the primary applies it and log-ships it to
/// its backups inside [`Message::DirReplicate`] (§3.5: the paper replicates the object
/// directory), and a backup replays the identical op against its mirror shard with
/// outbound replies suppressed. Each op kind pairs with one client-facing message
/// (`DirOp::Register` ⇄ `Message::DirRegister`, …); one eight-row table declares the
/// pairing, and both `From<DirOp> for Message` and `TryFrom<Message> for DirOp` are
/// derived from it.
#[derive(Clone, Debug, PartialEq)]
pub enum DirOp {
    /// Register (or refresh) a location for an object. Sent both when a local client
    /// creates the object via `Put` (immediately, with `Partial` status, to enable
    /// pipelining) and when a copy finishes arriving from a remote node (§3.2).
    Register {
        /// The object.
        object: ObjectId,
        /// The node holding the copy.
        holder: NodeId,
        /// Partial or complete.
        status: ObjectStatus,
        /// Total object size.
        size: u64,
    },
    /// Small-object fast path: ship the whole object to the directory shard, which
    /// caches it and serves it inline from query replies (§3.2).
    PutInline {
        /// The object.
        object: ObjectId,
        /// The node that created it.
        holder: NodeId,
        /// Full contents.
        payload: Payload,
    },
    /// Remove one holder's location (e.g. after local eviction).
    Unregister {
        /// The object.
        object: ObjectId,
        /// The holder to remove.
        holder: NodeId,
    },
    /// Synchronous location query: answered with [`Message::DirQueryReply`] as soon as
    /// a usable location exists (which may be immediately, or later when one is
    /// registered). Queries mutate shard state (leases, pull edges, parked entries),
    /// so they are part of the replicated log like every other op.
    Query {
        /// The object.
        object: ObjectId,
        /// Node asking (and future receiver).
        requester: NodeId,
        /// Correlation id, unique per requester.
        query_id: u64,
        /// Nodes the requester knows to be unusable (e.g. a failed previous sender).
        exclude: Vec<NodeId>,
    },
    /// Subscribe to location publications for an object (asynchronous query, §3.2).
    Subscribe {
        /// The object.
        object: ObjectId,
        /// Subscriber node.
        subscriber: NodeId,
    },
    /// Drop a subscription (reduce coordinators unsubscribe once their reduce
    /// completes, so long-lived clusters do not accumulate dead subscribers).
    Unsubscribe {
        /// The object.
        object: ObjectId,
        /// Subscriber node.
        subscriber: NodeId,
    },
    /// Release the in-flight edge `receiver -> sender` once a transfer completes, so
    /// the sender becomes eligible for other receivers again (§3.4.1).
    TransferDone {
        /// The object.
        object: ObjectId,
        /// The receiver that completed its copy.
        receiver: NodeId,
        /// The sender it copied from.
        sender: NodeId,
    },
    /// Delete every copy of the object (Table 1 `Delete`).
    Delete {
        /// The object.
        object: ObjectId,
    },
}

/// Declares the pairing of each [`DirOp`] kind with its client-facing `Dir*` message
/// once, and derives both conversions from it.
macro_rules! dir_op_messages {
    ($($op:ident <=> $msg:ident { $($field:ident),* };)*) => {
        /// The client-facing message form of an op: what a node sends to the shard's
        /// primary, and what a non-primary forwards to the one it believes in.
        impl From<DirOp> for Message {
            fn from(op: DirOp) -> Message {
                match op {
                    $(DirOp::$op { $($field),* } => Message::$msg { $($field),* },)*
                }
            }
        }

        /// The op a client-facing `Dir*` message carries; any other message comes back
        /// untouched, as the error.
        impl TryFrom<Message> for DirOp {
            type Error = Message;

            fn try_from(msg: Message) -> Result<DirOp, Message> {
                match msg {
                    $(Message::$msg { $($field),* } => Ok(DirOp::$op { $($field),* }),)*
                    other => Err(other),
                }
            }
        }
    };
}

dir_op_messages! {
    Register <=> DirRegister { object, holder, status, size };
    PutInline <=> DirPutInline { object, holder, payload };
    Unregister <=> DirUnregister { object, holder };
    Query <=> DirQuery { object, requester, query_id, exclude };
    Subscribe <=> DirSubscribe { object, subscriber };
    Unsubscribe <=> DirUnsubscribe { object, subscriber };
    TransferDone <=> DirTransferDone { object, receiver, sender };
    Delete <=> DirDelete { object };
}

impl DirOp {
    /// The node that originated this op (and therefore journals it for failover
    /// re-drive), for the op kinds each replica that holds the op confirms back to
    /// their origin. Ops that remove journal state (unregister,
    /// unsubscribe, delete) and queries (re-driven through their own path) have no
    /// durability acknowledgement.
    pub fn confirm_target(&self) -> Option<(NodeId, ConfirmKind)> {
        match self {
            DirOp::Register { holder, status, .. } => {
                Some((*holder, ConfirmKind::Location { status: *status }))
            }
            DirOp::PutInline { holder, .. } => Some((*holder, ConfirmKind::Inline)),
            DirOp::Subscribe { subscriber, .. } => Some((*subscriber, ConfirmKind::Subscription)),
            _ => None,
        }
    }

    /// The object this op concerns (every directory op targets exactly one object,
    /// which is what the placement layer routes on).
    pub fn object(&self) -> ObjectId {
        match self {
            DirOp::Register { object, .. }
            | DirOp::PutInline { object, .. }
            | DirOp::Unregister { object, .. }
            | DirOp::Query { object, .. }
            | DirOp::Subscribe { object, .. }
            | DirOp::Unsubscribe { object, .. }
            | DirOp::TransferDone { object, .. }
            | DirOp::Delete { object } => *object,
        }
    }

    /// Approximate wire size in bytes of this op, as its own message or inside a
    /// shipment: a control header plus an inline payload or a query's exclusion list.
    pub fn wire_size(&self) -> u64 {
        CONTROL
            + match self {
                DirOp::PutInline { payload, .. } => payload.len(),
                DirOp::Query { exclude, .. } => 4 * exclude.len() as u64,
                _ => 0,
            }
    }
}

/// What a [`Message::DirConfirm`] acknowledges: each backup that applies an op sends
/// one to the op's origin (a primary with no live backup sends it itself), and once
/// every replica the origin's [`crate::directory::DirectoryClient`] entry waits on has
/// confirmed, the op is replication-durable and leaves the failover re-drive set.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ConfirmKind {
    /// A `Register` with this status is held by the confirming replica.
    Location {
        /// The status that was registered.
        status: ObjectStatus,
    },
    /// An inline `PutInline` is held by the confirming replica.
    Inline,
    /// A `Subscribe` is held by the confirming replica.
    Subscription,
}

/// Serialized state of one object entry inside a [`ShardSnapshot`]. Field order and
/// the sortedness of the inner vectors are part of the format: snapshots of identical
/// shards compare equal, which the resync tests rely on.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SnapshotEntry {
    /// The object this entry describes.
    pub object: ObjectId,
    /// Total object size, if known.
    pub size: Option<u64>,
    /// `(holder, status, leased_to)` triples, sorted by holder.
    pub locations: Vec<(NodeId, ObjectStatus, Option<NodeId>)>,
    /// Inline-cached payload for small objects.
    pub inline: Option<Payload>,
    /// Parked queries in arrival order: `(requester, query_id, exclude)`.
    pub pending: Vec<(NodeId, u64, Vec<NodeId>)>,
    /// Subscribers, sorted.
    pub subscribers: Vec<NodeId>,
    /// In-flight pull edges `(receiver, sender)`, sorted by receiver.
    pub pulls: Vec<(NodeId, NodeId)>,
    /// Whether the object is tombstoned.
    pub deleted: bool,
    /// Inline-cache put-order stamp (0 when no inline payload is cached). Shipped so
    /// a resynced replica inherits the source's put order and future replicated
    /// evictions pick the same victims on every replica.
    pub inline_stamp: u64,
}

impl SnapshotEntry {
    /// Approximate wire size in bytes of this entry inside a snapshot or chunk
    /// (mirrors the framing layout closely enough for the simulator's bandwidth
    /// model and for the chunk-bound budgeting in the resync source).
    pub fn wire_size(&self) -> u64 {
        56 + 13 * self.locations.len() as u64
            + self.inline.as_ref().map(|p| p.len()).unwrap_or(0)
            + self.pending.iter().map(|(_, _, ex)| 20 + 4 * ex.len() as u64).sum::<u64>()
            + 4 * self.subscribers.len() as u64
            + 8 * self.pulls.len() as u64
    }
}

/// State of one directory shard — a bounded slice of it per
/// [`Message::DirSnapshotChunk`] — shipped to a recovering or newly-placed backup so
/// it can be re-admitted to the replica set (§3.5: state transfer + log catch-up
/// instead of failure-monotonic placement).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ShardSnapshot {
    /// One entry per tracked object, sorted by object id.
    pub entries: Vec<SnapshotEntry>,
}

impl ShardSnapshot {
    /// Approximate wire size in bytes (mirrors the framing layout closely enough for
    /// the simulator's bandwidth model — snapshots of busy shards are bulk traffic).
    pub fn wire_size(&self) -> u64 {
        self.entries.iter().map(SnapshotEntry::wire_size).sum()
    }
}

/// Node-to-node protocol messages.
#[derive(Clone, Debug, PartialEq)]
pub enum Message {
    // ---------------------------------------------------------------- directory ----
    /// [`DirOp::Register`].
    DirRegister {
        /// The object.
        object: ObjectId,
        /// The node holding the copy.
        holder: NodeId,
        /// Partial or complete.
        status: ObjectStatus,
        /// Total object size.
        size: u64,
    },
    /// [`DirOp::PutInline`].
    DirPutInline {
        /// The object.
        object: ObjectId,
        /// The node that created it.
        holder: NodeId,
        /// Full contents.
        payload: Payload,
    },
    /// [`DirOp::Unregister`].
    DirUnregister {
        /// The object.
        object: ObjectId,
        /// The holder to remove.
        holder: NodeId,
    },
    /// [`DirOp::Query`].
    DirQuery {
        /// The object.
        object: ObjectId,
        /// Node asking (and future receiver).
        requester: NodeId,
        /// Correlation id, unique per requester.
        query_id: u64,
        /// Nodes the requester knows to be unusable (e.g. a failed previous sender).
        exclude: Vec<NodeId>,
    },
    /// Reply to [`DirOp::Query`].
    DirQueryReply {
        /// The object.
        object: ObjectId,
        /// Correlation id from the query.
        query_id: u64,
        /// Chosen location / inline payload.
        result: QueryResult,
    },
    /// [`DirOp::Subscribe`].
    DirSubscribe {
        /// The object.
        object: ObjectId,
        /// Subscriber node.
        subscriber: NodeId,
    },
    /// [`DirOp::Unsubscribe`].
    DirUnsubscribe {
        /// The object.
        object: ObjectId,
        /// Subscriber node.
        subscriber: NodeId,
    },
    /// Location publication pushed to subscribers.
    DirPublish {
        /// The object.
        object: ObjectId,
        /// Holder being published.
        holder: NodeId,
        /// Partial or complete.
        status: ObjectStatus,
        /// Total object size.
        size: u64,
    },
    /// [`DirOp::TransferDone`].
    DirTransferDone {
        /// The object.
        object: ObjectId,
        /// The receiver that completed its copy.
        receiver: NodeId,
        /// The sender it copied from.
        sender: NodeId,
    },
    /// [`DirOp::Delete`].
    DirDelete {
        /// The object.
        object: ObjectId,
    },
    /// Directory shard → holder: drop your local copy (delete fan-out).
    StoreRelease {
        /// The object.
        object: ObjectId,
    },
    /// Primary replica → backup replica: apply one directory op to your mirror of
    /// `shard`. Stamped with the primary's promotion epoch and a per-shard log
    /// sequence number; backups reject ops from a lower epoch than they have seen
    /// (a deposed primary's stragglers), apply in sequence order, and confirm each
    /// applied op to its origin with [`Message::DirConfirm`].
    DirReplicate {
        /// Shard index the op belongs to.
        shard: u64,
        /// The shipping primary's promotion epoch.
        epoch: u64,
        /// Log sequence number of the op (contiguous, starting at 1).
        seq: u64,
        /// The op to replay.
        op: DirOp,
    },
    /// Retired: the cumulative acknowledgement a backup once sent its primary, which
    /// then confirmed the op to its origin. Nothing sends it since the backups confirm
    /// to the origin themselves, and a node drops one on receipt; it keeps its codec
    /// row until a protocol version in `Hello` can retire it.
    DirAck {
        /// Shard index.
        shard: u64,
        /// The acker's current epoch. Informational: receivers fold it into their
        /// failover-epoch counter. Acks themselves stay valid across promotions —
        /// sequence numbers only re-baseline through a snapshot, which also resets
        /// the acker's cumulative position.
        epoch: u64,
        /// Highest contiguously-applied sequence number.
        seq: u64,
    },
    /// Recovering (or gap-detecting) replica → believed primary: please send me the
    /// next [`Message::DirSnapshotChunk`] of `shard`'s state so I can be re-admitted as
    /// a backup. Forwarded to the current primary when it lands elsewhere.
    DirSnapshotRequest {
        /// Shard index.
        shard: u64,
        /// The replica asking to be re-admitted.
        requester: NodeId,
        /// `true` when the requester *restarted* and is resyncing every hosted shard
        /// (it will broadcast [`Message::DirResynced`] when done). Receivers that
        /// still believed the requester was a healthy primary treat a restart
        /// request as the failure notice the detector has not delivered yet — a node
        /// asking for its shard's state back cannot be that shard's leader. `false`
        /// for a gap-detected catch-up from a live backup, which must not disturb
        /// anyone's liveness view.
        restart: bool,
        /// Chunk-stream cursor: `None` opens a new stream from the start of the
        /// shard; `Some(o)` resumes after object `o` (every entry up to and
        /// including `o` has been installed). A resumed stream survives source
        /// death: the re-targeted request carries the cursor to the new source.
        after: Option<ObjectId>,
        /// The requester's membership digest (`(node, incarnation, alive)` per
        /// cluster node), carried on restart requests so the resync source can
        /// teach the requester deaths it slept through: the source merges the
        /// digest and answers every strictly-newer entry with a
        /// [`Message::MembershipDigest`]. Empty on gap-detected catch-ups.
        digest: Vec<crate::membership::MemberDigestEntry>,
    },
    /// Retired: the full shard state in one frame, at log position `seq`, epoch
    /// `epoch`. Nothing produces it any more; the tag stays on the wire format until
    /// a protocol version can retire it, and a receiver handles it as the one-chunk
    /// [`Message::DirSnapshotChunk`] stream (`done = true`) it is the degenerate case
    /// of.
    DirSnapshot {
        /// Shard index.
        shard: u64,
        /// The primary's promotion epoch at capture time.
        epoch: u64,
        /// Log sequence number the snapshot includes (catch-up replays from here).
        seq: u64,
        /// The shard's current primary rank in the replica set.
        rank: u64,
        /// The shard state itself.
        state: ShardSnapshot,
    },
    /// Primary → recovering replica: one bounded slice of shard state in a
    /// cursor-driven resync stream. The receiver installs the carried entries,
    /// advances its cursor past the last one, and requests the next chunk with
    /// [`Message::DirSnapshotRequest`]; the source interleaves live op shipments
    /// between chunks, re-sending entries mutated behind the cursor, so it is never
    /// paused for O(objects) time. The final chunk (`done`) carries the log
    /// position the assembled state is consistent at.
    DirSnapshotChunk {
        /// Shard index.
        shard: u64,
        /// The source's promotion epoch at capture time.
        epoch: u64,
        /// Log sequence number this chunk's entries are consistent at. Only
        /// meaningful for installation on the final (`done`) chunk.
        seq: u64,
        /// The source's current placement cursor for the shard (adopted at `done`).
        rank: u64,
        /// `true` on the final chunk of the stream.
        done: bool,
        /// The slice of entries, sorted by object id, `wire_size() <=`
        /// `snapshot_chunk_bytes` unless a single entry alone exceeds the bound.
        state: ShardSnapshot,
    },
    /// Retired: a replay of a source's retained op log, once sent instead of a chunk
    /// stream to a replica whose gap that log covered. Nothing sends it any more and
    /// a receiver drops it; the tag stays on the wire format until a protocol version
    /// can retire it.
    DirResyncDelta {
        /// Shard index.
        shard: u64,
        /// The source's promotion epoch.
        epoch: u64,
        /// `(seq, op)` pairs in contiguous sequence order.
        ops: Vec<(u64, DirOp)>,
        /// `true` on the final frame: the receiver is caught up through the last
        /// carried seq and leaves resync.
        done: bool,
    },
    /// Broadcast by a recovered node once every shard it hosts has installed its
    /// snapshot and caught up: the node is re-admitted as a primary candidate (the
    /// epoch-versioned placement bumps the affected shards' failover epochs).
    DirResynced {
        /// The node that finished resyncing.
        node: NodeId,
        /// The announcing node's current incarnation. Receivers drop announcements
        /// about an incarnation they have already seen die — a late `DirResynced`
        /// must not re-admit a node that crashed again after sending it.
        incarnation: u64,
    },
    /// Replica → op origin: this replica holds the op identified by `(object, kind)`:
    /// a backup that applied it, or a primary that shipped it to no live backup.
    DirConfirm {
        /// The object the confirmed op concerned.
        object: ObjectId,
        /// Which journaled intent is confirmed.
        kind: ConfirmKind,
    },

    // --------------------------------------------------------------- data plane ----
    /// Ask `holder` to stream an object starting at `offset` (the receiver-driven pull
    /// of §3.4.1; `offset > 0` happens when resuming after a sender failure, §3.5.1).
    PullRequest {
        /// The object.
        object: ObjectId,
        /// The receiver.
        requester: NodeId,
        /// Byte offset to start from.
        offset: u64,
    },
    /// Unsent: a receiver's cancel of an in-flight pull. Nothing constructs it outside
    /// tests (a receiver that moves to another source or stops pulling sends nothing),
    /// and a node that receives one cancels the pull it names; it keeps its codec row
    /// until a protocol version in `Hello` can retire it.
    PullCancel {
        /// The object.
        object: ObjectId,
        /// The receiver that is cancelling.
        requester: NodeId,
    },
    /// One pipelining block of object data pushed from sender to receiver.
    PushBlock {
        /// The object.
        object: ObjectId,
        /// Byte offset of this block.
        offset: u64,
        /// Total object size (repeated so receivers can allocate on first block).
        total_size: u64,
        /// Block contents.
        payload: Payload,
        /// `true` on the final block.
        complete: bool,
    },
    /// The sender cannot serve the pull (object evicted or deleted).
    PullError {
        /// The object.
        object: ObjectId,
        /// Human-readable reason.
        reason: String,
    },

    // ------------------------------------------------------------------- reduce ----
    /// Coordinator → participant: your place in the reduce tree (sent initially and
    /// re-sent whenever the dynamic tree changes, §3.4.2 / §3.5.2).
    ReduceInstruction(ReduceInstruction),
    /// Participant → parent: one block of (partially) reduced data.
    ReduceBlock {
        /// Reduce identifier (the target object id).
        target: ObjectId,
        /// Parent slot this block is destined for.
        to_slot: usize,
        /// Sender's slot.
        from_slot: usize,
        /// The parent epoch this block belongs to.
        parent_epoch: u64,
        /// Block index.
        block_index: u64,
        /// Total object size.
        object_size: u64,
        /// Block contents (already reduced over the sender's subtree).
        payload: Payload,
    },
    /// Participant → coordinator: the root finished materializing the target object.
    ReduceDone {
        /// Reduce identifier.
        target: ObjectId,
        /// Node holding the result.
        root: NodeId,
    },
    /// Coordinator → participants: the reduce completed; release every participant
    /// slot, parked early block, and routing entry for `target` (reduce-state GC).
    ReduceRelease {
        /// Reduce identifier.
        target: ObjectId,
    },

    // ------------------------------------------------------------- membership ----
    /// A failure notice with an incarnation number, as injected by an external
    /// failure detector (`hoplitectl`, a driver, or a gossiping peer). The receiver
    /// applies the §3.5 failure rules only if its [`crate::membership`] view judges
    /// the notice fresh: notices about an incarnation older than the highest known
    /// are dropped, so a late notice cannot re-kill a node that already restarted.
    PeerFailureNotice {
        /// The node reported dead.
        node: NodeId,
        /// The incarnation that died.
        incarnation: u64,
    },
    /// A batch of membership knowledge: the sender's strictly-newer entries,
    /// answered to a restarted node's digest-carrying
    /// [`Message::DirSnapshotRequest`] so its first gossip round learns of deaths
    /// it slept through.
    MembershipDigest {
        /// `(node, incarnation, alive)` triples, each strictly newer than what the
        /// receiver advertised.
        entries: Vec<crate::membership::MemberDigestEntry>,
    },
    /// SWIM direct probe ([`crate::detector`]). `origin` is the prober — which is
    /// the message's sender for a direct probe but the *original* prober when a
    /// relay forwards a [`Message::PingReq`]; the target acks `origin` directly
    /// either way, so relays stay stateless.
    Ping {
        /// The node whose probe round this is (acks go here).
        origin: NodeId,
        /// Correlates the ack with the prober's outstanding round.
        probe_id: u64,
        /// Piggybacked membership claims (bounded by the gossip budget).
        gossip: Vec<crate::detector::GossipEntry>,
    },
    /// SWIM probe acknowledgement, sent to the probe's `origin`.
    Ack {
        /// `probe_id` of the [`Message::Ping`] being answered.
        probe_id: u64,
        /// Piggybacked membership claims.
        gossip: Vec<crate::detector::GossipEntry>,
    },
    /// SWIM indirect probe request: "please ping `target` for me". Sent to `k`
    /// random relays after a direct probe misses its ack; each relay forwards a
    /// [`Message::Ping`] carrying the requester as `origin`.
    PingReq {
        /// The unresponsive peer the relay should probe.
        target: NodeId,
        /// The requester's probe round id, passed through unchanged.
        probe_id: u64,
        /// Piggybacked membership claims.
        gossip: Vec<crate::detector::GossipEntry>,
    },

    // ---------------------------------------------------------------- transport ----
    /// Transport-level peer identification: the first frame on a freshly opened
    /// connection announces the sender's node id, so the accept side can tag every
    /// subsequent frame with its origin. The framed fabrics additionally forward it
    /// to the node's protocol handlers as liveness evidence: a reconnecting peer's
    /// `Hello` carries its current incarnation.
    Hello {
        /// The connecting node.
        node: NodeId,
        /// The connecting process's incarnation (0 on cold boot, bumped by every
        /// restart).
        incarnation: u64,
    },
}

impl Message {
    /// Approximate wire size in bytes, used by the simulator's bandwidth model. Control
    /// messages are small and fixed-size; data-plane messages are dominated by their
    /// payload.
    pub fn wire_size(&self) -> u64 {
        match self {
            Message::PushBlock { payload, .. } => CONTROL + payload.len(),
            Message::ReduceBlock { payload, .. } => CONTROL + payload.len(),
            Message::DirPutInline { payload, .. } => CONTROL + payload.len(),
            Message::DirQueryReply { result: QueryResult::Inline { payload }, .. } => {
                CONTROL + payload.len()
            }
            Message::ReduceInstruction(instr) => CONTROL + 24 * instr.children.len() as u64,
            Message::DirQuery { exclude, .. } => CONTROL + 4 * exclude.len() as u64,
            Message::DirReplicate { op, .. } => CONTROL + op.wire_size(),
            Message::DirSnapshotRequest { digest, .. } => CONTROL + 13 * digest.len() as u64,
            Message::MembershipDigest { entries } => CONTROL + 13 * entries.len() as u64,
            Message::Ping { gossip, .. } => CONTROL + 13 * gossip.len() as u64,
            Message::Ack { gossip, .. } => CONTROL + 13 * gossip.len() as u64,
            Message::PingReq { gossip, .. } => CONTROL + 13 * gossip.len() as u64,
            Message::DirSnapshot { state, .. } => CONTROL + state.wire_size(),
            Message::DirSnapshotChunk { state, .. } => CONTROL + state.wire_size(),
            _ => CONTROL,
        }
    }
}

/// A client-facing operation submitted to the local Hoplite node (Table 1).
#[derive(Clone, Debug, PartialEq)]
pub enum ClientOp {
    /// Store an object in the local store and publish its location.
    Put {
        /// The new object's id.
        object: ObjectId,
        /// Object contents (real or synthetic).
        payload: Payload,
    },
    /// Fetch an object into the local store (and hand it to the caller).
    Get {
        /// The object to fetch.
        object: ObjectId,
    },
    /// Create `target` by reducing `num_objects` of the given source objects.
    Reduce {
        /// Output object id.
        target: ObjectId,
        /// Candidate source objects (futures; they may not exist yet).
        sources: Vec<ObjectId>,
        /// How many of the sources to fold in (`None` = all of them).
        num_objects: Option<usize>,
        /// Operator and element type.
        spec: ReduceSpec,
        /// Force a specific tree degree instead of the degree model's choice (`None` =
        /// pick from [`crate::reduce::degree::DEGREE_CANDIDATES`] with
        /// [`crate::reduce::DegreeModel::paper_testbed`]; used by the Appendix-B
        /// ablation).
        degree: Option<usize>,
    },
    /// Delete every copy of an object cluster-wide.
    Delete {
        /// The object to delete.
        object: ObjectId,
    },
}

/// Reply to a [`ClientOp`].
#[derive(Clone, Debug, PartialEq)]
pub enum ClientReply {
    /// `Put` finished copying into the local store.
    PutDone {
        /// The stored object.
        object: ObjectId,
    },
    /// `Get` completed; the payload is a complete copy of the object, shared with the
    /// local store: [`Payload::Segments`] (one per received block, never coalesced)
    /// when the object is larger than one block.
    GetDone {
        /// The fetched object.
        object: ObjectId,
        /// The object contents.
        payload: Payload,
    },
    /// `Reduce` was accepted and the coordinator is building the tree; fetch the target
    /// object with `Get` to obtain the result.
    ReduceAccepted {
        /// The reduce output object.
        target: ObjectId,
    },
    /// The target object of a `Reduce` issued on this node is now fully materialized at
    /// the tree root.
    ReduceComplete {
        /// The reduce output object.
        target: ObjectId,
    },
    /// `Delete` was dispatched.
    DeleteDone {
        /// The deleted object.
        object: ObjectId,
    },
    /// The operation failed.
    Error {
        /// What failed.
        error: HopliteError,
    },
}

/// Side effects requested by the node state machine; the driver executes them.
#[derive(Clone, Debug, PartialEq)]
pub enum Effect {
    /// Send a protocol message to a peer node.
    Send {
        /// Destination node.
        to: NodeId,
        /// The message.
        msg: Message,
    },
    /// Complete a client operation.
    Reply {
        /// The operation being answered.
        op: OpId,
        /// Its result.
        reply: ClientReply,
    },
    /// Ask the driver to call `handle_timer` with this token after `delay`.
    SetTimer {
        /// Token to hand back.
        token: TimerToken,
        /// Delay from now.
        delay: Duration,
    },
    /// The node's own failure machinery (a detector death verdict, a gossiped or
    /// digest-learned death) has declared `node` dead: drivers that own real
    /// connections should tear down transport state to it (close sockets, drop
    /// send queues) exactly as they would on a supervisor verdict. Drivers
    /// without per-peer transport state (the simulator) may ignore it.
    PeerDown {
        /// The peer declared dead.
        node: NodeId,
    },
    /// Advisory: a local block of `object` became readable at the store (watermark
    /// advanced). Drivers that model worker-side pipelined `Get`s use this to stream
    /// data to workers before the object is complete; other drivers may ignore it.
    LocalProgress {
        /// The object making progress.
        object: ObjectId,
        /// New watermark in bytes.
        watermark: u64,
        /// Total size in bytes.
        total_size: u64,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_size_tracks_payload() {
        let small = Message::DirQuery {
            object: ObjectId::from_name("x"),
            requester: NodeId(0),
            query_id: 1,
            exclude: vec![],
        };
        let big = Message::PushBlock {
            object: ObjectId::from_name("x"),
            offset: 0,
            total_size: 4096,
            payload: Payload::synthetic(4096),
            complete: true,
        };
        assert!(small.wire_size() < 200);
        assert!(big.wire_size() > 4096);
    }

    #[test]
    fn messages_clone_and_compare() {
        let msg = Message::PushBlock {
            object: ObjectId::from_name("y"),
            offset: 128,
            total_size: 256,
            payload: Payload::from_vec(vec![1, 2, 3]),
            complete: false,
        };
        // Wire encoding itself is exercised by the transport crate's framing tests;
        // here we make sure the message is cloneable/comparable.
        let copy = msg.clone();
        assert_eq!(copy, msg);
    }

    /// One op of every kind.
    fn every_op() -> Vec<DirOp> {
        let (object, a, b) = (ObjectId::from_name("op"), NodeId(1), NodeId(2));
        vec![
            DirOp::Register { object, holder: a, status: ObjectStatus::Partial, size: 9 },
            DirOp::PutInline { object, holder: a, payload: Payload::from_vec(vec![7; 5]) },
            DirOp::Unregister { object, holder: a },
            DirOp::Query { object, requester: a, query_id: 4, exclude: vec![b] },
            DirOp::Subscribe { object, subscriber: a },
            DirOp::Unsubscribe { object, subscriber: a },
            DirOp::TransferDone { object, receiver: a, sender: b },
            DirOp::Delete { object },
        ]
    }

    #[test]
    fn every_op_survives_the_round_trip_through_its_message() {
        for op in every_op() {
            let msg = Message::from(op.clone());
            assert_eq!(msg.wire_size(), op.wire_size(), "{op:?} sizes as its message");
            assert_eq!(DirOp::try_from(msg), Ok(op));
        }
    }

    /// Every message variant that is not one of the eight ops.
    #[test]
    fn every_other_message_comes_back_unchanged() {
        use crate::detector::GossipState;
        let (object, a) = (ObjectId::from_name("other"), NodeId(1));
        let op = DirOp::Delete { object };
        let state = ShardSnapshot::default();
        let others = vec![
            Message::DirQueryReply { object, query_id: 1, result: QueryResult::Deleted },
            Message::DirPublish { object, holder: a, status: ObjectStatus::Complete, size: 3 },
            Message::StoreRelease { object },
            Message::DirReplicate { shard: 0, epoch: 1, seq: 2, op: op.clone() },
            Message::DirAck { shard: 0, epoch: 1, seq: 2 },
            Message::DirSnapshotRequest {
                shard: 0,
                requester: a,
                restart: true,
                after: None,
                digest: vec![(a, 1, true)],
            },
            Message::DirSnapshot { shard: 0, epoch: 1, seq: 2, rank: 0, state: state.clone() },
            Message::DirSnapshotChunk { shard: 0, epoch: 1, seq: 2, rank: 0, done: true, state },
            Message::DirResyncDelta { shard: 0, epoch: 1, ops: vec![(1, op)], done: true },
            Message::DirResynced { node: a, incarnation: 1 },
            Message::DirConfirm { object, kind: ConfirmKind::Inline },
            Message::PullRequest { object, requester: a, offset: 0 },
            Message::PullCancel { object, requester: a },
            Message::PushBlock {
                object,
                offset: 0,
                total_size: 1,
                payload: Payload::from_vec(vec![1]),
                complete: true,
            },
            Message::PullError { object, reason: "gone".into() },
            Message::ReduceInstruction(ReduceInstruction {
                target: object,
                coordinator: a,
                slot: 0,
                own_object: object,
                spec: ReduceSpec::sum_f32(),
                object_size: 4,
                block_size: 4,
                num_inputs: 1,
                epoch: 0,
                parent: None,
                children: Vec::new(),
                is_root: true,
                total_slots: 1,
            }),
            Message::ReduceBlock {
                target: object,
                to_slot: 0,
                from_slot: 1,
                parent_epoch: 0,
                block_index: 0,
                object_size: 4,
                payload: Payload::from_vec(vec![0; 4]),
            },
            Message::ReduceDone { target: object, root: a },
            Message::ReduceRelease { target: object },
            Message::PeerFailureNotice { node: a, incarnation: 1 },
            Message::MembershipDigest { entries: vec![(a, 1, false)] },
            Message::Ping { origin: a, probe_id: 1, gossip: vec![(a, 1, GossipState::Suspect)] },
            Message::Ack { probe_id: 1, gossip: Vec::new() },
            Message::PingReq { target: a, probe_id: 1, gossip: Vec::new() },
            Message::Hello { node: a, incarnation: 1 },
        ];
        for msg in others {
            assert_eq!(DirOp::try_from(msg.clone()), Err(msg));
        }
    }

    #[test]
    fn reduce_instruction_equality() {
        let instr = ReduceInstruction {
            target: ObjectId::from_name("t"),
            coordinator: NodeId(0),
            slot: 3,
            own_object: ObjectId::from_name("s"),
            spec: ReduceSpec::sum_f32(),
            object_size: 1024,
            block_size: 256,
            num_inputs: 3,
            epoch: 0,
            parent: Some(ReduceParent { slot: 5, node: NodeId(2), epoch: 1 }),
            children: vec![(1, NodeId(4), ObjectId::from_name("c"))],
            is_root: false,
            total_slots: 6,
        };
        assert_eq!(instr.clone(), instr);
        let m = Message::ReduceInstruction(instr);
        assert!(m.wire_size() >= 96);
    }
}
