//! The replicated object directory (§3.2 storage model, §3.5 fault tolerance).
//!
//! The directory is a sharded hash table mapping each `ObjectID` to its size and the
//! set of node locations holding a partial or complete copy. The seed implemented it
//! as one unreplicated [`DirectoryShard`] per node; this module layers the paper's
//! fault-tolerance story on top of that state machine:
//!
//! | Layer | Module | Responsibility |
//! |---|---|---|
//! | shard | [`shard`] | One shard as a pure, deterministic state machine (leases, pull-edge cycle avoidance, parked queries, inline cache), plus bounded, cursor-resumable state slices for transfer |
//! | replication | [`replication`] | Primary/backup replicas of a shard: sequenced op shipping, each op confirmed to its origin by the backups that apply it (or by a primary with none), epoch-stamped promotion, no log and no acks, and one record of an in-flight resync, one sink for its chunk stream and one catch-up rule closing it, for replicas with gaps |
//! | placement | [`placement`] | The static object → shard → replica-set map, and the leadership view over it: the node's liveness table, from which every shard's primary and epoch are derived — **one per node** |
//! | service | [`service`] | Owns the node's view and replicas: op routing (apply as primary / forward), star log shipping to every live backup, chunked resync serving, promotion and demotion wherever the view's primary moves, one sequencer per (shard, epoch); every piece of liveness evidence enters here, once, and the net route change comes back to re-drive |
//! | client | [`client`] | The journal of this node's durable intent (registrations, subscriptions, and the replicas each still waits on to confirm it): builds each op's message and selects the unconfirmed entries to re-drive in the shards a liveness transition re-routed |
//!
//! Shard state flows through the system exactly once on the happy path: a client op
//! is routed (by the node's view) to the shard's primary, the primary applies it and
//! ships the op (with a sequence number) to every live backup, and each backup applies
//! it and confirms it straight to the op's origin, whose journal counts it durable once
//! every replica it waits on has confirmed — at which point the op is durable with no
//! client participation. Because the shard is deterministic the backups converge to the
//! same state — including leases and parked queries, so a promoted backup can answer a
//! query that parked on its predecessor. A restarted or lagging replica rejoins through one state-transfer
//! path — a chunk stream — and a cluster-wide `DirResynced` re-admission announcement,
//! on which it leads the shards it owns again (fail-back): after a rolling restart the
//! original owners lead their shards.

pub mod client;
pub mod placement;
pub mod replication;
pub mod service;
pub mod shard;

pub use client::{DirectoryClient, FailoverRedrive, Registration};
pub use placement::{DirectoryPlacement, PlacementView, Rerouted};
pub use replication::{ReplayOutcome, ReplicaRole, Resync, ResyncFrame, ResyncStep, ShardReplica};
pub use service::DirectoryService;
pub use shard::DirectoryShard;
