//! # Hoplite core
//!
//! A from-scratch Rust implementation of **Hoplite** (SIGCOMM 2021): efficient and
//! fault-tolerant collective communication for task-based distributed systems.
//!
//! The crate is *sans-IO*: every protocol component is a state machine that consumes
//! messages/timers and produces [`protocol::Effect`]s, in the style of event-driven
//! network stacks. Drivers live elsewhere:
//!
//! * `hoplite-simnet` + `hoplite-cluster` run the state machines on a discrete-event
//!   cluster simulator to reproduce the paper's 16-node evaluation;
//! * `hoplite-transport` + `hoplite-cluster` run the identical state machines over
//!   real in-process channels or localhost TCP sockets.
//!
//! ## The pieces
//!
//! | Paper concept | Module |
//! |---|---|
//! | `ObjectID`, partial/complete locations | [`object`] |
//! | Replicated object directory with inline small-object cache (§3.2, §3.5) | [`directory`] (shard / replication / service / client layers) |
//! | Local object store, pinning, LRU eviction (§6) | [`store`] |
//! | Fine-grained pipelining buffers (§3.3) | [`buffer`] |
//! | Receiver-driven broadcast, pull protocol (§3.4.1) | [`node`] (`node/broadcast.rs`) |
//! | Dynamic d-ary reduce trees and the degree model (§3.4.2, Appendix B) | [`node`] (`node/reduce.rs`) + [`reduce`] |
//! | Fault-tolerant schedule adaptation (§3.5) | [`node`] (`node/failure.rs`) + [`reduce::tree`] |
//! | `Put` / `Get` / `Delete` / `Reduce` API (Table 1) | [`protocol::ClientOp`] |
//!
//! [`node::ObjectStoreNode`] itself is a thin facade: the broadcast, reduce, and
//! failure engines each own their state in a `node/` submodule, communicate through a
//! shared context, and are pumped by the driver-side `NodeRuntime` in
//! `hoplite-cluster`.
//!
//! ## Quick example (two in-memory nodes, hand-driven)
//!
//! ```
//! use hoplite_core::prelude::*;
//!
//! let cluster = ClusterView::of_size(2);
//! let cfg = HopliteConfig::small_for_tests();
//! let mut a = ObjectStoreNode::new(NodeId(0), cfg.clone(), cluster.clone(), NodeOptions::default());
//! let mut b = ObjectStoreNode::new(NodeId(1), cfg, cluster, NodeOptions::default());
//!
//! // Node 0 puts an object, node 1 gets it; a tiny hand-rolled driver shuttles
//! // messages until the Get completes.
//! let obj = ObjectId::from_name("hello");
//! let mut fx_a = Vec::new();
//! a.handle_client(Time::ZERO, OpId(1), ClientOp::Put { object: obj, payload: Payload::from_vec(vec![1, 2, 3]) }, &mut fx_a);
//! let mut fx_b = Vec::new();
//! b.handle_client(Time::ZERO, OpId(2), ClientOp::Get { object: obj }, &mut fx_b);
//!
//! let mut pending = vec![(NodeId(0), fx_a), (NodeId(1), fx_b)];
//! let mut got = None;
//! while let Some((from, effects)) = pending.pop() {
//!     for e in effects {
//!         match e {
//!             Effect::Send { to, msg } => {
//!                 let mut out = Vec::new();
//!                 if to == NodeId(0) { a.handle_message(Time::ZERO, from, msg, &mut out); }
//!                 else { b.handle_message(Time::ZERO, from, msg, &mut out); }
//!                 pending.push((to, out));
//!             }
//!             Effect::Reply { reply: ClientReply::GetDone { payload, .. }, .. } => got = Some(payload),
//!             _ => {}
//!         }
//!     }
//! }
//! assert_eq!(got.unwrap().as_bytes().unwrap().as_ref(), &[1, 2, 3]);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod buffer;
pub mod config;
pub mod copytrace;
pub mod detector;
pub mod directory;
pub mod error;
pub mod membership;
pub mod metrics;
pub mod node;
pub mod object;
pub mod protocol;
pub mod reduce;
pub mod store;
pub mod time;

/// Convenience re-exports of the most commonly used types.
pub mod prelude {
    pub use crate::buffer::{Payload, ProgressBuffer, SlabPool};
    pub use crate::config::HopliteConfig;
    pub use crate::detector::{
        DetectorAction, DetectorConfig, FailureDetector, GossipEntry, GossipState,
    };
    pub use crate::directory::{DirectoryPlacement, DirectoryShard};
    pub use crate::error::{HopliteError, Result};
    pub use crate::membership::{MemberDigestEntry, MembershipView, Transition};
    pub use crate::metrics::NodeMetrics;
    pub use crate::node::{ClusterView, NodeOptions, ObjectStoreNode};
    pub use crate::object::{NodeId, ObjectId, ObjectStatus};
    pub use crate::protocol::{
        ClientOp, ClientReply, ConfirmKind, DirOp, Effect, Message, OpId, QueryResult,
        ReduceInstruction, ShardSnapshot, SnapshotEntry, TimerToken,
    };
    pub use crate::reduce::{DType, DegreeModel, ReduceOp, ReduceSpec, ReduceTreePlan, TreeShape};
    pub use crate::store::LocalStore;
    pub use crate::time::{Duration, Time};
}

pub use prelude::*;
