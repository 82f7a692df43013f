//! # hoplite-simnet
//!
//! A small, deterministic discrete-event cluster-network simulator.
//!
//! This crate is the substrate that stands in for the Hoplite paper's 16-node AWS
//! testbed (m5.4xlarge, 10 Gbps). It models exactly the effects the paper's evaluation
//! depends on:
//!
//! * **per-NIC bandwidth serialization** (full duplex) — a node pushing one object to
//!   `n` receivers is uplink-bound, a node pulling `n` objects is downlink-bound;
//! * **propagation / RPC latency** — small control messages pay latency but do not
//!   contend for NIC bandwidth;
//! * **failure and recovery**: a failure is announced after a configurable detection
//!   delay, naming the incarnation that died; a recovery is not announced.
//!
//! It is generic over the actor type: the Hoplite data plane (`hoplite-cluster`) and
//! every baseline system (`hoplite-baselines`) run on the *same* simulated network, so
//! algorithmic comparisons are apples-to-apples, exactly as in the paper's testbed.
//!
//! ```
//! use hoplite_simnet::prelude::*;
//!
//! struct Echo;
//! impl SimActor for Echo {
//!     type Msg = &'static str;
//!     fn on_message(&mut self, from: usize, _msg: &'static str, ctx: &mut SimContext<'_, &'static str>) {
//!         if ctx.node() != 0 {
//!             ctx.send(from, "pong", 128);
//!         }
//!     }
//! }
//!
//! let mut sim = Simulation::new(NetworkConfig::paper_testbed(), vec![Echo, Echo]);
//! sim.call_at(SimTime::ZERO, 0, |_a, ctx| ctx.send(1, "ping", 128));
//! sim.run_to_completion();
//! assert_eq!(sim.stats().messages_delivered, 2);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod config;
pub mod nic;
pub mod sim;
pub mod time;

/// Common re-exports.
pub mod prelude {
    pub use crate::config::{LatencyTiers, LinkFaults, NetworkConfig, UplinkSpec};
    pub use crate::nic::Nic;
    pub use crate::sim::{SimActor, SimContext, SimStats, Simulation};
    pub use crate::time::{SimDuration, SimTime};
}

pub use prelude::*;
