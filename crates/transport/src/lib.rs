//! # hoplite-transport
//!
//! Real (non-simulated) transports for the Hoplite sans-IO core:
//!
//! * [`framing`] — length-prefixed binary wire format, declared once as a message
//!   table, carrying the paper's gRPC-control / raw-TCP-data split in one stream;
//! * [`fabric::ChannelFabric`] — in-process crossbeam-channel fabric;
//! * [`tcp::TcpFabric`] — localhost TCP fabric with one connection per peer pair.
//!
//! The node event loop that drives [`hoplite_core::node::ObjectStoreNode`] over these
//! fabrics lives in `hoplite-cluster` (`LocalCluster`), so that simulated and real
//! deployments expose the same user-facing API.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod fabric;
pub mod framing;
pub mod tcp;

pub use fabric::{ChannelFabric, ChannelFabricSender, Fabric, FabricSender};
pub use tcp::{TcpFabric, TcpFabricSender};
