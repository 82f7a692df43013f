//! # hoplite-transport
//!
//! Real (non-simulated) transports for the Hoplite sans-IO core:
//!
//! * [`framing`] — length-prefixed binary wire format, declared once as a message
//!   table, carrying the paper's gRPC-control / raw-TCP-data split in one stream;
//! * [`fabric::ChannelFabric`] — in-process fabric, a send posts into the receiver's sink;
//! * [`tcp::TcpFabric`] — localhost TCP fabric with one connection per peer pair.
//!
//! The host that runs [`hoplite_core::node::ObjectStoreNode`] on the threads these
//! fabrics deliver on lives in `hoplite-cluster` (`NodeHost`), so that simulated and
//! real deployments expose the same user-facing API.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod fabric;
pub mod framing;
pub mod tcp;

pub use fabric::{ChannelFabric, ChannelFabricSender, Fabric, FabricSender, Ingress};
pub use tcp::{TcpFabric, TcpFabricSender};
