//! # hoplite-daemon
//!
//! The real multi-process deployment of Hoplite: the `hoplited` node daemon (one
//! [`hoplite_cluster::host::NodeHost`] over a TCP fabric listener, plus a control
//! socket) and the `hoplitectl` controller (spawn / status / kill / restart / stop /
//! drill).
//!
//! The library half carries what the binaries and the tests share: flag parsing
//! ([`args`]), the flat-TOML config loader ([`config`]), a node's status as one JSON
//! object ([`status`]), and the fleet supervisor ([`fleet`]). A [`fleet::Fleet`] is
//! both the on-disk record that lets separate `hoplitectl` invocations manage the
//! same running fleet and the only code that launches, kills, restarts and stops
//! daemons: the kill -9 drill and the detached commands go through it alike.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod args;
pub mod config;
pub mod fleet;
pub mod status;
