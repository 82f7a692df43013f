//! # hoplite-cluster
//!
//! Drivers that turn the sans-IO `hoplite-core` state machines into running clusters:
//!
//! * [`sim_cluster::SimCluster`] — every node on the deterministic discrete-event
//!   network of `hoplite-simnet`, with synthetic payloads and pipelined put modelling.
//!   This is the environment in which the paper's figures are regenerated.
//! * [`local::LocalCluster`] — one OS thread per node over in-process channels or
//!   localhost TCP, moving real bytes. This is the environment used by the examples,
//!   the task framework, and the data-plane correctness tests.
//! * [`scenarios`] — the §5.1 microbenchmark methodology (point-to-point, broadcast,
//!   gather, reduce, allreduce, asynchronous arrivals, directory fast path) packaged as
//!   reusable functions for the benchmark harness.
//!
//! Both cluster flavours drive their nodes through the shared [`driver::NodeRuntime`]:
//! backends only implement a [`driver::DriverPort`] (how to move a message, complete a
//! client op, and arm a timer on *their* fabric) and feed [`driver::NodeEvent`]s in.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod actor;
pub mod driver;
pub mod faults;
pub mod host;
pub mod local;
pub mod process;
pub mod scenarios;
pub mod sim_cluster;
pub mod sweep;
pub mod topology;

pub use actor::HopliteActor;
pub use driver::{DriverPort, NodeEvent, NodeRuntime};
pub use faults::{FaultSchedule, ScheduleKind};
pub use host::{HopliteClient, NodeHost, NodeStatus};
pub use local::{LocalCluster, LocalFabric};
pub use process::ControlClient;
pub use scenarios::{ScenarioEnv, ScenarioResult};
pub use sim_cluster::{OpHandle, SimCluster};
pub use sweep::{run_cell, CellOutcome, Collective};
pub use topology::{GeneratedTopology, SweepRng, TopologyGraph};
