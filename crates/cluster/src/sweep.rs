//! Execute one sweep cell: a (topology × fault schedule × collective) combination on
//! a [`SimCluster`], reduced to a machine-readable [`CellOutcome`].
//!
//! This generalizes the hand-written drills of [`crate::scenarios`] into a
//! parameterized runner the `sweep` benchmark binary drives over a whole matrix. The
//! contract per cell: every *required* client operation either completes within the
//! simulated deadline (the cell **converged**, and `completion_s` is the time the last
//! one finished) or the cell reports a named failure — never a hang, never a panic.
//!
//! Required operations are chosen so convergence is achievable under every schedule:
//! collective roots and reduce sources are protected from kills (see
//! [`crate::faults::generate`]), and a killed broadcast/multicast receiver's fetch is
//! re-issued after its restart + directory resync, replacing the original in the
//! required set — exactly what a restarted worker process would do.

use hoplite_core::prelude::*;
use hoplite_simnet::prelude::*;

use crate::faults::{self, FaultSchedule, ScheduleKind};
use crate::sim_cluster::{OpHandle, SimCluster};
use crate::topology::GeneratedTopology;

/// The collective operation a cell exercises.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Collective {
    /// One source object on node 0, fetched by every other node.
    Broadcast,
    /// One gradient per source node, tree-reduced into a target read on node 0.
    Reduce,
    /// One source object on node 0, fetched by a third of the cluster.
    Multicast,
}

impl Collective {
    /// Every collective, in sweep order.
    pub fn all() -> [Collective; 3] {
        [Collective::Broadcast, Collective::Reduce, Collective::Multicast]
    }

    /// Short stable name used in sweep cell ids.
    pub fn name(&self) -> &'static str {
        match self {
            Collective::Broadcast => "broadcast",
            Collective::Reduce => "reduce",
            Collective::Multicast => "multicast",
        }
    }
}

/// The machine-readable result of one cell.
#[derive(Clone, Debug, PartialEq)]
pub struct CellOutcome {
    /// Whether every required operation completed within the simulated deadline.
    pub converged: bool,
    /// Named failure when `converged` is false.
    pub failure: Option<String>,
    /// Simulated seconds from workload start to the last required completion
    /// (0 when not converged).
    pub completion_s: f64,
    /// Total payload bytes sent on the wire (per-node metrics, summed).
    pub data_bytes_sent: u64,
    /// Messages delivered by the simulator.
    pub messages: u64,
    /// Simulator events processed.
    pub events: u64,
    /// Directory failovers observed.
    pub failovers: u64,
    /// Directory redrives observed.
    pub redrives: u64,
    /// Directory resyncs completed.
    pub resyncs: u64,
    /// Messages whose first transmission was lost (LossReorder schedules).
    pub lost: u64,
    /// Messages delayed by reordering jitter (LossReorder schedules).
    pub reordered: u64,
}

/// Workload start: puts settle for this long before the collective is issued and the
/// fault schedule begins.
const START_S: f64 = 1.0;
/// Simulated-time budget per cell after the workload start. A cell that has not
/// completed by then is reported as a named non-convergence, never a hang.
const DEADLINE_S: f64 = 120.0;
/// How long after its restart a killed receiver re-issues its fetch (covers its
/// directory resync and the `DirResynced` that readmits it everywhere).
const REFETCH_AFTER_RESTART_S: f64 = 2.0;

/// Run one cell: generate the seeded `kind` schedule for `topo`, execute `collective`
/// with `object_bytes` objects, and reduce the run to a [`CellOutcome`]. Returns the
/// schedule alongside so callers can report exactly what was injected.
pub fn run_cell(
    topo: &GeneratedTopology,
    kind: ScheduleKind,
    collective: Collective,
    object_bytes: u64,
    seed: u64,
) -> (FaultSchedule, CellOutcome) {
    let n = topo.n;
    assert!(n >= 4, "sweep cells need at least 4 nodes");

    // Receivers (for broadcast/multicast) and the protected set kills must avoid.
    let receivers: Vec<usize> = match collective {
        Collective::Broadcast => (1..n).collect(),
        Collective::Multicast => {
            let r: Vec<usize> = (1..n).filter(|i| i % 3 == 0).collect();
            if r.is_empty() {
                vec![1]
            } else {
                r
            }
        }
        Collective::Reduce => Vec::new(),
    };
    let sources: Vec<usize> = match collective {
        Collective::Reduce => (0..n).step_by(2).collect(),
        _ => vec![0],
    };
    let mut protected = sources.clone();
    protected.push(0);

    let detection_s = topo.net.failure_detection_delay.as_secs_f64();
    let schedule = faults::generate(kind, n, &protected, detection_s, seed);

    let mut net = topo.net.clone();
    net.faults = schedule.link_faults.clone();
    let mut cluster = SimCluster::new(n, HopliteConfig::paper_testbed(), net);

    let start = SimTime::from_secs_f64(START_S);
    let killed = schedule.killed_nodes();
    // (handle, description) pairs that must all complete for the cell to converge.
    let mut required: Vec<(OpHandle, String)> = Vec::new();

    match collective {
        Collective::Broadcast | Collective::Multicast => {
            let object = ObjectId::from_name("sweep-object");
            cluster.submit_at(
                SimTime::ZERO,
                0,
                ClientOp::Put { object, payload: Payload::synthetic(object_bytes) },
            );
            for &node in &receivers {
                let get = cluster.submit_at(start, node, ClientOp::Get { object });
                if let Some(restart_off) = schedule.restart_offset(node) {
                    // The node dies mid-run: its original fetch may be lost with the
                    // process. Require the refetch a restarted worker would issue.
                    let refetch_at =
                        SimTime::from_secs_f64(START_S + restart_off + REFETCH_AFTER_RESTART_S);
                    let re = cluster.submit_at(refetch_at, node, ClientOp::Get { object });
                    required.push((re, format!("refetch on restarted node {node}")));
                } else {
                    required.push((get, format!("get on node {node}")));
                }
            }
        }
        Collective::Reduce => {
            let objs: Vec<ObjectId> =
                sources.iter().map(|i| ObjectId::from_name(&format!("grad-{i}"))).collect();
            for (&node, &obj) in sources.iter().zip(&objs) {
                cluster.submit_at(
                    SimTime::ZERO,
                    node,
                    ClientOp::Put { object: obj, payload: Payload::synthetic(object_bytes) },
                );
            }
            let target = ObjectId::from_name("sweep-sum");
            cluster.submit_at(
                start,
                0,
                ClientOp::Reduce {
                    target,
                    sources: objs,
                    num_objects: None,
                    spec: ReduceSpec::sum_f32(),
                    degree: None,
                },
            );
            let get = cluster.submit_at(start, 0, ClientOp::Get { object: target });
            required.push((get, "reduce-target get on node 0".to_string()));
        }
    }

    schedule.apply(&mut cluster, START_S);
    cluster.run_until(SimTime::from_secs_f64(START_S + DEADLINE_S));

    let mut missing: Vec<&str> = Vec::new();
    let mut last_done = start;
    for (handle, what) in &required {
        match cluster.done_time(*handle) {
            Some(t) => last_done = last_done.max(t),
            None => missing.push(what.as_str()),
        }
    }

    let metrics = cluster.total_metrics();
    let stats = cluster.sim_stats();
    let converged = missing.is_empty();
    let outcome = CellOutcome {
        converged,
        failure: if converged {
            None
        } else {
            Some(format!(
                "{} of {} required ops incomplete after {DEADLINE_S}s (first: {}){}",
                missing.len(),
                required.len(),
                missing[0],
                if killed.is_empty() { String::new() } else { format!("; killed {killed:?}") },
            ))
        },
        completion_s: if converged { (last_done - start).as_secs_f64() } else { 0.0 },
        data_bytes_sent: metrics.data_bytes_sent,
        messages: stats.messages_delivered,
        events: stats.events_processed,
        failovers: metrics.directory_failovers,
        redrives: metrics.directory_redrives,
        resyncs: metrics.directory_resyncs,
        lost: stats.messages_lost,
        reordered: stats.messages_reordered,
    };
    (schedule, outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology;

    const MB: u64 = 1024 * 1024;

    #[test]
    fn baseline_broadcast_cell_converges() {
        let topo = topology::uniform(8);
        let (_, out) = run_cell(&topo, ScheduleKind::None, Collective::Broadcast, 8 * MB, 0);
        assert!(out.converged, "failure: {:?}", out.failure);
        assert!(out.completion_s > 0.0 && out.completion_s < 5.0);
        assert!(out.data_bytes_sent >= 7 * 8 * MB);
    }

    #[test]
    fn correlated_kills_cell_converges_with_failovers() {
        let topo = topology::uniform(8);
        let (schedule, out) =
            run_cell(&topo, ScheduleKind::CorrelatedKills, Collective::Multicast, 8 * MB, 1);
        assert!(out.converged, "failure: {:?}", out.failure);
        assert_eq!(schedule.kills.len(), 2);
        // The kills force directory work: failover of the victims' shards and a
        // resync when they return.
        assert!(out.resyncs >= 1, "resyncs = {}", out.resyncs);
    }

    #[test]
    fn loss_reorder_cell_converges_and_counts_faults() {
        let topo = topology::uniform(8);
        let (schedule, out) =
            run_cell(&topo, ScheduleKind::LossReorder, Collective::Reduce, 8 * MB, 2);
        assert!(schedule.link_faults.is_some());
        assert!(out.converged, "failure: {:?}", out.failure);
        assert!(out.lost + out.reordered > 0, "faults should have fired");
    }

    #[test]
    fn partition_cell_converges_on_fat_tree() {
        let topo = topology::fat_tree(4, 2, 2.0);
        let (_, out) = run_cell(&topo, ScheduleKind::Partition, Collective::Broadcast, 8 * MB, 3);
        assert!(out.converged, "failure: {:?}", out.failure);
    }

    #[test]
    fn same_cell_same_seed_is_byte_deterministic() {
        let topo = topology::hetero_nics(8, 4);
        let a = run_cell(&topo, ScheduleKind::Straggler, Collective::Broadcast, 8 * MB, 5);
        let b = run_cell(&topo, ScheduleKind::Straggler, Collective::Broadcast, 8 * MB, 5);
        assert_eq!(a.0.canonical_bytes(), b.0.canonical_bytes());
        assert_eq!(a.1, b.1);
    }
}
