//! Fault-tolerance experiments (§5.5, Figure 12).
//!
//! Three artifacts are produced:
//!
//! * [`broadcast_failover_demo`] — a *protocol-level* experiment on the simulated
//!   cluster: a broadcast intermediate is killed mid-transfer and the remaining
//!   receivers must still complete by failing over to other senders (§3.5.1). It
//!   returns the latency with and without the failure, demonstrating that the recovery
//!   cost is bounded by the failure-detection delay rather than a restart.
//! * [`directory_failover_demo`] — the metadata-plane counterpart: the *directory
//!   primary* of the broadcast object is killed mid-broadcast; the shard's backup is
//!   promoted and must hold every object-location record (the directory is
//!   replicated, §3.5), so the broadcast completes and nothing is forgotten.
//! * [`serving_failure_timeline`] / [`async_sgd_failure_timeline`] — per-query /
//!   per-iteration latency traces around a worker failure and rejoin, the format of
//!   Figure 12.

use hoplite_baselines::Baseline;
use hoplite_cluster::scenarios::{
    directory_failover_broadcast, rolling_restart_collectives, ScenarioEnv,
};
use hoplite_cluster::sim_cluster::SimCluster;
use hoplite_core::prelude::*;
use hoplite_simnet::prelude::SimTime;

use crate::comm::{CommProvider, CommSystem};
use crate::params::*;

/// Result of the protocol-level broadcast failover experiment.
#[derive(Clone, Debug)]
pub struct FailoverResult {
    /// Broadcast latency with no failure, seconds.
    pub baseline_s: f64,
    /// Broadcast latency when one intermediate receiver fails mid-transfer, seconds.
    pub with_failure_s: f64,
    /// Number of receivers that completed despite the failure.
    pub completed_receivers: usize,
    /// Number of sender failovers performed by the surviving receivers.
    pub failovers: u64,
}

/// Kill one broadcast receiver mid-transfer and check that everyone else still gets the
/// object. `n` is the cluster size (sender + n-1 receivers), `size` the object size.
pub fn broadcast_failover_demo(n: usize, size: u64, fail_at_s: f64) -> FailoverResult {
    let run = |inject: bool| -> (f64, usize, u64) {
        let env = ScenarioEnv::paper_testbed();
        let mut cluster = SimCluster::new(n, env.hoplite.clone(), env.network.clone());
        let object = ObjectId::from_name("failover-model");
        cluster.submit_at(
            SimTime::ZERO,
            0,
            ClientOp::Put { object, payload: Payload::synthetic(size) },
        );
        let start = 1.0;
        let gets: Vec<_> = (1..n)
            .map(|node| {
                cluster.submit_at(SimTime::from_secs_f64(start), node, ClientOp::Get { object })
            })
            .collect();
        if inject {
            // Node 1 is the first receiver and therefore an intermediate sender for the
            // broadcast chain; killing it forces downstream receivers to fail over.
            cluster.fail_node_at(SimTime::from_secs_f64(start + fail_at_s), 1);
        }
        cluster.run();
        let survivors: Vec<_> = if inject { gets[1..].to_vec() } else { gets.clone() };
        let done: Vec<f64> = survivors
            .iter()
            .filter_map(|&h| cluster.done_time(h))
            .map(|t| t.as_secs_f64() - start)
            .collect();
        let failovers = cluster.total_metrics().broadcast_failovers;
        (done.iter().cloned().fold(0.0, f64::max), done.len(), failovers)
    };
    let (baseline_s, _, _) = run(false);
    let (with_failure_s, completed_receivers, failovers) = run(true);
    FailoverResult { baseline_s, with_failure_s, completed_receivers, failovers }
}

/// Result of the directory-primary failover experiment.
#[derive(Clone, Debug)]
pub struct DirectoryFailoverResult {
    /// Broadcast latency with the directory primary killed mid-broadcast, seconds.
    pub with_failure_s: f64,
    /// Receivers that completed despite the metadata-plane failure.
    pub completed_receivers: usize,
    /// `true` when the promoted backup holds a location record for the source and
    /// every receiver — i.e. zero object-location records were lost.
    pub metadata_intact: bool,
    /// Outstanding location queries re-issued at the promoted backup.
    pub directory_failovers: u64,
}

/// Kill the directory primary of the broadcast object mid-broadcast and check that
/// the replicated directory keeps both the data plane and the metadata intact. The
/// last node is dedicated to hosting the shard primary (no object data), so the kill
/// isolates the metadata plane.
pub fn directory_failover_demo(n: usize, size: u64, fail_at_s: f64) -> DirectoryFailoverResult {
    let env = ScenarioEnv::paper_testbed();
    let r = directory_failover_broadcast(&env, n, size, fail_at_s);
    // Expected holders: the source (node 0) plus the n-2 receivers (nodes 1..n-1).
    let metadata_intact =
        (0..(n - 1) as u32).all(|id| r.locations_at_new_primary.iter().any(|h| h.0 == id));
    DirectoryFailoverResult {
        with_failure_s: r.latency_s,
        completed_receivers: r.completed_receivers,
        metadata_intact,
        directory_failovers: r.directory_failovers,
    }
}

/// Result of the rolling-restart experiment.
#[derive(Clone, Debug)]
pub struct RollingRestartDemo {
    /// Cluster size.
    pub n: usize,
    /// Whether every live-traffic wave, re-fetch, and the mid-sequence reduce
    /// completed across the full kill/restart sweep.
    pub all_traffic_completed: bool,
    /// Whether the long-lived object's location records were all present at its
    /// shard's final primary (zero lost records).
    pub metadata_intact: bool,
    /// Shards led again by their original, killed-and-restarted owner at the end.
    pub primaries_restored: usize,
    /// Directory snapshots installed by restarted replicas across the run.
    pub resyncs: u64,
}

/// Kill and restart every node in sequence under live broadcast/reduce traffic: the
/// rolling-restart availability story (§3.5 completed with resync + acked-log). A
/// restarted node rejoins its directory replica sets via state transfer and serves
/// as a shard primary again once the interim primary retires.
pub fn rolling_restart_demo(n: usize, size: u64) -> RollingRestartDemo {
    let env = ScenarioEnv::paper_testbed();
    let r = rolling_restart_collectives(&env, n, size, 3.0);
    let expected: Vec<NodeId> = (0..n as u32).map(NodeId).collect();
    RollingRestartDemo {
        n,
        all_traffic_completed: r.waves_completed == r.waves_expected
            && r.refetches_completed == n
            && r.reduce_ok,
        metadata_intact: r.holders == expected,
        primaries_restored: r.primaries_restored,
        resyncs: r.resyncs,
    }
}

/// One point in a Figure-12 style latency timeline.
#[derive(Clone, Debug, PartialEq)]
pub struct TimelinePoint {
    /// Query or iteration index.
    pub index: usize,
    /// Latency in seconds.
    pub latency_s: f64,
    /// Annotation: `"failure"`, `"rejoin"`, or empty.
    pub event: &'static str,
}

/// `steps` queries or iterations around one worker failure at `fail_at` and its
/// rejoin at `rejoin_at`: the step that observes the failure pays the detection delay
/// on top of `normal` before the schedule adapts, the steps until the rejoin take
/// `degraded`, and the rest `normal`.
fn failure_timeline(
    system: CommSystem,
    steps: usize,
    fail_at: usize,
    rejoin_at: usize,
    normal: f64,
    degraded: f64,
) -> Vec<TimelinePoint> {
    let detection = match system {
        CommSystem::Hoplite => HOPLITE_FAILURE_DETECTION_S,
        _ => RAY_FAILURE_DETECTION_S,
    };
    (0..steps)
        .map(|i| {
            let (latency_s, event) = if i == fail_at {
                (normal + detection, "failure")
            } else if i > fail_at && i < rejoin_at {
                (degraded, "")
            } else if i == rejoin_at {
                (normal, "rejoin")
            } else {
                (normal, "")
            };
            TimelinePoint { index: i, latency_s, event }
        })
        .collect()
}

/// Per-query serving latency around a worker failure and rejoin (Figure 12a): `queries`
/// requests against an `nodes`-replica ensemble; the replica fails at `fail_at` and
/// rejoins at `rejoin_at`.
pub fn serving_failure_timeline(
    system: CommSystem,
    nodes: usize,
    queries: usize,
    fail_at: usize,
    rejoin_at: usize,
) -> Vec<TimelinePoint> {
    let comm = CommProvider::new(system);
    let query_latency = |replicas: usize| {
        comm.broadcast(replicas, SERVING_QUERY_BYTES)
            + SERVING_INFERENCE_S
            + comm.gather(replicas, SERVING_RESULT_BYTES)
            + SERVING_OVERHEAD_S
    };
    let (normal, degraded) = (query_latency(nodes), query_latency(nodes - 1));
    failure_timeline(system, queries, fail_at, rejoin_at, normal, degraded)
}

/// Per-iteration async-SGD latency around a worker failure and rejoin (Figure 12b).
pub fn async_sgd_failure_timeline(
    system: CommSystem,
    workers: usize,
    iterations: usize,
    fail_at: usize,
    rejoin_at: usize,
    model: ModelSpec,
) -> Vec<TimelinePoint> {
    let comm = CommProvider::new(system);
    // The parameter server still waits for the same half-batch of gradients each
    // iteration; with fewer live workers the same number of gradients takes
    // proportionally longer to produce, which is why iteration latency rises during
    // the recovery window (§5.5).
    let half = (workers / 2).max(1);
    let group = half + 1;
    let iteration_latency = |active_workers: usize| {
        let compute_stretch = workers as f64 / active_workers.max(1) as f64;
        SGD_BATCH_PER_WORKER as f64 * model.compute_per_sample_s * compute_stretch
            + comm.reduce(group, model.size_bytes)
            + comm.broadcast(group, model.size_bytes)
    };
    let (normal, degraded) = (iteration_latency(workers), iteration_latency(workers - 1));
    failure_timeline(system, iterations, fail_at, rejoin_at, normal, degraded)
}

/// The comparison shown in Figure 12: Ray vs Ray+Hoplite.
pub fn figure12_systems() -> Vec<CommSystem> {
    vec![CommSystem::Baseline(Baseline::RayLike), CommSystem::Hoplite]
}

#[cfg(test)]
mod tests {
    use super::*;

    const MB: u64 = 1024 * 1024;

    #[test]
    fn broadcast_failover_completes_for_survivors() {
        let r = broadcast_failover_demo(8, 256 * MB, 0.05);
        assert_eq!(r.completed_receivers, 6, "all surviving receivers finish");
        assert!(r.failovers >= 1, "at least one receiver had to fail over");
        assert!(r.with_failure_s > r.baseline_s, "failure costs something");
        // Recovery is bounded by the detection delay plus a re-fetch of the remaining
        // bytes — nowhere near a full restart of the broadcast.
        assert!(
            r.with_failure_s < r.baseline_s + 1.5,
            "failure overhead too large: {} vs {}",
            r.with_failure_s,
            r.baseline_s
        );
    }

    #[test]
    fn directory_failover_keeps_metadata_and_completions() {
        let r = directory_failover_demo(8, 512 * MB, 0.05);
        assert_eq!(r.completed_receivers, 6, "all receivers finish");
        assert!(r.metadata_intact, "promoted backup lost location records");
        assert!(r.directory_failovers >= 1, "the late receiver re-drove its query");
    }

    #[test]
    fn rolling_restart_demo_survives_the_full_sweep() {
        let r = rolling_restart_demo(6, 8 * MB);
        assert!(r.all_traffic_completed, "waves, re-fetches and the reduce all completed");
        assert!(r.metadata_intact, "zero lost location records");
        assert!(r.primaries_restored >= r.n - 1, "original owners lead their shards again");
        assert!(r.resyncs >= r.n as u64, "every restart went through snapshot resync");
    }

    #[test]
    fn serving_timeline_shows_spike_then_recovery() {
        let t = serving_failure_timeline(CommSystem::Hoplite, 8, 70, 20, 45);
        assert_eq!(t.len(), 70);
        let normal = t[5].latency_s;
        assert!(t[20].latency_s > normal + 0.5, "detection spike present");
        assert_eq!(t[20].event, "failure");
        assert_eq!(t[45].event, "rejoin");
        // Hoplite's degraded-mode latency is close to normal (efficient broadcast),
        // unlike Ray whose latency visibly drops because it fans out to one fewer
        // replica.
        assert!((t[30].latency_s - normal).abs() < 0.10 * normal);
        let ray = serving_failure_timeline(CommSystem::Baseline(Baseline::RayLike), 8, 70, 20, 45);
        assert!(ray[30].latency_s < ray[5].latency_s, "Ray latency drops with one fewer replica");
    }

    #[test]
    fn sgd_timeline_latency_rises_during_recovery_window() {
        let t = async_sgd_failure_timeline(CommSystem::Hoplite, 6, 30, 10, 20, RESNET50);
        let normal = t[5].latency_s;
        assert!(t[10].latency_s > normal + 0.5);
        assert!(t[15].latency_s > normal, "recovery window is slower");
        assert!((t[25].latency_s - normal).abs() < 1e-9, "back to normal after rejoin");
    }
}
