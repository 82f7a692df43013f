//! A simulated Hoplite deployment: `n` object-store nodes on the discrete-event
//! network, with helpers for submitting client operations at chosen times and reading
//! back completion timestamps.

use hoplite_core::prelude::*;
use hoplite_simnet::prelude::*;

use crate::actor::{Completion, HopliteActor};

/// Handle for a submitted client operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct OpHandle {
    /// Node the operation was submitted on.
    pub node: usize,
    /// Operation id on that node.
    pub op: OpId,
}

/// A cluster of Hoplite nodes running on the simulator.
pub struct SimCluster {
    sim: Simulation<HopliteActor>,
    next_op: u64,
}

impl SimCluster {
    /// Build a simulated cluster of `n` nodes. Payloads are synthetic (length-only) and
    /// `Put`s model the pipelined worker→store copy, exactly as the paper's evaluation
    /// environment would behave.
    pub fn new(n: usize, cfg: HopliteConfig, net: NetworkConfig) -> Self {
        let cluster = ClusterView::of_size(n);
        let opts = NodeOptions { synthetic_data: true, pipelined_put: true, incarnation: 0 };
        let actors = cluster
            .nodes
            .iter()
            .map(|&id| HopliteActor::new(id, cfg.clone(), cluster.clone(), opts.clone()))
            .collect();
        SimCluster { sim: Simulation::new(net, actors), next_op: 1 }
    }

    /// Build a cluster with the paper's testbed parameters.
    pub fn paper_testbed(n: usize) -> Self {
        SimCluster::new(n, HopliteConfig::paper_testbed(), NetworkConfig::paper_testbed())
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.sim.len()
    }

    /// `true` for an empty cluster.
    pub fn is_empty(&self) -> bool {
        self.sim.is_empty()
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.sim.now()
    }

    /// Submit a client operation to `node` at simulated time `at`.
    pub fn submit_at(&mut self, at: SimTime, node: usize, op: ClientOp) -> OpHandle {
        let op_id = OpId(self.next_op);
        self.next_op += 1;
        self.sim.call_at(at, node, move |actor, ctx| actor.submit(op_id, op, ctx));
        OpHandle { node, op: op_id }
    }

    /// Schedule a node failure.
    pub fn fail_node_at(&mut self, at: SimTime, node: usize) {
        self.sim.fail_node_at(at, node);
    }

    /// Schedule a node restart: the node comes back as a fresh process (empty store,
    /// empty directory replicas) and immediately begins directory recovery — snapshot
    /// requests, log catch-up, and the `DirResynced` re-admission announcement.
    pub fn restart_node_at(&mut self, at: SimTime, node: usize) {
        self.sim.recover_node_at(at, node);
    }

    /// Schedule a transient network partition between `from` and `until`: `side[i]`
    /// assigns node `i` to one half. Cross-cut messages stall until the heal (TCP
    /// retransmits across the cut); no message is lost.
    pub fn partition_between(&mut self, from: SimTime, until: SimTime, side: Vec<bool>) {
        self.sim.partition_between(from, until, side);
    }

    /// Schedule a straggler window: `node`'s NIC drains `factor`× slower between
    /// `from` and `until`.
    pub fn slow_node_between(&mut self, node: usize, from: SimTime, until: SimTime, factor: f64) {
        self.sim.slow_node_between(node, from, until, factor);
    }

    /// Whether a node is currently alive.
    pub fn is_alive(&self, node: usize) -> bool {
        self.sim.is_alive(node)
    }

    /// Run until no events remain; returns the final simulated time.
    pub fn run(&mut self) -> SimTime {
        self.sim.run_to_completion()
    }

    /// Run until no events remain or `deadline` passes.
    pub fn run_until(&mut self, deadline: SimTime) -> SimTime {
        self.sim.run_until_idle(deadline)
    }

    /// All completions recorded for a handle.
    pub fn completions(&self, handle: OpHandle) -> &[Completion] {
        self.sim.actor(handle.node).completions(handle.op)
    }

    /// Time of the first completion matching `pred`, if any.
    pub fn completion_time_where<F>(&self, handle: OpHandle, pred: F) -> Option<SimTime>
    where
        F: Fn(&ClientReply) -> bool,
    {
        self.completions(handle).iter().find(|c| pred(&c.reply)).map(|c| c.at)
    }

    /// Time at which a `Get` finished (or a `Put` completed, etc.): the first
    /// non-error completion.
    pub fn done_time(&self, handle: OpHandle) -> Option<SimTime> {
        self.completion_time_where(handle, |r| !matches!(r, ClientReply::Error { .. }))
    }

    /// `true` if any completion for the handle was an error.
    pub fn failed(&self, handle: OpHandle) -> bool {
        self.completions(handle).iter().any(|c| matches!(c.reply, ClientReply::Error { .. }))
    }

    /// Aggregated metrics over every node.
    pub fn total_metrics(&self) -> NodeMetrics {
        let mut total = NodeMetrics::default();
        for i in 0..self.sim.len() {
            total.merge(self.sim.actor(i).node().metrics());
        }
        total
    }

    /// The node hosted at `node` (its liveness table, its resync state).
    pub fn node(&self, node: usize) -> &ObjectStoreNode {
        self.sim.actor(node).node()
    }

    /// Metrics of a single node.
    pub fn node_metrics(&self, node: usize) -> NodeMetrics {
        self.sim.actor(node).node().metrics().clone()
    }

    /// Whether `node` currently holds a complete copy of `object`.
    pub fn node_has_complete(&self, node: usize, object: ObjectId) -> bool {
        self.sim.actor(node).node().has_complete(object)
    }

    /// Object locations recorded in `node`'s replica of `object`'s directory shard
    /// (`None` when that node hosts no replica of the shard). Failover scenarios use
    /// this to assert zero metadata loss across a primary kill.
    pub fn directory_locations(&self, node: usize, object: ObjectId) -> Option<Vec<NodeId>> {
        self.sim
            .actor(node)
            .node()
            .directory_locations(object)
            .map(|locs| locs.into_iter().map(|(n, _)| n).collect())
    }

    /// The node that `viewer` currently believes is the primary of `object`'s
    /// directory shard.
    pub fn directory_primary(&self, viewer: usize, object: ObjectId) -> Option<NodeId> {
        self.sim.actor(viewer).node().directory_primary_for(object)
    }

    /// Simulator statistics (message/byte counts).
    pub fn sim_stats(&self) -> &SimStats {
        self.sim.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MB: u64 = 1024 * 1024;

    #[test]
    fn put_get_on_sim_cluster() {
        let mut cluster = SimCluster::paper_testbed(4);
        let object = ObjectId::from_name("x");
        let put = cluster.submit_at(
            SimTime::ZERO,
            0,
            ClientOp::Put { object, payload: Payload::synthetic(64 * MB) },
        );
        let get = cluster.submit_at(SimTime::from_secs_f64(0.5), 3, ClientOp::Get { object });
        cluster.run();
        let put_done = cluster.done_time(put).expect("put completed");
        let get_done = cluster.done_time(get).expect("get completed");
        assert!(put_done < get_done);
        // 64 MB at 10 Gbps is ~51 ms of wire time; the get should take roughly that
        // (plus latency), not multiples of it.
        let transfer = get_done.as_secs_f64() - 0.5;
        assert!(transfer > 0.045 && transfer < 0.2, "transfer = {transfer}");
        assert!(cluster.node_has_complete(3, object));
    }

    #[test]
    fn broadcast_scales_better_than_naive_sender_fanout() {
        // 8 receivers × 64 MB: receiver-driven broadcast must beat 8 × S/B at the
        // sender, because receivers chain off each other.
        let mut cluster = SimCluster::paper_testbed(9);
        let object = ObjectId::from_name("model");
        cluster.submit_at(
            SimTime::ZERO,
            0,
            ClientOp::Put { object, payload: Payload::synthetic(64 * MB) },
        );
        let start = SimTime::from_secs_f64(0.5);
        let gets: Vec<OpHandle> =
            (1..9).map(|node| cluster.submit_at(start, node, ClientOp::Get { object })).collect();
        cluster.run();
        let last =
            gets.iter().map(|&h| cluster.done_time(h).expect("get completed")).max().unwrap();
        let elapsed = last.as_secs_f64() - 0.5;
        let naive = 8.0 * 64.0 * 1024.0 * 1024.0 / 1.25e9;
        assert!(
            elapsed < naive * 0.6,
            "broadcast took {elapsed:.3}s, naive sender fan-out would take {naive:.3}s"
        );
    }

    #[test]
    fn reduce_on_sim_cluster_completes() {
        let n = 8;
        let mut cluster = SimCluster::paper_testbed(n);
        let sources: Vec<ObjectId> =
            (0..n).map(|i| ObjectId::from_name(&format!("g{i}"))).collect();
        for (i, &src) in sources.iter().enumerate() {
            cluster.submit_at(
                SimTime::ZERO,
                i,
                ClientOp::Put { object: src, payload: Payload::synthetic(32 * MB) },
            );
        }
        let target = ObjectId::from_name("sum");
        let start = SimTime::from_secs_f64(0.5);
        cluster.submit_at(
            start,
            0,
            ClientOp::Reduce {
                target,
                sources,
                num_objects: None,
                spec: ReduceSpec::sum_f32(),
                degree: None,
            },
        );
        let get = cluster.submit_at(start, 0, ClientOp::Get { object: target });
        cluster.run();
        let done = cluster.done_time(get).expect("reduce result fetched");
        let elapsed = done.as_secs_f64() - 0.5;
        // Naive: everyone sends to node 0 → 8·S/B ≈ 0.21 s. The tree reduce should be
        // well under that; allow generous slack for latency terms.
        assert!(elapsed < 0.15, "reduce took {elapsed:.3}s");
    }

    /// Six 64 MiB sources on nodes 1–6 (1 MiB blocks), then a reduce of them at `degree`
    /// and a Get of its result, both submitted at node 0 at 0.5 s. With
    /// `kill = Some((node, share))`, `node` dies `share` of the failure-free reduce time
    /// in, and its source is put again on node 7 one second after the death. Returns
    /// the cluster, run to the end, and the Get.
    fn reduce_behind_a_get(degree: usize, kill: Option<(usize, f64)>) -> (SimCluster, OpHandle) {
        let start = SimTime::from_secs_f64(0.5);
        let killed_at = kill.map(|(node, share)| {
            let (cluster, get) = reduce_behind_a_get(degree, None);
            let took = cluster.done_time(get).expect("failure-free reduce") - start;
            (node, start + SimDuration::from_secs_f64(share * took.as_secs_f64()))
        });
        let cfg = HopliteConfig { block_size: MB, ..HopliteConfig::paper_testbed() };
        let mut cluster = SimCluster::new(8, cfg, NetworkConfig::paper_testbed());
        let sources: Vec<ObjectId> =
            (1..=6).map(|i| ObjectId::from_name(&format!("d17-src-{i}"))).collect();
        let put = |i: usize| ClientOp::Put {
            object: sources[i - 1],
            payload: Payload::synthetic(64 * MB),
        };
        for node in 1..=6 {
            cluster.submit_at(SimTime::ZERO, node, put(node));
        }
        let target = ObjectId::from_name("d17-sum");
        let (spec, degree) = (ReduceSpec::sum_f32(), Some(degree));
        let reduce =
            ClientOp::Reduce { target, sources: sources.clone(), num_objects: None, spec, degree };
        cluster.submit_at(start, 0, reduce);
        let get = cluster.submit_at(start, 0, ClientOp::Get { object: target });
        if let Some((node, at)) = killed_at {
            cluster.fail_node_at(at, node);
            cluster.submit_at(at + SimDuration::from_secs(1), 7, put(node));
        }
        cluster.run();
        (cluster, get)
    }

    /// A Get chained behind a reduce root completes after a repair resets that root.
    /// The reset root aborts its pullers; the Get drops it as its source but does not
    /// exclude it: it is alive, and the result's only holder once it refills.
    #[test]
    fn a_get_behind_a_reduce_root_completes_after_a_repair_resets_the_root() {
        for (degree, victim, share) in [(1, 2, 0.3), (1, 5, 0.6), (2, 2, 0.6), (2, 6, 0.3)] {
            let (cluster, get) = reduce_behind_a_get(degree, Some((victim, share)));
            let case = format!("degree {degree}, node {victim} killed {share} in");
            assert!(cluster.done_time(get).is_some(), "{case}: the Get never completed");
            assert!(!cluster.failed(get), "{case}");
            assert!(cluster.node_has_complete(0, ObjectId::from_name("d17-sum")), "{case}");
        }
    }

    /// A node restarted inside the detection delay (0.74 s) is not killed by the late
    /// verdict about the process that died: the verdict names incarnation 0, the
    /// survivors already hold incarnation 1, and drop it as stale. So when node 1, the
    /// other replica of shard 1, dies later, the survivors route shard 1 to node 2.
    #[test]
    fn a_late_failure_verdict_spares_a_node_restarted_inside_the_detection_delay() {
        let shard_1 = (0..)
            .map(|i| ObjectId::from_name(&format!("shard-1-probe-{i}")))
            .find(|&o| ClusterView::of_size(4).shard_node(o) == NodeId(1))
            .unwrap();
        for restart_after_s in [0.1, 0.3, 0.6] {
            let mut cluster = SimCluster::paper_testbed(4);
            cluster.fail_node_at(SimTime::from_secs_f64(1.0), 2);
            cluster.restart_node_at(SimTime::from_secs_f64(1.0 + restart_after_s), 2);
            cluster.fail_node_at(SimTime::from_secs_f64(10.0), 1);
            cluster.run();
            for viewer in [0, 3] {
                assert_eq!(
                    cluster.directory_primary(viewer, shard_1),
                    Some(NodeId(2)),
                    "node {viewer}, node 2 restarted {restart_after_s} s after its death"
                );
            }
        }
    }
}
