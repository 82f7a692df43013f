//! A real (threaded) Hoplite deployment: one event-loop thread per node, connected by
//! an in-process channel fabric or by localhost TCP, moving real bytes.
//!
//! `LocalCluster` is what the examples, the task framework and the data-plane
//! correctness tests use. It exposes a blocking client API
//! ([`HopliteClient`](crate::host::HopliteClient)) with the paper's four calls:
//! `Put`, `Get`, `Reduce`, `Delete` (Table 1).
//!
//! Each node runs inside a [`NodeHost`](crate::host::NodeHost) — the same event loop
//! a `hoplited` daemon uses for its single node — driving the shared
//! [`NodeRuntime`](crate::driver::NodeRuntime) over a unified event queue.

use std::sync::atomic::AtomicU64;
use std::sync::Arc;

use crossbeam_channel::Receiver;
use hoplite_core::prelude::*;
use hoplite_transport::fabric::{ChannelFabric, Fabric, FabricSender};
use hoplite_transport::tcp::TcpFabric;

use crate::host::{HopliteClient, NodeHost, NodeStatus};

/// Object-safe view of a [`Fabric`], so [`LocalCluster`] can keep it around for node
/// restarts without being generic over the fabric type.
trait ClusterFabric: Send {
    fn take_receiver(&mut self, node: NodeId) -> Receiver<(NodeId, Message)>;
    fn reset_receiver(&mut self, node: NodeId) -> Option<Receiver<(NodeId, Message)>>;
    fn note_restart(&mut self, node: NodeId, incarnation: u64);
    fn dyn_sender(&self) -> Box<dyn FabricSender>;
    fn transport_metrics(&self) -> NodeMetrics;
}

impl<F: Fabric + Send> ClusterFabric for F {
    fn take_receiver(&mut self, node: NodeId) -> Receiver<(NodeId, Message)> {
        Fabric::take_receiver(self, node)
    }
    fn reset_receiver(&mut self, node: NodeId) -> Option<Receiver<(NodeId, Message)>> {
        Fabric::reset_receiver(self, node)
    }
    fn note_restart(&mut self, node: NodeId, incarnation: u64) {
        Fabric::note_restart(self, node, incarnation)
    }
    fn dyn_sender(&self) -> Box<dyn FabricSender> {
        Box::new(self.sender())
    }
    fn transport_metrics(&self) -> NodeMetrics {
        Fabric::transport_metrics(self)
    }
}

/// A Hoplite cluster running on OS threads in this process, moving real bytes.
pub struct LocalCluster {
    nodes: Vec<NodeHost>,
    incarnations: Vec<u64>,
    next_op: Arc<AtomicU64>,
    cfg: HopliteConfig,
    cluster_view: ClusterView,
    fabric: Box<dyn ClusterFabric>,
}

/// Which fabric a [`LocalCluster`] should use.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LocalFabric {
    /// In-process crossbeam channels (fast, no sockets).
    Channels,
    /// Localhost TCP with framed messages (exercises the real wire format).
    Tcp,
}

impl LocalCluster {
    /// Start `n` nodes over in-process channels with the given configuration.
    pub fn new(n: usize, cfg: HopliteConfig) -> Self {
        Self::with_fabric(n, cfg, LocalFabric::Channels)
    }

    /// Start `n` nodes over the chosen fabric.
    pub fn with_fabric(n: usize, cfg: HopliteConfig, fabric: LocalFabric) -> Self {
        match fabric {
            LocalFabric::Channels => Self::start(n, cfg, ChannelFabric::new(n)),
            LocalFabric::Tcp => {
                Self::start(n, cfg, TcpFabric::new(n).expect("bind localhost listeners"))
            }
        }
    }

    fn start<F: Fabric + Send + 'static>(n: usize, cfg: HopliteConfig, fabric: F) -> Self {
        let cluster_view = ClusterView::of_size(n);
        let next_op = Arc::new(AtomicU64::new(1));
        let mut cluster = LocalCluster {
            nodes: Vec::with_capacity(n),
            incarnations: vec![0; n],
            next_op,
            cfg,
            cluster_view: cluster_view.clone(),
            fabric: Box::new(fabric),
        };
        for id in cluster_view.nodes {
            let rx_fabric = cluster.fabric.take_receiver(id);
            let host = cluster.spawn_node(id, rx_fabric, false);
            cluster.nodes.push(host);
        }
        cluster
    }

    /// Spawn the host for one node. `recovering` selects whether the node starts cold
    /// or as a restarted process that must resync its directory replicas before
    /// leading again.
    fn spawn_node(
        &self,
        id: NodeId,
        rx_fabric: Receiver<(NodeId, Message)>,
        recovering: bool,
    ) -> NodeHost {
        let node = ObjectStoreNode::new(
            id,
            self.cfg.clone(),
            self.cluster_view.clone(),
            NodeOptions {
                synthetic_data: false,
                pipelined_put: false,
                incarnation: self.incarnations[id.index()],
            },
        );
        NodeHost::spawn(node, rx_fabric, self.fabric.dyn_sender(), recovering, self.next_op.clone())
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` for an empty cluster.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Cluster-wide transport counters (`recv_slab_reuse`, `corked_frames_per_write`),
    /// read live from the fabric. Zeros over the channels fabric — messages move by
    /// ownership there, so there are no receive slabs and nothing to cork.
    pub fn transport_metrics(&self) -> NodeMetrics {
        self.fabric.transport_metrics()
    }

    /// A blocking client bound to `node`.
    pub fn client(&self, node: usize) -> HopliteClient {
        self.nodes[node].client()
    }

    /// A status snapshot of `node` (incarnation, resync state, counters), answered
    /// by its event loop. `None` for a killed node.
    pub fn status(&self, node: usize) -> Option<NodeStatus> {
        self.nodes[node].status()
    }

    /// Kill a node's event loop and notify every other node, as a real failure detector
    /// (socket liveness in the paper, §5.5) eventually would.
    pub fn kill_node(&mut self, node: usize) {
        self.nodes[node].shutdown();
        for (i, other) in self.nodes.iter().enumerate() {
            if i != node {
                other.notify_peer_failed(NodeId(node as u32));
            }
        }
    }

    /// Restart a previously-killed node as a fresh process at the next incarnation:
    /// a new event loop over a new fabric queue, an empty store, and empty directory
    /// replicas. The node immediately begins directory recovery (snapshot requests +
    /// log catch-up) and announces `DirResynced` once caught up; every other node
    /// receives a recovery notice. Clients bound to the old incarnation error out —
    /// call [`LocalCluster::client`] again for a fresh handle.
    ///
    /// Works over both fabrics: the channels fabric swaps the node's queue, the TCP
    /// fabric additionally reroutes live connections to the new queue and advertises
    /// the new incarnation in future `Hello` greetings.
    ///
    /// Panics when the node was not killed first.
    pub fn restart_node(&mut self, node: usize) {
        assert!(!self.nodes[node].is_running(), "restart_node requires a killed node");
        let id = NodeId(node as u32);
        self.incarnations[node] += 1;
        self.fabric.note_restart(id, self.incarnations[node]);
        let rx_fabric =
            self.fabric.reset_receiver(id).expect("this fabric does not support node restarts");
        self.nodes[node] = self.spawn_node(id, rx_fabric, true);
        for (i, other) in self.nodes.iter().enumerate() {
            if i != node {
                other.notify_peer_recovered(id);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_get_roundtrip_over_channels() {
        let cluster = LocalCluster::new(3, HopliteConfig::small_for_tests());
        let obj = ObjectId::from_name("local-x");
        let data: Vec<u8> = (0..9000u32).map(|i| (i % 251) as u8).collect();
        cluster.client(0).put(obj, Payload::from_vec(data.clone())).unwrap();
        let got = cluster.client(2).get(obj).unwrap();
        assert_eq!(got, Payload::from_vec(data));
    }

    #[test]
    fn reduce_over_channels_produces_exact_sums() {
        let cluster = LocalCluster::new(4, HopliteConfig::small_for_tests());
        let sources: Vec<ObjectId> =
            (0..4).map(|i| ObjectId::from_name(&format!("lg{i}"))).collect();
        for (i, &src) in sources.iter().enumerate() {
            let values = vec![i as f32 + 1.0; 500];
            cluster.client(i).put(src, Payload::from_f32s(&values)).unwrap();
        }
        let target = ObjectId::from_name("lsum");
        let client = cluster.client(0);
        client.reduce(target, sources, None, ReduceSpec::sum_f32()).unwrap();
        let result = client.get(target).unwrap();
        for v in result.to_f32s() {
            assert!((v - 10.0).abs() < 1e-4, "1+2+3+4 = 10, got {v}");
        }
    }

    #[test]
    fn put_get_roundtrip_over_tcp() {
        let cluster =
            LocalCluster::with_fabric(2, HopliteConfig::small_for_tests(), LocalFabric::Tcp);
        let obj = ObjectId::from_name("tcp-x");
        let data: Vec<u8> = (0..30_000u32).map(|i| (i % 256) as u8).collect();
        cluster.client(0).put(obj, Payload::from_vec(data.clone())).unwrap();
        let got = cluster.client(1).get(obj).unwrap();
        assert_eq!(got, Payload::from_vec(data));
    }

    #[test]
    fn tcp_cluster_reports_transport_metrics() {
        // The transport counters surface through the cluster facade: bulk traffic
        // over the TCP fabric recycles receive slabs (`recv_slab_reuse`). Each round
        // deletes its object so the store drops its slab views and the reader's pool
        // can recycle the slab for the next round.
        let cluster =
            LocalCluster::with_fabric(2, HopliteConfig::small_for_tests(), LocalFabric::Tcp);
        for i in 0..8u32 {
            let obj = ObjectId::from_name(&format!("slab-{i}"));
            cluster.client(0).put(obj, Payload::zeros(2 * 1024 * 1024)).unwrap();
            let got = cluster.client(1).get(obj).unwrap();
            assert_eq!(got.len(), 2 * 1024 * 1024);
            drop(got);
            cluster.client(0).delete(obj).unwrap();
            // Deletion fans out asynchronously; the views must drop before the next
            // round's frames arrive for the pool to see the slab as free.
            std::thread::sleep(std::time::Duration::from_millis(100));
        }
        let metrics = cluster.transport_metrics();
        assert!(
            metrics.recv_slab_reuse > 0,
            "bulk TCP traffic should recycle receive slabs, got {}",
            metrics.recv_slab_reuse
        );
    }

    #[test]
    fn delete_then_get_errors() {
        let cluster = LocalCluster::new(3, HopliteConfig::small_for_tests());
        let obj = ObjectId::from_name("gone");
        cluster.client(0).put(obj, Payload::zeros(5000)).unwrap();
        cluster.client(0).delete(obj).unwrap();
        // Deletion fans out asynchronously (DirDelete → StoreRelease); give it a moment
        // to propagate, then a Get from a node that never held the object must fail
        // with `ObjectDeleted` instead of hanging.
        std::thread::sleep(std::time::Duration::from_millis(300));
        let err = cluster.client(2).get(obj);
        assert!(err.is_err(), "expected deleted-object error, got {err:?}");
    }

    #[test]
    fn kill_node_then_survivors_keep_working() {
        let mut cluster = LocalCluster::new(4, HopliteConfig::small_for_tests());
        let obj = ObjectId::from_name("pre-kill");
        cluster.client(0).put(obj, Payload::zeros(3000)).unwrap();
        cluster.kill_node(3);
        // The survivors still serve traffic through the shared runtime.
        let got = cluster.client(1).get(obj).unwrap();
        assert_eq!(got.len(), 3000);
    }

    #[test]
    fn rolling_restart_over_channels_preserves_data_and_metadata() {
        // Real-byte counterpart of the simulated rolling-restart scenario: every node
        // is killed and restarted in sequence with live traffic in each window. The
        // long-lived object stays fetchable throughout (its location records survive
        // each primary failover via the acked log), fresh objects created mid-window
        // resolve even when their shard primary is the dying node (unacked-window
        // re-drive), and each restarted node comes back as a working replica that
        // serves Gets again.
        let n = 4;
        let mut cluster = LocalCluster::new(n, HopliteConfig::small_for_tests());
        let w = ObjectId::from_name("rolling-local-w");
        let data: Vec<u8> = (0..20_000u32).map(|i| (i % 241) as u8).collect();
        cluster.client(0).put(w, Payload::from_vec(data.clone())).unwrap();
        for node in 1..n {
            assert_eq!(cluster.client(node).get(w).unwrap(), Payload::from_vec(data.clone()));
        }
        // Let the replication acks and confirms settle before the first kill.
        std::thread::sleep(std::time::Duration::from_millis(200));
        for k in 0..n {
            cluster.kill_node(k);
            std::thread::sleep(std::time::Duration::from_millis(100));
            // Live traffic while the node is down.
            let wk = ObjectId::from_name(&format!("rolling-local-{k}"));
            let wave: Vec<u8> = (0..8000u32).map(|i| ((i + k as u32) % 239) as u8).collect();
            cluster.client((k + 1) % n).put(wk, Payload::from_vec(wave.clone())).unwrap();
            let got = cluster.client((k + 2) % n).get(wk).unwrap();
            assert_eq!(got, Payload::from_vec(wave.clone()), "wave {k} served during the outage");
            cluster.restart_node(k);
            // Give the fresh node time to resync (snapshot + catch-up) and everyone
            // time to process the recovery notice and re-admission broadcast.
            std::thread::sleep(std::time::Duration::from_millis(300));
            // The restarted node serves traffic again, including re-fetching the
            // long-lived object it lost with its store.
            let refetched = cluster.client(k).get(w).unwrap();
            assert_eq!(refetched, Payload::from_vec(data.clone()), "restart {k} re-fetched W");
        }
        // After the full sweep every node answers for every object.
        for node in 0..n {
            assert_eq!(cluster.client(node).get(w).unwrap().len(), data.len() as u64);
        }
    }

    #[test]
    fn restart_over_tcp_rebinds_and_resyncs_at_a_new_incarnation() {
        // The TCP counterpart of the rolling restart, which used to panic: the fabric
        // now swaps the dead node's ingress queue, reroutes surviving connections,
        // and advertises the bumped incarnation. The restarted node must resync and
        // serve traffic again, and its status must show incarnation 1.
        let mut cluster =
            LocalCluster::with_fabric(3, HopliteConfig::small_for_tests(), LocalFabric::Tcp);
        let obj = ObjectId::from_name("tcp-restart-w");
        let data: Vec<u8> = (0..12_000u32).map(|i| (i % 249) as u8).collect();
        cluster.client(0).put(obj, Payload::from_vec(data.clone())).unwrap();
        std::thread::sleep(std::time::Duration::from_millis(200));

        cluster.kill_node(2);
        std::thread::sleep(std::time::Duration::from_millis(100));
        // Traffic during the outage still works.
        let mid = ObjectId::from_name("tcp-restart-mid");
        cluster.client(1).put(mid, Payload::zeros(4000)).unwrap();
        assert_eq!(cluster.client(0).get(mid).unwrap().len(), 4000);

        cluster.restart_node(2);
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        loop {
            let status = cluster.status(2).expect("restarted node answers status");
            if !status.resyncing {
                assert_eq!(status.incarnation, 1, "restart must bump the incarnation");
                break;
            }
            assert!(std::time::Instant::now() < deadline, "node 2 never finished resyncing");
            std::thread::sleep(std::time::Duration::from_millis(50));
        }
        std::thread::sleep(std::time::Duration::from_millis(200));
        let got = cluster.client(2).get(obj).unwrap();
        assert_eq!(got, Payload::from_vec(data), "restarted node re-fetched over TCP");
    }

    #[test]
    fn kill_directory_primary_then_get_still_resolves() {
        // Real-byte counterpart of the simulated directory-failover scenario: the
        // object's location record was replicated to the shard's backup before the
        // primary died, so a Get issued afterwards resolves through the promoted
        // backup instead of hanging.
        let mut cluster = LocalCluster::new(4, HopliteConfig::small_for_tests());
        let obj = (0u64..)
            .map(|k| ObjectId::from_name(&format!("dir-kill-{k}")))
            .find(|&o| ClusterView::of_size(4).shard_node(o).index() == 3)
            .unwrap();
        let data: Vec<u8> = (0..6000u32).map(|i| (i % 251) as u8).collect();
        cluster.client(1).put(obj, Payload::from_vec(data.clone())).unwrap();
        // Give the async log shipment a moment to reach the backup, then kill the
        // primary (node 3 holds no copy of the object itself).
        std::thread::sleep(std::time::Duration::from_millis(200));
        cluster.kill_node(3);
        std::thread::sleep(std::time::Duration::from_millis(200));
        let got = cluster.client(2).get(obj).unwrap();
        assert_eq!(got, Payload::from_vec(data));
    }
}
