//! A real (threaded) Hoplite deployment: every node hosted in this process, connected
//! by an in-process channel fabric or by localhost TCP, moving real bytes.
//!
//! `LocalCluster` is what the examples, the task framework and the data-plane
//! correctness tests use. It exposes a blocking client API
//! ([`HopliteClient`](crate::host::HopliteClient)) with the paper's four calls:
//! `Put`, `Get`, `Reduce`, `Delete` (Table 1).
//!
//! Each node lives in a [`NodeHost`](crate::host::NodeHost) — the same host a
//! `hoplited` daemon uses for its single node — which runs the shared
//! [`NodeRuntime`](crate::driver::NodeRuntime) on whichever thread delivers an event:
//! the calling client thread, a TCP reader thread, or the node's own timer thread.

use std::sync::atomic::AtomicU64;
use std::sync::Arc;

use hoplite_core::prelude::*;
use hoplite_transport::fabric::{ChannelFabric, Fabric, FabricSender, IngressSink};
use hoplite_transport::tcp::TcpFabric;

use crate::host::{HopliteClient, NodeHost, NodeStatus};

/// Object-safe view of a [`Fabric`], so [`LocalCluster`] can keep it around for node
/// restarts without being generic over the fabric type.
trait ClusterFabric: Send {
    fn attach(&mut self, node: NodeId, sink: IngressSink);
    fn note_restart(&mut self, node: NodeId, incarnation: u64);
    fn dyn_sender(&self) -> Box<dyn FabricSender>;
    fn transport_metrics(&self) -> NodeMetrics;
}

impl<F: Fabric + Send> ClusterFabric for F {
    fn attach(&mut self, node: NodeId, sink: IngressSink) {
        Fabric::attach(self, node, sink)
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
    /// The process's one pool of bulk memory: the TCP fabric's readers' and every
    /// node's. `None` over channels, where each node keeps a private one.
    pool: Option<SlabPool>,
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
            LocalFabric::Channels => Self::start(n, cfg, ChannelFabric::new(n), None),
            LocalFabric::Tcp => {
                let pool = SlabPool::for_block_size(cfg.block_size);
                let fabric = TcpFabric::new(n).expect("bind localhost listeners");
                Self::start(n, cfg, fabric.with_pool(pool.clone()), Some(pool))
            }
        }
    }

    fn start<F: Fabric + Send + 'static>(
        n: usize,
        cfg: HopliteConfig,
        fabric: F,
        pool: Option<SlabPool>,
    ) -> Self {
        let cluster_view = ClusterView::of_size(n);
        let next_op = Arc::new(AtomicU64::new(1));
        let mut cluster = LocalCluster {
            nodes: Vec::with_capacity(n),
            incarnations: vec![0; n],
            next_op,
            cfg,
            cluster_view: cluster_view.clone(),
            fabric: Box::new(fabric),
            pool,
        };
        for id in cluster_view.nodes {
            let host = cluster.spawn_node(id);
            cluster.nodes.push(host);
        }
        cluster
    }

    /// Spawn the host for one node at its recorded incarnation (above 0 for a restart)
    /// and make it the fabric's sink for that node (replacing a killed predecessor's).
    fn spawn_node(&mut self, id: NodeId) -> NodeHost {
        let node = ObjectStoreNode::new(
            id,
            self.cfg.clone(),
            self.cluster_view.clone(),
            NodeOptions {
                synthetic_data: false,
                pipelined_put: false,
                incarnation: self.incarnations[id.index()],
            },
        )
        .with_pool(self.pool.clone().unwrap_or_default());
        let (fabric_tx, next_op) = (self.fabric.dyn_sender(), self.next_op.clone());
        NodeHost::spawn(node, fabric_tx, next_op, |sink| self.fabric.attach(id, sink))
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

    /// A status snapshot of `node` (incarnation, resync state, counters). `None` for a
    /// killed node.
    pub fn status(&self, node: usize) -> Option<NodeStatus> {
        self.nodes[node].status()
    }

    /// Kill a node — its store and every other piece of its state are dropped before
    /// this returns — and send every other node a `PeerFailureNotice` naming the
    /// incarnation that died, as a real failure detector (socket liveness in the
    /// paper, §5.5) eventually would.
    pub fn kill_node(&mut self, node: usize) {
        if let Some(status) = self.nodes[node].status() {
            self.incarnations[node] = status.incarnation;
        }
        self.nodes[node].shutdown();
        let notice = Message::PeerFailureNotice {
            node: NodeId(node as u32),
            incarnation: self.incarnations[node],
        };
        for (i, other) in self.nodes.iter().enumerate() {
            if i != node {
                other.inject_message(other.id(), notice.clone());
            }
        }
    }

    /// Restart a previously-killed node as a fresh process at the incarnation after the
    /// one it died at:
    /// a new host attached to the fabric, an empty store, and empty directory
    /// replicas. The node immediately begins directory recovery (snapshot requests +
    /// log catch-up) and announces `DirResynced` once caught up; nobody announces its
    /// recovery, so the other nodes readmit it from that traffic (and, over TCP, its
    /// `Hello`). Clients bound to the old incarnation error out — call
    /// [`LocalCluster::client`] again for a fresh handle.
    ///
    /// Works over both fabrics: both swap the node's ingress sink (live TCP connections
    /// feed the new host from their next frame), and the TCP fabric advertises the new
    /// incarnation in future `Hello` greetings.
    ///
    /// Panics when the node was not killed first.
    pub fn restart_node(&mut self, node: usize) {
        assert!(!self.nodes[node].is_running(), "restart_node requires a killed node");
        let id = NodeId(node as u32);
        self.incarnations[node] += 1;
        self.fabric.note_restart(id, self.incarnations[node]);
        self.nodes[node] = self.spawn_node(id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host::tests::wait_until;
    use std::time::Instant;

    /// Wait until no listed node holds object bytes any more: every delete issued so
    /// far has reached its shard primary and fanned out to the holders.
    fn wait_until_stores_empty(cluster: &LocalCluster, nodes: &[usize]) {
        wait_until("deletes to land", || {
            nodes
                .iter()
                .all(|&n| cluster.status(n).is_some_and(|s| s.metrics.store_bytes_live == 0))
        });
    }

    /// Wait until every directory write a live node issued is confirmed replicated: its
    /// shard primary has applied it, and a primary killed next leaves backups that know
    /// it.
    fn wait_until_replicated(cluster: &LocalCluster) {
        wait_until("directory writes to replicate", || {
            (0..cluster.len()).filter_map(|n| cluster.status(n)).all(|s| s.unconfirmed == 0)
        });
    }

    /// Kill `node` and wait until every survivor has handled the verdict: a mailbox
    /// is FIFO, so a status answered after `kill_node` returns follows the verdict.
    fn kill_and_settle(cluster: &mut LocalCluster, node: usize) {
        cluster.kill_node(node);
        for survivor in (0..cluster.len()).filter(|&n| n != node) {
            cluster.status(survivor).expect("survivor answers");
        }
    }

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
            wait_until_stores_empty(&cluster, &[0, 1]);
        }
        let metrics = cluster.transport_metrics();
        assert!(
            metrics.recv_slab_reuse > 0,
            "bulk TCP traffic should recycle receive slabs, got {}",
            metrics.recv_slab_reuse
        );
    }

    #[test]
    fn a_second_reduce_round_rooted_elsewhere_lands_in_the_first_rounds_slabs() {
        // One pool per process: reduce → get-by-all → delete, then the same again with
        // the sources — and so the root, its accumulators and every receive — on the
        // other two nodes. Real sockets, 8 blocks of small_for_tests' 1 KiB.
        let cluster =
            LocalCluster::with_fabric(4, HopliteConfig::small_for_tests(), LocalFabric::Tcp);
        let pool = cluster.pool.clone().expect("a TCP cluster has the process's pool");
        // Delete `objects` and wait until only `pinned` slabs still have a view alive.
        // The deletes wait for every registration to land first: one that reaches the
        // shard after its delete revives the entry, and its holder keeps the bytes.
        let delete = |objects: &[ObjectId], pinned: usize| {
            wait_until_replicated(&cluster);
            objects.iter().for_each(|&object| cluster.client(0).delete(object).unwrap());
            wait_until_stores_empty(&cluster, &[0, 1, 2, 3]);
            wait_until("slabs to be let go", || pool.pinned_slabs() == pinned);
        };
        // Dial all twelve connections first, so that every round runs over sockets
        // that have carried blocks before.
        for (a, b) in [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)] {
            let object = ObjectId::from_name(&format!("dial-{a}-{b}"));
            cluster.client(a).put(object, Payload::zeros(2048)).unwrap();
            assert_eq!(cluster.client(b).get(object).unwrap().len(), 2048);
            delete(&[object], 0);
        }
        let len = 8 * 1024 / 4;
        let sent = |node: usize| cluster.status(node).unwrap().metrics.reduce_blocks_sent;
        for (round, holders) in [[0usize, 1], [2, 3]].into_iter().enumerate() {
            let before = holders.map(sent);
            let mut objects: Vec<ObjectId> =
                holders.iter().map(|n| ObjectId::from_name(&format!("pool-{round}-{n}"))).collect();
            for (&node, &source) in holders.iter().zip(&objects) {
                let values: Vec<f32> = (0..len).map(|j| (node + j) as f32).collect();
                cluster.client(node).put(source, Payload::from_f32s(&values)).unwrap();
            }
            let target = ObjectId::from_name(&format!("pool-{round}-sum"));
            let spec = ReduceSpec::sum_f32();
            cluster.client(holders[0]).reduce(target, objects.clone(), None, spec).unwrap();
            objects.push(target);
            let expected: Vec<f32> =
                (0..len).map(|j| (holders[0] + holders[1] + 2 * j) as f32).collect();
            let mut got: Vec<Payload> =
                (0..4).map(|node| cluster.client(node).get(target).unwrap()).collect();
            assert!(got.iter().all(|payload| payload.to_f32s() == expected));
            // The root — a different node each round — is the holder that streamed
            // nothing upward, and what its `get` returned is its 8 accumulators: slabs
            // of the process's pool, pinned for as long as the caller keeps them.
            let root = (0..2).find(|&i| sent(holders[i]) == before[i]).expect("a root");
            let result = got.swap_remove(holders[root]);
            drop(got);
            delete(&objects, 8);
            drop(result);
            assert_eq!(pool.pinned_slabs(), 0);
            // Everything is back, and all the pool ever held is what one round pins
            // at once — 8 accumulators and 3 × 8 received blocks: the second root's
            // accumulators came out of the first round's slabs.
            assert_eq!(pool.idle_slabs(), 8 + 3 * 8, "round {round}");
        }
    }

    #[test]
    fn every_broadcast_round_after_the_first_is_read_into_the_last_rounds_slabs() {
        // Twelve 8-block broadcasts over real sockets, the putter rotating so that each
        // round's relay chain runs over different connections, with a burst of inline
        // objects — control frames only — on every connection in between. A reader
        // holds a pool slab only while it reads a block frame into it, so from the
        // second round on every block received lands in a slab the previous delete
        // freed, and after each delete the pool holds exactly one round's blocks.
        let cluster =
            LocalCluster::with_fabric(4, HopliteConfig::small_for_tests(), LocalFabric::Tcp);
        let pool = cluster.pool.clone().expect("a TCP cluster has the process's pool");
        let block = HopliteConfig::small_for_tests().block_size;
        let received = || -> u64 {
            (0..4).map(|n| cluster.status(n).unwrap().metrics.data_bytes_received).sum()
        };
        for round in 0..12usize {
            for i in 0..16usize {
                let tiny = ObjectId::from_name(&format!("chatter-{round}-{i}"));
                cluster.client(i % 4).put(tiny, Payload::from_vec(vec![i as u8; 48])).unwrap();
                cluster.client(i % 4).delete(tiny).unwrap();
            }
            let (reuses, bytes) = (pool.reuses(), received());
            let putter = round % 4;
            let object = ObjectId::from_name(&format!("relay-{round}"));
            let data = Payload::from_vec(vec![round as u8 + 1; 8 * block as usize]);
            cluster.client(putter).put(object, data.clone()).unwrap();
            for step in 1..4 {
                assert_eq!(cluster.client((putter + step) % 4).get(object).unwrap(), data);
            }
            let blocks = (received() - bytes) / block;
            assert_eq!(blocks, 3 * 8, "round {round}: every receiver read each block once");
            if round > 0 {
                assert_eq!(pool.reuses() - reuses, blocks, "round {round}: one reuse per block");
            }
            // Delete once the receivers' registrations have landed: one that reaches
            // the shard after the delete revives the entry, and its holder keeps bytes.
            wait_until_replicated(&cluster);
            cluster.client(putter).delete(object).unwrap();
            wait_until_stores_empty(&cluster, &[0, 1, 2, 3]);
            wait_until("slabs to be let go", || pool.pinned_slabs() == 0);
            assert_eq!(pool.idle_slabs() as u64, blocks, "round {round}");
        }
    }

    #[test]
    fn delete_then_get_errors() {
        let cluster = LocalCluster::new(3, HopliteConfig::small_for_tests());
        let obj = ObjectId::from_name("gone");
        cluster.client(0).put(obj, Payload::zeros(5000)).unwrap();
        cluster.client(0).delete(obj).unwrap();
        // Deletion fans out asynchronously (DirDelete → StoreRelease); once the holder
        // has let go, the shard primary has recorded the delete, and a Get from a node
        // that never held the object must fail with `ObjectDeleted` instead of hanging.
        wait_until_stores_empty(&cluster, &[0]);
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
    fn kill_node_drops_the_store_while_tcp_connections_stay_open() {
        // Reader threads of the connections into a killed node outlive it and hold
        // its sink, so `kill_node` must drop the node's state itself, at once.
        let mut cluster = LocalCluster::with_fabric(2, HopliteConfig::default(), LocalFabric::Tcp);
        let slab = Arc::new(vec![7u8; 4 * 1024 * 1024]);
        let watch = Arc::downgrade(&slab);
        let len = slab.len();
        let big = ObjectId::from_name("kill-big");
        cluster.client(1).put(big, Payload::Bytes(bytes::Bytes::from_arc(slab, 0, len))).unwrap();
        assert_eq!(cluster.client(0).get(big).unwrap().len(), len as u64);
        // A second object over the same 1 → 0 edge: its writer thread cannot take this
        // block off its queue while it still holds one of the first object's.
        let next = ObjectId::from_name("kill-next");
        cluster.client(1).put(next, Payload::zeros(100_000)).unwrap();
        assert_eq!(cluster.client(0).get(next).unwrap().len(), 100_000);
        assert!(watch.upgrade().is_some(), "node 1's store holds the payload");
        let stale = cluster.client(1);
        cluster.kill_node(1);
        assert!(watch.upgrade().is_none(), "the killed node's store must be gone");
        assert!(cluster.status(1).is_none());
        assert!(stale.get(big).is_err(), "a client of the killed node errors, not hangs");
    }

    #[test]
    fn clients_and_peers_share_one_tcp_node_without_stalling() {
        // Four client threads hammer put/get/delete on node 0 while it also fetches a
        // stream of objects from two peers: client threads, reader threads and the
        // node thread all run node 0, and every call must come back.
        let cluster = LocalCluster::with_fabric(3, HopliteConfig::default(), LocalFabric::Tcp);
        let bulk = |peer: usize, i: usize| vec![(peer * 31 + i) as u8; 256 * 1024];
        std::thread::scope(|s| {
            for t in 0..4usize {
                let client = cluster.client(0);
                s.spawn(move || {
                    for i in 0..200usize {
                        let obj = ObjectId::from_name(&format!("hammer-{t}-{i}"));
                        let data = vec![(t * 50 + i) as u8; 1024];
                        client.put(obj, Payload::from_vec(data.clone())).unwrap();
                        assert_eq!(client.get(obj).unwrap(), Payload::from_vec(data));
                        client.delete(obj).unwrap();
                    }
                });
            }
            for peer in 1..3usize {
                let (from, to) = (cluster.client(peer), cluster.client(0));
                s.spawn(move || {
                    for i in 0..20usize {
                        let obj = ObjectId::from_name(&format!("stream-{peer}-{i}"));
                        from.put(obj, Payload::from_vec(bulk(peer, i))).unwrap();
                        assert_eq!(to.get(obj).unwrap(), Payload::from_vec(bulk(peer, i)));
                        to.delete(obj).unwrap();
                    }
                });
            }
        });
    }

    #[test]
    fn detector_over_tcp_declares_a_silently_killed_node_dead() {
        // No verdict is delivered: the survivors' SWIM detectors must notice on their
        // own. Their ack-timeout and suspicion timers are armed by handlers running
        // on reader threads (an ack or a gossiped suspicion arriving) as well as on
        // the node thread, so a missed re-arm shows up here as a death never declared.
        let detector = DetectorConfig {
            probe_period: Duration::from_millis(40),
            ack_timeout: Duration::from_millis(15),
            suspicion_multiplier: 3,
            ..DetectorConfig::default()
        };
        // A full probe cycle to reach the victim, its timeouts, then the suspicion
        // window — twice over, for a loaded box.
        let budget = 2 * (detector.probe_period.mul(3) + detector.suspicion_window()).to_std();
        let cfg = HopliteConfig { detector: Some(detector), ..HopliteConfig::small_for_tests() };
        let mut cluster = LocalCluster::with_fabric(3, cfg, LocalFabric::Tcp);
        let dead = |cluster: &LocalCluster, n: usize| {
            let m = cluster.status(n).expect("survivor answers").metrics;
            m.deaths_declared + m.membership_deaths_learned
        };
        wait_until("the detectors to probe", || {
            (0..3).all(|n| cluster.status(n).is_some_and(|s| s.metrics.probes_sent > 0))
        });
        assert_eq!(dead(&cluster, 0) + dead(&cluster, 1), 0, "no death while all are up");
        cluster.nodes[2].shutdown(); // silently: `kill_node` would notify the others
        let killed = Instant::now();
        wait_until("both survivors to learn of the death", || {
            dead(&cluster, 0) > 0 && dead(&cluster, 1) > 0
        });
        assert!(killed.elapsed() < budget, "detection took {:?}", killed.elapsed());
        // The survivors still serve each other.
        let obj = ObjectId::from_name("after-detect");
        cluster.client(0).put(obj, Payload::zeros(3000)).unwrap();
        assert_eq!(cluster.client(1).get(obj).unwrap().len(), 3000);
    }

    #[test]
    fn rolling_restart_over_channels_preserves_data_and_metadata() {
        // Real-byte counterpart of the simulated rolling-restart scenario: every node
        // is killed and restarted in sequence with live traffic in each window. The
        // long-lived object stays fetchable throughout (its location records survive
        // each primary failover via the replicated op stream), fresh objects created
        // mid-window resolve even when their shard primary is the dying node
        // (unconfirmed-window re-drive), and each restarted node comes back as a working replica that
        // serves Gets again.
        let n = 4;
        let mut cluster = LocalCluster::new(n, HopliteConfig::small_for_tests());
        let w = ObjectId::from_name("rolling-local-w");
        let data: Vec<u8> = (0..20_000u32).map(|i| (i % 241) as u8).collect();
        cluster.client(0).put(w, Payload::from_vec(data.clone())).unwrap();
        for node in 1..n {
            assert_eq!(cluster.client(node).get(w).unwrap(), Payload::from_vec(data.clone()));
        }
        // Let the backups' confirms settle before the first kill.
        wait_until_replicated(&cluster);
        for k in 0..n {
            kill_and_settle(&mut cluster, k);
            // Live traffic while the node is down.
            let wk = ObjectId::from_name(&format!("rolling-local-{k}"));
            let wave: Vec<u8> = (0..8000u32).map(|i| ((i + k as u32) % 239) as u8).collect();
            cluster.client((k + 1) % n).put(wk, Payload::from_vec(wave.clone())).unwrap();
            let got = cluster.client((k + 2) % n).get(wk).unwrap();
            assert_eq!(got, Payload::from_vec(wave.clone()), "wave {k} served during the outage");
            cluster.restart_node(k);
            // Let the fresh node resync (snapshot + catch-up) first.
            wait_until("the restarted node to resync", || {
                cluster.status(k).is_some_and(|s| !s.resyncing)
            });
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
    fn a_restarted_node_is_readmitted_over_channels_by_its_own_traffic() {
        // The channels fabric has no `Hello`, and nothing announces a restart: node 2's
        // restart requests and its `DirResynced` alone readmit it. When node 1, the
        // other replica of shard 1, dies next, the survivors route shard 1 to node 2.
        let n = 4;
        let mut cluster = LocalCluster::new(n, HopliteConfig::small_for_tests());
        let shard_1 = |name: &str| {
            (0u64..)
                .map(|k| ObjectId::from_name(&format!("{name}-{k}")))
                .find(|&o| ClusterView::of_size(n).shard_node(o).index() == 1)
                .unwrap()
        };
        kill_and_settle(&mut cluster, 2);
        cluster.restart_node(2);
        wait_until("node 2 to resync", || cluster.status(2).is_some_and(|s| !s.resyncing));
        kill_and_settle(&mut cluster, 1);

        let served = |cluster: &LocalCluster| {
            let metrics = cluster.status(2).expect("node 2 answers").metrics;
            (metrics.directory_registrations, metrics.directory_queries_served)
        };
        let queried = served(&cluster).1;
        for (putter, getter) in [(0, 3), (3, 0)] {
            let obj = shard_1(&format!("readmitted-{putter}"));
            let data: Vec<u8> = (0..5000u32).map(|i| ((i + putter as u32) % 251) as u8).collect();
            let registered = served(&cluster).0;
            cluster.client(putter).put(obj, Payload::from_vec(data.clone())).unwrap();
            // The registration reaches node 2 only if the putter routes shard 1 there;
            // waiting on it first turns a misrouted shard into a timeout, not a hung get.
            wait_until("node 2 to take the registration", || served(&cluster).0 > registered);
            let got = cluster.client(getter).get(obj).unwrap();
            assert_eq!(got, Payload::from_vec(data), "node {getter} got node {putter}'s put");
        }
        assert!(served(&cluster).1 >= queried + 2, "both gets were answered by node 2");
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
        wait_until_replicated(&cluster);

        kill_and_settle(&mut cluster, 2);
        // Traffic during the outage still works.
        let mid = ObjectId::from_name("tcp-restart-mid");
        cluster.client(1).put(mid, Payload::zeros(4000)).unwrap();
        assert_eq!(cluster.client(0).get(mid).unwrap().len(), 4000);

        cluster.restart_node(2);
        wait_until("node 2 to resync", || {
            let status = cluster.status(2).expect("restarted node answers status");
            assert_eq!(status.incarnation, 1, "restart must bump the incarnation");
            !status.resyncing
        });
        wait_until_replicated(&cluster);
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
        // Wait for the log shipment to reach the backup, then kill the primary (node 3
        // holds no copy of the object itself).
        wait_until_replicated(&cluster);
        kill_and_settle(&mut cluster, 3);
        let got = cluster.client(2).get(obj).unwrap();
        assert_eq!(got, Payload::from_vec(data));
    }
}
