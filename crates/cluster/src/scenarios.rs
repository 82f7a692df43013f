//! Collective-communication measurement scenarios on the simulated cluster.
//!
//! These functions reproduce the microbenchmark methodology of §5.1 of the paper:
//! input objects are created first (`Put`), and the measured phase starts once they are
//! ready. For the asynchrony experiments (Figure 8) the participants instead arrive
//! sequentially with a fixed interval and the measurement starts at the first arrival.

use hoplite_core::prelude::*;
use hoplite_simnet::prelude::*;

use crate::sim_cluster::{OpHandle, SimCluster};

/// Parameters shared by every scenario.
#[derive(Clone, Debug)]
pub struct ScenarioEnv {
    /// Hoplite configuration (block size, inline threshold, degree candidates, ...).
    pub hoplite: HopliteConfig,
    /// Simulated network characteristics.
    pub network: NetworkConfig,
}

impl Default for ScenarioEnv {
    fn default() -> Self {
        ScenarioEnv {
            hoplite: HopliteConfig::paper_testbed(),
            network: NetworkConfig::paper_testbed(),
        }
    }
}

impl ScenarioEnv {
    /// The paper's testbed environment.
    pub fn paper_testbed() -> Self {
        ScenarioEnv::default()
    }

    fn cluster(&self, n: usize) -> SimCluster {
        SimCluster::new(n, self.hoplite.clone(), self.network.clone())
    }
}

/// Outcome of one scenario run.
#[derive(Clone, Debug)]
pub struct ScenarioResult {
    /// Latency of the measured phase in seconds.
    pub latency_s: f64,
    /// Total data-plane bytes sent across the cluster during the whole run.
    pub data_bytes_sent: u64,
    /// Total protocol messages delivered by the simulator.
    pub messages: u64,
}

const SETTLE: f64 = 1.0;

fn settle(cluster: &mut SimCluster) -> SimTime {
    let end = cluster.run();
    // Start the measured phase strictly after the preparation phase has quiesced.
    SimTime::from_secs_f64(end.as_secs_f64().max(0.0) + SETTLE)
}

fn result(cluster: &SimCluster, latency_s: f64) -> ScenarioResult {
    ScenarioResult {
        latency_s,
        data_bytes_sent: cluster.total_metrics().data_bytes_sent,
        messages: cluster.sim_stats().messages_delivered,
    }
}

fn object(name: &str, i: usize) -> ObjectId {
    ObjectId::from_name(&format!("{name}-{i}"))
}

/// Round-trip latency of point-to-point communication (Figure 6): node 0 sends an
/// object to node 1, node 1 sends an equally-sized object back.
pub fn p2p_rtt(env: &ScenarioEnv, size: u64) -> ScenarioResult {
    let mut cluster = env.cluster(2);
    let a = ObjectId::from_name("p2p-a");
    let b = ObjectId::from_name("p2p-b");
    cluster.submit_at(
        SimTime::ZERO,
        0,
        ClientOp::Put { object: a, payload: Payload::synthetic(size) },
    );
    let start = settle(&mut cluster);
    let get_a = cluster.submit_at(start, 1, ClientOp::Get { object: a });
    cluster.run();
    let mid = cluster.done_time(get_a).expect("forward transfer completed");
    // The reply object is created only once the forward transfer is done, mirroring a
    // request/response exchange.
    cluster.submit_at(mid, 1, ClientOp::Put { object: b, payload: Payload::synthetic(size) });
    let get_b = cluster.submit_at(mid, 0, ClientOp::Get { object: b });
    cluster.run();
    let done = cluster.done_time(get_b).expect("return transfer completed");
    result(&cluster, (done - start).as_secs_f64())
}

/// Broadcast latency (Figures 7, 8, 14): node 0 owns the object, nodes `1..n` `Get` it.
/// Receivers arrive `interval_s` apart (0 = all at once); latency is measured from the
/// first arrival to the last completion.
pub fn broadcast_latency(
    env: &ScenarioEnv,
    n: usize,
    size: u64,
    interval_s: f64,
) -> ScenarioResult {
    assert!(n >= 2);
    let mut cluster = env.cluster(n);
    let obj = ObjectId::from_name("bcast");
    cluster.submit_at(
        SimTime::ZERO,
        0,
        ClientOp::Put { object: obj, payload: Payload::synthetic(size) },
    );
    let start = settle(&mut cluster);
    let gets: Vec<OpHandle> = (1..n)
        .map(|node| {
            let at = SimTime::from_secs_f64(start.as_secs_f64() + (node - 1) as f64 * interval_s);
            cluster.submit_at(at, node, ClientOp::Get { object: obj })
        })
        .collect();
    cluster.run();
    let last = gets
        .iter()
        .map(|&h| cluster.done_time(h).expect("broadcast receiver finished"))
        .max()
        .unwrap();
    result(&cluster, (last - start).as_secs_f64())
}

/// Gather latency (Figures 7, 14): every node `Put`s one object, node 0 `Get`s them all.
pub fn gather_latency(env: &ScenarioEnv, n: usize, size: u64) -> ScenarioResult {
    assert!(n >= 2);
    let mut cluster = env.cluster(n);
    let objects: Vec<ObjectId> = (1..n).map(|i| object("gather", i)).collect();
    for (i, &obj) in objects.iter().enumerate() {
        cluster.submit_at(
            SimTime::ZERO,
            i + 1,
            ClientOp::Put { object: obj, payload: Payload::synthetic(size) },
        );
    }
    let start = settle(&mut cluster);
    let gets: Vec<OpHandle> = objects
        .iter()
        .map(|&obj| cluster.submit_at(start, 0, ClientOp::Get { object: obj }))
        .collect();
    cluster.run();
    let last =
        gets.iter().map(|&h| cluster.done_time(h).expect("gather get finished")).max().unwrap();
    result(&cluster, (last - start).as_secs_f64())
}

/// Reduce latency (Figures 7, 8, 14, 15): every node `Put`s one object, node 0 calls
/// `Reduce` over all of them and `Get`s the result. `degree` forces the tree degree
/// (used by the Appendix-B ablation); `interval_s > 0` staggers the input arrivals and
/// starts the measurement at the `Reduce` call instead.
pub fn reduce_latency(
    env: &ScenarioEnv,
    n: usize,
    size: u64,
    degree: Option<usize>,
    interval_s: f64,
) -> ScenarioResult {
    reduce_then_get(env, "reduce", n, size, degree, interval_s, 1)
}

/// AllReduce latency (Figures 7, 8, 14): a `Reduce` followed by every node `Get`ting the
/// result (§3.4.3), which is exactly how Hoplite expresses allreduce.
pub fn allreduce_latency(
    env: &ScenarioEnv,
    n: usize,
    size: u64,
    interval_s: f64,
) -> ScenarioResult {
    reduce_then_get(env, "allreduce", n, size, None, interval_s, n)
}

/// Every node `Put`s `{name}-{i}`, node 0 reduces them into `{name}-result`, and nodes
/// `0..getters` `Get` the result; the latency runs to the last `Get`.
fn reduce_then_get(
    env: &ScenarioEnv,
    name: &str,
    n: usize,
    size: u64,
    degree: Option<usize>,
    interval_s: f64,
    getters: usize,
) -> ScenarioResult {
    assert!(n >= 2);
    let mut cluster = env.cluster(n);
    let sources: Vec<ObjectId> = (0..n).map(|i| object(name, i)).collect();
    let target = ObjectId::from_name(&format!("{name}-result"));
    let start = if interval_s == 0.0 {
        for (i, &src) in sources.iter().enumerate() {
            cluster.submit_at(
                SimTime::ZERO,
                i,
                ClientOp::Put { object: src, payload: Payload::synthetic(size) },
            );
        }
        settle(&mut cluster)
    } else {
        let start = SimTime::from_secs_f64(SETTLE);
        for (i, &src) in sources.iter().enumerate() {
            let at = SimTime::from_secs_f64(start.as_secs_f64() + i as f64 * interval_s);
            cluster.submit_at(
                at,
                i,
                ClientOp::Put { object: src, payload: Payload::synthetic(size) },
            );
        }
        start
    };
    cluster.submit_at(
        start,
        0,
        ClientOp::Reduce {
            target,
            sources,
            num_objects: None,
            spec: ReduceSpec::sum_f32(),
            degree,
        },
    );
    let gets: Vec<OpHandle> = (0..getters)
        .map(|node| cluster.submit_at(start, node, ClientOp::Get { object: target }))
        .collect();
    cluster.run();
    let last =
        gets.iter().map(|&h| cluster.done_time(h).expect("reduce result fetched")).max().unwrap();
    result(&cluster, (last - start).as_secs_f64())
}

/// Outcome of the directory-failover scenario.
#[derive(Clone, Debug)]
pub struct DirectoryFailoverResult {
    /// Latency of the measured broadcast phase in seconds (first arrival → last
    /// completion), with the primary killed mid-broadcast.
    pub latency_s: f64,
    /// Receivers that completed despite the directory failure.
    pub completed_receivers: usize,
    /// Nodes recorded as complete-copy holders at the promoted backup after the run.
    pub locations_at_new_primary: Vec<NodeId>,
    /// Outstanding directory queries re-issued at the new primary.
    pub directory_failovers: u64,
}

/// Kill the *directory primary* of the broadcast object mid-broadcast (§3.5: the
/// directory is replicated, so metadata must survive). The cluster dedicates its last
/// node to hosting the shard primary — it holds no object data — so the kill isolates
/// the metadata plane: every receiver must still complete, and the promoted backup
/// must hold every location record. One receiver arrives *after* the primary died but
/// before the failure is detected, exercising the client's query re-drive.
pub fn directory_failover_broadcast(
    env: &ScenarioEnv,
    n: usize,
    size: u64,
    fail_at_s: f64,
) -> DirectoryFailoverResult {
    assert!(n >= 4, "need a source, two receivers, and a dedicated directory node");
    let mut cluster = env.cluster(n);
    let dir_node = n - 1;
    // An object whose shard is primaried by the dedicated directory node.
    let obj = (0u64..)
        .map(|k| ObjectId::from_name(&format!("dir-failover-{k}")))
        .find(|&o| ClusterView::of_size(n).shard_node(o).index() == dir_node)
        .unwrap();
    cluster.submit_at(
        SimTime::ZERO,
        0,
        ClientOp::Put { object: obj, payload: Payload::synthetic(size) },
    );
    let start = settle(&mut cluster);
    let fail_at = SimTime::from_secs_f64(start.as_secs_f64() + fail_at_s);
    // All receivers but the last arrive with the broadcast; the last one arrives just
    // after the primary died, so its query races the failure detector.
    let late_at = SimTime::from_secs_f64(fail_at.as_secs_f64() + 0.05);
    let gets: Vec<OpHandle> = (1..n - 1)
        .map(|node| {
            let at = if node == n - 2 { late_at } else { start };
            cluster.submit_at(at, node, ClientOp::Get { object: obj })
        })
        .collect();
    cluster.fail_node_at(fail_at, dir_node);
    cluster.run();
    let done: Vec<SimTime> = gets.iter().filter_map(|&h| cluster.done_time(h)).collect();
    let latency_s = done.iter().map(|t| (*t - start).as_secs_f64()).fold(0.0, f64::max);
    // The ring successor of the dead primary is its backup; read the surviving
    // replica's records there.
    let backup = (dir_node + 1) % n;
    let locations_at_new_primary = cluster.directory_locations(backup, obj).unwrap_or_default();
    DirectoryFailoverResult {
        latency_s,
        completed_receivers: done.len(),
        locations_at_new_primary,
        directory_failovers: cluster.total_metrics().directory_failovers,
    }
}

/// Outcome of the rolling-restart scenario.
#[derive(Clone, Debug)]
pub struct RollingRestartResult {
    /// Cluster size.
    pub n: usize,
    /// Broadcast-wave `Get`s that completed (one wave is launched inside every kill
    /// window, so traffic is live across every failure and restart).
    pub waves_completed: usize,
    /// Waves launched.
    pub waves_expected: usize,
    /// Restarted nodes whose post-restart re-`Get` of the long-lived object completed.
    pub refetches_completed: usize,
    /// Holders of the long-lived object recorded at its shard's final primary.
    pub holders: Vec<NodeId>,
    /// Shards (one probed per node) whose final primary is the original owner — i.e.
    /// a node that was killed, restarted, resynced, and re-admitted mid-run.
    pub primaries_restored: usize,
    /// Whether the mid-sequence reduce completed with live traffic during a restart.
    pub reduce_ok: bool,
    /// Total directory snapshots installed by restarted nodes.
    pub resyncs: u64,
    /// Total journaled intents re-driven after failovers (the unconfirmed windows).
    pub redrives: u64,
}

/// Kill **and restart** every node in sequence under live broadcast/reduce traffic
/// (the §3.5 availability story completed: replication for failover, snapshot +
/// acked-log resync for fail-back). A long-lived object `W` is broadcast everywhere
/// up front; each kill window also runs a fresh broadcast wave (exercising the
/// unconfirmed-window re-drive when the wave's shard primary is the dying node), one
/// window runs a reduce, and every restarted node re-fetches `W` (restoring its
/// purged location record). At the end the cluster must agree that the original
/// owners lead their shards again and that `W`'s location records are complete.
///
/// `kill_gap_s` is the spacing between consecutive kills; it must comfortably exceed
/// the failure-detection delay so each node is restarted, resynced, and re-admitted
/// before the next kill.
pub fn rolling_restart_collectives(
    env: &ScenarioEnv,
    n: usize,
    size: u64,
    kill_gap_s: f64,
) -> RollingRestartResult {
    assert!(n >= 4, "need enough nodes to keep replicas and traffic alive");
    let detection = env.network.failure_detection_delay.as_secs_f64();
    assert!(
        kill_gap_s > 2.0 * detection + 1.0,
        "kill gap {kill_gap_s}s too tight for detection delay {detection}s"
    );
    let mut cluster = env.cluster(n);
    let w = ObjectId::from_name("rolling-w");
    cluster.submit_at(
        SimTime::ZERO,
        0,
        ClientOp::Put { object: w, payload: Payload::synthetic(size) },
    );
    let start = settle(&mut cluster);
    let first_wave: Vec<OpHandle> =
        (1..n).map(|node| cluster.submit_at(start, node, ClientOp::Get { object: w })).collect();
    let base = SimTime::from_secs_f64(start.as_secs_f64() + 2.0);

    let mut wave_gets: Vec<OpHandle> = Vec::new();
    let mut refetches: Vec<OpHandle> = Vec::new();
    let mut reduce_get = None;
    for k in 0..n {
        let t_k = SimTime::from_secs_f64(base.as_secs_f64() + k as f64 * kill_gap_s);
        cluster.fail_node_at(t_k, k);
        // Live traffic inside the kill window: a fresh broadcast wave between two
        // surviving nodes. When the dying node primaries the wave object's shard,
        // the putter's unconfirmed registration and the getter's outstanding query
        // are exactly the unconfirmed window the failover re-drives.
        let wave_at = SimTime::from_secs_f64(t_k.as_secs_f64() + 0.1);
        let putter = (k + 1) % n;
        let getter = (k + 2) % n;
        let wk = ObjectId::from_name(&format!("rolling-wave-{k}"));
        cluster.submit_at(
            wave_at,
            putter,
            ClientOp::Put { object: wk, payload: Payload::synthetic(size) },
        );
        wave_gets.push(cluster.submit_at(wave_at, getter, ClientOp::Get { object: wk }));
        if k == n / 2 {
            // One window also runs a reduce, so tree traffic crosses a restart.
            let sources: Vec<ObjectId> =
                (1..4).map(|i| ObjectId::from_name(&format!("rolling-red-{i}"))).collect();
            for (i, &src) in sources.iter().enumerate() {
                cluster.submit_at(
                    wave_at,
                    (k + 1 + i) % n,
                    ClientOp::Put { object: src, payload: Payload::synthetic(size) },
                );
            }
            let target = ObjectId::from_name("rolling-red-sum");
            let red_at = SimTime::from_secs_f64(wave_at.as_secs_f64() + 0.3);
            cluster.submit_at(
                red_at,
                (k + 1) % n,
                ClientOp::Reduce {
                    target,
                    sources,
                    num_objects: None,
                    spec: ReduceSpec::sum_f32(),
                    degree: None,
                },
            );
            reduce_get =
                Some(cluster.submit_at(red_at, (k + 1) % n, ClientOp::Get { object: target }));
        }
        // Restart after the survivors detected the failure; the fresh node resyncs
        // (snapshot + log catch-up) and announces itself re-admitted.
        let restart_at = SimTime::from_secs_f64(t_k.as_secs_f64() + detection + 0.3);
        cluster.restart_node_at(restart_at, k);
        // The restarted node lost its copy of W (and its location record was purged
        // with the failure); re-fetch it so the directory must re-learn the holder.
        let refetch_at = SimTime::from_secs_f64(restart_at.as_secs_f64() + detection + 0.5);
        refetches.push(cluster.submit_at(refetch_at, k, ClientOp::Get { object: w }));
    }
    cluster.run();

    let waves_completed = first_wave
        .iter()
        .chain(wave_gets.iter())
        .filter(|&&h| cluster.done_time(h).is_some())
        .count();
    let refetches_completed = refetches.iter().filter(|&&h| cluster.done_time(h).is_some()).count();
    // W's location records at its shard's final primary.
    let primary = cluster.directory_primary(0, w).expect("W's shard has a primary");
    let mut holders = cluster.directory_locations(primary.index(), w).unwrap_or_default();
    holders.sort_by_key(|h| h.0);
    holders.dedup();
    // For every node j, probe one object whose shard j originally owned: after the
    // full cycle the original owner must lead it again (observed from a peer).
    let view = ClusterView::of_size(n);
    let primaries_restored = (0..n)
        .filter(|&j| {
            let o = (0u64..)
                .map(|s| ObjectId::from_name(&format!("probe-{j}-{s}")))
                .find(|&o| view.shard_node(o).index() == j)
                .unwrap();
            cluster.directory_primary((j + 1) % n, o) == Some(NodeId(j as u32))
        })
        .count();
    let totals = cluster.total_metrics();
    RollingRestartResult {
        n,
        waves_completed,
        waves_expected: first_wave.len() + wave_gets.len(),
        refetches_completed,
        holders,
        primaries_restored,
        reduce_ok: reduce_get.map(|h| cluster.done_time(h).is_some()).unwrap_or(false),
        resyncs: totals.directory_resyncs,
        redrives: totals.directory_redrives,
    }
}

/// Outcome of the gossip-detector partition drill.
#[derive(Clone, Debug)]
pub struct SuspicionRefutationResult {
    /// Direct probes sent cluster-wide (the detector was actually running).
    pub probes_sent: u64,
    /// Suspicion verdicts raised or learned across the cluster.
    pub suspicions_raised: u64,
    /// Incarnation-bumping refutations sent by suspected-but-alive nodes.
    pub refutations_sent: u64,
    /// Death verdicts declared by any detector (the zero-false-positive target).
    pub deaths_declared: u64,
    /// Deaths learned via gossip (must also stay zero).
    pub deaths_learned: u64,
    /// Gossip entries piggybacked on probe traffic.
    pub gossip_entries: u64,
    /// `Get`s that completed across both traffic waves.
    pub gets_completed: usize,
    /// `Get`s submitted.
    pub gets_expected: usize,
}

/// Drive the SWIM failure detector through a transient partition plus a straggler
/// window, and require **zero deaths**: the partitioned node is suspected (its acks
/// stall at the cut), the partition heals inside the suspicion window, the suspect
/// learns of the suspicion from the destination-priority gossip entry on the next
/// probe it receives, refutes by bumping its incarnation, and the refutation gossips
/// back before any suspicion expires. A second node is meanwhile slowed 4–10× with
/// bulk traffic on its NIC — slow must never be mistaken for dead. `seed` jitters the
/// victim choice, partition timing, and straggler factor.
pub fn partition_suspicion_refuted(
    env: &ScenarioEnv,
    n: usize,
    seed: u64,
) -> SuspicionRefutationResult {
    assert!(n >= 4, "need a victim, a straggler, and quorum traffic");
    let mut hoplite = env.hoplite.clone();
    let detector = DetectorConfig {
        probe_period: Duration::from_millis(100),
        ack_timeout: Duration::from_millis(40),
        suspicion_multiplier: 30, // 3 s window: partitions below heal inside it
        indirect_fanout: 3,
        gossip_budget: 6,
    };
    hoplite.detector = Some(detector.clone());
    let mut cluster = SimCluster::new(n, hoplite, env.network.clone());

    let mut lcg = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
    let mut next = move || {
        lcg = lcg.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        lcg >> 33
    };
    let victim = (next() as usize) % n;
    let straggler = (victim + 1) % n;
    let source = (victim + 2) % n;

    // Pre-partition traffic: a broadcast everyone finishes before the cut lands.
    let obj = ObjectId::from_name(&format!("suspicion-pre-{seed}"));
    cluster.submit_at(
        SimTime::ZERO,
        source,
        ClientOp::Put { object: obj, payload: Payload::synthetic(8 * 1024 * 1024) },
    );
    let mut gets: Vec<OpHandle> = (0..n)
        .filter(|&node| node != source)
        .map(|node| {
            cluster.submit_at(SimTime::from_secs_f64(0.3), node, ClientOp::Get { object: obj })
        })
        .collect();

    // The cut: the victim alone on one side, from inside the probe cadence, healing
    // well inside the 3 s suspicion window. Messages stall at the cut (TCP
    // retransmits); suspicion arises from the *local* ack timeout on both sides.
    let cut_at = 0.8 + (next() % 20) as f64 * 0.01;
    let heal_at = cut_at + 0.4 + (next() % 20) as f64 * 0.01;
    let side: Vec<bool> = (0..n).map(|node| node == victim).collect();
    cluster.partition_between(
        SimTime::from_secs_f64(cut_at),
        SimTime::from_secs_f64(heal_at),
        side,
    );

    // The straggler window: 4–10× NIC slow-down overlapping the partition, with bulk
    // bytes on its queue. Probes are control-sized and must keep flowing.
    let factor = 4.0 + (next() % 7) as f64;
    cluster.slow_node_between(
        straggler,
        SimTime::from_secs_f64(0.5),
        SimTime::from_secs_f64(heal_at + 2.0),
        factor,
    );

    // Post-heal traffic, including from the refuted victim: the cluster must still
    // serve everyone once suspicions have been cleared.
    let post = ObjectId::from_name(&format!("suspicion-post-{seed}"));
    let post_at = heal_at + 2.5;
    cluster.submit_at(
        SimTime::from_secs_f64(post_at),
        victim,
        ClientOp::Put { object: post, payload: Payload::synthetic(4 * 1024 * 1024) },
    );
    gets.extend((0..n).filter(|&node| node != victim).map(|node| {
        cluster.submit_at(
            SimTime::from_secs_f64(post_at + 0.2),
            node,
            ClientOp::Get { object: post },
        )
    }));

    // Run past every possible suspicion expiry (last suspicion starts before the
    // heal; window is 3 s): if any refutation failed to land, a death would be
    // declared inside this horizon and the assertions below would catch it.
    cluster.run_until(SimTime::from_secs_f64(
        post_at + detector.suspicion_window().as_nanos() as f64 * 1e-9 + 2.0,
    ));

    let totals = cluster.total_metrics();
    SuspicionRefutationResult {
        probes_sent: totals.probes_sent,
        suspicions_raised: totals.suspicions_raised,
        refutations_sent: totals.refutations_sent,
        deaths_declared: totals.deaths_declared,
        deaths_learned: totals.membership_deaths_learned,
        gossip_entries: totals.gossip_entries_piggybacked,
        gets_completed: gets.iter().filter(|&&h| cluster.done_time(h).is_some()).count(),
        gets_expected: gets.len(),
    }
}

/// Directory microbenchmark (§5.1.1): latency of fetching a small (inline-cached)
/// object from another node, which is one location query round trip to a shard the
/// getter does not lead.
pub fn directory_fetch_latency(env: &ScenarioEnv, size: u64) -> ScenarioResult {
    let mut cluster = env.cluster(2);
    let obj = (0u64..)
        .map(|k| ObjectId::from_name(&format!("dir-small-{k}")))
        .find(|&o| ClusterView::of_size(2).shard_node(o).index() != 1)
        .unwrap();
    cluster.submit_at(
        SimTime::ZERO,
        0,
        ClientOp::Put { object: obj, payload: Payload::synthetic(size) },
    );
    let start = settle(&mut cluster);
    let get = cluster.submit_at(start, 1, ClientOp::Get { object: obj });
    cluster.run();
    let done = cluster.done_time(get).expect("small object fetched");
    result(&cluster, (done - start).as_secs_f64())
}

/// Which member of an `r = 3` replica set (primary, b1, b2) a kill drill takes down
/// mid-replication.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReplicaKill {
    /// The primary itself: a surviving member promotes and clients re-drive their
    /// unconfirmed window at it.
    Primary,
    /// The first backup — the one that promotes if the primary dies next.
    FirstBackup,
    /// The last backup.
    LastBackup,
}

/// Outcome of a replica-set kill drill.
#[derive(Clone, Debug)]
pub struct ReplicaKillResult {
    /// Objects whose location record survived at the shard's final primary.
    pub surviving_records: usize,
    /// Objects registered (the zero-loss target).
    pub expected_records: usize,
}

/// Kill one member of an `r = 3` replica set while a stream of registrations is
/// being shipped to it (§3.5). Whatever the position, the surviving members must
/// converge with zero lost location records: client re-drive covers the unconfirmed
/// window when the primary dies, and when a backup dies the primary stops waiting on
/// its ack, so the confirms it was gating are released.
pub fn replica_kill_drill(
    env: &ScenarioEnv,
    n: usize,
    kill: ReplicaKill,
    objects: usize,
    fail_at_s: f64,
) -> ReplicaKillResult {
    assert!(n >= 5, "need three replica-set members plus writers");
    let mut hoplite = env.hoplite.clone();
    hoplite.directory_replication = 3;
    let mut cluster = SimCluster::new(n, hoplite, env.network.clone());
    // The last node primaries the measured shard; its replica set is [n-1, 0, 1].
    let dir_node = n - 1;
    let victim = match kill {
        ReplicaKill::Primary => dir_node,
        ReplicaKill::FirstBackup => 0,
        ReplicaKill::LastBackup => 1,
    };
    let view = ClusterView::of_size(n);
    let objs: Vec<ObjectId> = (0u64..)
        .map(|k| ObjectId::from_name(&format!("replica-drill-{k}")))
        .filter(|&o| view.shard_node(o).index() == dir_node)
        .take(objects)
        .collect();
    // Writers (and therefore holders) are nodes outside the replica set, so the
    // victim's death purges no holder records — any record loss is a replication bug.
    for (i, &o) in objs.iter().enumerate() {
        let at = SimTime::from_secs_f64(0.01 * i as f64);
        let writer = 2 + (i % (n - 3));
        cluster.submit_at(
            at,
            writer,
            ClientOp::Put { object: o, payload: Payload::synthetic(128 * 1024) },
        );
    }
    cluster.fail_node_at(SimTime::from_secs_f64(fail_at_s), victim);
    cluster.run();
    // Read the records at the shard's final primary, as seen by a live writer.
    let probe = 2;
    let primary = cluster.directory_primary(probe, objs[0]).expect("shard has a primary");
    let surviving_records = objs
        .iter()
        .filter(|&&o| {
            cluster.directory_locations(primary.index(), o).map(|l| !l.is_empty()).unwrap_or(false)
        })
        .count();
    ReplicaKillResult { surviving_records, expected_records: objects }
}

/// Outcome of the backup-resync-under-load drill.
#[derive(Clone, Debug)]
pub struct BackupResyncResult {
    /// Objects registered into the shard over the whole drill.
    pub expected_records: usize,
    /// Registrations whose `Put` completed (live traffic was never blocked by the
    /// catch-up — the source keeps serving throughout).
    pub puts_completed: usize,
    /// Records present at the shard primary / the backup that stayed up / the
    /// restarted backup at the end (all three must equal `expected_records` for zero
    /// loss + convergence).
    pub records_at_primary: usize,
    /// See [`BackupResyncResult::records_at_primary`].
    pub records_at_live_backup: usize,
    /// See [`BackupResyncResult::records_at_primary`].
    pub records_at_restarted: usize,
    /// Directory resyncs completed by the restarted node.
    pub resyncs: u64,
    /// Bounded snapshot chunks shipped by resync sources.
    pub snapshot_chunks_sent: u64,
    /// Snapshot-entry bytes those chunks carried.
    pub snapshot_bytes: u64,
    /// The configured per-chunk byte budget (for bound assertions).
    pub chunk_budget: u64,
}

/// Kill **and restart** the first backup of an `r = 3` replica set while a stream of
/// registrations is being shipped to it, with a chunk budget tight enough that the
/// restarted replica catches up via a many-chunk cursor-driven stream, not one
/// O(objects) frame. Live ops keep
/// landing at the primary the whole time (it is never paused to serialize state),
/// the other backup keeps acking, and at the end that backup *and* the re-admitted
/// one must both hold every record.
pub fn backup_resync_under_load(
    env: &ScenarioEnv,
    n: usize,
    fail_at_s: f64,
    seed: u64,
) -> BackupResyncResult {
    assert!(n >= 5, "need three replica-set members plus writers");
    assert!(fail_at_s >= 0.1, "kill must land inside the registration stream");
    let mut hoplite = env.hoplite.clone();
    hoplite.directory_replication = 3;
    // A tight chunk budget: a handful of entries per frame.
    hoplite.snapshot_chunk_bytes = 512;
    let chunk_budget = hoplite.snapshot_chunk_bytes;
    let detection = env.network.failure_detection_delay.as_secs_f64();
    let mut cluster = SimCluster::new(n, hoplite, env.network.clone());
    // The last node primaries the measured shard; its replica set is [n-1, 0, 1], so
    // node 0 is the backup that restarts and node 1 the one that stays up.
    let dir_node = n - 1;
    let (restarted, live_backup) = (0usize, 1usize);
    let restart_at = fail_at_s + detection + 0.3;
    // Registrations every 40 ms from before the kill until well after the restarted
    // backup has resynced and been re-admitted.
    let spacing = 0.04;
    let objects = ((restart_at + detection + 1.5) / spacing).ceil() as usize;
    let view = ClusterView::of_size(n);
    let objs: Vec<ObjectId> = (0u64..)
        .map(|k| ObjectId::from_name(&format!("backup-resync-{seed}-{k}")))
        .filter(|&o| view.shard_node(o).index() == dir_node)
        .take(objects)
        .collect();
    // Writers (and therefore holders) are nodes outside the replica set, so the
    // backup's death purges no holder records — any record loss is a resync bug. The
    // seed jitters submission times and writer choice without reordering the stream.
    let mut lcg = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
    let mut next = move || {
        lcg = lcg.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        lcg >> 33
    };
    let puts: Vec<OpHandle> = objs
        .iter()
        .enumerate()
        .map(|(i, &o)| {
            let jitter = (next() % 20) as f64 * 1e-3;
            let at = SimTime::from_secs_f64(i as f64 * spacing + jitter);
            let writer = 2 + (next() as usize % (n - 3));
            cluster.submit_at(
                at,
                writer,
                ClientOp::Put { object: o, payload: Payload::synthetic(128 * 1024) },
            )
        })
        .collect();
    cluster.fail_node_at(SimTime::from_secs_f64(fail_at_s), restarted);
    cluster.restart_node_at(SimTime::from_secs_f64(restart_at), restarted);
    cluster.run();
    let records_at = |node: usize| {
        objs.iter()
            .filter(|&&o| {
                cluster.directory_locations(node, o).map(|l| !l.is_empty()).unwrap_or(false)
            })
            .count()
    };
    BackupResyncResult {
        expected_records: objects,
        puts_completed: puts.iter().filter(|&&h| cluster.done_time(h).is_some()).count(),
        records_at_primary: records_at(dir_node),
        records_at_live_backup: records_at(live_backup),
        records_at_restarted: records_at(restarted),
        resyncs: cluster.node_metrics(restarted).directory_resyncs,
        snapshot_chunks_sent: cluster.total_metrics().snapshot_chunks_sent,
        snapshot_bytes: cluster.total_metrics().snapshot_bytes,
        chunk_budget,
    }
}

/// Outcome of [`healed_partition_probe`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HealedPartitionResult {
    /// Objects whose shard primary the four nodes name differently two suspicion
    /// windows after the heal (at 11 s).
    pub disagreeing: usize,
    /// `Get`s completed by the end of the run.
    pub gets_done: usize,
    /// `Get`s submitted: every object, from each node but its putter (51).
    pub gets: usize,
}

/// ROADMAP item 2's probe (D13): a partition longer than the suspicion window, then a
/// heal. Four nodes run the SWIM detector at its defaults (200 ms probes, 60 ms ack
/// timeout, a 3 s suspicion window). With `cut`, node 0 is alone from 0.5 s to 5.0 s,
/// so each side declares the other dead. Node 2 puts one 1 KiB object at 0.1 s; at
/// 4.0 s node 0 puts 8 more and nodes 1–3 put 8 between them, all inline; agreement
/// on every object's shard primary is read at 11 s, two suspicion windows after the
/// heal; at 12 s every node Gets every object it did not put, and the run goes on to
/// 40 s. `seed` names the objects, and so places them.
pub fn healed_partition_probe(env: &ScenarioEnv, cut: bool, seed: u64) -> HealedPartitionResult {
    const N: usize = 4;
    let mut hoplite = env.hoplite.clone();
    hoplite.detector = Some(DetectorConfig::default());
    let mut cluster = SimCluster::new(N, hoplite, env.network.clone());
    let at = SimTime::from_secs_f64;
    let putters =
        std::iter::once((0.1, 2)).chain((0..16).map(|i| (4.0, if i < 8 { 0 } else { 1 + i % 3 })));
    let mut objects = Vec::new();
    for (i, (when, putter)) in putters.enumerate() {
        let object = ObjectId::from_name(&format!("healed-{seed}-{i}"));
        let payload = Payload::synthetic(1024);
        cluster.submit_at(at(when), putter, ClientOp::Put { object, payload });
        objects.push((object, putter));
    }
    if cut {
        cluster.partition_between(at(0.5), at(5.0), (0..N).map(|node| node == 0).collect());
    }
    let mut gets = Vec::new();
    for &(object, putter) in &objects {
        for node in (0..N).filter(|&node| node != putter) {
            gets.push(cluster.submit_at(at(12.0), node, ClientOp::Get { object }));
        }
    }
    cluster.run_until(at(11.0));
    let disagreeing = objects
        .iter()
        .filter(|&&(object, _)| {
            let primary = |viewer| cluster.directory_primary(viewer, object);
            (1..N).any(|viewer| primary(viewer) != primary(0))
        })
        .count();
    cluster.run_until(at(40.0));
    let gets_done = gets.iter().filter(|&&h| cluster.done_time(h).is_some()).count();
    HealedPartitionResult { disagreeing, gets_done, gets: gets.len() }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MB: u64 = 1024 * 1024;
    const GB: u64 = 1024 * 1024 * 1024;

    #[test]
    fn p2p_rtt_tracks_bandwidth_for_large_objects() {
        let env = ScenarioEnv::paper_testbed();
        let r = p2p_rtt(&env, GB);
        let optimal = 2.0 * GB as f64 / 1.25e9;
        assert!(r.latency_s > optimal * 0.95, "cannot beat the wire: {}", r.latency_s);
        assert!(r.latency_s < optimal * 1.6, "pipelining keeps overhead bounded: {}", r.latency_s);
    }

    #[test]
    fn p2p_rtt_small_objects_latency_bound() {
        let env = ScenarioEnv::paper_testbed();
        let r = p2p_rtt(&env, 1024);
        // Two directory-served (inline) fetches: a handful of RPC latencies, well under
        // a millisecond on the simulated network.
        assert!(r.latency_s < 2e-3, "{}", r.latency_s);
    }

    #[test]
    fn broadcast_beats_sender_fanout_and_loses_to_nothing() {
        let env = ScenarioEnv::paper_testbed();
        let r = broadcast_latency(&env, 8, 256 * MB, 0.0);
        let one_copy = 256.0 * MB as f64 / 1.25e9;
        assert!(r.latency_s >= one_copy, "at least one copy time");
        assert!(r.latency_s < 3.0 * one_copy, "roughly bandwidth-optimal, got {}", r.latency_s);
    }

    #[test]
    fn reduce_degree_override_changes_behaviour() {
        let env = ScenarioEnv::paper_testbed();
        let chain = reduce_latency(&env, 8, 64 * MB, Some(1), 0.0);
        let star = reduce_latency(&env, 8, 64 * MB, Some(0), 0.0);
        // For large objects the chain must beat the star (Appendix B).
        assert!(
            chain.latency_s < star.latency_s,
            "chain {} vs star {}",
            chain.latency_s,
            star.latency_s
        );
    }

    #[test]
    fn staggered_broadcast_overlaps_arrivals() {
        let env = ScenarioEnv::paper_testbed();
        let sync = broadcast_latency(&env, 8, 256 * MB, 0.0);
        let staggered = broadcast_latency(&env, 8, 256 * MB, 0.1);
        // Receivers arriving 0.1 s apart: the last arrives 0.6 s in; total latency grows
        // by far less than 0.6 s because earlier receivers finish and serve later ones.
        assert!(staggered.latency_s < sync.latency_s + 0.65);
        assert!(staggered.latency_s >= sync.latency_s * 0.8);
    }

    #[test]
    fn allreduce_completes_everywhere() {
        let env = ScenarioEnv::paper_testbed();
        let r = allreduce_latency(&env, 4, 16 * MB, 0.0);
        assert!(r.latency_s > 0.0 && r.latency_s < 1.0);
    }

    #[test]
    fn directory_primary_kill_mid_broadcast_loses_no_metadata() {
        let env = ScenarioEnv::paper_testbed();
        let n = 8;
        let r = directory_failover_broadcast(&env, n, 512 * MB, 0.05);
        assert_eq!(r.completed_receivers, n - 2, "every receiver completed");
        // Zero lost object-location records: the promoted backup knows the source and
        // every receiver as a complete-copy holder (the killed node held no data).
        let mut holders = r.locations_at_new_primary.clone();
        holders.sort_by_key(|h| h.0);
        let expected: Vec<NodeId> = (0..(n - 1) as u32).map(NodeId).collect();
        assert_eq!(holders, expected, "location records survived the primary kill");
        // The late receiver's query vanished with the old primary and was re-driven.
        assert!(r.directory_failovers >= 1, "at least one query re-issued after failover");
        // Completion is not held hostage by the metadata failover: the late receiver
        // pays at most the detection delay on top of its own transfer.
        let one_copy = 512.0 * MB as f64 / 1.25e9;
        assert!(
            r.latency_s < 3.0 * one_copy + 0.05 + 0.05 + 0.74 + 0.5,
            "failover latency bounded by detection delay, got {}",
            r.latency_s
        );
    }

    #[test]
    fn rolling_restart_loses_no_records_and_restores_primaries() {
        let env = ScenarioEnv::paper_testbed();
        let n = 6;
        let r = rolling_restart_collectives(&env, n, 8 * MB, 3.0);
        assert_eq!(r.waves_completed, r.waves_expected, "every live-traffic wave completed");
        assert_eq!(r.refetches_completed, n, "every restarted node re-fetched W");
        assert!(r.reduce_ok, "mid-sequence reduce completed");
        // Zero lost location records: every node holds W again and the final primary
        // knows all of them.
        let expected: Vec<NodeId> = (0..n as u32).map(NodeId).collect();
        assert_eq!(r.holders, expected, "W's location records are complete");
        // Killing node j's backup *after* node j cycles leadership of shard j back to
        // j — so after the full 0..n sweep every shard except the wrap-around one
        // (shard n-1, whose backup node 0 died before its owner) is led by its
        // original killed-and-restarted owner again. The wrap shard is led by node 0,
        // itself a restarted node, so every final primary went through kill → restart
        // → resync → re-admission.
        assert!(
            r.primaries_restored >= n - 1,
            "restarted nodes serve as primaries again ({} of {n} shards)",
            r.primaries_restored
        );
        // Each restarted node resynced both replicas it hosts (r = 2).
        assert!(r.resyncs >= n as u64, "snapshot-based resync ran, got {}", r.resyncs);
    }

    #[test]
    fn acked_prefix_survives_primary_kill_without_client_redrive() {
        // The replication guarantee is client-independent: once registrations are
        // confirmed (by the backup that applied them), killing the primary must keep
        // them at the promoted backup with the clients having *nothing* to re-drive —
        // the `directory_redrives` metric stays zero cluster-wide.
        let env = ScenarioEnv::paper_testbed();
        let n = 6;
        let mut cluster = SimCluster::new(n, env.hoplite.clone(), env.network.clone());
        let dir_node = n - 1;
        let obj = (0u64..)
            .map(|k| ObjectId::from_name(&format!("acked-{k}")))
            .find(|&o| ClusterView::of_size(n).shard_node(o).index() == dir_node)
            .unwrap();
        cluster.submit_at(
            SimTime::ZERO,
            0,
            ClientOp::Put { object: obj, payload: Payload::synthetic(32 * MB) },
        );
        let start = settle(&mut cluster);
        let gets: Vec<OpHandle> = (1..n - 1)
            .map(|node| cluster.submit_at(start, node, ClientOp::Get { object: obj }))
            .collect();
        // Let the broadcast finish and every registration get confirmed, then kill
        // the shard primary with no client traffic in flight at all.
        cluster.run();
        for &h in &gets {
            assert!(cluster.done_time(h).is_some());
        }
        for node in 0..n - 1 {
            assert_eq!(
                cluster.node_metrics(node).directory_failovers,
                0,
                "no queries outstanding before the kill"
            );
        }
        let quiesced = cluster.now();
        cluster.fail_node_at(SimTime::from_secs_f64(quiesced.as_secs_f64() + 0.5), dir_node);
        cluster.run();
        // The promoted backup holds every acked registration...
        let backup = (dir_node + 1) % n;
        let mut holders = cluster.directory_locations(backup, obj).unwrap_or_default();
        holders.sort_by_key(|h| h.0);
        let expected: Vec<NodeId> = (0..(n - 1) as u32).map(NodeId).collect();
        assert_eq!(holders, expected, "acked prefix preserved every location record");
        // ...and no client re-drove anything: the acked prefix alone carried them.
        assert_eq!(
            cluster.total_metrics().directory_redrives,
            0,
            "replication guarantee held without client re-drive"
        );
    }

    #[test]
    fn replica_kill_drills_lose_no_records_at_any_position() {
        let env = ScenarioEnv::paper_testbed();
        for kill in [ReplicaKill::Primary, ReplicaKill::FirstBackup, ReplicaKill::LastBackup] {
            let r = replica_kill_drill(&env, 8, kill, 20, 0.1);
            assert_eq!(
                r.surviving_records, r.expected_records,
                "zero lost location records with the {kill:?} killed mid-stream"
            );
        }
    }

    #[test]
    fn backup_resync_converges_under_live_traffic() {
        let env = ScenarioEnv::paper_testbed();
        let r = backup_resync_under_load(&env, 8, 0.5, 0);
        // The source was never paused: every registration submitted before, during,
        // and after the outage completed.
        assert_eq!(r.puts_completed, r.expected_records, "live traffic never blocked");
        // Zero lost records, and both the live and the restarted backup converged.
        assert_eq!(r.records_at_primary, r.expected_records, "primary holds every record");
        assert_eq!(r.records_at_live_backup, r.expected_records, "live backup converged");
        assert_eq!(r.records_at_restarted, r.expected_records, "restarted backup caught up");
        assert!(r.resyncs >= 1, "the restarted backup resynced");
        // The catch-up really was chunked, and no frame blew the budget: each chunk
        // carries at most `chunk_budget` bytes of entries (no entry here is oversized).
        assert!(r.snapshot_chunks_sent >= 2, "chunked stream, got {}", r.snapshot_chunks_sent);
        assert!(
            r.snapshot_bytes <= r.snapshot_chunks_sent * r.chunk_budget,
            "chunk bound held: {} bytes over {} chunks of budget {}",
            r.snapshot_bytes,
            r.snapshot_chunks_sent,
            r.chunk_budget
        );
    }

    #[test]
    fn the_healed_partition_probe_without_a_cut_agrees_and_completes_every_get() {
        let r = healed_partition_probe(&ScenarioEnv::paper_testbed(), false, 0);
        assert_eq!((r.disagreeing, r.gets_done, r.gets), (0, 51, 51));
    }

    /// ROADMAP item 2's acceptance: the partition heals into one view, and every Get
    /// completes. Fails until D13 is fixed.
    #[test]
    #[ignore = "D13, ROADMAP item 2"]
    fn a_partition_longer_than_the_suspicion_window_heals_into_one_view() {
        let r = healed_partition_probe(&ScenarioEnv::paper_testbed(), true, 0);
        assert_eq!((r.disagreeing, r.gets_done), (0, r.gets), "{r:?}");
    }

    /// D21's run: four nodes on the 100 ms / 40 ms / ×30 detector; node 3 is cut off
    /// from 0.8 s to 1.3 s, long enough to be suspected, and refutes (incarnation
    /// 0 → 1). With `kill` it is killed at 5 s and restarted at 12 s. Each of nodes
    /// 0–2 puts one object at 0.1 s. Returns, at 40 s, node 3's incarnation, whether
    /// it is still resyncing, and what each survivor holds of it.
    fn refuted_then_restarted(kill: bool) -> (u64, bool, Vec<(u64, GossipState, bool)>) {
        const N: usize = 4;
        let mut hoplite = HopliteConfig::paper_testbed();
        hoplite.detector = Some(DetectorConfig {
            probe_period: Duration::from_millis(100),
            ack_timeout: Duration::from_millis(40),
            suspicion_multiplier: 30,
            ..DetectorConfig::default()
        });
        let mut cluster = SimCluster::new(N, hoplite, ScenarioEnv::paper_testbed().network);
        let at = SimTime::from_secs_f64;
        for putter in 0..N - 1 {
            let object = ObjectId::from_name(&format!("d21-{putter}"));
            let payload = Payload::synthetic(1024);
            cluster.submit_at(at(0.1), putter, ClientOp::Put { object, payload });
        }
        cluster.partition_between(at(0.8), at(1.3), (0..N).map(|node| node == 3).collect());
        if kill {
            cluster.fail_node_at(at(5.0), 3);
            cluster.restart_node_at(at(12.0), 3);
        }
        cluster.run_until(at(40.0));
        let held = (0..N - 1)
            .map(|survivor| {
                let (_, incarnation, state, readmitted) =
                    cluster.node(survivor).membership().entries().nth(3).unwrap();
                (incarnation, state, readmitted)
            })
            .collect();
        (cluster.node(3).incarnation(), cluster.node(3).directory_is_resyncing(), held)
    }

    #[test]
    fn a_refuted_suspicion_without_a_restart_stays_healthy() {
        let (incarnation, resyncing, held) = refuted_then_restarted(false);
        assert_eq!((incarnation, resyncing), (1, false));
        assert_eq!(held, vec![(1, GossipState::Alive, true); 3]);
    }

    /// D21: a refutation bumps only the table's entry, while every driver restarts a
    /// node at its own record + 1 and stamps its kill verdict with that record. So the
    /// three verdicts name incarnation 0 and are dropped as stale, and the restart at
    /// incarnation 1 loses every claim to `Dead{1}`, refutes to 2 and stays resyncing.
    /// The healthy outcome: the restarted process resynced, and every survivor holds
    /// it alive and readmitted at its own incarnation. Fails until item 2's one rejoin
    /// path.
    #[test]
    #[ignore = "D21, ROADMAP item 2"]
    fn a_restart_after_a_refutation_is_readmitted_everywhere() {
        let (incarnation, resyncing, held) = refuted_then_restarted(true);
        assert!(!resyncing, "node 3 still resyncing at incarnation {incarnation}: {held:?}");
        assert_eq!(held, vec![(incarnation, GossipState::Alive, true); 3]);
    }

    #[test]
    fn partition_suspicion_is_refuted_with_zero_deaths() {
        let env = ScenarioEnv::paper_testbed();
        let r = partition_suspicion_refuted(&env, 6, 0);
        assert!(r.probes_sent > 0, "the detector was probing");
        assert!(r.suspicions_raised >= 1, "the cut drove at least one suspicion");
        assert!(r.refutations_sent >= 1, "the suspect refuted with an incarnation bump");
        assert_eq!(r.deaths_declared, 0, "transient partition must not kill anyone");
        assert_eq!(r.deaths_learned, 0, "no death gossip either");
        assert!(r.gossip_entries > 0, "membership rode piggybacked on probes");
        assert_eq!(r.gets_completed, r.gets_expected, "traffic completed across the cut");
    }

    #[test]
    fn directory_fetch_is_a_couple_of_rpcs() {
        let env = ScenarioEnv::paper_testbed();
        let r = directory_fetch_latency(&env, 1024);
        assert!(r.latency_s < 1e-3, "{}", r.latency_s);
        assert!(r.latency_s >= 150e-6, "{}", r.latency_s);
    }
}
