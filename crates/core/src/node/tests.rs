//! Facade-level tests for the node engines: broadcast, reduce, and the failure
//! adaptation rules, driven hand-over-hand through [`ObjectStoreNode`]'s public API.

use super::*;
use crate::buffer::Payload;
use crate::error::HopliteError;
use crate::protocol::{ClientOp, ClientReply, Effect, QueryResult};
use crate::reduce::ReduceSpec;

fn setup(n: usize) -> (Vec<ObjectStoreNode>, ClusterView) {
    let cluster = ClusterView::of_size(n);
    let cfg = HopliteConfig::small_for_tests();
    let nodes = cluster
        .nodes
        .iter()
        .map(|&id| ObjectStoreNode::new(id, cfg.clone(), cluster.clone(), NodeOptions::default()))
        .collect();
    (nodes, cluster)
}

/// A hand-driven test cluster: delivers effects FIFO (preserving the per-link ordering
/// that real transports and the simulator provide) and supports killing nodes
/// mid-run — messages to and from dead nodes are dropped and every survivor gets a
/// failure notification, exactly like a driver's failure detector.
struct TestCluster {
    nodes: Vec<ObjectStoreNode>,
    pending: std::collections::VecDeque<(NodeId, Vec<Effect>)>,
    replies: Vec<(NodeId, OpId, ClientReply)>,
    dead: std::collections::BTreeSet<usize>,
}

impl TestCluster {
    fn new(n: usize) -> TestCluster {
        TestCluster::with_config(n, HopliteConfig::small_for_tests())
    }

    fn with_config(n: usize, cfg: HopliteConfig) -> TestCluster {
        let cluster = ClusterView::of_size(n);
        let nodes = cluster
            .nodes
            .iter()
            .map(|&id| {
                ObjectStoreNode::new(id, cfg.clone(), cluster.clone(), NodeOptions::default())
            })
            .collect();
        TestCluster {
            nodes,
            pending: Default::default(),
            replies: Vec::new(),
            dead: Default::default(),
        }
    }

    fn client(&mut self, node: usize, op: OpId, request: ClientOp) {
        let mut out = Vec::new();
        self.nodes[node].handle_client(Time::ZERO, op, request, &mut out);
        self.pending.push_back((NodeId(node as u32), out));
    }

    /// Kill `node`: drop its queued traffic and notify every survivor.
    fn kill(&mut self, node: usize) {
        self.dead.insert(node);
        for (i, n) in self.nodes.iter_mut().enumerate() {
            if !self.dead.contains(&i) {
                let mut out = Vec::new();
                n.handle_peer_failed(Time::ZERO, NodeId(node as u32), &mut out);
                self.pending.push_back((NodeId(i as u32), out));
            }
        }
    }

    /// Deliver until quiescent.
    fn run(&mut self) {
        self.run_reframing(|msg| msg);
    }

    /// Deliver until quiescent, passing every message through `reframe` on the wire.
    fn run_reframing(&mut self, mut reframe: impl FnMut(Message) -> Message) {
        let mut steps = 0;
        while let Some((from, batch)) = self.pending.pop_front() {
            if self.dead.contains(&from.index()) {
                continue; // effects of a node that died before they were applied
            }
            for effect in batch {
                match effect {
                    Effect::Send { to, msg } => {
                        if self.dead.contains(&to.index()) {
                            continue; // dropped on the floor, like a real network
                        }
                        let mut out = Vec::new();
                        let msg = reframe(msg);
                        self.nodes[to.index()].handle_message(Time::ZERO, from, msg, &mut out);
                        self.pending.push_back((to, out));
                    }
                    Effect::Reply { op, reply } => self.replies.push((from, op, reply)),
                    Effect::SetTimer { .. }
                    | Effect::LocalProgress { .. }
                    | Effect::PeerDown { .. } => {}
                }
            }
            steps += 1;
            assert!(steps < 200_000, "message storm");
        }
    }

    fn reply_payload(&self, op: OpId) -> Option<Payload> {
        self.replies.iter().find_map(|(_, o, r)| match (o, r) {
            (o, ClientReply::GetDone { payload, .. }) if *o == op => Some(payload.clone()),
            _ => None,
        })
    }

    /// Restart `node` as a fresh process at `incarnation` (empty store, empty
    /// replicas) and let it begin directory recovery. Deliberately does *not*
    /// notify survivors — tests choose whether the detector or the rejoin
    /// messages themselves carry the news.
    fn restart(&mut self, node: usize, incarnation: u64) {
        self.dead.remove(&node);
        let cluster = ClusterView::of_size(self.nodes.len());
        let opts = NodeOptions { incarnation, ..Default::default() };
        self.nodes[node] = ObjectStoreNode::new(
            NodeId(node as u32),
            HopliteConfig::small_for_tests(),
            cluster,
            opts,
        );
        let mut out = Vec::new();
        self.nodes[node].begin_recovery(Time::ZERO, &mut out);
        self.pending.push_back((NodeId(node as u32), out));
    }

    /// Deliver the detector's recovery notice for `node` to every live peer.
    fn notify_recovered(&mut self, node: usize) {
        for (i, n) in self.nodes.iter_mut().enumerate() {
            if !self.dead.contains(&i) && i != node {
                let mut out = Vec::new();
                n.handle_peer_recovered(Time::ZERO, NodeId(node as u32), &mut out);
                self.pending.push_back((NodeId(i as u32), out));
            }
        }
    }

    /// Deliver a wire-level failure notice to one node.
    fn failure_notice(&mut self, to: usize, about: usize, incarnation: u64) {
        let mut out = Vec::new();
        self.nodes[to].handle_message(
            Time::ZERO,
            NodeId(to as u32),
            Message::PeerFailureNotice { node: NodeId(about as u32), incarnation },
            &mut out,
        );
        self.pending.push_back((NodeId(to as u32), out));
    }
}

/// An object whose directory shard initially lives on `shard_host`.
fn object_on_shard(cluster: &ClusterView, shard_host: NodeId) -> ObjectId {
    (0..)
        .map(|i| ObjectId::from_name(&format!("probe{i}")))
        .find(|&o| cluster.shard_node(o) == shard_host)
        .expect("some probe object hashes to every shard")
}

/// Deliver effects until quiescence, returning all client replies (legacy helper for
/// the failure-free tests below).
fn run_to_quiescence(
    nodes: &mut [ObjectStoreNode],
    effects: Vec<(NodeId, Vec<Effect>)>,
) -> Vec<(NodeId, OpId, ClientReply)> {
    let mut effects: std::collections::VecDeque<(NodeId, Vec<Effect>)> =
        effects.into_iter().collect();
    let mut replies = Vec::new();
    let mut steps = 0;
    while let Some((from, batch)) = effects.pop_front() {
        for effect in batch {
            match effect {
                Effect::Send { to, msg } => {
                    let mut out = Vec::new();
                    nodes[to.index()].handle_message(Time::ZERO, from, msg, &mut out);
                    effects.push_back((to, out));
                }
                Effect::Reply { op, reply } => replies.push((from, op, reply)),
                Effect::SetTimer { .. }
                | Effect::LocalProgress { .. }
                | Effect::PeerDown { .. } => {}
            }
        }
        steps += 1;
        assert!(steps < 100_000, "message storm");
    }
    replies
}

#[test]
fn put_then_remote_get_delivers_bytes() {
    let (mut nodes, _) = setup(4);
    let object = ObjectId::from_name("payload");
    let data: Vec<u8> = (0..5000u32).map(|i| (i % 251) as u8).collect();

    let mut out = Vec::new();
    nodes[0].handle_client(
        Time::ZERO,
        OpId(1),
        ClientOp::Put { object, payload: Payload::from_vec(data.clone()) },
        &mut out,
    );
    let replies = run_to_quiescence(&mut nodes, vec![(NodeId(0), out)]);
    assert!(replies
        .iter()
        .any(|(_, op, r)| *op == OpId(1) && matches!(r, ClientReply::PutDone { .. })));

    let mut out = Vec::new();
    nodes[2].handle_client(Time::ZERO, OpId(2), ClientOp::Get { object }, &mut out);
    let replies = run_to_quiescence(&mut nodes, vec![(NodeId(2), out)]);
    let got = replies
        .iter()
        .find_map(|(_, op, r)| match (op, r) {
            (OpId(2), ClientReply::GetDone { payload, .. }) => Some(payload.clone()),
            _ => None,
        })
        .expect("get completed");
    assert_eq!(got, Payload::from_vec(data));
    assert!(nodes[2].has_complete(object));
}

#[test]
fn forward_transit_never_copies_payload_bytes() {
    // The relay role of receiver-driven broadcast (§3.4.1): blocks stream in from a
    // sender, land in the store, and are served onward to a chained receiver. The
    // whole transit — receive → append → read → send effect — must be zero payload
    // memcpys, asserted by the debug copy counter so a regression cannot hide.
    let (mut nodes, _) = setup(3);
    let object = ObjectId::from_name("transit");
    let block_len = 1024usize; // small_for_tests block size
    let total = 4 * block_len as u64;
    let blocks: Vec<Payload> =
        (0..4).map(|i| Payload::from_vec(vec![i as u8 + 1; block_len])).collect();
    crate::copytrace::reset();
    let mut fx = Vec::new();
    for (i, block) in blocks.iter().enumerate() {
        nodes[0].handle_message(
            Time::ZERO,
            NodeId(1),
            Message::PushBlock {
                object,
                offset: (i * block_len) as u64,
                total_size: total,
                payload: block.clone(),
                complete: i == 3,
            },
            &mut fx,
        );
    }
    nodes[0].handle_message(
        Time::ZERO,
        NodeId(2),
        Message::PullRequest { object, requester: NodeId(2), offset: 0 },
        &mut fx,
    );
    let forwarded: Vec<&Payload> = fx
        .iter()
        .filter_map(|e| match e {
            Effect::Send { to, msg: Message::PushBlock { payload, .. } } if *to == NodeId(2) => {
                Some(payload)
            }
            _ => None,
        })
        .collect();
    assert_eq!(forwarded.len(), 4);
    assert_eq!(
        crate::copytrace::bytes_copied(),
        0,
        "receive → store → forward transit must not memcpy payload bytes"
    );
    // Stronger than "no copies counted": each forwarded block aliases the storage of
    // the block that came in.
    for (incoming, outgoing) in blocks.iter().zip(&forwarded) {
        let in_ptr = incoming.as_bytes().unwrap().as_slice().as_ptr();
        let out_ptr = outgoing.segments().next().unwrap().as_slice().as_ptr();
        assert_eq!(in_ptr, out_ptr);
    }
}

#[test]
fn get_of_a_multi_block_object_copies_no_payload_bytes() {
    // A 16-block object pulled node 0 → node 1 → node 2, node 1 relaying while it
    // receives. No node copies a payload byte — the callers of `get` included: what
    // they are handed is the blocks their node received, by reference.
    let (mut nodes, _) = setup(3);
    let object = ObjectId::from_name("sixteen-blocks");
    let block_len = 1024usize; // small_for_tests block size
    let data: Vec<u8> = (0..16 * block_len).map(|i| (i % 251) as u8).collect();
    let mut out = Vec::new();
    nodes[0].handle_client(
        Time::ZERO,
        OpId(1),
        ClientOp::Put { object, payload: Payload::from_vec(data.clone()) },
        &mut out,
    );
    run_to_quiescence(&mut nodes, vec![(NodeId(0), out)]);

    crate::copytrace::reset();
    // Both receivers ask at once: the directory leases node 0 to the first and chains
    // the second off the first's partial copy (§3.4.1).
    let mut queue = std::collections::VecDeque::new();
    for r in [1u32, 2] {
        let mut out = Vec::new();
        nodes[r as usize].handle_client(
            Time::ZERO,
            OpId(10 + r as u64),
            ClientOp::Get { object },
            &mut out,
        );
        queue.push_back((NodeId(r), out));
    }
    // Per node: the address ranges of the blocks it was handed, and what its Get got.
    let mut handed: Vec<Vec<std::ops::Range<*const u8>>> = vec![Vec::new(); 3];
    let mut got: Vec<(NodeId, Payload)> = Vec::new();
    while let Some((from, batch)) = queue.pop_front() {
        for effect in batch {
            match effect {
                Effect::Send { to, msg } => {
                    if let Message::PushBlock { payload, .. } = &msg {
                        handed[to.index()]
                            .extend(payload.segments().map(|s| s.as_slice().as_ptr_range()));
                    }
                    let mut out = Vec::new();
                    nodes[to.index()].handle_message(Time::ZERO, from, msg, &mut out);
                    queue.push_back((to, out));
                }
                Effect::Reply { reply: ClientReply::GetDone { payload, .. }, .. } => {
                    got.push((from, payload));
                }
                _ => {}
            }
        }
    }
    assert_eq!(crate::copytrace::bytes_copied(), 0, "no node may memcpy payload bytes");
    assert_eq!(nodes[0].metrics().pulls_served, 1);
    assert_eq!(nodes[1].metrics().pulls_served, 1, "node 1 relayed to node 2");
    assert_eq!(got.len(), 2);
    for (node, payload) in &got {
        assert_eq!(payload.segments().count(), 16, "one segment per received block");
        for seg in payload.segments() {
            let seg = seg.as_slice().as_ptr_range();
            assert!(
                handed[node.index()].iter().any(|b| b.start <= seg.start && seg.end <= b.end),
                "{node:?} was returned bytes outside the blocks it received"
            );
        }
        assert_eq!(payload, &Payload::from_vec(data.clone()));
    }
}

#[test]
fn small_objects_use_inline_fast_path() {
    let (mut nodes, _) = setup(3);
    let object = ObjectId::from_name("tiny");
    let mut out = Vec::new();
    nodes[1].handle_client(
        Time::ZERO,
        OpId(1),
        ClientOp::Put { object, payload: Payload::from_vec(vec![42; 16]) },
        &mut out,
    );
    run_to_quiescence(&mut nodes, vec![(NodeId(1), out)]);
    let mut out = Vec::new();
    nodes[0].handle_client(Time::ZERO, OpId(2), ClientOp::Get { object }, &mut out);
    let replies = run_to_quiescence(&mut nodes, vec![(NodeId(0), out)]);
    assert!(replies.iter().any(|(_, _, r)| matches!(r, ClientReply::GetDone { .. })));
    // The fast path serves from the directory: the creator never received a pull.
    assert_eq!(nodes[1].metrics().pulls_served, 0);
}

/// A query reply is matched to its Get by object *and* query id. A reply carrying the
/// right id but naming another object is dropped without consuming anything, so the
/// genuine reply that follows still completes the Get.
#[test]
fn a_query_reply_naming_another_object_leaves_the_get_waiting_for_its_own() {
    let mut tc = TestCluster::new(3);
    let object = object_on_shard(&ClusterView::of_size(3), NodeId(0));
    tc.client(1, OpId(1), ClientOp::Put { object, payload: Payload::from_vec(vec![7; 16]) });
    tc.run();
    tc.client(2, OpId(2), ClientOp::Get { object });
    let (_, effects) = tc.pending.back().expect("the get's effects");
    let query_id = effects
        .iter()
        .find_map(|e| match e {
            Effect::Send { to: NodeId(0), msg: Message::DirQuery { query_id, .. } } => {
                Some(*query_id)
            }
            _ => None,
        })
        .expect("the get queries shard 0's primary");

    let decoy = Message::DirQueryReply {
        object: ObjectId::from_name("decoy"),
        query_id,
        result: QueryResult::Deleted,
    };
    let mut out = Vec::new();
    tc.nodes[2].handle_message(Time::ZERO, NodeId(0), decoy, &mut out);
    assert!(out.is_empty(), "{out:?}");
    tc.run();
    assert_eq!(tc.reply_payload(OpId(2)), Some(Payload::from_vec(vec![7; 16])));
}

#[test]
fn broadcast_to_many_receivers_completes_everywhere() {
    let (mut nodes, _) = setup(8);
    let object = ObjectId::from_name("model");
    let data: Vec<u8> = (0..10_000u32).map(|i| (i * 7 % 256) as u8).collect();
    let mut out = Vec::new();
    nodes[0].handle_client(
        Time::ZERO,
        OpId(1),
        ClientOp::Put { object, payload: Payload::from_vec(data.clone()) },
        &mut out,
    );
    run_to_quiescence(&mut nodes, vec![(NodeId(0), out)]);

    let mut initial = Vec::new();
    for r in 1..8u32 {
        let mut out = Vec::new();
        nodes[r as usize].handle_client(
            Time::ZERO,
            OpId(100 + r as u64),
            ClientOp::Get { object },
            &mut out,
        );
        initial.push((NodeId(r), out));
    }
    let replies = run_to_quiescence(&mut nodes, initial);
    let done = replies.iter().filter(|(_, _, r)| matches!(r, ClientReply::GetDone { .. })).count();
    assert_eq!(done, 7);
    for (r, node) in nodes.iter().enumerate().skip(1) {
        assert!(node.has_complete(object));
        assert_eq!(
            node.store().total_size(object),
            Some(data.len() as u64),
            "receiver {r} has full object"
        );
    }
}

#[test]
fn reduce_sums_across_nodes() {
    let (mut nodes, _) = setup(5);
    let sources: Vec<ObjectId> =
        (0..4).map(|i| ObjectId::from_name(&format!("grad-{i}"))).collect();
    // Each of nodes 1..=4 puts a gradient of 600 floats.
    let mut initial = Vec::new();
    for (i, &src) in sources.iter().enumerate() {
        let values: Vec<f32> = (0..600).map(|j| (i as f32) + (j as f32) * 0.001).collect();
        let mut out = Vec::new();
        nodes[i + 1].handle_client(
            Time::ZERO,
            OpId(10 + i as u64),
            ClientOp::Put { object: src, payload: Payload::from_f32s(&values) },
            &mut out,
        );
        initial.push((NodeId((i + 1) as u32), out));
    }
    run_to_quiescence(&mut nodes, initial);

    let target = ObjectId::from_name("sum");
    let mut out = Vec::new();
    nodes[0].handle_client(
        Time::ZERO,
        OpId(1),
        ClientOp::Reduce {
            target,
            sources: sources.clone(),
            num_objects: None,
            spec: ReduceSpec::sum_f32(),
            degree: None,
        },
        &mut out,
    );
    run_to_quiescence(&mut nodes, vec![(NodeId(0), out)]);

    let mut out = Vec::new();
    nodes[0].handle_client(Time::ZERO, OpId(2), ClientOp::Get { object: target }, &mut out);
    let replies = run_to_quiescence(&mut nodes, vec![(NodeId(0), out)]);
    let payload = replies
        .iter()
        .find_map(|(_, op, r)| match (op, r) {
            (OpId(2), ClientReply::GetDone { payload, .. }) => Some(payload.clone()),
            _ => None,
        })
        .expect("reduce result fetched");
    let values = payload.to_f32s();
    assert_eq!(values.len(), 600);
    for (j, v) in values.iter().enumerate() {
        let expected = (0..4).map(|i| i as f32 + j as f32 * 0.001).sum::<f32>();
        assert!((v - expected).abs() < 1e-3, "element {j}: {v} vs {expected}");
    }
}

#[test]
fn delete_removes_all_copies() {
    let (mut nodes, _) = setup(3);
    let object = ObjectId::from_name("temp");
    let mut out = Vec::new();
    nodes[0].handle_client(
        Time::ZERO,
        OpId(1),
        ClientOp::Put { object, payload: Payload::zeros(4000) },
        &mut out,
    );
    run_to_quiescence(&mut nodes, vec![(NodeId(0), out)]);
    let mut out = Vec::new();
    nodes[1].handle_client(Time::ZERO, OpId(2), ClientOp::Get { object }, &mut out);
    run_to_quiescence(&mut nodes, vec![(NodeId(1), out)]);
    assert!(nodes[1].has_complete(object));

    let mut out = Vec::new();
    nodes[2].handle_client(Time::ZERO, OpId(3), ClientOp::Delete { object }, &mut out);
    run_to_quiescence(&mut nodes, vec![(NodeId(2), out)]);
    assert!(!nodes[0].store().contains(object));
    assert!(!nodes[1].store().contains(object));
}

#[test]
fn get_before_put_parks_until_data_exists() {
    let (mut nodes, _) = setup(2);
    let object = ObjectId::from_name("future");
    let mut out = Vec::new();
    nodes[1].handle_client(Time::ZERO, OpId(1), ClientOp::Get { object }, &mut out);
    let replies = run_to_quiescence(&mut nodes, vec![(NodeId(1), out)]);
    assert!(replies.is_empty(), "nothing to reply yet");

    let mut out = Vec::new();
    nodes[0].handle_client(
        Time::ZERO,
        OpId(2),
        ClientOp::Put { object, payload: Payload::zeros(5000) },
        &mut out,
    );
    let replies = run_to_quiescence(&mut nodes, vec![(NodeId(0), out)]);
    assert!(replies.iter().any(|(node, op, r)| *node == NodeId(1)
        && *op == OpId(1)
        && matches!(r, ClientReply::GetDone { .. })));
}

#[test]
fn reduce_subset_uses_earliest_arrivals() {
    let (mut nodes, _) = setup(6);
    let sources: Vec<ObjectId> = (0..5).map(|i| ObjectId::from_name(&format!("s{i}"))).collect();
    let target = ObjectId::from_name("partial-sum");
    // Start the reduce before any source exists.
    let mut out = Vec::new();
    nodes[0].handle_client(
        Time::ZERO,
        OpId(1),
        ClientOp::Reduce {
            target,
            sources: sources.clone(),
            num_objects: Some(3),
            spec: ReduceSpec::sum_f32(),
            degree: Some(2),
        },
        &mut out,
    );
    run_to_quiescence(&mut nodes, vec![(NodeId(0), out)]);

    // Only three sources ever appear (on nodes 1..=3), each a constant vector.
    let mut initial = Vec::new();
    for i in 0..3usize {
        let values = vec![(i + 1) as f32; 300];
        let mut out = Vec::new();
        nodes[i + 1].handle_client(
            Time::ZERO,
            OpId(10 + i as u64),
            ClientOp::Put { object: sources[i], payload: Payload::from_f32s(&values) },
            &mut out,
        );
        initial.push((NodeId((i + 1) as u32), out));
    }
    run_to_quiescence(&mut nodes, initial);

    let mut out = Vec::new();
    nodes[0].handle_client(Time::ZERO, OpId(2), ClientOp::Get { object: target }, &mut out);
    let replies = run_to_quiescence(&mut nodes, vec![(NodeId(0), out)]);
    let payload = replies
        .iter()
        .find_map(|(_, op, r)| match (op, r) {
            (OpId(2), ClientReply::GetDone { payload, .. }) => Some(payload.clone()),
            _ => None,
        })
        .expect("subset reduce completed with 3 of 5 sources");
    for v in payload.to_f32s() {
        assert!((v - 6.0).abs() < 1e-4, "1 + 2 + 3 = 6, got {v}");
    }
}

// ------------------------------------------------------------ failure-seam tests --

/// §3.5.1: a receiver whose sender dies re-pulls from a surviving copy through a fresh
/// directory query, keeping the blocks it already has, and the Get still completes.
#[test]
fn broadcast_repulls_after_sender_loss() {
    let mut tc = TestCluster::new(4);
    // The seed does not replicate directory shards (§3.5 notes the paper uses
    // replication for that), so pick an object whose shard lives on node 3 — a node
    // that is neither a copy holder (0, 1) nor the receiver under test (2).
    let cluster = ClusterView::of_size(4);
    let object = (0u64..)
        .map(|k| ObjectId::from_name(&format!("failover-object-{k}")))
        .find(|&o| cluster.shard_node(o).index() == 3)
        .unwrap();
    let data: Vec<u8> = (0..8000u32).map(|i| (i * 13 % 251) as u8).collect();

    // Node 0 creates the object; node 1 fetches a full copy.
    tc.client(0, OpId(1), ClientOp::Put { object, payload: Payload::from_vec(data.clone()) });
    tc.run();
    tc.client(1, OpId(2), ClientOp::Get { object });
    tc.run();
    assert!(tc.nodes[1].has_complete(object));

    // Node 2 asks for the object but we intercept before delivery: run only the
    // directory exchange by hand so the pull is "in flight" when the sender dies.
    let mut out = Vec::new();
    tc.nodes[2].handle_client(Time::ZERO, OpId(3), ClientOp::Get { object }, &mut out);
    // Deliver everything except PushBlock data, so node 2 is registered as pulling
    // from its chosen sender but has not received a byte yet.
    let mut parked_sender = None;
    let mut queue: std::collections::VecDeque<(NodeId, Vec<Effect>)> =
        vec![(NodeId(2), out)].into();
    while let Some((from, batch)) = queue.pop_front() {
        for effect in batch {
            if let Effect::Send { to, msg } = effect {
                if let Message::PullRequest { .. } = &msg {
                    parked_sender = Some(to);
                    continue; // drop the pull: the sender dies before serving it
                }
                let mut out = Vec::new();
                tc.nodes[to.index()].handle_message(Time::ZERO, from, msg, &mut out);
                queue.push_back((to, out));
            }
        }
    }
    let victim = parked_sender.expect("directory assigned a sender").index();
    assert!(!tc.nodes[2].has_complete(object));

    // The sender dies; the failure detector tells everyone.
    tc.kill(victim);
    tc.run();

    // Node 2 failed over to a surviving holder and completed with identical bytes.
    tc.client(2, OpId(4), ClientOp::Get { object });
    tc.run();
    let got = tc.reply_payload(OpId(4)).expect("get completed after failover");
    assert_eq!(got, Payload::from_vec(data));
    assert!(tc.nodes[2].metrics().broadcast_failovers >= 1, "receiver recorded a failover");
}

/// §3.5.2: when a reduce participant's node dies mid-reduce, the coordinator vacates
/// its slot, bumps the ancestors' epochs (re-parenting the survivors), and the reduce
/// completes once a replacement copy of the lost input appears elsewhere.
#[test]
fn reduce_reparents_after_participant_failure() {
    let mut tc = TestCluster::new(7);
    // Directory shards are not replicated in the seed, so derive object names whose
    // shards all avoid node 2 (the participant we will kill): killing it must take
    // down a reduce participant, not the metadata for its input.
    let cluster = ClusterView::of_size(7);
    let (sources, target) = (0u64..)
        .map(|k| {
            let sources: Vec<ObjectId> =
                (0..4).map(|i| ObjectId::from_name(&format!("rf-{k}-{i}"))).collect();
            let target = ObjectId::from_name(&format!("rf-{k}-sum"));
            (sources, target)
        })
        .find(|(sources, target)| {
            sources
                .iter()
                .chain(std::iter::once(target))
                .all(|&o| cluster.shard_node(o).index() != 2)
        })
        .unwrap();

    // Start the reduce before any input exists; a chain (degree 1) maximizes the
    // ancestor set that must reset on failure.
    tc.client(
        0,
        OpId(1),
        ClientOp::Reduce {
            target,
            sources: sources.clone(),
            num_objects: None,
            spec: ReduceSpec::sum_f32(),
            degree: Some(1),
        },
    );
    tc.run();

    // Three of the four inputs appear on nodes 1..=3; the reduce cannot finish yet.
    for (i, &source) in sources.iter().enumerate().take(3) {
        let values = vec![(i + 1) as f32; 400];
        tc.client(
            i + 1,
            OpId(10 + i as u64),
            ClientOp::Put { object: source, payload: Payload::from_f32s(&values) },
        );
    }
    tc.run();
    assert!(!tc.nodes.iter().any(|n| n.has_complete(target)), "reduce still pending");

    // Node 2 (owner of source 1, value 2.0) dies. The coordinator must vacate its
    // slot and bump the epochs of its ancestors.
    tc.kill(2);
    tc.run();

    // The lost input is recreated on node 5 (the task framework's lineage
    // reconstruction would do this), and the final input appears on node 4.
    tc.client(
        5,
        OpId(20),
        ClientOp::Put { object: sources[1], payload: Payload::from_f32s(&vec![2.0f32; 400]) },
    );
    tc.client(
        4,
        OpId(21),
        ClientOp::Put { object: sources[3], payload: Payload::from_f32s(&vec![4.0f32; 400]) },
    );
    tc.run();

    // The repaired tree completes: 1 + 2 + 3 + 4 = 10, bit-exact.
    tc.client(0, OpId(30), ClientOp::Get { object: target });
    tc.run();
    let payload = tc.reply_payload(OpId(30)).expect("reduce completed after repair");
    let values = payload.to_f32s();
    assert_eq!(values.len(), 400);
    for v in values {
        assert!((v - 10.0).abs() < 1e-4, "expected 10, got {v}");
    }
    // At least one survivor cleared a partial accumulation (epoch bump observed).
    let resets: u64 = tc.nodes.iter().map(|n| n.metrics().reduce_resets).sum();
    assert!(resets >= 1, "some participant reset its accumulation");
}

/// A Get whose only copy disappears with a failed node parks (rather than erroring or
/// hanging the engine) and completes when the object is recreated.
#[test]
fn get_survives_total_copy_loss_until_recreation() {
    let mut tc = TestCluster::new(4);
    let object = ObjectId::from_name("sole-copy");
    // Choose a creator that is NOT the directory shard for the object, so killing the
    // creator does not take the directory down with it.
    let shard = ClusterView::of_size(4).shard_node(object).index();
    let creator = (shard + 1) % 4;
    let getter = (shard + 2) % 4;
    let data = vec![7u8; 4000];

    tc.client(creator, OpId(1), ClientOp::Put { object, payload: Payload::from_vec(data.clone()) });
    tc.run();

    // Park a get at `getter` with the pull dropped (sender dies before serving).
    let mut out = Vec::new();
    tc.nodes[getter].handle_client(Time::ZERO, OpId(2), ClientOp::Get { object }, &mut out);
    let mut queue: std::collections::VecDeque<(NodeId, Vec<Effect>)> =
        vec![(NodeId(getter as u32), out)].into();
    while let Some((from, batch)) = queue.pop_front() {
        for effect in batch {
            if let Effect::Send { to, msg } = effect {
                if matches!(msg, Message::PullRequest { .. }) {
                    continue;
                }
                let mut out = Vec::new();
                tc.nodes[to.index()].handle_message(Time::ZERO, from, msg, &mut out);
                queue.push_back((to, out));
            }
        }
    }

    // The only holder dies: the re-query must park (no usable location), not error.
    tc.kill(creator);
    tc.run();
    assert!(tc.reply_payload(OpId(2)).is_none(), "get is parked, not failed");

    // The object is recreated elsewhere; the parked query is finally answered.
    let recreator = shard; // any survivor
    tc.client(
        recreator,
        OpId(3),
        ClientOp::Put { object, payload: Payload::from_vec(data.clone()) },
    );
    tc.run();
    let got = tc.reply_payload(OpId(2)).expect("parked get completed after recreation");
    assert_eq!(got, Payload::from_vec(data));
}

/// Reduce-state GC: once a reduce completes, every node's reduce maps (participants,
/// coordinators, parked blocks) are empty and the coordinator's directory
/// subscriptions are closed.
#[test]
fn reduce_state_is_released_after_completion() {
    let mut tc = TestCluster::new(5);
    let sources: Vec<ObjectId> = (0..4).map(|i| ObjectId::from_name(&format!("gc-{i}"))).collect();
    for (i, &src) in sources.iter().enumerate() {
        tc.client(
            i + 1,
            OpId(10 + i as u64),
            ClientOp::Put { object: src, payload: Payload::from_f32s(&vec![1.0f32; 400]) },
        );
    }
    tc.run();
    let target = ObjectId::from_name("gc-sum");
    tc.client(
        0,
        OpId(1),
        ClientOp::Reduce {
            target,
            sources,
            num_objects: None,
            spec: ReduceSpec::sum_f32(),
            degree: Some(2),
        },
    );
    tc.run();
    tc.client(0, OpId(2), ClientOp::Get { object: target });
    tc.run();
    assert!(tc.reply_payload(OpId(2)).is_some(), "reduce completed");
    for (i, node) in tc.nodes.iter().enumerate() {
        assert!(node.reduce_state_is_empty(), "node {i} still holds reduce state");
        assert_eq!(
            node.directory_subscription_count(),
            0,
            "node {i} still holds directory subscriptions"
        );
    }
}

/// Two reduces coordinated on one node share a source, and the one that finishes last
/// lists it twice: the first to finish leaves the shared source subscribed for the
/// other, and once the last one finishes every source has been unsubscribed exactly
/// once.
#[test]
fn a_shared_source_is_unsubscribed_once_after_its_last_reduce() {
    let mut tc = TestCluster::new(5);
    let cluster = ClusterView::of_size(5);
    // Shards away from the coordinator, so every unsubscribe crosses the wire.
    let [shared, own, late] = [1, 2, 3].map(|host| object_on_shard(&cluster, NodeId(host)));
    let put = |object| ClientOp::Put { object, payload: Payload::from_f32s(&[1.0; 300]) };
    tc.client(1, OpId(11), put(shared));
    tc.client(2, OpId(12), put(own));
    tc.run();
    let reduce = |target: &str, sources| ClientOp::Reduce {
        target: ObjectId::from_name(target),
        sources,
        num_objects: Some(2),
        spec: ReduceSpec::sum_f32(),
        degree: None,
    };
    tc.client(0, OpId(1), reduce("first", vec![shared, own]));
    tc.client(0, OpId(2), reduce("second", vec![shared, late, shared]));
    let mut unsubscribed = Vec::new();
    let mut watch = |msg: Message| {
        if let Message::DirUnsubscribe { object, .. } = msg {
            unsubscribed.push(object);
        }
        msg
    };
    tc.run_reframing(&mut watch);
    // "first" is done; "second" still waits for `late` and keeps `shared`.
    assert_eq!(tc.nodes[0].directory_subscription_count(), 2);
    tc.client(3, OpId(13), put(late));
    tc.run_reframing(&mut watch);
    assert_eq!(tc.nodes[0].directory_subscription_count(), 0);
    assert_eq!(unsubscribed, vec![own, shared, late]);
    assert!(tc.nodes[0].reduce_state_is_empty());
}

/// Reduce accumulators recycle through the process's pool, shared by every node: a
/// three-input fold over 8 blocks checks out 8 buffers the first time and, once that
/// reduce is released and its result deleted, the same 8 the second time — nothing is
/// allocated per block after warm-up, and a frozen block is never reissued while a
/// view of it is alive.
#[test]
fn reduce_accumulators_are_recycled_after_release() {
    let mut tc = TestCluster::new(4);
    let pool = SlabPool::for_block_size(1024);
    tc.nodes = tc.nodes.drain(..).map(|node| node.with_pool(pool.clone())).collect();
    let len = 8 * 1024 / 4; // 8 blocks of small_for_tests' 1 KiB
    let pools = || (pool.reuses(), pool.idle_slabs());
    for run in 0..2u64 {
        let sources: Vec<ObjectId> =
            (0..3).map(|i| ObjectId::from_name(&format!("recycle-{run}-{i}"))).collect();
        let target = ObjectId::from_name(&format!("recycle-{run}-sum"));
        // Degree 2 over three inputs: a root folding its own object and two child
        // streams. Sources appear one at a time, so the same node is root both runs.
        tc.client(
            0,
            OpId(100 * run + 1),
            ClientOp::Reduce {
                target,
                sources: sources.clone(),
                num_objects: None,
                spec: ReduceSpec::sum_f32(),
                degree: Some(2),
            },
        );
        tc.run();
        for (i, &source) in sources.iter().enumerate() {
            let values: Vec<f32> = (0..len).map(|j| (i + 1) as f32 + j as f32).collect();
            let put = ClientOp::Put { object: source, payload: Payload::from_f32s(&values) };
            tc.client(i + 1, OpId(100 * run + 10 + i as u64), put);
            tc.run();
        }
        tc.client(0, OpId(100 * run + 2), ClientOp::Get { object: target });
        tc.run();
        let result = tc.reply_payload(OpId(100 * run + 2)).expect("reduce completed").to_f32s();
        let reference: Vec<f32> = (0..len).map(|j| 6.0 + 3.0 * j as f32).collect();
        assert_eq!(result, reference, "run {run}");
        // While the result object is alive its blocks pin all 8 accumulators.
        assert_eq!(pools(), (8 * run, 0), "run {run}: reuses, idle buffers");

        tc.replies.clear();
        tc.client(0, OpId(100 * run + 3), ClientOp::Delete { object: target });
        tc.run();
        assert!(tc.nodes.iter().all(|n| n.reduce_state_is_empty()));
        assert_eq!(pools(), (8 * run, 8), "run {run}: every accumulator came back, none new");
    }
}

// ------------------------------------------------- directory failover seam tests --

/// §3.5: killing the primary of a directory shard loses no object-location records —
/// the promoted backup has the full replicated state and keeps serving queries.
#[test]
fn directory_primary_failure_preserves_metadata() {
    let mut tc = TestCluster::new(4);
    // Shard s is primaried by node s with node (s+1) % 4 as backup. Use shard 3.
    let object = (0u64..)
        .map(|k| ObjectId::from_name(&format!("dir-fo-{k}")))
        .find(|&o| ClusterView::of_size(4).shard_node(o).index() == 3)
        .unwrap();
    let data: Vec<u8> = (0..6000u32).map(|i| (i * 11 % 251) as u8).collect();
    tc.client(1, OpId(1), ClientOp::Put { object, payload: Payload::from_vec(data.clone()) });
    tc.run();
    assert!(tc.nodes[3].is_directory_primary_for(object));
    let at_primary = tc.nodes[3].directory_locations(object).expect("primary hosts the shard");
    assert!(at_primary.iter().any(|(n, _)| *n == NodeId(1)), "location registered");

    // The primary dies. The backup (node 0) promotes itself and still has the record.
    tc.kill(3);
    tc.run();
    assert!(tc.nodes[0].is_directory_primary_for(object), "backup promoted");
    let at_backup = tc.nodes[0].directory_locations(object).expect("backup hosts the shard");
    assert_eq!(at_backup, at_primary, "no location record lost with the primary");

    // And the metadata is live: a fresh Get resolves through the new primary.
    tc.client(2, OpId(2), ClientOp::Get { object });
    tc.run();
    let got = tc.reply_payload(OpId(2)).expect("get served after directory failover");
    assert_eq!(got, Payload::from_vec(data));
}

/// A location query that parked on the old primary is not lost: the requester
/// re-issues it at the promoted backup (same correlation id, deduplicated by the
/// shard) and it completes once the object appears.
#[test]
fn parked_query_survives_primary_failure() {
    let mut tc = TestCluster::new(4);
    let object = (0u64..)
        .map(|k| ObjectId::from_name(&format!("parked-fo-{k}")))
        .find(|&o| ClusterView::of_size(4).shard_node(o).index() == 3)
        .unwrap();
    // The Get parks: no location exists yet.
    tc.client(2, OpId(1), ClientOp::Get { object });
    tc.run();
    assert!(tc.reply_payload(OpId(1)).is_none());

    // The shard primary dies while the query is parked on it (and replicated).
    tc.kill(3);
    tc.run();
    assert!(
        tc.nodes[2].metrics().directory_failovers >= 1,
        "requester re-issued its outstanding query at the new primary"
    );

    // The object appears; the promoted backup answers the parked query.
    let data = vec![3u8; 4000];
    tc.client(1, OpId(2), ClientOp::Put { object, payload: Payload::from_vec(data.clone()) });
    tc.run();
    let got = tc.reply_payload(OpId(1)).expect("parked get completed after failover");
    assert_eq!(got, Payload::from_vec(data));
}

/// An inline (small) object survives a directory-primary failure: the creator
/// re-drives the payload-bearing registration so the promoted backup can keep
/// serving the inline fast path.
#[test]
fn inline_object_survives_primary_failure() {
    let mut tc = TestCluster::new(4);
    let object = (0u64..)
        .map(|k| ObjectId::from_name(&format!("inline-fo-{k}")))
        .find(|&o| ClusterView::of_size(4).shard_node(o).index() == 3)
        .unwrap();
    let data: Vec<u8> = (0..32u32).map(|i| i as u8).collect(); // below inline threshold
    tc.client(1, OpId(1), ClientOp::Put { object, payload: Payload::from_vec(data.clone()) });
    tc.run();
    tc.kill(3);
    tc.run();
    tc.client(2, OpId(2), ClientOp::Get { object });
    tc.run();
    let got = tc.reply_payload(OpId(2)).expect("inline get served by the promoted backup");
    assert_eq!(got, Payload::from_vec(data));
}

/// Puts of an object that already exists fail fast with `ObjectAlreadyExists`.
#[test]
fn duplicate_put_is_rejected() {
    let (mut nodes, _) = setup(2);
    let object = ObjectId::from_name("dup");
    let mut out = Vec::new();
    nodes[0].handle_client(
        Time::ZERO,
        OpId(1),
        ClientOp::Put { object, payload: Payload::zeros(2000) },
        &mut out,
    );
    run_to_quiescence(&mut nodes, vec![(NodeId(0), out)]);
    let mut out = Vec::new();
    nodes[0].handle_client(
        Time::ZERO,
        OpId(2),
        ClientOp::Put { object, payload: Payload::zeros(2000) },
        &mut out,
    );
    let replies = run_to_quiescence(&mut nodes, vec![(NodeId(0), out)]);
    assert!(replies.iter().any(|(_, op, r)| *op == OpId(2)
        && matches!(r, ClientReply::Error { error: HopliteError::ObjectAlreadyExists(_) })));
}

// ------------------------------------------------------ incarnation numbers ----

/// A failure notice naming an incarnation that already restarted is dropped: it
/// must neither mark the node failed nor disturb the routing view ("late notices
/// can't park a restarted node as resyncing forever").
#[test]
fn stale_failure_notice_cannot_repark_restarted_node() {
    let mut tc = TestCluster::new(4);
    tc.kill(2);
    tc.run();
    tc.restart(2, 1);
    tc.notify_recovered(2);
    tc.run();
    assert!(!tc.nodes[2].directory_is_resyncing(), "node 2 readmitted");
    assert!(tc.nodes[0].membership().is_alive(NodeId(2)));
    assert_eq!(tc.nodes[0].membership().incarnation_of(NodeId(2)), 1);

    let cluster = ClusterView::of_size(4);
    let probe = object_on_shard(&cluster, NodeId(2));
    let primary_before = tc.nodes[0].directory_primary_for(probe);

    // A late notice about the *dead* incarnation 0 arrives after the restart.
    tc.failure_notice(0, 2, 0);
    tc.run();
    assert_eq!(tc.nodes[0].metrics().stale_failure_notices_dropped, 1);
    assert!(tc.nodes[0].membership().is_alive(NodeId(2)), "node 2 still alive");
    assert_eq!(tc.nodes[0].directory_primary_for(probe), primary_before, "routing undisturbed");
}

/// A failure notice for the *current* incarnation supersedes: it runs the full
/// §3.5 failure machinery exactly once, and duplicates are absorbed without being
/// miscounted as stale.
#[test]
fn newer_incarnation_failure_notice_supersedes() {
    let mut tc = TestCluster::new(4);
    let cluster = ClusterView::of_size(4);
    let probe = object_on_shard(&cluster, NodeId(2));
    assert_eq!(tc.nodes[0].directory_primary_for(probe), Some(NodeId(2)));

    // A fresh wire-level notice (incarnation 0 is current) applies: node 0 fails
    // over the shard to its backup.
    tc.dead.insert(2); // notice-driven, not detector-driven: mute the dead node
    tc.failure_notice(0, 2, 0);
    tc.run();
    assert!(!tc.nodes[0].membership().is_alive(NodeId(2)));
    let promoted = tc.nodes[0].directory_primary_for(probe);
    assert_ne!(promoted, Some(NodeId(2)), "shard failed over away from node 2");

    // A duplicate of the same notice is a no-op — and *not* counted stale.
    tc.failure_notice(0, 2, 0);
    tc.run();
    assert_eq!(tc.nodes[0].metrics().stale_failure_notices_dropped, 0);

    // Node 2 restarts as incarnation 1 and is readmitted; a notice for the new
    // incarnation supersedes the old knowledge and applies again.
    tc.restart(2, 1);
    tc.notify_recovered(2);
    tc.run();
    assert!(tc.nodes[0].membership().is_alive(NodeId(2)));
    tc.dead.insert(2);
    tc.failure_notice(0, 2, 1);
    tc.run();
    assert!(!tc.nodes[0].membership().is_alive(NodeId(2)));
    assert_eq!(tc.nodes[0].membership().incarnation_of(NodeId(2)), 1);
}

/// A restarted node's first gossip round — the membership digest answered to its
/// rejoin snapshot requests — teaches it deaths it slept through, so its routing
/// view stops pointing at nodes that died while it was down.
#[test]
fn restarted_node_learns_deaths_it_slept_through() {
    let mut tc = TestCluster::new(4);
    // Node 1 dies first; then node 3 dies — node 1 is down and never hears of it.
    tc.kill(1);
    tc.run();
    tc.kill(3);
    tc.run();

    let cluster = ClusterView::of_size(4);
    let probe = object_on_shard(&cluster, NodeId(3));
    assert_ne!(tc.nodes[0].directory_primary_for(probe), Some(NodeId(3)));

    // Node 1 restarts and rejoins purely through its own snapshot requests (no
    // detector notice reaches anyone). Fresh state: it still believes node 3 is
    // alive and primary of its shard.
    tc.restart(1, 1);
    assert_eq!(tc.nodes[1].directory_primary_for(probe), Some(NodeId(3)));
    tc.run();

    assert!(!tc.nodes[1].directory_is_resyncing(), "node 1 resynced");
    assert!(!tc.nodes[1].membership().is_alive(NodeId(3)), "digest taught node 1 that node 3 died");
    assert!(tc.nodes[1].metrics().membership_deaths_learned >= 1);
    assert_ne!(
        tc.nodes[1].directory_primary_for(probe),
        Some(NodeId(3)),
        "node 1's routing no longer points at the dead node"
    );
    // And the sources learned node 1's new incarnation from its digest.
    assert_eq!(tc.nodes[0].membership().incarnation_of(NodeId(1)), 1);
    assert!(tc.nodes[0].membership().is_alive(NodeId(1)));
}

/// Kill and restart node 1 of a two-node cluster and let it resync from node 0,
/// optionally re-framing every final state chunk on the wire as the retired tag-23
/// full-state `DirSnapshot`. Returns `(frames re-framed, DirResynced announcements
/// seen, node 1's resync count, node 1's location records)`.
fn resync_of_restarted_node(as_tag_23: bool) -> (usize, usize, u64, Vec<Vec<NodeId>>) {
    let mut tc = TestCluster::new(2);
    // A few pull-path objects (above the 64-byte inline threshold), spread over
    // both shards, all held by node 0.
    let objects: Vec<ObjectId> =
        (0..6).map(|i| ObjectId::from_name(&format!("tag23-{i}"))).collect();
    for (i, &object) in objects.iter().enumerate() {
        let payload = Payload::from_vec(vec![i as u8; 200]);
        tc.client(0, OpId(i as u64), ClientOp::Put { object, payload });
    }
    tc.run();
    tc.kill(1);
    tc.run();
    tc.restart(1, 1);
    let (mut reframed, mut announcements) = (0, 0);
    tc.run_reframing(|msg| match msg {
        Message::DirSnapshotChunk { shard, epoch, seq, rank, done: true, state } if as_tag_23 => {
            reframed += 1;
            Message::DirSnapshot { shard, epoch, seq, rank, state }
        }
        Message::DirResynced { node, .. } => {
            assert_eq!(node, NodeId(1));
            announcements += 1;
            msg
        }
        other => other,
    });
    assert!(!tc.nodes[1].directory_is_resyncing(), "resync completed");
    let records = objects
        .iter()
        .map(|&o| {
            let mut holders: Vec<NodeId> = tc.nodes[1]
                .directory_locations(o)
                .expect("both nodes host every shard")
                .into_iter()
                .map(|(n, _)| n)
                .collect();
            holders.sort_by_key(|n| n.0);
            holders
        })
        .collect();
    (reframed, announcements, tc.nodes[1].metrics().directory_resyncs, records)
}

/// The full-state `DirSnapshot` frame (tag 23) is no longer produced but is still on
/// the wire format: a restarted node answered with one must complete its resync and
/// announce `DirResynced` exactly as with the one-chunk `DirSnapshotChunk` stream it
/// is the degenerate case of — handled, not silently dropped.
#[test]
fn tag_23_full_snapshot_frame_completes_a_resync_like_a_one_chunk_stream() {
    let (reframed, announcements, resyncs, records) = resync_of_restarted_node(true);
    assert!(reframed >= 1, "the drill put a tag-23 frame on the wire");
    assert_eq!(announcements, 1, "DirResynced announced to the one peer, once");
    assert_eq!(resyncs, 2, "both hosted shards resynced");
    assert!(records.iter().all(|holders| holders == &[NodeId(0)]), "{records:?}");
    assert_eq!(
        resync_of_restarted_node(false),
        (0, announcements, resyncs, records),
        "same outcome as the chunk stream"
    );
}

/// A restart-mode `DirSnapshotRequest` from a peer this node still believes a healthy
/// primary is the first news of its crash. The implied failure is applied once — to
/// the node's one leadership view — so it produces exactly one failover re-drive, and
/// the re-driven op (routed by that view, to this node itself) is applied by the
/// replica the same view just promoted instead of being forwarded to the old primary.
#[test]
fn restart_request_from_a_believed_primary_redrives_once_and_keeps_one_view() {
    let mut tc = TestCluster::new(3);
    let cluster = ClusterView::of_size(3);
    // Shard 2 lives on [2, 0]: node 0 backs it up. Node 0 registers an object there,
    // and the registration is lost in flight — journaled, never confirmed.
    let object = object_on_shard(&cluster, NodeId(2));
    let payload = Payload::from_vec(vec![7; 200]);
    tc.client(0, OpId(1), ClientOp::Put { object, payload });
    tc.pending.clear();
    assert_eq!(tc.nodes[0].directory_unconfirmed_count(), 1);
    assert_eq!(tc.nodes[0].directory_primary_for(object), Some(NodeId(2)));

    // Node 2 crashed and restarted before any detector told node 0: its restart
    // request for shard 2 arrives out of the blue.
    let request = Message::DirSnapshotRequest {
        shard: 2,
        requester: NodeId(2),
        restart: true,
        after: None,
        have_epoch: 0,
        have_seq: 0,
        digest: Vec::new(),
    };
    let mut out = Vec::new();
    tc.nodes[0].handle_message(Time::ZERO, NodeId(2), request, &mut out);

    assert_eq!(tc.nodes[0].metrics().directory_redrives, 1, "one failover re-drive");
    assert_eq!(tc.nodes[0].directory_primary_for(object), Some(NodeId(0)), "routing moved");
    assert!(tc.nodes[0].is_directory_primary_for(object), "and the service leads there");
    assert_eq!(
        tc.nodes[0].directory_locations(object),
        Some(vec![(NodeId(0), ObjectStatus::Complete)]),
        "the re-driven registration was applied here, not forwarded to the old primary"
    );
    let sent_to_2: Vec<&Message> = out
        .iter()
        .filter_map(|e| match e {
            Effect::Send { to: NodeId(2), msg } => Some(msg),
            _ => None,
        })
        .collect();
    assert!(
        sent_to_2.iter().any(|m| matches!(
            m,
            Message::DirSnapshotChunk { shard: 2, .. } | Message::DirResyncDelta { shard: 2, .. }
        )),
        "the restarted node was served: {sent_to_2:?}"
    );
    assert!(
        !sent_to_2.iter().any(|m| matches!(m, Message::DirRegister { .. })),
        "nothing re-driven at the restarted node: {sent_to_2:?}"
    );

    // The detector's own verdict, arriving later, finds nothing left to do.
    let mut late = Vec::new();
    tc.nodes[0].handle_peer_failed(Time::ZERO, NodeId(2), &mut late);
    assert_eq!(tc.nodes[0].metrics().directory_redrives, 1, "no second re-drive");
    assert_eq!(tc.nodes[0].directory_primary_for(object), Some(NodeId(0)));
}

/// A restart-mode `DirSnapshotRequest` from the node a restarted node is resyncing
/// from implies that source's failure, and with it the end of the receiver's own
/// resync: no other node can serve either hosted shard, so both are abandoned. The
/// receiver is then re-admitted and must announce it at once, as a verdict about the
/// same failure would make it, not leave it pending until some later event.
#[test]
fn a_restart_request_that_ends_the_receivers_own_resync_announces_its_readmission() {
    let mut tc = TestCluster::new(2);
    tc.kill(1);
    tc.run();
    tc.restart(1, 1);
    tc.pending.clear(); // node 1's resync requests to node 0 are lost
    assert!(tc.nodes[1].directory_is_resyncing());

    // Node 0 crashed and restarted too: its own restart request is the first news.
    let request = Message::DirSnapshotRequest {
        shard: 0,
        requester: NodeId(0),
        restart: true,
        after: None,
        have_epoch: 0,
        have_seq: 0,
        digest: Vec::new(),
    };
    let mut out = Vec::new();
    tc.nodes[1].handle_message(Time::ZERO, NodeId(0), request, &mut out);

    assert!(!tc.nodes[1].directory_is_resyncing(), "both stranded resyncs were abandoned");
    let announced = out.iter().filter(|e| {
        matches!(
            e,
            Effect::Send {
                to: NodeId(0),
                msg: Message::DirResynced { node: NodeId(1), incarnation: 1 }
            }
        )
    });
    assert_eq!(announced.count(), 1, "re-admission announced once: {out:?}");
    // Announced exactly once: a later failure verdict about the same node finds
    // nothing pending.
    let mut late = Vec::new();
    tc.nodes[1].handle_peer_failed(Time::ZERO, NodeId(0), &mut late);
    assert!(
        !late.iter().any(|e| matches!(e, Effect::Send { msg: Message::DirResynced { .. }, .. })),
        "{late:?}"
    );
}

/// A `DirResynced` naming the receiving node is dropped unseen: a node is re-admitted
/// only by its own resync completing. Delivered to a restarted node whose resync
/// requests are still unanswered, it must not make the node believe it leads the
/// shards it hosts — the next directory op it routes goes to the shard's interim
/// primary, not into its own still-resyncing replica.
#[test]
fn a_resynced_announcement_naming_the_receiver_is_dropped() {
    let mut tc = TestCluster::new(3);
    tc.kill(1);
    tc.run();
    tc.restart(1, 1);
    tc.pending.clear(); // the resync requests are still in flight
    assert!(tc.nodes[1].directory_is_resyncing());

    let forged = Message::DirResynced { node: NodeId(1), incarnation: 1 };
    let mut out = Vec::new();
    tc.nodes[1].handle_message(Time::ZERO, NodeId(0), forged, &mut out);
    // Shard 1 lives on [1, 2]: while node 1 resyncs, node 2 leads it. Believing the
    // frame, node 1 would apply this registration itself, on a backup replica.
    let object = object_on_shard(&ClusterView::of_size(3), NodeId(1));
    tc.client(1, OpId(1), ClientOp::Put { object, payload: Payload::from_vec(vec![1; 200]) });

    assert!(out.is_empty(), "{out:?}");
    assert!(tc.nodes[1].directory_is_resyncing(), "still resyncing");
    assert_eq!(tc.nodes[1].directory_primary_for(object), Some(NodeId(2)));
    let (_, effects) = tc.pending.back().expect("the put's effects");
    assert!(
        effects.iter().any(|e| matches!(
            e,
            Effect::Send { to: NodeId(2), msg: Message::DirRegister { object: o, .. } }
                if *o == object
        )),
        "registration routed to the interim primary: {effects:?}"
    );
}

/// A `DirSnapshotRequest` for a shard the cluster does not have is dropped whole: the
/// replica set wraps modulo the cluster size, so the requester would seem to host the
/// shard, and the leadership view has no rank to read for it. Nothing is served, and
/// the restart it claims is not believed either.
#[test]
fn a_snapshot_request_for_a_shard_out_of_range_is_dropped() {
    let cluster = ClusterView::of_size(3);
    let probes: Vec<ObjectId> = (0..3).map(|i| object_on_shard(&cluster, NodeId(i))).collect();
    let mut tc = TestCluster::new(3);
    let node = &mut tc.nodes[0];
    let view = |n: &ObjectStoreNode| {
        let routes: Vec<_> = probes.iter().map(|&o| n.directory_primary_for(o)).collect();
        (n.membership().digest(), routes, n.metrics().directory_redrives)
    };
    let before = view(node);
    // 3 and 5 wrap onto shards node 2 hosts (0 is where this node leads).
    for shard in [3, 5, 6, u64::MAX] {
        for restart in [false, true] {
            let request = Message::DirSnapshotRequest {
                shard,
                requester: NodeId(2),
                restart,
                after: None,
                have_epoch: 0,
                have_seq: 0,
                digest: vec![(NodeId(1), 4, false)],
            };
            let mut out = Vec::new();
            node.handle_message(Time::ZERO, NodeId(2), request, &mut out);
            assert!(out.is_empty(), "shard {shard} restart {restart}: {out:?}");
            assert_eq!(view(node), before, "shard {shard} restart {restart}");
        }
    }
}

/// A node id outside the cluster, in any message that carries liveness evidence, is
/// dropped where the membership table is read — it must not index past the table
/// (bytes off the wire cannot panic a node). Each of the seven carriers, with the
/// detector off and on, leaves the table and the placement view as they were and
/// produces only what a frame of its kind produces anyway (a `Ping` is acked, a
/// `PingReq` relayed), never repeating the id.
#[test]
fn out_of_range_node_ids_in_liveness_messages_are_dropped() {
    use crate::detector::DetectorConfig;
    let cluster = ClusterView::of_size(3);
    let probes: Vec<ObjectId> = (0..3).map(|i| object_on_shard(&cluster, NodeId(i))).collect();
    for detector in [None, Some(DetectorConfig::default())] {
        let relays = detector.is_some();
        let cfg = HopliteConfig { detector, ..HopliteConfig::small_for_tests() };
        let mut tc = TestCluster::with_config(3, cfg);
        for bad in [NodeId(3), NodeId(u32::MAX)] {
            let gossip = vec![
                (bad, 1, GossipState::Dead),
                (bad, 2, GossipState::Suspect),
                (bad, 3, GossipState::Alive),
            ];
            let carriers = [
                (Message::Hello { node: bad, incarnation: 1 }, 0),
                (Message::PeerFailureNotice { node: bad, incarnation: 1 }, 0),
                (Message::DirResynced { node: bad, incarnation: 1 }, 0),
                (Message::MembershipDigest { entries: vec![(bad, 1, true), (bad, 2, false)] }, 0),
                (Message::Ping { origin: NodeId(1), probe_id: 9, gossip: gossip.clone() }, 1),
                (Message::Ack { probe_id: 9, gossip: gossip.clone() }, 0),
                (Message::PingReq { target: NodeId(2), probe_id: 9, gossip }, usize::from(relays)),
            ];
            for (msg, expected_effects) in carriers {
                let node = &mut tc.nodes[0];
                let view = |n: &ObjectStoreNode| {
                    let routes: Vec<_> =
                        probes.iter().map(|&o| n.directory_primary_for(o)).collect();
                    (n.membership().digest(), routes, n.directory_is_resyncing())
                };
                let before = view(node);
                let mut out = Vec::new();
                node.handle_message(Time::ZERO, NodeId(1), msg.clone(), &mut out);
                assert_eq!(view(node), before, "{msg:?} moved the table or the placement view");
                assert_eq!(out.len(), expected_effects, "{msg:?} produced {out:?}");
                assert!(
                    !format!("{out:?}").contains(&format!("{bad:?}")),
                    "{out:?} repeats {bad:?}"
                );
            }
        }
    }
}

/// A Get whose inline reply the store cannot hold fails with the store's error; it
/// never completes on an object the store does not have.
#[test]
fn an_inline_reply_that_does_not_fit_the_store_fails_the_get() {
    let cfg = HopliteConfig { store_capacity: 200, ..HopliteConfig::small_for_tests() };
    let mut tc = TestCluster::with_config(3, cfg);
    let small = ObjectId::from_name("small");
    tc.client(0, OpId(1), ClientOp::Put { object: small, payload: Payload::from_vec(vec![5; 32]) });
    // Node 1's store is full of a pinned put, so the inline copy has no room.
    let full = ObjectId::from_name("full");
    tc.client(1, OpId(2), ClientOp::Put { object: full, payload: Payload::from_vec(vec![6; 200]) });
    tc.run();
    tc.client(1, OpId(3), ClientOp::Get { object: small });
    tc.run();
    let reply = tc.replies.iter().find(|(_, op, _)| *op == OpId(3)).map(|(_, _, r)| r);
    assert!(
        matches!(reply, Some(ClientReply::Error { error: HopliteError::OutOfMemory { .. } })),
        "{reply:?}"
    );
    assert!(!tc.nodes[1].has_complete(small));
}

/// A node fed the same inputs emits the same effects: when the peer that eight Gets
/// pull from (and that leads the shard of their unconfirmed registrations) dies, the
/// re-driven registrations and the re-pulls come out in object order on every node.
#[test]
fn a_peer_failure_emits_the_same_effects_on_two_fresh_nodes() {
    let cluster = ClusterView::of_size(4);
    let peer = NodeId(2);
    let objects: Vec<ObjectId> = (0..)
        .map(|i| ObjectId::from_name(&format!("fan{i}")))
        .filter(|&o| cluster.shard_node(o) == peer)
        .take(8)
        .collect();
    let run = || {
        let opts = NodeOptions::default();
        let cfg = HopliteConfig::small_for_tests();
        let mut node = ObjectStoreNode::new(NodeId(1), cfg, cluster.clone(), opts);
        for (i, &object) in objects.iter().enumerate() {
            let mut out = Vec::new();
            node.handle_client(Time::ZERO, OpId(i as u64), ClientOp::Get { object }, &mut out);
            let query_id = out
                .iter()
                .find_map(|e| match e {
                    Effect::Send { msg: Message::DirQuery { query_id, .. }, .. } => Some(*query_id),
                    _ => None,
                })
                .expect("the get queries the directory");
            let location =
                QueryResult::Location { node: peer, status: ObjectStatus::Complete, size: 4096 };
            let reply = Message::DirQueryReply { object, query_id, result: location };
            node.handle_message(Time::ZERO, peer, reply, &mut Vec::new());
        }
        let mut out = Vec::new();
        node.handle_peer_failed(Time::ZERO, peer, &mut out);
        out
    };
    let out = run();
    let sent = |want: fn(&Message) -> bool| {
        out.iter().filter(|e| matches!(e, Effect::Send { msg, .. } if want(msg))).count()
    };
    assert_eq!(sent(|m| matches!(m, Message::DirRegister { .. })), 8, "{out:?}");
    assert_eq!(sent(|m| matches!(m, Message::DirQuery { .. })), 8, "{out:?}");
    assert_eq!(out, run(), "two fresh nodes fed the same inputs emitted different effects");
}
