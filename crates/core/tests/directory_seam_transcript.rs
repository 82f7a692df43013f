//! Directory-seam transcript: what four [`ObjectStoreNode`]s sharing a directory do with
//! its traffic over a lossy, reordering network, through kills with staggered verdicts,
//! restarts, retired tag-23 frames and frames for shards the cluster does not have: 256
//! seeded episodes of 64 steps. The golden was written against the tree whose node
//! spelled every directory op and frame out by hand; the `.diverged` file lists the
//! episodes that moved since, with their causes.

mod support;

use std::fmt::Write as _;

use hoplite_core::prelude::*;
use support::{Rng, Trace, Transcript};

const TRANSCRIPT: Transcript = Transcript {
    name: "directory_seam_transcript",
    golden: include_str!("directory_seam_transcript.golden"),
    diverged: include_str!("directory_seam_transcript.diverged"),
    key_fields: 1,
    vocabulary: "setup msg drop lost failed recovered put-inline put get delete timer kill \
        restart tag23-convert tag23-inject out-of-range idle DirSnapshotChunk \
        DirSnapshot DirSnapshotRequest DirReplicate DirConfirm DirResynced forwarded",
    admits: support::any_divergence,
};

const NODES: usize = 4;
const EPISODES: u64 = 256;
const STEPS_PER_EPISODE: usize = 64;

fn config() -> HopliteConfig {
    HopliteConfig {
        directory_replication: 3,
        snapshot_chunk_bytes: 256,
        directory_inline_cache_bytes: 256,
        ..HopliteConfig::small_for_tests()
    }
}

/// The variant name of a message, as its `Debug` form starts.
fn kind_of(msg: &Message) -> String {
    let text = format!("{msg:?}");
    text.split([' ', '{', '(']).next().unwrap_or_default().to_string()
}

/// Something on its way to a node: a frame, a driver's failure verdict about a peer,
/// or the place of the recovery verdict no driver sends any more. That place delivers
/// nothing; it stays in flight so the stream of draws stays the golden's.
enum Flight {
    Msg { from: NodeId, to: NodeId, msg: Message },
    Verdict { at: NodeId, peer: NodeId },
    Unannounced,
}

/// One episode: four node slots (`None` while killed), the network, the clock and the
/// timers each incarnation armed.
struct Episode {
    rng: Rng,
    now: Time,
    nodes: Vec<Option<ObjectStoreNode>>,
    incarnations: Vec<u64>,
    flight: Vec<Flight>,
    timers: Vec<(Time, NodeId, u64, TimerToken)>,
    objects: Vec<ObjectId>,
    next_op: u64,
    trace: Trace,
}

impl Episode {
    fn new(episode: u64) -> Episode {
        let nodes = (0..NODES as u32)
            .map(|i| {
                let cluster = ClusterView::of_size(NODES);
                Some(ObjectStoreNode::new(NodeId(i), config(), cluster, NodeOptions::default()))
            })
            .collect();
        let mut ep = Episode {
            rng: Rng(0x00D1_5EA3 ^ (episode << 12)),
            now: Time::ZERO,
            nodes,
            incarnations: vec![0; NODES],
            flight: Vec::new(),
            timers: Vec::new(),
            objects: Vec::new(),
            next_op: 1,
            trace: Trace::default(),
        };
        // Set-up: every node puts one object, half of them inline.
        let mut outs = vec![Vec::new(); NODES];
        for (i, out) in outs.iter_mut().enumerate() {
            let size = if (episode + i as u64).is_multiple_of(2) { 32 } else { 1500 };
            ep.put(i, size, out);
        }
        ep.record("setup", outs);
        ep
    }

    fn live(&self) -> Vec<usize> {
        (0..NODES).filter(|&i| self.nodes[i].is_some()).collect()
    }

    fn pick_live(&mut self) -> usize {
        self.rng.pick(&self.live()).expect("a live node")
    }

    fn put(&mut self, i: usize, size: usize, out: &mut Vec<Effect>) {
        let object = ObjectId::from_name(&format!("seam-{}-{}", i, self.next_op));
        self.objects.push(object);
        let op = OpId(self.next_op);
        self.next_op += 1;
        let payload = Payload::from_vec(vec![self.next_op as u8; size]);
        let now = self.now;
        self.node(i).handle_client(now, op, ClientOp::Put { object, payload }, out);
    }

    fn node(&mut self, i: usize) -> &mut ObjectStoreNode {
        self.nodes[i].as_mut().expect("a live node")
    }

    fn step(&mut self) {
        self.now += Duration::from_millis(self.rng.below(4) as u64);
        let mut outs = vec![Vec::new(); NODES];
        let kind = match self.rng.below(20) {
            0..=11 => {
                let n = 1 + self.rng.below(4);
                (0..n).map(|_| self.deliver(&mut outs)).last().unwrap()
            }
            12..=14 => self.client(&mut outs),
            15 => self.fire_timer(&mut outs),
            16 => self.kill(),
            17 => self.restart(&mut outs),
            18 => self.tag_23(&mut outs),
            _ => self.out_of_range(&mut outs),
        };
        self.record(kind, outs);
    }

    /// Deliver one in-flight item — usually the oldest, sometimes any — or drop it.
    fn deliver(&mut self, outs: &mut [Vec<Effect>]) -> &'static str {
        if self.flight.is_empty() {
            return "idle";
        }
        let at = if self.rng.one_in(4) { self.rng.below(self.flight.len()) } else { 0 };
        let now = self.now;
        match self.flight.remove(at) {
            Flight::Msg { .. } if self.rng.one_in(10) => "drop",
            Flight::Msg { to, .. } if self.nodes[to.0 as usize].is_none() => "lost",
            Flight::Msg { from, to, msg } => {
                self.trace.count(kind_of(&msg));
                // A client op (a `DirOp` frame) sent on unchanged was forwarded.
                let sent = DirOp::try_from(msg.clone()).is_ok().then(|| msg.clone());
                let out = &mut outs[to.0 as usize];
                self.node(to.0 as usize).handle_message(now, from, msg, out);
                let forwarded = sent.is_some_and(|m| {
                    out.iter().any(|e| matches!(e, Effect::Send { msg, .. } if *msg == m))
                });
                if forwarded {
                    self.trace.count("forwarded");
                }
                "msg"
            }
            Flight::Verdict { at, .. } if self.nodes[at.0 as usize].is_none() => "lost",
            Flight::Verdict { at, peer } => {
                // A `PeerFailureNotice` at the incarnation the node holds: the claim the
                // golden's tree made for a verdict that named none.
                let node = self.node(at.0 as usize);
                let incarnation = node.membership().incarnation_of(peer);
                let notice = Message::PeerFailureNotice { node: peer, incarnation };
                node.handle_message(now, at, notice, &mut outs[at.0 as usize]);
                "failed"
            }
            Flight::Unannounced => "recovered",
        }
    }

    fn client(&mut self, outs: &mut [Vec<Effect>]) -> &'static str {
        let i = self.pick_live();
        let now = self.now;
        match self.rng.below(6) {
            0 | 1 => {
                self.put(i, 32, &mut outs[i]);
                "put-inline"
            }
            2 => {
                self.put(i, 1500, &mut outs[i]);
                "put"
            }
            k => {
                let object = self.rng.pick(&self.objects).expect("every node put one");
                let op_id = OpId(self.next_op);
                self.next_op += 1;
                let (op, kind) = if k == 5 {
                    (ClientOp::Delete { object }, "delete")
                } else {
                    (ClientOp::Get { object }, "get")
                };
                self.node(i).handle_client(now, op_id, op, &mut outs[i]);
                kind
            }
        }
    }

    fn fire_timer(&mut self, outs: &mut [Vec<Effect>]) -> &'static str {
        let incarnations = &self.incarnations;
        let nodes = &self.nodes;
        self.timers.retain(|&(_, n, inc, _)| {
            nodes[n.0 as usize].is_some() && incarnations[n.0 as usize] == inc
        });
        self.timers.sort();
        if self.timers.is_empty() {
            return "idle";
        }
        let (due, n, _, token) = self.timers.remove(0);
        self.now = self.now.max(due);
        let now = self.now;
        self.node(n.0 as usize).handle_timer(now, token, &mut outs[n.0 as usize]);
        "timer"
    }

    /// Kill a node (at most two down at once): what was on its way to it is gone, and
    /// each survivor's verdict is one more item in flight, so survivors learn of the
    /// death at different steps.
    fn kill(&mut self) -> &'static str {
        if self.live().len() <= NODES - 2 {
            return "idle";
        }
        let victim = self.pick_live();
        let dead = NodeId(victim as u32);
        self.nodes[victim] = None;
        self.flight.retain(|f| !matches!(f, Flight::Msg { to, .. } if *to == dead));
        for at in self.live() {
            self.flight.push(Flight::Verdict { at: NodeId(at as u32), peer: dead });
        }
        "kill"
    }

    /// Restart a killed node at its next incarnation: it begins recovery at once, and
    /// its `Hello` reaches each peer later. No driver announces the recovery.
    fn restart(&mut self, outs: &mut [Vec<Effect>]) -> &'static str {
        let down: Vec<usize> = (0..NODES).filter(|&i| self.nodes[i].is_none()).collect();
        let Some(i) = self.rng.pick(&down) else { return "idle" };
        self.incarnations[i] += 1;
        let incarnation = self.incarnations[i];
        let me = NodeId(i as u32);
        let opts = NodeOptions { incarnation, ..NodeOptions::default() };
        let node = ObjectStoreNode::new(me, config(), ClusterView::of_size(NODES), opts);
        self.nodes[i] = Some(node);
        let now = self.now;
        self.node(i).begin_recovery(now, &mut outs[i]);
        self.node(i).handle_started(now, &mut outs[i]);
        for peer in (0..NODES as u32).map(NodeId).filter(|&p| p != me) {
            let hello = Message::Hello { node: me, incarnation };
            self.flight.push(Flight::Msg { from: me, to: peer, msg: hello });
            self.flight.push(Flight::Unannounced);
        }
        "restart"
    }

    /// A retired full-snapshot frame: an in-flight chunk re-sent as tag 23 (the one-chunk
    /// stream it is the degenerate case of), or, with none in flight, an empty one for a
    /// shard the receiver hosts, from the node it believes leads that shard and naming
    /// that node's rank (a frame that names the receiver's own rank would hand it a
    /// shard its replica does not lead).
    fn tag_23(&mut self, outs: &mut [Vec<Effect>]) -> &'static str {
        let chunk = self
            .flight
            .iter_mut()
            .find(|f| matches!(f, Flight::Msg { msg: Message::DirSnapshotChunk { .. }, .. }));
        if let Some(Flight::Msg { msg, .. }) = chunk {
            if let Message::DirSnapshotChunk { shard, epoch, seq, rank, state, .. } = msg.clone() {
                *msg = Message::DirSnapshot { shard, epoch, seq, rank, state };
            }
            return "tag23-convert";
        }
        let i = self.pick_live();
        let shard = ((i + NODES - self.rng.below(3)) % NODES) as u64;
        let cluster = ClusterView::of_size(NODES);
        let probe = (0u64..)
            .map(|k| ObjectId::from_name(&format!("shard-probe-{k}")))
            .find(|&o| cluster.shard_node(o) == NodeId(shard as u32))
            .unwrap();
        let Some(from) = self.node(i).directory_primary_for(probe) else { return "idle" };
        if from.0 as usize == i {
            return "idle";
        }
        let msg = Message::DirSnapshot {
            shard,
            epoch: self.rng.below(3) as u64,
            seq: self.rng.below(8) as u64,
            rank: (u64::from(from.0) + NODES as u64 - shard) % NODES as u64,
            state: ShardSnapshot::default(),
        };
        let now = self.now;
        self.node(i).handle_message(now, from, msg, &mut outs[i]);
        "tag23-inject"
    }

    /// A directory frame naming a shard the cluster does not have.
    fn out_of_range(&mut self, outs: &mut [Vec<Effect>]) -> &'static str {
        let i = self.pick_live();
        let from = NodeId(((i + 1 + self.rng.below(3)) % NODES) as u32);
        let shard = self.rng.pick(&[NODES as u64, NODES as u64 + 3, u64::MAX]).unwrap();
        let op = DirOp::Delete { object: self.objects[0] };
        let state = ShardSnapshot::default();
        let msg = match self.rng.below(6) {
            0 => Message::DirReplicate { shard, epoch: 0, seq: 1, op },
            1 => Message::DirAck { shard, epoch: 0, seq: 1 },
            2 => Message::DirSnapshotChunk { shard, epoch: 0, seq: 0, rank: 0, done: true, state },
            3 => Message::DirResyncDelta { shard, epoch: 0, ops: vec![(1, op)], done: true },
            4 => Message::DirSnapshot { shard, epoch: 0, seq: 0, rank: 0, state },
            _ => Message::DirSnapshotRequest {
                shard,
                requester: from,
                restart: self.rng.one_in(2),
                after: None,
                digest: Vec::new(),
            },
        };
        let now = self.now;
        self.node(i).handle_message(now, from, msg, &mut outs[i]);
        "out-of-range"
    }

    /// Fold every node's effects and `NodeMetrics` into the next hash, and put what the
    /// nodes sent and armed in flight.
    fn record(&mut self, kind: &'static str, outs: Vec<Vec<Effect>>) {
        let mut state = String::new();
        for (i, out) in outs.into_iter().enumerate() {
            let Some(node) = &self.nodes[i] else {
                state.push_str("down#");
                continue;
            };
            write!(state, "{out:?}|{:?}#", node.metrics().fields()).unwrap();
            let me = NodeId(i as u32);
            for effect in out {
                match effect {
                    Effect::Send { to, msg } => self.flight.push(Flight::Msg { from: me, to, msg }),
                    Effect::SetTimer { token, delay } => {
                        self.timers.push((self.now + delay, me, self.incarnations[i], token));
                    }
                    _ => {}
                }
            }
        }
        self.trace.record(kind, &state);
    }
}

#[test]
fn directory_seam_transcript_matches_the_hand_spelled_tree() {
    let episodes = (0..EPISODES).map(|episode| {
        let mut ep = Episode::new(episode);
        (0..STEPS_PER_EPISODE).for_each(|_| ep.step());
        (format!("{episode:03}"), ep.trace)
    });
    TRANSCRIPT.check(episodes);
}
