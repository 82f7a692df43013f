//! Liveness transcript: what one [`ObjectStoreNode`] of five does with liveness evidence
//! (verdicts, notices, `Hello`, `DirResynced`, digests, gossip, timers, restart
//! requests, at stale, current and newer incarnations), with the SWIM detector on and
//! off: 512 seeded episodes of 40 events. Each event hashes the node's effects, its
//! membership digest, the counters `TRANSCRIPT` lists, its incarnation, its resyncing
//! flag and its routes. The golden was written by the tree whose every verdict is a
//! frame naming an incarnation and that places objects with the whole-id hash; the
//! `.diverged` file lists the episodes that moved since, each with its cause. Hostile
//! frames, which no node sends, follow each episode's events and must move nothing.

mod support;

use hoplite_core::prelude::*;
use support::{Rng, Trace, Transcript};

const TRANSCRIPT: Transcript = Transcript {
    name: "liveness_transcript",
    golden: include_str!("liveness_transcript.golden"),
    diverged: include_str!("liveness_transcript.diverged"),
    key_fields: 2,
    vocabulary: "setup failed notice hello resynced digest ping ack pingreq snapreq timer idle",
    counters: "messages_sent objects_put broadcast_failovers directory_failovers \
        directory_redrives directory_queries_served directory_registrations \
        directory_replicates_sent snapshot_chunks_sent snapshot_bytes \
        stale_failure_notices_dropped membership_deaths_learned probes_sent indirect_probes \
        suspicions_raised refutations_sent deaths_declared gossip_entries_piggybacked \
        store_bytes_live",
};

/// A golden key's first field, and whether the SWIM detector runs.
const MODES: [(&str, bool); 2] = [("off", false), ("on", true)];
const NODES: usize = 5;
const EPISODES: u64 = 256;
const EVENTS_PER_EPISODE: usize = 40;

/// A `DirSnapshotRequest` for a whole shard, as a (restarted) `requester` sends it.
fn snapshot_request(
    shard: u64,
    requester: NodeId,
    restart: bool,
    digest: Vec<MemberDigestEntry>,
) -> Message {
    Message::DirSnapshotRequest { shard, requester, restart, after: None, digest }
}

/// One episode: a node, its clock, the timers it armed and the last probe it sent.
struct Episode {
    rng: Rng,
    me: NodeId,
    node: ObjectStoreNode,
    now: Time,
    timers: Vec<(Time, TimerToken)>,
    last_probe_id: u64,
    probes: Vec<ObjectId>,
    detector: bool,
    trace: Trace,
}

impl Episode {
    fn new(detector: bool, episode: u64) -> Episode {
        let mut rng = Rng(0x11FE_7A81 ^ (episode << 8) ^ u64::from(detector));
        let me = NodeId(rng.below(NODES) as u32);
        let incarnation = rng.below(3) as u64;
        let detector_cfg = DetectorConfig {
            probe_period: Duration::from_millis(100),
            ack_timeout: Duration::from_millis(30),
            suspicion_multiplier: 5,
            indirect_fanout: 2,
            gossip_budget: 4,
        };
        let cfg = HopliteConfig {
            detector: detector.then_some(detector_cfg),
            ..HopliteConfig::small_for_tests()
        };
        let opts = NodeOptions { incarnation, ..NodeOptions::default() };
        let node = ObjectStoreNode::new(me, cfg, ClusterView::of_size(NODES), opts);
        let probes = (0..NODES).map(|i| ObjectId::from_name(&format!("probe-{episode}-{i}")));
        let mut ep = Episode {
            rng,
            me,
            node,
            now: Time::ZERO,
            timers: Vec::new(),
            last_probe_id: 0,
            probes: probes.collect(),
            detector,
            trace: Trace::default(),
        };
        ep.set_up(episode, incarnation);
        ep
    }

    /// Give the node something a failover has to act on: a journaled registration, a
    /// location query parked or a pull in flight, a foreign location record — and, on a restarted node,
    /// a resync in flight.
    fn set_up(&mut self, episode: u64, incarnation: u64) {
        let mut out = Vec::new();
        if incarnation > 0 && self.rng.one_in(2) {
            self.node.begin_recovery(self.now, &mut out);
        }
        self.node.handle_started(self.now, &mut out);
        // Two journaled registrations would be re-driven in hash-map order, so an
        // episode has either a put or a pull in flight, never both.
        let pulls = episode.is_multiple_of(3);
        if !pulls {
            let size = if episode.is_multiple_of(2) { 32 } else { 300 };
            let put = ClientOp::Put {
                object: ObjectId::from_name(&format!("mine-{episode}")),
                payload: Payload::from_vec(vec![episode as u8; size]),
            };
            self.node.handle_client(self.now, OpId(1), put, &mut out);
        }
        let get = ClientOp::Get { object: ObjectId::from_name(&format!("theirs-{episode}")) };
        self.node.handle_client(self.now, OpId(2), get, &mut out);
        // Where the query left the node, answer it: the Get is then pulling from a
        // peer whose death must fail it over.
        let asked = out.iter().find_map(|e| match e {
            Effect::Send { to, msg: Message::DirQuery { object, query_id, .. } } if pulls => {
                Some((*to, *object, *query_id))
            }
            _ => None,
        });
        if let Some((shard_host, object, query_id)) = asked {
            let node = self.peer();
            let result = QueryResult::Location { node, status: ObjectStatus::Complete, size: 5000 };
            let reply = Message::DirQueryReply { object, query_id, result };
            self.node.handle_message(self.now, shard_host, reply, &mut out);
        }
        let holder = self.peer();
        let foreign = Message::DirRegister {
            object: ObjectId::from_name(&format!("foreign-{episode}")),
            holder,
            status: ObjectStatus::Complete,
            size: 4096,
        };
        self.node.handle_message(self.now, holder, foreign, &mut out);
        self.record("setup", out);
    }

    fn node(&mut self) -> NodeId {
        NodeId(self.rng.below(NODES) as u32)
    }

    /// A node other than this one.
    fn peer(&mut self) -> NodeId {
        loop {
            let p = self.node();
            if p != self.me {
                return p;
            }
        }
    }

    fn known_incarnation(&self, node: NodeId) -> u64 {
        self.node.membership().digest()[node.0 as usize].1
    }

    /// An incarnation for a claim about `node`: stale, current or newer than what the
    /// node knows.
    fn incarnation_for(&mut self, node: NodeId) -> u64 {
        let known = self.known_incarnation(node);
        match self.rng.below(6) {
            0 => known.saturating_sub(1),
            1..=3 => known,
            4 => known + 1,
            _ => known + 2,
        }
    }

    fn gossip(&mut self) -> Vec<(NodeId, u64, GossipState)> {
        (0..self.rng.below(4))
            .map(|_| {
                let node = self.node();
                let state = match self.rng.below(3) {
                    0 => GossipState::Alive,
                    1 => GossipState::Suspect,
                    _ => GossipState::Dead,
                };
                (node, self.incarnation_for(node), state)
            })
            .collect()
    }

    /// What a restarted `requester` at `incarnation` would advertise — everyone alive
    /// at 0 but itself — optionally knowing one death more than a fresh process would.
    fn restart_digest(&mut self, requester: NodeId, incarnation: u64) -> Vec<(NodeId, u64, bool)> {
        let mut digest: Vec<(NodeId, u64, bool)> =
            (0..NODES as u32).map(|i| (NodeId(i), 0, true)).collect();
        digest[requester.0 as usize].1 = incarnation;
        if self.rng.one_in(4) {
            let dead = self.node();
            if dead != requester {
                digest[dead.0 as usize] = (dead, self.incarnation_for(dead), false);
            }
        }
        digest
    }

    fn step(&mut self) {
        let advance_ms = self.rng.pick(&[0, 0, 1, 7, 35, 120, 600]).unwrap();
        self.now += Duration::from_millis(advance_ms);
        let mut out = Vec::new();
        let from = self.peer();
        // Gossip frames and timers carry the detector's work, so they dominate the
        // stream when it is on and are a small share of it when it is off.
        let mix: &[u8] = if self.detector {
            &[0, 2, 3, 4, 5, 6, 6, 8, 8, 10, 11, 12, 12, 12, 12]
        } else {
            &[0, 0, 2, 2, 3, 3, 4, 4, 5, 5, 6, 8, 10, 11, 11, 12]
        };
        let kind = match self.rng.pick(mix).unwrap() {
            0 => {
                // A driver's verdict, at the incarnation the node holds.
                let node = self.node();
                let incarnation = self.known_incarnation(node);
                let me = self.me;
                self.deliver(me, Message::PeerFailureNotice { node, incarnation }, &mut out);
                "failed"
            }
            2 => {
                let node = self.node();
                let incarnation = self.incarnation_for(node);
                self.deliver(from, Message::PeerFailureNotice { node, incarnation }, &mut out);
                "notice"
            }
            3 => {
                let node = self.node();
                let incarnation = self.incarnation_for(node);
                self.deliver(node, Message::Hello { node, incarnation }, &mut out);
                "hello"
            }
            4 => {
                // Never about the node itself: its own announcement does not come
                // back to it, and one forged onto the wire is dropped unseen — the
                // hostile case below, kept out of the golden's stream.
                let node = self.peer();
                let incarnation = self.incarnation_for(node);
                self.deliver(node, Message::DirResynced { node, incarnation }, &mut out);
                "resynced"
            }
            5 => {
                let entries = (0..1 + self.rng.below(3))
                    .map(|_| {
                        let node = self.node();
                        (node, self.incarnation_for(node), self.rng.one_in(2))
                    })
                    .collect();
                self.deliver(from, Message::MembershipDigest { entries }, &mut out);
                "digest"
            }
            6 => {
                let gossip = self.gossip();
                let probe_id = self.rng.below(1000) as u64;
                self.deliver(from, Message::Ping { origin: from, probe_id, gossip }, &mut out);
                "ping"
            }
            8 => {
                let gossip = self.gossip();
                let probe_id =
                    if self.rng.one_in(3) { self.rng.below(50) as u64 } else { self.last_probe_id };
                self.deliver(from, Message::Ack { probe_id, gossip }, &mut out);
                "ack"
            }
            10 => {
                let gossip = self.gossip();
                let target = self.node();
                let probe_id = self.rng.below(1000) as u64;
                self.deliver(from, Message::PingReq { target, probe_id, gossip }, &mut out);
                "pingreq"
            }
            11 => {
                let requester = self.peer();
                let incarnation = self.incarnation_for(requester);
                let digest = if self.rng.one_in(3) {
                    Vec::new()
                } else {
                    self.restart_digest(requester, incarnation)
                };
                // A shard the requester hosts: its own, or its predecessor's.
                let shard = ((requester.0 as usize + NODES - self.rng.below(2)) % NODES) as u64;
                let restart = !self.rng.one_in(4);
                self.deliver(
                    requester,
                    snapshot_request(shard, requester, restart, digest),
                    &mut out,
                );
                "snapreq"
            }
            _ => {
                self.timers.sort();
                if self.timers.is_empty() {
                    "idle"
                } else {
                    let (due, token) = self.timers.remove(0);
                    self.now = self.now.max(due);
                    self.node.handle_timer(self.now, token, &mut out);
                    "timer"
                }
            }
        };
        self.record(kind, out);
    }

    fn deliver(&mut self, from: NodeId, msg: Message, out: &mut Vec<Effect>) {
        self.node.handle_message(self.now, from, msg, out);
    }

    /// Fold the effects, the membership digest, the listed counters, the node's
    /// incarnation, its resyncing flag and where it routes the probes into the next hash.
    fn record(&mut self, kind: &'static str, out: Vec<Effect>) {
        for effect in &out {
            match effect {
                Effect::SetTimer { token, delay } => self.timers.push((self.now + *delay, *token)),
                Effect::Send { msg: Message::Ping { probe_id, origin, .. }, .. }
                    if *origin == self.me =>
                {
                    self.last_probe_id = *probe_id;
                }
                _ => {}
            }
        }
        let routes: Vec<Option<NodeId>> =
            self.probes.iter().map(|&o| self.node.directory_primary_for(o)).collect();
        let counters = TRANSCRIPT.counters(&self.node.metrics().fields(), &mut self.trace);
        let state = format!(
            "{out:?}|{:?}|{counters}|{}|{}|{routes:?}",
            self.node.membership().digest(),
            self.node.incarnation(),
            self.node.directory_is_resyncing(),
        );
        self.trace.record(kind, &state);
    }
}

/// Hostile frames, outside the seeded stream (the golden's events stay as they are): at
/// the end of every episode, whatever state it left the node in, each frame `hostile`
/// builds moves nothing the transcript records and produces no effect. Returns how many
/// episodes ended with the node's resync in flight.
fn deliver_hostile_frames(hostile: impl Fn(&mut Episode) -> Vec<(NodeId, Message)>) -> usize {
    let mut resyncing = 0;
    for (mode, detector) in MODES {
        for episode in 0..EPISODES {
            let mut ep = Episode::new(detector, episode);
            (0..EVENTS_PER_EPISODE).for_each(|_| ep.step());
            ep.record("settled", Vec::new());
            resyncing += usize::from(ep.node.directory_is_resyncing());
            for (from, msg) in hostile(&mut ep) {
                let what = format!("{mode} {episode:03}: {msg:?}");
                let mut out = Vec::new();
                ep.deliver(from, msg, &mut out);
                ep.record("hostile", out);
                ep.trace.assert_unmoved(what);
            }
        }
    }
    resyncing
}

/// A restart-flagged `DirSnapshotRequest` for a shard the cluster does not have — one
/// that wraps onto a shard the requester hosts included — moves nothing.
#[test]
fn a_snapshot_request_for_a_shard_out_of_range_moves_nothing() {
    deliver_hostile_frames(|ep| {
        [NODES as u64, 2 * NODES as u64 - 1, u64::MAX]
            .into_iter()
            .map(|shard| {
                let requester = ep.peer();
                let incarnation = ep.known_incarnation(requester) + 1;
                let digest = ep.restart_digest(requester, incarnation);
                (requester, snapshot_request(shard, requester, true, digest))
            })
            .collect()
    });
}

/// A `DirResynced` naming the node itself, at the incarnation it runs and at the next
/// one, moves nothing. Only the node's own resync completing re-admits it; on a node
/// still resyncing, believing the frame would hand it the shards it hosts while its
/// replicas wait for state.
#[test]
fn a_resynced_announcement_naming_the_node_itself_moves_nothing() {
    let resyncing = deliver_hostile_frames(|ep| {
        [ep.node.incarnation(), ep.node.incarnation() + 1]
            .into_iter()
            .map(|incarnation| (ep.peer(), Message::DirResynced { node: ep.me, incarnation }))
            .collect()
    });
    assert!(resyncing > 0, "no episode ended with its resync in flight");
}

#[test]
fn liveness_transcript_matches_its_golden() {
    let episodes = MODES.into_iter().flat_map(|(mode, detector)| {
        (0..EPISODES).map(move |episode| {
            let mut ep = Episode::new(detector, episode);
            (0..EVENTS_PER_EPISODE).for_each(|_| ep.step());
            (format!("{mode} {episode:03}"), ep.trace)
        })
    });
    TRANSCRIPT.check(episodes);
}
