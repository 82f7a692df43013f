//! Node-level liveness transcript: what one node does with liveness evidence, frozen.
//!
//! One [`ObjectStoreNode`] of a 5-node cluster is fed a seeded stream of liveness
//! events — driver failed / recovered verdicts, `PeerFailureNotice`, `Hello`,
//! `DirResynced`, `MembershipDigest`, `Ping` / `Ack` / `PingReq` carrying gossiped
//! alive / suspect / dead claims (about peers and about the node itself), timer fires
//! with advancing time, and restart-flagged `DirSnapshotRequest`s — at stale, current
//! and newer incarnations, with the SWIM detector on and off. After every event the
//! emitted effects, `membership().digest()`, every `NodeMetrics` counter, the node's
//! incarnation, its resyncing flag and where it routes five probe objects are folded
//! into a 16-bit hash.
//!
//! The stream is cut into independent episodes (a fresh node each, 40 events) so a
//! difference stays inside its episode. `liveness_transcript.golden` holds one line
//! per episode, `mode episode hashes` with four hex digits per event (the first is
//! the episode's set-up). It was written by this file run against the tree that still
//! kept the membership view and the detector's per-peer mirror as two tables, and is
//! never edited. Episodes in which those two tables disagreed there are listed in
//! `liveness_transcript.diverged` as `mode episode first-event cause hashes…`: they
//! must match the golden up to `first-event` and the listed hashes from there on
//! (BENCH_NOTES.md, "PR 22", explains each cause).
//!
//! On a mismatch the test writes what it produced next to the system temp directory
//! and names the first differing event of every episode that moved.
//!
//! Hostile frames — ones no node sends — are delivered after an episode's seeded events,
//! so the golden's stream is untouched: each must leave every recorded hash where it was.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use hoplite_core::prelude::*;

const GOLDEN: &str = include_str!("liveness_transcript.golden");
const DIVERGED: &str = include_str!("liveness_transcript.diverged");

const NODES: usize = 5;
const EPISODES: u64 = 256;
const EVENTS_PER_EPISODE: usize = 40;

struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn node(&mut self) -> NodeId {
        NodeId(self.below(NODES as u64) as u32)
    }

    fn one_in(&mut self, n: u64) -> bool {
        self.below(n) == 0
    }
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ b as u64).wrapping_mul(0x100_0000_01b3))
}

fn detector_config() -> DetectorConfig {
    DetectorConfig {
        probe_period: Duration::from_millis(100),
        ack_timeout: Duration::from_millis(30),
        suspicion_multiplier: 5,
        indirect_fanout: 2,
        gossip_budget: 4,
    }
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
    /// Whether this episode may carry the two kinds of news the old detector mirror
    /// never agreed with the view about: a suspicion naming a newer incarnation than
    /// the node knows, and a snapshot-request digest that teaches it something.
    contested: bool,
    detector: bool,
    hashes: Vec<u16>,
    kinds: Vec<&'static str>,
}

impl Episode {
    fn new(detector: bool, episode: u64) -> Episode {
        let mut rng = Rng(0x11FE_7A81 ^ (episode << 8) ^ u64::from(detector));
        let me = rng.node();
        let incarnation = rng.below(3);
        let cfg = HopliteConfig {
            detector: detector.then(detector_config),
            ..HopliteConfig::small_for_tests()
        };
        let opts = NodeOptions { incarnation, ..NodeOptions::default() };
        let node = ObjectStoreNode::new(me, cfg, ClusterView::of_size(NODES), opts);
        let probes = (0..NODES).map(|i| ObjectId::from_name(&format!("probe-{episode}-{i}")));
        let contested = !detector || rng.one_in(5);
        let mut ep = Episode {
            rng,
            me,
            node,
            now: Time::ZERO,
            timers: Vec::new(),
            last_probe_id: 0,
            probes: probes.collect(),
            contested,
            detector,
            hashes: Vec::new(),
            kinds: Vec::new(),
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

    /// A node other than this one.
    fn peer(&mut self) -> NodeId {
        loop {
            let p = self.rng.node();
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
    fn incarnation_for(&mut self, node: NodeId, allow_newer: bool) -> u64 {
        let known = self.known_incarnation(node);
        match self.rng.below(if allow_newer { 6 } else { 4 }) {
            0 => known.saturating_sub(1),
            1..=3 => known,
            4 => known + 1,
            _ => known + 2,
        }
    }

    fn gossip(&mut self) -> Vec<(NodeId, u64, GossipState)> {
        (0..self.rng.below(4))
            .map(|_| {
                let node = self.rng.node();
                let state = match self.rng.below(3) {
                    0 => GossipState::Alive,
                    1 => GossipState::Suspect,
                    _ => GossipState::Dead,
                };
                let allow_newer = self.contested || state != GossipState::Suspect;
                (node, self.incarnation_for(node, allow_newer), state)
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
            let dead = self.rng.node();
            if dead != requester {
                digest[dead.0 as usize] = (dead, self.incarnation_for(dead, true), false);
            }
        }
        digest
    }

    fn step(&mut self) {
        let advance_ms = [0, 0, 1, 7, 35, 120, 600][self.rng.below(7) as usize];
        self.now += Duration::from_millis(advance_ms);
        let mut out = Vec::new();
        let from = self.peer();
        // Gossip frames and timers carry the detector's work, so they dominate the
        // stream when it is on and are a small share of it when it is off.
        let mix: &[u8] = if self.detector {
            &[0, 1, 2, 3, 4, 5, 6, 6, 8, 8, 10, 11, 12, 12, 12, 12]
        } else {
            &[0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 8, 10, 11, 11, 12]
        };
        let kind = match mix[self.rng.below(mix.len() as u64) as usize] {
            0 => {
                let peer = self.rng.node();
                self.node.handle_peer_failed(self.now, peer, &mut out);
                "failed"
            }
            1 => {
                let peer = self.rng.node();
                self.node.handle_peer_recovered(self.now, peer, &mut out);
                "recovered"
            }
            2 => {
                let node = self.rng.node();
                let incarnation = self.incarnation_for(node, true);
                self.deliver(from, Message::PeerFailureNotice { node, incarnation }, &mut out);
                "notice"
            }
            3 => {
                let node = self.rng.node();
                let incarnation = self.incarnation_for(node, true);
                self.deliver(node, Message::Hello { node, incarnation }, &mut out);
                "hello"
            }
            4 => {
                // Never about the node itself: its own announcement does not come
                // back to it, and one forged onto the wire is dropped unseen — the
                // hostile case below, kept out of the golden's stream.
                let node = self.peer();
                let incarnation = self.incarnation_for(node, true);
                self.deliver(node, Message::DirResynced { node, incarnation }, &mut out);
                "resynced"
            }
            5 => {
                let entries = (0..1 + self.rng.below(3))
                    .map(|_| {
                        let node = self.rng.node();
                        (node, self.incarnation_for(node, true), self.rng.one_in(2))
                    })
                    .collect();
                self.deliver(from, Message::MembershipDigest { entries }, &mut out);
                "digest"
            }
            6 => {
                let gossip = self.gossip();
                let probe_id = self.rng.below(1000);
                self.deliver(from, Message::Ping { origin: from, probe_id, gossip }, &mut out);
                "ping"
            }
            8 => {
                let gossip = self.gossip();
                let probe_id =
                    if self.rng.one_in(3) { self.rng.below(50) } else { self.last_probe_id };
                self.deliver(from, Message::Ack { probe_id, gossip }, &mut out);
                "ack"
            }
            10 => {
                let gossip = self.gossip();
                let target = self.rng.node();
                let probe_id = self.rng.below(1000);
                self.deliver(from, Message::PingReq { target, probe_id, gossip }, &mut out);
                "pingreq"
            }
            11 => {
                let requester = self.peer();
                let incarnation = if self.contested {
                    self.incarnation_for(requester, true)
                } else {
                    self.known_incarnation(requester)
                };
                let digest = if !self.contested || self.rng.one_in(3) {
                    Vec::new()
                } else {
                    self.restart_digest(requester, incarnation)
                };
                let request = Message::DirSnapshotRequest {
                    // A shard the requester hosts: its own, or its predecessor's.
                    shard: (u64::from(requester.0) + NODES as u64 - self.rng.below(2))
                        % NODES as u64,
                    requester,
                    restart: !self.rng.one_in(4),
                    after: None,
                    have_epoch: 0,
                    have_seq: 0,
                    digest,
                };
                self.deliver(requester, request, &mut out);
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
        let state = format!(
            "{out:?}|{:?}|{:?}|{}|{}|{routes:?}",
            self.node.membership().digest(),
            self.node.metrics().fields(),
            self.node.incarnation(),
            self.node.directory_is_resyncing(),
        );
        self.hashes.push(fnv1a(state.as_bytes()) as u16);
        self.kinds.push(kind);
    }
}

fn hex(hashes: &[u16]) -> String {
    hashes.iter().map(|h| format!("{h:04x}")).collect()
}

fn unhex(hex: &str) -> Vec<u16> {
    (0..hex.len()).step_by(4).map(|i| u16::from_str_radix(&hex[i..i + 4], 16).unwrap()).collect()
}

fn mode_name(detector: bool) -> &'static str {
    if detector {
        "on"
    } else {
        "off"
    }
}

/// Hostile frames, outside the seeded stream (the golden's events stay as they are): at
/// the end of an episode, whatever state it left the node in, a restart-flagged
/// `DirSnapshotRequest` for a shard the cluster does not have — one that wraps onto a
/// shard the requester hosts included — moves nothing the transcript records and
/// produces no effect.
#[test]
fn a_snapshot_request_for_a_shard_out_of_range_moves_nothing() {
    for detector in [false, true] {
        for episode in 0..32 {
            let mut ep = Episode::new(detector, episode);
            (0..EVENTS_PER_EPISODE).for_each(|_| ep.step());
            ep.record("settled", Vec::new());
            for shard in [NODES as u64, 2 * NODES as u64 - 1, u64::MAX] {
                let requester = ep.peer();
                let incarnation = ep.known_incarnation(requester) + 1;
                let request = Message::DirSnapshotRequest {
                    shard,
                    requester,
                    restart: true,
                    after: None,
                    have_epoch: 0,
                    have_seq: 0,
                    digest: ep.restart_digest(requester, incarnation),
                };
                let mut out = Vec::new();
                ep.deliver(requester, request, &mut out);
                ep.record("hostile", out);
                let mode = mode_name(detector);
                let n = ep.hashes.len();
                assert_eq!(ep.hashes[n - 1], ep.hashes[n - 2], "{mode} {episode} shard {shard}");
            }
        }
    }
}

/// Hostile frames, as above: at the end of an episode, a `DirResynced` naming the node
/// itself — at the incarnation it runs and at the next one — moves nothing the
/// transcript records and produces no effect. Only the node's own resync completing
/// re-admits it; on a node still resyncing, believing the frame would hand it the
/// shards it hosts while its replicas wait for state.
#[test]
fn a_resynced_announcement_naming_the_node_itself_moves_nothing() {
    let mut resyncing = 0;
    for detector in [false, true] {
        for episode in 0..EPISODES {
            let mut ep = Episode::new(detector, episode);
            (0..EVENTS_PER_EPISODE).for_each(|_| ep.step());
            ep.record("settled", Vec::new());
            resyncing += usize::from(ep.node.directory_is_resyncing());
            let me = ep.me;
            for incarnation in [ep.node.incarnation(), ep.node.incarnation() + 1] {
                let from = ep.peer();
                let mut out = Vec::new();
                ep.deliver(from, Message::DirResynced { node: me, incarnation }, &mut out);
                ep.record("hostile", out);
                let mode = mode_name(detector);
                let n = ep.hashes.len();
                assert_eq!(
                    ep.hashes[n - 1],
                    ep.hashes[n - 2],
                    "{mode} {episode} inc {incarnation}"
                );
            }
        }
    }
    assert!(resyncing > 0, "no episode ended with its resync in flight");
}

#[test]
fn liveness_transcript_matches_the_two_table_tree() {
    let mut golden: BTreeMap<(String, u64), Vec<u16>> = BTreeMap::new();
    for line in GOLDEN.lines() {
        let mut f = line.split_whitespace();
        let key = (f.next().unwrap().to_string(), f.next().unwrap().parse().unwrap());
        golden.insert(key, unhex(f.next().unwrap()));
    }
    let mut diverged: BTreeMap<(String, u64), (usize, Vec<u16>)> = BTreeMap::new();
    for line in DIVERGED.lines().filter(|l| !l.starts_with('#') && !l.trim().is_empty()) {
        let mut f = line.split_whitespace();
        let key = (f.next().unwrap().to_string(), f.next().unwrap().parse().unwrap());
        let first: usize = f.next().unwrap().parse().unwrap();
        let _cause = f.next().unwrap();
        diverged.insert(key, (first, unhex(f.next().unwrap())));
    }

    let mut actual = String::new();
    let mut moved = String::new();
    let mut events = 0;
    for detector in [false, true] {
        for episode in 0..EPISODES {
            let mut ep = Episode::new(detector, episode);
            for _ in 0..EVENTS_PER_EPISODE {
                ep.step();
            }
            events += EVENTS_PER_EPISODE;
            let mode = mode_name(detector);
            writeln!(actual, "{mode} {episode:03} {}", hex(&ep.hashes)).unwrap();

            let key = (mode.to_string(), episode);
            let mut expected = golden.get(&key).cloned().unwrap_or_default();
            if let Some((first, tail)) = diverged.get(&key) {
                expected.truncate(*first);
                expected.extend_from_slice(tail);
            }
            if expected != ep.hashes {
                let at = expected
                    .iter()
                    .zip(&ep.hashes)
                    .position(|(a, b)| a != b)
                    .unwrap_or(expected.len().min(ep.hashes.len()));
                writeln!(
                    moved,
                    "{mode} {episode:03} first differs at event {at} ({}) after {:?}; from there: {}",
                    ep.kinds[at.min(ep.kinds.len() - 1)],
                    &ep.kinds[..at.min(ep.kinds.len())],
                    hex(&ep.hashes[at.min(ep.hashes.len())..]),
                )
                .unwrap();
            }
        }
    }
    assert!(events >= 2 * 10_000, "the stream covers at least 10 000 events per mode");
    if !moved.is_empty() {
        let path = std::env::temp_dir().join("liveness_transcript.actual");
        std::fs::write(&path, &actual).unwrap();
        panic!("liveness transcript moved (full transcript in {}):\n{moved}", path.display());
    }
}
