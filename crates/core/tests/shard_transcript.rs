//! Shard transcript: what one directory shard does with a seeded stream of ops, frozen.
//!
//! Each of 256 seeded episodes drives a fresh [`DirectoryShard`] over six nodes and four
//! objects, with a 64-byte inline-cache budget and a 32-byte inline threshold, through
//! 48 ops drawn from every call that mutates a shard:
//!
//! * `register` (partial or complete), `put_inline` (payloads up to 48 bytes, so some
//!   are over the threshold), `unregister`;
//! * `query` with a seeded exclude list, a fresh query id or the requester's last one;
//! * `subscribe`, `unsubscribe`, `delete`, `node_failed`;
//! * `transfer_done` for a pull the shard granted earlier in the episode (or a random
//!   pair when it granted none);
//! * an expiry tick, `expire_stale_leases`;
//! * a resync round trip: `snapshot_range` in 200-byte chunks, `clear`, then
//!   `install_entries` of every chunk into the same shard;
//! * a re-ship: `snapshot_entries_for` of a few objects installed over themselves.
//!
//! After every op the op's output as a sorted multiset, what the op returned, the
//! shard's counters and the full snapshot are folded into a 16-bit hash.
//!
//! `shard_transcript.golden` holds one line per episode, `episode split cause hashes`.
//! `split` is the first op after which the snapshot's `leased_to` column and its pull
//! edges stopped naming the same leases (`-` when they never did) and `cause` what that
//! op was: `answered-twice` when the op gave a location to a requester the two copies
//! now disagree on (it already held a pull on that object, from an earlier answer to
//! another of its queries), `inline-over-lease` for a `put_inline`, `other` for
//! anything else. The golden was
//! written by this file run against the shard that kept a lease both as
//! `Location::leased_to` and as a pull edge, and is never edited.
//!
//! `shard_transcript.diverged` lists the episodes allowed to differ, as
//! `episode first cause hashes…`: from op `first` on, the episode must produce the
//! listed hashes instead. Only an episode whose golden line names a split can be
//! listed, and only from that split with that cause. On a mismatch the test writes
//! what it produced to the system temp directory and names the first differing op of
//! every episode that moved.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use hoplite_core::buffer::Payload;
use hoplite_core::config::HopliteConfig;
use hoplite_core::directory::DirectoryShard;
use hoplite_core::object::{NodeId, ObjectId, ObjectStatus};
use hoplite_core::protocol::{Message, QueryResult, SnapshotEntry};

const GOLDEN: &str = include_str!("shard_transcript.golden");
const DIVERGED: &str = include_str!("shard_transcript.diverged");

const EPISODES: u64 = 256;
const OPS_PER_EPISODE: usize = 48;
const NODES: u32 = 6;
const OBJECTS: usize = 4;

struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ b as u64).wrapping_mul(0x100_0000_01b3))
}

/// `Debug` of a payload prints only its length; the transcript wants the bytes too.
fn payload_text(p: &Payload) -> String {
    format!("{p:?}{:?}", p.to_owned_vec())
}

fn message_text(to: NodeId, m: &Message) -> String {
    match m {
        Message::DirQueryReply { result: QueryResult::Inline { payload }, .. } => {
            format!("{to:?} {m:?} {}", payload_text(payload))
        }
        _ => format!("{to:?} {m:?}"),
    }
}

fn entry_text(e: &SnapshotEntry) -> String {
    format!("{e:?} {}", e.inline.as_ref().map(payload_text).unwrap_or_default())
}

/// The receivers on which an entry's `leased_to` column and its pull edges disagree:
/// a lease one of them names and the other does not.
fn split_receivers(e: &SnapshotEntry) -> Vec<NodeId> {
    let leased: Vec<(NodeId, NodeId)> =
        e.locations.iter().filter_map(|(h, _, r)| r.map(|r| (r, *h))).collect();
    let only_leased = leased.iter().filter(|p| !e.pulls.contains(p));
    let only_pulled = e.pulls.iter().filter(|p| !leased.contains(p));
    only_leased.chain(only_pulled).map(|(r, _)| *r).collect()
}

/// Where an episode's two lease copies first disagreed: `(op, cause)`.
type Split = Option<(usize, String)>;

struct Episode {
    rng: Rng,
    shard: DirectoryShard,
    objects: Vec<ObjectId>,
    /// Pulls the shard granted in this episode: `(object, receiver, sender)`.
    granted: Vec<(ObjectId, NodeId, NodeId)>,
    /// Each requester's last query id.
    last_query: BTreeMap<u32, u64>,
    next_query: u64,
    hashes: Vec<u16>,
    kinds: Vec<&'static str>,
    split: Option<(usize, &'static str)>,
}

impl Episode {
    fn new(episode: u64) -> Episode {
        let cfg = HopliteConfig {
            inline_threshold: 32,
            directory_inline_cache_bytes: 64,
            ..HopliteConfig::default()
        };
        Episode {
            rng: Rng(0x5A4D_0000 ^ episode.wrapping_mul(0x1_0000_0001)),
            shard: DirectoryShard::new(0, cfg),
            objects: (0..OBJECTS).map(|i| ObjectId::from_name(&format!("obj-{i}"))).collect(),
            granted: Vec::new(),
            last_query: BTreeMap::new(),
            next_query: 1,
            hashes: Vec::new(),
            kinds: Vec::new(),
            split: None,
        }
    }

    fn node(&mut self) -> NodeId {
        NodeId(self.rng.below(NODES as usize) as u32)
    }

    fn object(&mut self) -> ObjectId {
        self.objects[self.rng.below(OBJECTS)]
    }

    fn size_of(&self, object: ObjectId) -> u64 {
        64 * (1 + self.objects.iter().position(|o| *o == object).unwrap() as u64)
    }

    fn step(&mut self) {
        let mut out = Vec::new();
        let mut returned = String::new();
        let kind = match self.rng.below(20) {
            0..=3 => {
                let (object, holder) = (self.object(), self.node());
                let status = if self.rng.below(2) == 0 {
                    ObjectStatus::Partial
                } else {
                    ObjectStatus::Complete
                };
                let size = self.size_of(object);
                self.shard.register(object, holder, status, size, &mut out);
                "register"
            }
            4 | 5 => {
                let (object, holder) = (self.object(), self.node());
                let len = 1 + self.rng.below(48);
                let byte = self.hashes.len() as u8;
                self.shard.put_inline(object, holder, Payload::from_vec(vec![byte; len]), &mut out);
                "put_inline"
            }
            6 => {
                let (object, holder) = (self.object(), self.node());
                self.shard.unregister(object, holder);
                "unregister"
            }
            7..=9 => {
                let (object, requester) = (self.object(), self.node());
                let exclude: Vec<NodeId> =
                    (0..NODES).filter(|_| self.rng.below(6) == 0).map(NodeId).collect();
                let query_id = match self.last_query.get(&requester.0) {
                    Some(&last) if self.rng.below(4) == 0 => last,
                    _ => {
                        self.next_query += 1;
                        self.next_query
                    }
                };
                self.last_query.insert(requester.0, query_id);
                self.shard.query(object, requester, query_id, exclude, &mut out);
                "query"
            }
            10 => {
                let (object, subscriber) = (self.object(), self.node());
                self.shard.subscribe(object, subscriber, &mut out);
                "subscribe"
            }
            11 => {
                let (object, subscriber) = (self.object(), self.node());
                self.shard.unsubscribe(object, subscriber);
                "unsubscribe"
            }
            12 | 13 => {
                let (object, receiver, sender) = if self.granted.is_empty() {
                    (self.object(), self.node(), self.node())
                } else {
                    self.granted.remove(self.rng.below(self.granted.len()))
                };
                self.shard.transfer_done(object, receiver, sender);
                "transfer_done"
            }
            14 => {
                let object = self.object();
                self.shard.delete(object, &mut out);
                "delete"
            }
            15 => {
                let node = self.node();
                self.shard.node_failed(node);
                "node_failed"
            }
            16 | 17 => {
                let expired = self.shard.expire_stale_leases(&mut out);
                write!(returned, "expired {expired}").unwrap();
                "expire"
            }
            18 => {
                let mut chunks = Vec::new();
                let mut after = None;
                loop {
                    let (entries, done) = self.shard.snapshot_range(after, 200);
                    after = entries.last().map(|e| e.object).or(after);
                    write!(returned, "{} ", entries.len()).unwrap();
                    chunks.push(entries);
                    if done {
                        break;
                    }
                }
                self.shard.clear();
                for chunk in &chunks {
                    self.shard.install_entries(chunk);
                }
                "resync"
            }
            _ => {
                let ids: Vec<ObjectId> =
                    self.objects.clone().into_iter().filter(|_| self.rng.below(2) == 0).collect();
                let entries = self.shard.snapshot_entries_for(ids);
                write!(returned, "{}", entries.len()).unwrap();
                self.shard.install_entries(&entries);
                "reship"
            }
        };
        self.record(kind, out, returned);
    }

    fn record(&mut self, kind: &'static str, out: Vec<(NodeId, Message)>, returned: String) {
        let mut sent: Vec<String> = out.iter().map(|(to, m)| message_text(*to, m)).collect();
        sent.sort();
        let mut answered: Vec<(ObjectId, NodeId)> = Vec::new();
        for (to, m) in &out {
            if let Message::DirQueryReply {
                object,
                result: QueryResult::Location { node, .. },
                ..
            } = m
            {
                self.granted.push((*object, *to, *node));
                answered.push((*object, *to));
            }
        }
        let (snapshot, done) = self.shard.snapshot_range(None, u64::MAX);
        assert!(done);
        let split: Vec<(ObjectId, NodeId)> = snapshot
            .iter()
            .flat_map(|e| split_receivers(e).into_iter().map(move |r| (e.object, r)))
            .collect();
        if self.split.is_none() && !split.is_empty() {
            let cause = if split.iter().any(|s| answered.contains(s)) {
                "answered-twice"
            } else if kind == "put_inline" {
                "inline-over-lease"
            } else {
                "other"
            };
            self.split = Some((self.hashes.len(), cause));
        }
        let mut state = format!(
            "{kind}|{sent:?}|{returned}|{} {} {} {}",
            self.shard.len(),
            self.shard.inline_bytes(),
            self.shard.take_inline_evictions(),
            self.shard.has_lease_candidates(),
        );
        for e in &snapshot {
            write!(state, "|{}", entry_text(e)).unwrap();
        }
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

#[test]
fn shard_transcript_matches_the_two_copy_lease_shard() {
    let mut golden: BTreeMap<u64, (Split, Vec<u16>)> = BTreeMap::new();
    for line in GOLDEN.lines() {
        let f: Vec<&str> = line.split_whitespace().collect();
        let split = (f[1] != "-").then(|| (f[1].parse().unwrap(), f[2].to_string()));
        golden.insert(f[0].parse().unwrap(), (split, unhex(f[3])));
    }
    let mut diverged: BTreeMap<u64, (usize, String, Vec<u16>)> = BTreeMap::new();
    for line in DIVERGED.lines().filter(|l| !l.starts_with('#') && !l.trim().is_empty()) {
        let f: Vec<&str> = line.split_whitespace().collect();
        diverged
            .insert(f[0].parse().unwrap(), (f[1].parse().unwrap(), f[2].to_string(), unhex(f[3])));
    }

    let mut actual = String::new();
    let mut moved = String::new();
    let mut ops = 0;
    for episode in 0..EPISODES {
        let mut ep = Episode::new(episode);
        for _ in 0..OPS_PER_EPISODE {
            ep.step();
        }
        ops += OPS_PER_EPISODE;
        let (split, cause) = match ep.split {
            Some((at, cause)) => (at.to_string(), cause),
            None => ("-".to_string(), "-"),
        };
        writeln!(actual, "{episode:03} {split} {cause} {}", hex(&ep.hashes)).unwrap();

        let (golden_split, mut expected) = golden.get(&episode).cloned().unwrap_or_default();
        if let Some((first, cause, tail)) = diverged.get(&episode) {
            assert_eq!(
                golden_split.as_ref(),
                Some(&(*first, cause.clone())),
                "episode {episode:03} is listed as diverged, but not from the op and cause \
                 where the golden's lease copies split"
            );
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
                "{episode:03} first differs at op {at} ({}) after {:?}; from there: {}",
                ep.kinds[at.min(ep.kinds.len() - 1)],
                &ep.kinds[..at.min(ep.kinds.len())],
                hex(&ep.hashes[at.min(ep.hashes.len())..]),
            )
            .unwrap();
        }
    }
    assert!(ops >= 256 * 40, "the transcript covers at least 256 episodes of 40 ops");
    if !moved.is_empty() {
        let path = std::env::temp_dir().join("shard_transcript.actual");
        std::fs::write(&path, &actual).unwrap();
        panic!("shard transcript moved (full transcript in {}):\n{moved}", path.display());
    }
}
