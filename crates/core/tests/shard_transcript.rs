//! Shard transcript: what one [`DirectoryShard`] does with 256 seeded episodes of 48
//! ops drawn from every call that mutates it. The golden was written against the shard
//! that kept a lease both as `Location::leased_to` and as a pull edge. Its notes,
//! `split cause`, name the first op after which those two copies disagreed (`- -` if
//! never) and what it was: `answered-twice` (a location given to a requester already
//! pulling that object), `inline-over-lease` (a `put_inline`) or `other`. An episode may
//! be listed in the `.diverged` file from its split, for its cause. Since inline recency
//! became put order (a query no longer restamps an inline payload), an episode may also
//! move from any op for `put-order-recency`.

mod support;

use std::collections::BTreeMap;
use std::fmt::Write as _;

use hoplite_core::buffer::Payload;
use hoplite_core::config::HopliteConfig;
use hoplite_core::directory::DirectoryShard;
use hoplite_core::object::{NodeId, ObjectId, ObjectStatus};
use hoplite_core::protocol::{Message, QueryResult, SnapshotEntry};
use support::{Rng, Trace, Transcript};

const TRANSCRIPT: Transcript = Transcript {
    name: "shard_transcript",
    golden: include_str!("shard_transcript.golden"),
    diverged: include_str!("shard_transcript.diverged"),
    key_fields: 1,
    vocabulary: "register put_inline unregister query subscribe unsubscribe transfer_done delete \
        node_failed expire resync reship",
    admits: |notes, first, cause| {
        let split: Option<usize> = notes[0].parse().ok();
        cause.split('+').enumerate().all(|(i, cause)| {
            cause == "put-order-recency"
                || (notes[1] == cause
                    && split.is_some_and(|s| if i == 0 { s == first } else { s > first }))
        })
    },
};

const EPISODES: u64 = 256;
const OPS_PER_EPISODE: usize = 48;
const NODES: u32 = 6;
const OBJECTS: usize = 4;

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

struct Episode {
    rng: Rng,
    shard: DirectoryShard,
    objects: Vec<ObjectId>,
    /// Pulls the shard granted in this episode: `(object, receiver, sender)`.
    granted: Vec<(ObjectId, NodeId, NodeId)>,
    /// Each requester's last query id.
    last_query: BTreeMap<u32, u64>,
    next_query: u64,
    trace: Trace,
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
            trace: Trace::default(),
        }
    }

    fn node(&mut self) -> NodeId {
        NodeId(self.rng.below(NODES as usize) as u32)
    }

    fn object(&mut self) -> ObjectId {
        self.rng.pick(&self.objects).unwrap()
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
                let status =
                    if self.rng.one_in(2) { ObjectStatus::Partial } else { ObjectStatus::Complete };
                let size = self.size_of(object);
                self.shard.register(object, holder, status, size, &mut out);
                "register"
            }
            4 | 5 => {
                let (object, holder) = (self.object(), self.node());
                let len = 1 + self.rng.below(48);
                let byte = self.trace.steps() as u8;
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
                    (0..NODES).filter(|_| self.rng.one_in(6)).map(NodeId).collect();
                let query_id = match self.last_query.get(&requester.0) {
                    Some(&last) if self.rng.one_in(4) => last,
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
                self.shard = self.shard.empty_like();
                for chunk in &chunks {
                    self.shard.install_entries(chunk);
                }
                "resync"
            }
            _ => {
                let ids: Vec<ObjectId> =
                    self.objects.clone().into_iter().filter(|_| self.rng.one_in(2)).collect();
                let (all, _) = self.shard.snapshot_range(None, u64::MAX);
                let entries: Vec<_> = ids
                    .iter()
                    .filter_map(|&o| all.iter().find(|e| e.object == o).cloned())
                    .collect();
                write!(returned, "{}", entries.len()).unwrap();
                self.shard.install_entries(&entries);
                "reship"
            }
        };
        self.record(kind, out, returned);
    }

    /// Fold the op's output as a sorted multiset, what it returned, the shard's counters
    /// and its full snapshot into the next hash.
    fn record(&mut self, kind: &'static str, out: Vec<(NodeId, Message)>, returned: String) {
        let mut sent: Vec<String> = out.iter().map(|(to, m)| message_text(*to, m)).collect();
        sent.sort();
        for (to, m) in &out {
            if let Message::DirQueryReply {
                object,
                result: QueryResult::Location { node, .. },
                ..
            } = m
            {
                self.granted.push((*object, *to, *node));
            }
        }
        let (snapshot, done) = self.shard.snapshot_range(None, u64::MAX);
        assert!(done);
        // The golden's tree kept each lease twice and could let the copies split; the
        // `leased_to` column is now derived from the pull edges and never may.
        for e in &snapshot {
            assert!(split_receivers(e).is_empty(), "lease copies split after {kind}: {e:?}");
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
        self.trace.record(kind, &state);
    }
}

#[test]
fn shard_transcript_matches_the_two_copy_lease_shard() {
    let episodes = (0..EPISODES).map(|episode| {
        let mut ep = Episode::new(episode);
        (0..OPS_PER_EPISODE).for_each(|_| ep.step());
        (format!("{episode:03}"), ep.trace)
    });
    TRANSCRIPT.check(episodes);
}
