//! Reduce-plan transcript: what the dynamic reduce tree does with arrivals and
//! failures, frozen.
//!
//! For every `n` in 1..=128 and every degree `d` in {1, 2, 3, n}, one seeded episode
//! builds a [`ReduceTreePlan`] and records its shape's parent and children lists. It
//! then offers a seeded number of fresh objects (none up to all of the slots and a few
//! more), and after that runs 40 seeded steps, each one plan call:
//!
//! * a fresh offer;
//! * a duplicate offer of an object already offered, on the node that holds it;
//! * a holder move: a pooled object offered again on another node (an assigned one,
//!   when nothing is pooled, which the plan must ignore);
//! * a node failure;
//! * a re-offer of a lost object (its holder failed) on a new holder.
//!
//! After every step the affected-slot list the call returned and every slot's
//! (assignment, epoch) are folded into a 16-bit hash; the first hash of an episode
//! covers the shape and the whole run of fresh offers before the steps.
//!
//! `reduce_plan_transcript.golden` holds one line per episode, `n d hashes` with four
//! hex digits per hash. It was written by this file run against the plan that kept its
//! ready pool as a generation-stamped FIFO beside a membership map, an object → slot
//! index, a vacancy set and a loss ledger, and is never edited. On a mismatch the test
//! writes what it produced next to the system temp directory and names the first
//! differing step of every episode that moved.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use hoplite_core::object::{NodeId, ObjectId};
use hoplite_core::reduce::{ReduceInput, ReduceTreePlan, TreeShape};

const GOLDEN: &str = include_str!("reduce_plan_transcript.golden");

const MAX_SLOTS: usize = 128;
const STEPS_PER_EPISODE: usize = 40;

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

    fn pick<T: Copy>(&mut self, items: &[T]) -> Option<T> {
        (!items.is_empty()).then(|| items[self.below(items.len())])
    }
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ b as u64).wrapping_mul(0x100_0000_01b3))
}

/// Where an offered object stands, as far as the episode knows.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Fate {
    /// Last offered on this node, which has not failed since.
    Held(NodeId),
    /// Its holder failed after the last offer.
    Lost,
}

/// One episode: a plan, the objects offered to it so far and the nodes they live on.
struct Episode {
    rng: Rng,
    plan: ReduceTreePlan,
    objects: Vec<(ObjectId, Fate)>,
    nodes: u32,
    hashes: Vec<u16>,
    kinds: Vec<&'static str>,
}

impl Episode {
    fn new(n: usize, d: usize) -> Episode {
        let mut rng = Rng(0x7EDC_E000 ^ ((n as u64) << 16) ^ d as u64);
        // Few nodes, so a failure usually takes several slots and pooled objects with
        // it; never fewer than two, so a holder can move.
        let nodes = (n / 4).clamp(2, 12) as u32;
        let prefill = rng.below(n + 4);
        let mut ep = Episode {
            rng,
            plan: ReduceTreePlan::new(n, d),
            objects: Vec::new(),
            nodes,
            hashes: Vec::new(),
            kinds: Vec::new(),
        };
        let shape: &TreeShape = ep.plan.shape();
        let links: Vec<(Option<usize>, Vec<usize>)> =
            shape.slots().iter().map(|s| (s.parent, s.children.clone())).collect();
        let mut state = format!("{n} {d} {}|{links:?}", shape.root());
        for _ in 0..prefill {
            let affected = ep.fresh();
            write!(state, "|{affected:?}").unwrap();
        }
        ep.record("setup", state);
        ep
    }

    fn node(&mut self) -> NodeId {
        NodeId(self.rng.below(self.nodes as usize) as u32)
    }

    fn index_of(&self, object: ObjectId) -> usize {
        self.objects.iter().position(|(o, _)| *o == object).expect("offered object")
    }

    fn is_assigned(&self, object: ObjectId) -> bool {
        (0..self.plan.shape().len())
            .any(|s| self.plan.assignment(s).map(|a| a.object) == Some(object))
    }

    /// Indices of offered objects whose fate matches `keep`.
    fn indices(&self, keep: impl Fn(&Self, ObjectId, Fate) -> bool) -> Vec<usize> {
        (0..self.objects.len())
            .filter(|&i| keep(self, self.objects[i].0, self.objects[i].1))
            .collect()
    }

    fn offer(&mut self, index: usize, node: NodeId) -> Vec<usize> {
        let object = self.objects[index].0;
        // A re-offer of an assigned object is ignored, so its holder stays.
        if !self.is_assigned(object) {
            self.objects[index].1 = Fate::Held(node);
        }
        self.plan.offer_input(ReduceInput { object, node })
    }

    fn fresh(&mut self) -> Vec<usize> {
        let object = ObjectId::from_name(&format!("input-{}", self.objects.len()));
        let node = self.node();
        self.objects.push((object, Fate::Held(node)));
        self.offer(self.objects.len() - 1, node)
    }

    fn step(&mut self) {
        let (kind, affected) = match self.rng.below(10) {
            0..=2 => ("fresh", self.fresh()),
            3 => {
                let held = self.indices(|_, _, f| f != Fate::Lost);
                match self.rng.pick(&held) {
                    Some(i) => {
                        let Fate::Held(node) = self.objects[i].1 else { unreachable!() };
                        ("duplicate", self.offer(i, node))
                    }
                    None => ("fresh", self.fresh()),
                }
            }
            4 | 5 => {
                let pooled = self.indices(|ep, o, f| f != Fate::Lost && !ep.is_assigned(o));
                let assigned = self.indices(|ep, o, _| ep.is_assigned(o));
                match self.rng.pick(&pooled).or_else(|| self.rng.pick(&assigned)) {
                    Some(i) => {
                        let Fate::Held(from) = self.objects[i].1 else { unreachable!() };
                        let to = NodeId(
                            (from.0 + 1 + self.rng.below(self.nodes as usize - 1) as u32)
                                % self.nodes,
                        );
                        ("move", self.offer(i, to))
                    }
                    None => ("fresh", self.fresh()),
                }
            }
            6 | 7 => {
                let node = self.node();
                for (_, fate) in &mut self.objects {
                    if *fate == Fate::Held(node) {
                        *fate = Fate::Lost;
                    }
                }
                ("failed", self.plan.on_node_failed(node))
            }
            _ => {
                let lost = self.indices(|_, _, f| f == Fate::Lost);
                match self.rng.pick(&lost) {
                    Some(i) => {
                        // A new holder: the task framework recreated the object, on any
                        // node, the one that failed included.
                        let node = self.node();
                        ("reoffer", self.offer(i, node))
                    }
                    None => ("fresh", self.fresh()),
                }
            }
        };
        self.record(kind, format!("{affected:?}"));
    }

    /// Fold what a step returned and every slot's (input index, holder, epoch) into
    /// the next hash.
    fn record(&mut self, kind: &'static str, mut state: String) {
        for slot in 0..self.plan.shape().len() {
            let input = self.plan.assignment(slot).map(|a| (self.index_of(a.object), a.node.0));
            write!(state, "|{input:?}@{}", self.plan.epoch(slot)).unwrap();
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
fn reduce_plan_transcript_matches_the_indexed_plan() {
    let mut golden: BTreeMap<(usize, usize), Vec<u16>> = BTreeMap::new();
    for line in GOLDEN.lines() {
        let mut f = line.split_whitespace();
        let key = (f.next().unwrap().parse().unwrap(), f.next().unwrap().parse().unwrap());
        golden.insert(key, unhex(f.next().unwrap()));
    }

    let mut actual = String::new();
    let mut moved = String::new();
    let mut steps = 0;
    for n in 1..=MAX_SLOTS {
        for d in [1, 2, 3, n] {
            let mut ep = Episode::new(n, d);
            for _ in 0..STEPS_PER_EPISODE {
                ep.step();
            }
            steps += STEPS_PER_EPISODE;
            writeln!(actual, "{n} {d} {}", hex(&ep.hashes)).unwrap();
            let expected = golden.get(&(n, d)).cloned().unwrap_or_default();
            if expected != ep.hashes {
                let at = expected
                    .iter()
                    .zip(&ep.hashes)
                    .position(|(a, b)| a != b)
                    .unwrap_or(expected.len().min(ep.hashes.len()));
                writeln!(
                    moved,
                    "n={n} d={d} first differs at step {at} ({}) after {:?}",
                    ep.kinds[at.min(ep.kinds.len() - 1)],
                    &ep.kinds[..at.min(ep.kinds.len())],
                )
                .unwrap();
            }
        }
    }
    assert!(steps >= 20_000, "the transcript covers at least 20 000 steps");
    if !moved.is_empty() {
        let path = std::env::temp_dir().join("reduce_plan_transcript.actual");
        std::fs::write(&path, &actual).unwrap();
        panic!("reduce plan transcript moved (full transcript in {}):\n{moved}", path.display());
    }
}
