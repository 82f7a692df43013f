//! Reduce-plan transcript: what the dynamic reduce tree does with arrivals and failures,
//! one seeded episode of 40 plan calls for every `n` in 1..=128 and degree `d` in
//! {1, 2, 3, n}. The golden was written against the plan that kept its ready pool as a
//! generation-stamped FIFO beside a membership map, an object → slot index, a vacancy
//! set and a loss ledger, and re-cut once since, when a failure that vacates a slot
//! began to restart the whole tree at one plan-wide epoch: every one of the 512
//! episodes moved, each first at a `failed` step. Each step still hashes one epoch per
//! slot, so the record's shape is the golden's.

mod support;

use std::fmt::Write as _;

use hoplite_core::object::{NodeId, ObjectId};
use hoplite_core::reduce::{ReduceInput, ReduceTreePlan, TreeShape};
use support::{Rng, Trace, Transcript};

const TRANSCRIPT: Transcript = Transcript {
    name: "reduce_plan_transcript",
    golden: include_str!("reduce_plan_transcript.golden"),
    diverged: "",
    key_fields: 2,
    vocabulary: "setup fresh duplicate move failed reoffer",
    counters: "",
};

const MAX_SLOTS: usize = 128;
const STEPS_PER_EPISODE: usize = 40;

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
    trace: Trace,
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
            trace: Trace::default(),
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
            write!(state, "|{input:?}@{}", self.plan.epoch()).unwrap();
        }
        self.trace.record(kind, &state);
    }
}

#[test]
fn reduce_plan_transcript_matches_the_indexed_plan() {
    let episodes = (1..=MAX_SLOTS).flat_map(|n| [1, 2, 3, n].map(|d| (n, d))).map(|(n, d)| {
        let mut ep = Episode::new(n, d);
        (0..STEPS_PER_EPISODE).for_each(|_| ep.step());
        (format!("{n} {d}"), ep.trace)
    });
    TRANSCRIPT.check(episodes);
}
