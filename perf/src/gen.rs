//! Seeded inputs. Everything the system under test sees — object names, payload
//! bytes, the order nodes act in — is generated here from `--seed`; the product code
//! receives only the generated inputs.
//!
//! A workload is an *op script*: a list of [`Round`]s, each a list of [`Step`]s
//! against the public client API. The same script runs on the real cluster
//! (`exec::ClusterExec`), on the single-threaded traced replay
//! (`inline::InlineDriver`) and on the simulator (`simlane`), so the three are
//! measuring the same work.

use hoplite_core::prelude::*;

/// One MiB.
pub const MIB: u64 = 1024 * 1024;

/// SplitMix64: small, seedable, and good enough to make payloads non-constant and
/// node orders unpredictable.
pub struct Rng(u64);

impl Rng {
    /// A generator whose stream is a function of `seed` only.
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }

    /// `len` random bytes (`len` is rounded up to a multiple of 8 internally).
    pub fn bytes(&mut self, len: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(len + 8);
        while out.len() < len {
            out.extend_from_slice(&self.next_u64().to_le_bytes());
        }
        out.truncate(len);
        out
    }
}

/// The four workloads. Names are part of the benchmark's contract.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Workload {
    /// One 64 MiB object broadcast from node 0 to every other node.
    Bcast64m,
    /// 64 MiB f32 sum-reduce across all nodes, alternating allreduce / reduce-only.
    Allreduce64m,
    /// 1 KiB query fan-out and result gather through the inline directory path.
    Small1k,
    /// 256 MiB point-to-point Get whose sender is killed half-way.
    Failover256m,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 4] =
        [Workload::Bcast64m, Workload::Allreduce64m, Workload::Small1k, Workload::Failover256m];

    /// The contract name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Bcast64m => "bcast64m",
            Workload::Allreduce64m => "allreduce64m",
            Workload::Small1k => "small1k",
            Workload::Failover256m => "failover256m",
        }
    }

    /// Inverse of [`Workload::name`].
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Size and length of one child process's share of a workload.
#[derive(Clone, Debug)]
pub struct Shape {
    /// Cluster size.
    pub n: usize,
    /// Bytes of the workload's main object (broadcast object, reduce source, small
    /// object, failover object).
    pub object_bytes: u64,
    /// Untimed rounds run first (of *each* kind, for `allreduce64m`).
    pub warmup: u32,
    /// Timed rounds (of *each* kind, for `allreduce64m`).
    pub rounds: u32,
    /// Node configuration. Full scale runs the product default.
    pub cfg: HopliteConfig,
}

impl Shape {
    /// The measured shape: n = 4 (smallest cluster with a broadcast relay and a
    /// non-trivial reduce tree; the reference box has 2 cores and the system already
    /// runs ~40 threads at n = 4). Round counts are fixed per child process so the
    /// memory trajectory repeats; a run is lengthened by adding child processes. The
    /// bulk workloads keep children short: rounds of one process agree within a few
    /// percent while processes differ by 10–15 %, so a run's median steadies with the
    /// number of processes behind it, not with the number of rounds.
    pub fn full(workload: Workload) -> Shape {
        let (object_bytes, warmup, rounds) = match workload {
            Workload::Bcast64m => (64 * MIB, 2, 5),
            Workload::Allreduce64m => (64 * MIB, 1, 3),
            Workload::Small1k => (1024, 5, 60),
            // One kill per cluster: see `script`.
            Workload::Failover256m => (256 * MIB, 1, 1),
        };
        Shape { n: 4, object_bytes, warmup, rounds, cfg: HopliteConfig::default() }
    }

    #[cfg(test)]
    /// A seconds-scale shape for the tests: same scripts, ≤ 1 MiB objects, 64 KiB
    /// blocks so bulk objects still span many blocks, 2 rounds.
    pub fn toy(workload: Workload, n: usize) -> Shape {
        let object_bytes = match workload {
            Workload::Small1k => 1024,
            _ => MIB,
        };
        let rounds = if workload == Workload::Failover256m { 1 } else { 2 };
        let cfg = HopliteConfig { block_size: 64 * 1024, ..HopliteConfig::default() };
        Shape { n, object_bytes, warmup: 1, rounds, cfg }
    }

    /// The same shape with a third of the rounds: what the traced runs use.
    pub fn brief(mut self) -> Shape {
        self.rounds = (self.rounds / 3).max(2).min(self.rounds);
        self
    }
}

/// Which generated payload a step stores or expects back.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Data {
    /// The per-process bulk pattern.
    Bulk,
    /// Reduce source `i`: small-integer f32 values.
    Source(u8),
    /// The element-wise sum of every reduce source.
    Sum,
    /// A small object unique to `(round, slot)`.
    Small {
        /// Round index.
        round: u32,
        /// 0 for the query, `i` for node `i`'s result.
        slot: u8,
    },
}

/// The materialised payloads of one process. Bulk payloads are built once and re-`put`
/// under fresh ids every round (`Payload::clone` is a refcount).
pub struct Inputs {
    seed: u64,
    object_bytes: usize,
    bulk: Option<Payload>,
    sources: Vec<Payload>,
    sum: Option<Payload>,
}

impl Inputs {
    /// Generate the payloads `workload` needs under `shape` from `seed`.
    pub fn build(workload: Workload, shape: &Shape, seed: u64) -> Inputs {
        let object_bytes = shape.object_bytes as usize;
        let mut inputs = Inputs { seed, object_bytes, bulk: None, sources: Vec::new(), sum: None };
        match workload {
            Workload::Bcast64m | Workload::Failover256m => {
                // Non-constant on purpose: a mis-ordered or duplicated block must fail
                // validation.
                inputs.bulk = Some(Payload::from_vec(Rng::new(seed ^ 0xb01c).bytes(object_bytes)));
            }
            Workload::Allreduce64m => {
                // Integers 0..15 as f32: any summation order gives the exact same
                // bits, so the expected result is independent of the reduce tree.
                let elems = object_bytes / 4;
                let mut sum = vec![0f32; elems];
                for i in 0..shape.n {
                    let mut rng = Rng::new(seed ^ (0x5eed_0000 + i as u64));
                    let values: Vec<f32> =
                        (0..elems).map(|_| (rng.next_u64() >> 60) as f32).collect();
                    for (s, v) in sum.iter_mut().zip(&values) {
                        *s += v;
                    }
                    inputs.sources.push(Payload::from_f32s(&values));
                }
                inputs.sum = Some(Payload::from_f32s(&sum));
            }
            Workload::Small1k => {}
        }
        inputs
    }

    /// The payload for `data`.
    pub fn payload(&self, data: Data) -> Payload {
        match data {
            Data::Bulk => self.bulk.clone().expect("workload has a bulk payload"),
            Data::Source(i) => self.sources[i as usize].clone(),
            Data::Sum => self.sum.clone().expect("workload has reduce sources"),
            Data::Small { round, slot } => {
                let salt = (u64::from(round) << 8) | u64::from(slot);
                Payload::from_vec(
                    Rng::new(self.seed ^ salt.wrapping_mul(0x9e37)).bytes(self.object_bytes),
                )
            }
        }
    }

    /// Whether `got` is exactly the payload `data` names. Length-only (synthetic)
    /// payloads, which only the simulator lane produces, match on length.
    pub fn matches(&self, data: Data, got: &Payload) -> bool {
        if got.is_synthetic() {
            return got.len() == self.object_bytes as u64;
        }
        *got == self.payload(data)
    }
}

/// Kill instruction attached to a failover Get.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Kill {
    /// The two nodes holding complete copies; the busier sender of the two dies.
    pub holders: [usize; 2],
    /// Kill once the receiver has taken this many bytes.
    pub after_bytes: u64,
    /// The failover gap ends once this many further bytes have arrived.
    pub resume_bytes: u64,
}

/// One call into the public client API (or, for `Rejoin`, into the cluster facade).
#[derive(Clone, Debug, PartialEq)]
pub enum Step {
    /// `client(node).put(object, data)`.
    Put {
        /// Node whose client issues the call.
        node: usize,
        /// Object id.
        object: ObjectId,
        /// What to store.
        data: Data,
    },
    /// `client(node).get(object)` on every listed node, concurrently when more than
    /// one; the step ends when the last returns.
    Get {
        /// Nodes whose clients issue the call, in issue order.
        nodes: Vec<usize>,
        /// Object id.
        object: ObjectId,
        /// What every caller must get back.
        expect: Data,
        /// Kill a sender mid-transfer (failover workload only).
        kill: Option<Kill>,
    },
    /// `client(node).reduce(target, sources, None, sum_f32)`.
    Reduce {
        /// Coordinating node.
        node: usize,
        /// Output object.
        target: ObjectId,
        /// Input objects.
        sources: Vec<ObjectId>,
    },
    /// `client(node).delete(object)`.
    Delete {
        /// Node whose client issues the call.
        node: usize,
        /// Object id.
        object: ObjectId,
    },
    /// Restart whichever node the previous `Get { kill }` killed and wait until it has
    /// resynced.
    Rejoin,
}

/// What a round's time is reported as.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RoundKind {
    /// Counts toward `round_*` metrics.
    Main,
    /// `allreduce64m`'s reduce-only rounds: reported as `reduce_p50_ms`.
    ReduceOnly,
}

/// One closed-loop round: `prepare` and `cleanup` run off the clock, `timed` on it.
#[derive(Clone, Debug, PartialEq)]
pub struct Round {
    /// Index within the child process (also the span trace id of the round).
    pub id: u32,
    /// Which metric family the round's time feeds.
    pub kind: RoundKind,
    /// Warm-up rounds run the same steps but are not reported.
    pub warmup: bool,
    /// Steps before the clock starts.
    pub prepare: Vec<Step>,
    /// Steps on the clock.
    pub timed: Vec<Step>,
    /// Steps after the clock stops.
    pub cleanup: Vec<Step>,
}

/// The op script of child process `child` of `workload`.
pub fn script(workload: Workload, shape: &Shape, seed: u64, child: u32) -> Vec<Round> {
    let mut rng = Rng::new(seed.wrapping_mul(0x2545_f491_4f6c_dd1d) ^ u64::from(child));
    let n = shape.n;
    let kinds: &[RoundKind] = match workload {
        Workload::Allreduce64m => &[RoundKind::Main, RoundKind::ReduceOnly],
        _ => &[RoundKind::Main],
    };
    let mut rounds = Vec::new();
    for i in 0..shape.warmup + shape.rounds {
        for &kind in kinds {
            let id = rounds.len() as u32;
            let name = |role: &str| {
                ObjectId::from_name(&format!("{}/s{seed}/c{child}/r{id}/{role}", workload.name()))
            };
            let mut others: Vec<usize> = (1..n).collect();
            rng.shuffle(&mut others);
            let mut round = Round {
                id,
                kind,
                warmup: i < shape.warmup,
                prepare: Vec::new(),
                timed: Vec::new(),
                cleanup: Vec::new(),
            };
            match workload {
                Workload::Bcast64m => {
                    let object = name("obj");
                    round.prepare.push(Step::Put { node: 0, object, data: Data::Bulk });
                    round.timed.push(Step::Get {
                        nodes: others,
                        object,
                        expect: Data::Bulk,
                        kill: None,
                    });
                    round.cleanup.push(Step::Delete { node: 0, object });
                }
                Workload::Allreduce64m => {
                    let sources: Vec<ObjectId> = (0..n).map(|i| name(&format!("src{i}"))).collect();
                    let target = name("sum");
                    let mut putters: Vec<usize> = (0..n).collect();
                    rng.shuffle(&mut putters);
                    for &node in &putters {
                        round.prepare.push(Step::Put {
                            node,
                            object: sources[node],
                            data: Data::Source(node as u8),
                        });
                    }
                    let mut getters = vec![0];
                    if kind == RoundKind::Main {
                        getters.extend(others);
                    }
                    round.timed.push(Step::Reduce { node: 0, target, sources: sources.clone() });
                    round.timed.push(Step::Get {
                        nodes: getters,
                        object: target,
                        expect: Data::Sum,
                        kill: None,
                    });
                    round.cleanup.push(Step::Delete { node: 0, object: target });
                    for (node, &object) in sources.iter().enumerate() {
                        round.cleanup.push(Step::Delete { node, object });
                    }
                }
                Workload::Small1k => {
                    // Query fan-out, result gather, then delete — all on the clock:
                    // directory writes (register → replicate → confirm) sit beside
                    // the reads (query → inline reply).
                    let query = name("query");
                    let data = |slot: usize| Data::Small { round: id, slot: slot as u8 };
                    round.timed.push(Step::Put { node: 0, object: query, data: data(0) });
                    for &node in &others {
                        round.timed.push(Step::Get {
                            nodes: vec![node],
                            object: query,
                            expect: data(0),
                            kill: None,
                        });
                        round.timed.push(Step::Put {
                            node,
                            object: name(&format!("res{node}")),
                            data: data(node),
                        });
                    }
                    rng.shuffle(&mut others);
                    for &node in &others {
                        round.timed.push(Step::Get {
                            nodes: vec![0],
                            object: name(&format!("res{node}")),
                            expect: data(node),
                            kill: None,
                        });
                    }
                    round.timed.push(Step::Delete { node: 0, object: query });
                    for &node in &others {
                        round
                            .timed
                            .push(Step::Delete { node: 0, object: name(&format!("res{node}")) });
                    }
                }
                Workload::Failover256m => {
                    // The warm-up round is the same transfer without the kill, and
                    // nothing is asked of the cluster once the victim is back: on the
                    // current tree the first frame a survivor sends a restarted node
                    // can vanish (its cached connection was closed by the dead
                    // incarnation's reader), which hangs a later Get about once in a
                    // hundred restarts. So a process kills once, measures the rejoin,
                    // and ends.
                    let object = name("obj");
                    round.prepare.push(Step::Put { node: 0, object, data: Data::Bulk });
                    round.prepare.push(Step::Get {
                        nodes: vec![1],
                        object,
                        expect: Data::Bulk,
                        kill: None,
                    });
                    let kill = (!round.warmup).then_some(Kill {
                        holders: [0, 1],
                        after_bytes: shape.object_bytes / 2,
                        resume_bytes: shape.object_bytes / 16,
                    });
                    round.timed.push(Step::Get {
                        nodes: vec![2],
                        object,
                        expect: Data::Bulk,
                        kill,
                    });
                    round.cleanup.push(Step::Delete { node: 2, object });
                    if kill.is_some() {
                        round.cleanup.push(Step::Rejoin);
                    }
                }
            }
            rounds.push(round);
        }
    }
    rounds
}

/// FNV-1a over the script's debug form: two runs executed the same operations on the
/// same names in the same order iff their hashes agree.
pub fn script_hash(script: &[Round]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in format!("{script:?}").bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}
