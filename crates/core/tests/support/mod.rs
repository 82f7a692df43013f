//! The transcript harness the behaviour pins share.
//!
//! An episode draws its steps from an [`Rng`] and records each step's kind and the
//! state it left, hashed to 16 bits, in a [`Trace`]; [`Transcript::check`] compares
//! every episode with its golden line.
//!
//! A golden (`<name>.golden`, never edited) holds one line per episode,
//! `<key fields…> <hashes>`, four hex digits per step. A `.diverged` file lists the
//! episodes allowed to differ, `<key fields…> <first> <cause> <hashes>`: such an
//! episode matches its golden line before step `first` and the listed hashes from
//! there on. An episode that moved for several reasons joins their causes with `+`, in
//! the order they took effect. A `.diverged` line whose key is not in the golden, or
//! whose hashes do not differ from the golden's at `first`, fails the run.
//!
//! A transcript that hashes a node's counters hashes only those it lists, by name and
//! value ([`Transcript::counters`]), so a counter outside its list can come or go
//! without moving an episode; a run in which an unlisted counter moves from zero fails
//! and names it.
//!
//! On a failure the run's own transcript, `<key fields…> <hashes>` per episode, is
//! written to `$TMPDIR/<name>.actual`, and the report names, for every episode that
//! moved, the first differing step, its kind, the kinds before it and the `.diverged`
//! line listing it.

// Every test binary compiles this module, and each calls a different part of it.
#![allow(dead_code)]

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::{Display, Write as _};

/// A splitmix64 stream: every episode's steps are drawn from one, seeded per episode.
pub struct Rng(pub u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    pub fn one_in(&mut self, n: usize) -> bool {
        self.below(n) == 0
    }

    /// One of `items`, drawing nothing when there are none.
    pub fn pick<T: Copy>(&mut self, items: &[T]) -> Option<T> {
        (!items.is_empty()).then(|| items[self.below(items.len())])
    }
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ b as u64).wrapping_mul(0x100_0000_01b3))
}

fn hex(hashes: &[u16]) -> String {
    hashes.iter().map(|h| format!("{h:04x}")).collect()
}

fn unhex(hex: &str) -> Vec<u16> {
    (0..hex.len()).step_by(4).map(|i| u16::from_str_radix(&hex[i..i + 4], 16).unwrap()).collect()
}

/// What one episode did: `(kind, hash)` per step, how often each step kind and
/// counted fact occurred, and the counters that moved outside the transcript's list.
#[derive(Default)]
pub struct Trace {
    steps: Vec<(&'static str, u16)>,
    counts: BTreeMap<String, u64>,
    unlisted: BTreeSet<&'static str>,
}

impl Trace {
    /// Record a step of `kind` that left `state`.
    pub fn record(&mut self, kind: &'static str, state: &str) {
        self.steps.push((kind, fnv1a(state.as_bytes()) as u16));
        self.count(kind);
    }

    /// Steps recorded so far.
    pub fn steps(&self) -> usize {
        self.steps.len()
    }

    /// Count a fact beside the steps (a frame delivered, say), for the tally and the
    /// vocabulary check, as every step counts its kind.
    pub fn count(&mut self, fact: impl Into<String>) {
        *self.counts.entry(fact.into()).or_default() += 1;
    }

    /// Panic unless the last step left the hash of the one before it: what a frame
    /// no node sends must do.
    pub fn assert_unmoved(&self, what: impl Display) {
        let [.., (_, before), (kind, after)] = self.steps[..] else {
            panic!("{what}: no step to compare")
        };
        assert_eq!(after, before, "{what}: the {kind} step moved the recorded state");
    }
}

/// The first step at which `b` differs from `a`: past the shorter one's end if one
/// is a prefix of the other.
fn first_difference(a: &[u16], b: &[u16]) -> usize {
    a.iter().zip(b).position(|(a, b)| a != b).unwrap_or(a.len().min(b.len()))
}

/// Read a golden or `.diverged` file into `key → (notes, hashes)`, the key being a
/// line's first `key_fields` fields and the notes the fields between it and the hashes
/// (a `.diverged` line's `first` and `cause`). A key repeats only on identical lines.
fn read(text: &str, key_fields: usize) -> BTreeMap<String, (Vec<&str>, Vec<u16>)> {
    let mut lines = BTreeMap::new();
    for line in text.lines().filter(|l| !l.trim().is_empty() && !l.starts_with('#')) {
        let fields: Vec<&str> = line.split_whitespace().collect();
        let (key, rest) = fields.split_at(key_fields);
        let (hashes, notes) = rest.split_last().expect("a line ends in its hashes");
        let parsed = (notes.to_vec(), unhex(hashes));
        let seen = lines.insert(key.join(" "), parsed.clone());
        assert!(seen.is_none_or(|seen| seen == parsed), "{line}: key repeated");
    }
    lines
}

/// One behaviour pin: its files, how its lines are keyed and what its run must cover.
pub struct Transcript<'a> {
    /// The test target's name: `cargo test -p hoplite-core --test <name>` reruns it.
    pub name: &'a str,
    pub golden: &'a str,
    /// The `.diverged` file's text; empty when no episode may differ.
    pub diverged: &'a str,
    /// How many leading fields of a line are its key.
    pub key_fields: usize,
    /// Every step kind the episodes can draw and every fact they count, separated by
    /// whitespace: each must occur at least once across the run.
    pub vocabulary: &'a str,
    /// The node counters the episodes hash, by name, separated by whitespace: every
    /// counter they can move.
    pub counters: &'a str,
}

impl Transcript<'_> {
    /// The listed counters of `fields` (a node's `NodeMetrics::fields()`), as
    /// `name=value` text for a step's state. A counter not listed that has moved from
    /// zero is noted in `trace`, and fails the run.
    pub fn counters(&self, fields: &[(&'static str, u64)], trace: &mut Trace) -> String {
        let listed: Vec<&str> = self.counters.split_whitespace().collect();
        let unlisted =
            fields.iter().filter(|&&(name, value)| value != 0 && !listed.contains(&name));
        trace.unlisted.extend(unlisted.map(|&(name, _)| name));
        let mut text = String::new();
        for name in listed {
            let Some((_, value)) = fields.iter().find(|&&(field, _)| field == name) else {
                panic!("{}: lists the counter {name}, which the node does not have", self.name)
            };
            write!(text, "{name}={value},").unwrap();
        }
        text
    }

    /// Run every `(key, trace)` episode against the golden; panic with the report.
    pub fn check(&self, episodes: impl IntoIterator<Item = (String, Trace)>) {
        if let Err(report) = self.compare(episodes) {
            panic!("{report}");
        }
    }

    /// Each golden episode's hashes, and what it must produce: its golden line,
    /// amended by its `.diverged` line if it has one. A `.diverged` line that may not
    /// stand is a problem, and leaves its golden line as it was.
    fn expected(&self, problems: &mut Vec<String>) -> BTreeMap<String, (Vec<u16>, Vec<u16>)> {
        let name = self.name;
        let golden = read(self.golden, self.key_fields);
        let mut expected: BTreeMap<String, (Vec<u16>, Vec<u16>)> =
            golden.iter().map(|(key, (_, h))| (key.clone(), (h.clone(), h.clone()))).collect();
        for (key, (notes, tail)) in read(self.diverged, self.key_fields) {
            let first: usize = match notes[..] {
                [first, _cause] => first.parse().expect("`first` is a step index"),
                _ => panic!("{name}.diverged {key}: not `<key…> <first> <cause> <hashes>`"),
            };
            let Some((_, hashes)) = golden.get(&key) else {
                problems.push(format!("{key}: listed in {name}.diverged but not in the golden"));
                continue;
            };
            if hashes.get(first) == tail.first() {
                problems.push(format!(
                    "{key}: listed in {name}.diverged from step {first}, \
                     where it does not differ from the golden"
                ));
            } else {
                let (_, want) = expected.get_mut(&key).expect("a golden key");
                want.truncate(first);
                want.extend(tail);
            }
        }
        expected
    }

    /// Run every `(key, trace)` episode against the golden, print the per-kind
    /// tally, and return the failure report, if any.
    pub fn compare(
        &self,
        episodes: impl IntoIterator<Item = (String, Trace)>,
    ) -> Result<(), String> {
        let name = self.name;
        let mut problems = Vec::new();
        let expected = self.expected(&mut problems);
        let mut actual = String::new();
        let mut tally: BTreeMap<String, u64> = BTreeMap::new();
        let mut ran = BTreeSet::new();
        let mut unlisted = BTreeSet::new();
        for (key, trace) in episodes {
            unlisted.extend(trace.unlisted);
            let hashes: Vec<u16> = trace.steps.iter().map(|&(_, hash)| hash).collect();
            writeln!(actual, "{key} {}", hex(&hashes)).unwrap();
            for (fact, n) in trace.counts {
                *tally.entry(fact).or_default() += n;
            }
            let Some((golden, want)) = expected.get(&key) else {
                problems.push(format!("{key}: ran, but the golden has no such episode"));
                continue;
            };
            ran.insert(key.clone());
            if *want != hashes {
                let at = first_difference(want, &hashes);
                let from = first_difference(golden, &hashes);
                let kinds: Vec<&str> = trace.steps.iter().map(|&(kind, _)| kind).collect();
                problems.push(format!(
                    "{key}: first differs at step {at} ({}) after {:?}; \
                     as a .diverged line: {key} {from} <cause> {}",
                    kinds.get(at).unwrap_or(&"the episode's end"),
                    &kinds[..at],
                    hex(&hashes[from..]),
                ));
            }
        }
        let never_ran = expected.keys().filter(|key| !ran.contains(*key));
        problems.extend(never_ran.map(|key| format!("{key}: in the golden, but never ran")));

        eprintln!("{name}, steps and counted facts by kind:");
        for (kind, n) in &tally {
            eprintln!("  {kind:<28} {n}");
        }
        for kind in self.vocabulary.split_whitespace() {
            if !tally.contains_key(kind) {
                problems.push(format!("the run never exercised {kind}"));
            }
        }
        for counter in unlisted {
            problems.push(format!("the counter {counter} moved, but `counters` does not list it"));
        }
        if problems.is_empty() {
            return Ok(());
        }
        let path = std::env::temp_dir().join(format!("{name}.actual"));
        std::fs::write(&path, &actual).unwrap();
        Err(format!(
            "{name} moved (rerun: cargo test -p hoplite-core --test {name}; \
             full transcript in {}):\n{}",
            path.display(),
            problems.join("\n"),
        ))
    }
}
