//! Self-test of the transcript harness (`support/mod.rs`) on a toy transcript: a
//! moved step is reported where it moved, with the `.diverged` line that would list
//! it; a `.diverged` line must name a real divergence; a run must exercise every kind
//! it declares; and a counter the transcript does not list moves nothing, or fails the
//! run by name if it moves.

mod support;

use support::{Rng, Trace, Transcript};

const KINDS: [&str; 3] = ["draw", "fold", "skip"];
const STEPS: usize = 10;

/// The running sums of toy episode `episode`, one per step: each step folds a seeded
/// draw.
fn sums(episode: u64) -> Vec<usize> {
    let mut rng = Rng(episode);
    let mut sum = 0;
    (0..STEPS)
        .map(|_| {
            sum += rng.below(1000);
            sum
        })
        .collect()
}

/// Four toy episodes of ten steps; step `i` is of kind `KINDS[i % 3]` and records the
/// running sum.
fn episodes() -> impl Iterator<Item = (String, Trace)> {
    (0..4u64).map(|episode| {
        let mut trace = Trace::default();
        for (i, sum) in sums(episode).into_iter().enumerate() {
            trace.record(KINDS[i % 3], &sum.to_string());
        }
        (format!("{episode:03}"), trace)
    })
}

fn toy<'a>(name: &'a str, golden: &'a str, diverged: &'a str) -> Transcript<'a> {
    let vocabulary = "draw fold skip";
    Transcript { name, golden, diverged, key_fields: 1, vocabulary, counters: "sent" }
}

/// The toy's golden: the `.actual` file a run against an empty golden leaves.
fn golden(name: &str) -> String {
    golden_of(name, episodes())
}

fn golden_of(name: &str, episodes: impl Iterator<Item = (String, Trace)>) -> String {
    let report = toy(name, "", "").compare(episodes).unwrap_err();
    assert!(report.contains("000: ran, but the golden has no such episode"), "{report}");
    std::fs::read_to_string(std::env::temp_dir().join(format!("{name}.actual"))).unwrap()
}

/// The golden line of `key`, and its hashes as four-digit hex words.
fn line_of<'a>(golden: &'a str, key: &str) -> (&'a str, Vec<&'a str>) {
    let line = golden.lines().find(|l| l.starts_with(key)).unwrap();
    let hex = line.split_whitespace().last().unwrap();
    (line, (0..hex.len()).step_by(4).map(|i| &hex[i..i + 4]).collect())
}

/// A hash word other than `word`.
fn other(word: &str) -> &'static str {
    if word == "0000" {
        "ffff"
    } else {
        "0000"
    }
}

#[test]
fn a_golden_altered_at_step_k_is_reported_at_step_k_with_its_kind() {
    let name = "transcript_harness_altered";
    let golden = golden(name);
    toy(name, &golden, "").compare(episodes()).unwrap();

    for k in [0, 4, STEPS - 1] {
        let (line, mut hashes) = line_of(&golden, "002");
        let tail = hashes[k..].concat();
        hashes[k] = other(hashes[k]);
        let altered = golden.replace(line, &format!("002 {}", hashes.concat()));
        let report = toy(name, &altered, "").compare(episodes()).unwrap_err();
        let before: Vec<&str> = (0..k).map(|i| KINDS[i % 3]).collect();
        let expected = format!(
            "002: first differs at step {k} ({}) after {before:?}; \
             as a .diverged line: 002 {k} <cause> {tail}",
            KINDS[k % 3]
        );
        assert!(report.contains(&expected), "{report}");
        assert_eq!(report.lines().count(), 2, "only the altered episode moved: {report}");
        assert!(report.contains(&format!("cargo test -p hoplite-core --test {name};")));

        // Listing the episode as the report says makes the run pass again.
        let diverged = format!("# the altered episode\n002 {k} altered-golden {tail}\n");
        toy(name, &altered, &diverged).compare(episodes()).unwrap();
    }
}

#[test]
fn a_diverged_line_must_name_a_golden_episode_that_differs_at_first() {
    let name = "transcript_harness_diverged";
    let golden = golden(name);
    let (_, hashes) = line_of(&golden, "001");

    let listed = "listed in transcript_harness_diverged.diverged";
    let unknown = format!("004 2 no-such-episode {}", hashes[2..].concat());
    let report = toy(name, &golden, &unknown).compare(episodes()).unwrap_err();
    assert!(report.contains(&format!("004: {listed} but not in the golden")), "{report}");

    let stale = format!("001 2 stale {}", hashes[2..].concat());
    let report = toy(name, &golden, &stale).compare(episodes()).unwrap_err();
    let expected = format!("001: {listed} from step 2, where it does not differ from the golden");
    assert!(report.contains(&expected), "{report}");
}

/// The toy episodes again, each step also hashing the node counters `fields` gives
/// for its running sum, through the transcript's counter list.
fn counted_episodes<'a>(
    transcript: &'a Transcript<'a>,
    fields: impl Fn(usize) -> Vec<(&'static str, u64)> + 'a,
) -> impl Iterator<Item = (String, Trace)> + 'a {
    (0..4u64).map(move |episode| {
        let mut trace = Trace::default();
        for (i, sum) in sums(episode).into_iter().enumerate() {
            let counters = transcript.counters(&fields(sum), &mut trace);
            trace.record(KINDS[i % 3], &format!("{sum}|{counters}"));
        }
        (format!("{episode:03}"), trace)
    })
}

#[test]
fn a_counter_outside_the_list_moves_nothing_unless_it_moves_and_then_fails_by_name() {
    let name = "transcript_harness_counters";
    let counted = toy(name, "", "");
    let golden = golden_of(name, counted_episodes(&counted, |sum| vec![("sent", sum as u64)]));
    let transcript = toy(name, &golden, "");

    // Adding (or retiring) a counter the transcript does not list moves no episode
    // while it stays at zero.
    let added = |sum| vec![("sent", sum as u64), ("retired", 0)];
    transcript.compare(counted_episodes(&transcript, added)).unwrap();

    // One that moves fails the run and is named.
    let moving = |sum| vec![("sent", sum as u64), ("stray", 1)];
    let report = transcript.compare(counted_episodes(&transcript, moving)).unwrap_err();
    let expected = "the counter stray moved, but `counters` does not list it";
    assert_eq!(report.lines().nth(1), Some(expected), "{report}");

    // A listed counter is hashed by value.
    let report = transcript
        .compare(counted_episodes(&transcript, |sum| vec![("sent", sum as u64 + 1)]))
        .unwrap_err();
    assert!(report.contains("000: first differs at step 0 (draw)"), "{report}");
}

#[test]
fn a_run_missing_a_declared_kind_fails() {
    let name = "transcript_harness_vocabulary";
    let golden = golden(name);
    let vocabulary = "draw fold skip never-drawn";
    let report =
        Transcript { vocabulary, ..toy(name, &golden, "") }.compare(episodes()).unwrap_err();
    assert_eq!(report.lines().nth(1), Some("the run never exercised never-drawn"), "{report}");
}

#[test]
fn a_listed_episode_that_moves_again_is_relisted_from_its_first_divergence() {
    let name = "transcript_harness_relisted";
    let golden = golden(name);
    let (line, mut hashes) = line_of(&golden, "003");
    let run = hashes.clone();
    hashes[1] = other(hashes[1]);
    let altered = golden.replace(line, &format!("003 {}", hashes.concat()));
    // Listed from step 1, but with a tail that is off at step 5.
    let mut tail = run[1..].to_vec();
    tail[4] = other(tail[4]);
    let diverged = format!("003 1 first-cause {}", tail.concat());
    let report = toy(name, &altered, &diverged).compare(episodes()).unwrap_err();
    let before = ["draw", "fold", "skip", "draw", "fold"];
    let relisted = format!(
        "003: first differs at step 5 (skip) after {before:?}; \
         as a .diverged line: 003 1 <cause> {}",
        run[1..].concat()
    );
    assert!(report.contains(&relisted), "{report}");
}
