//! Seeded fault-injection soak lane.
//!
//! Every test here sweeps the failure scenarios across a bank of fixed seeds, each
//! seed deriving a different cluster size, object size, and fault timing from a tiny
//! deterministic LCG. The simulator itself is deterministic, so a failing seed
//! reproduces exactly: the failure message names it, and re-running
//! `cargo test -p hoplite-cluster --release soak_ -- --ignored` locally replays the
//! identical schedule.
//!
//! The tests are `#[ignore]`d so the regular `cargo test` tier stays fast; CI runs
//! them as the dedicated `scenario-soak` step.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::thread;
use std::time::Duration;

use hoplite_cluster::scenarios::{
    backup_resync_under_load, directory_failover_broadcast, partition_suspicion_refuted,
    replica_kill_drill, rolling_restart_collectives, ReplicaKill, ScenarioEnv,
};
use hoplite_core::prelude::NodeId;

const MB: u64 = 1024 * 1024;
const SEEDS: u64 = 32;
/// The replica-set kill drills are light (small cluster, small objects), so they
/// sweep a wider seed bank.
const KILL_DRILL_SEEDS: u64 = 64;

/// Minimal deterministic parameter generator (64-bit LCG, MMIX constants).
struct Lcg(u64);

impl Lcg {
    fn new(seed: u64) -> Self {
        Lcg(seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1))
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        self.0 >> 33
    }

    fn pick(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next() % (hi - lo + 1)
    }
}

/// Wall-clock budget per seed. Each scenario runs in well under a second in release,
/// so a seed hitting this ceiling means a livelock (event loop or protocol), not a
/// slow machine — the watchdog turns such hangs into a named failure instead of a
/// 6-hour CI timeout with no culprit.
const SEED_WALL_CLOCK_BUDGET: Duration = Duration::from_secs(120);

fn with_seed(name: &'static str, seed: u64, f: impl FnOnce() + Send + 'static) {
    let (tx, rx) = mpsc::channel();
    let worker = thread::spawn(move || {
        let _ = tx.send(catch_unwind(AssertUnwindSafe(f)));
    });
    match rx.recv_timeout(SEED_WALL_CLOCK_BUDGET) {
        Ok(Ok(())) => {
            let _ = worker.join();
        }
        Ok(Err(e)) => {
            let _ = worker.join();
            eprintln!(
                "SOAK FAILURE: scenario `{name}` failed at seed {seed} — rerun this seed to \
                 reproduce"
            );
            resume_unwind(e);
        }
        Err(_) => {
            // The worker is stuck; leak it (the test harness exits the process) and
            // fail loudly with the seed that hung.
            eprintln!(
                "SOAK TIMEOUT: scenario `{name}` exceeded the {}s wall-clock budget at seed \
                 {seed} — likely livelock; rerun this seed to reproduce",
                SEED_WALL_CLOCK_BUDGET.as_secs()
            );
            panic!(
                "soak watchdog: `{name}` seed {seed} exceeded {}s",
                SEED_WALL_CLOCK_BUDGET.as_secs()
            );
        }
    }
}

/// Primary-kill failover under varying cluster sizes, object sizes, and kill times:
/// the broadcast must complete, the promoted backup must hold every location record,
/// and the late receiver's query must have been re-driven.
#[test]
#[ignore = "soak lane: run via the CI scenario-soak step or with -- --ignored"]
fn soak_directory_failover_seeds() {
    for seed in 0..SEEDS {
        with_seed("directory_failover_broadcast", seed, move || {
            let mut lcg = Lcg::new(seed);
            let n = lcg.pick(4, 9) as usize;
            let size = lcg.pick(2, 64) * MB;
            let fail_at = 0.01 + lcg.pick(0, 12) as f64 * 0.01;
            let env = ScenarioEnv::paper_testbed();
            let r = directory_failover_broadcast(&env, n, size, fail_at);
            assert_eq!(
                r.completed_receivers,
                n - 2,
                "seed {seed}: every receiver completed (n={n} size={size} fail_at={fail_at})"
            );
            let mut holders = r.locations_at_new_primary.clone();
            holders.sort_by_key(|h| h.0);
            holders.dedup();
            let expected: Vec<NodeId> = (0..(n - 1) as u32).map(NodeId).collect();
            assert_eq!(holders, expected, "seed {seed}: location records survived the kill");
            assert!(r.directory_failovers >= 1, "seed {seed}: late query re-driven");
        });
    }
    eprintln!("soak_directory_failover_seeds: {SEEDS} seeds green");
}

/// Rolling restart of the whole cluster under live traffic, across seeds: zero lost
/// location records, every wave and re-fetch completes, and the restarted nodes are
/// re-admitted and lead shards again.
#[test]
#[ignore = "soak lane: run via the CI scenario-soak step or with -- --ignored"]
fn soak_rolling_restart_seeds() {
    for seed in 0..SEEDS {
        with_seed("rolling_restart_collectives", seed, move || {
            let mut lcg = Lcg::new(seed ^ 0xDEADBEEF);
            let n = lcg.pick(4, 8) as usize;
            let size = lcg.pick(2, 16) * MB;
            let kill_gap = 2.6 + lcg.pick(0, 7) as f64 * 0.2;
            let env = ScenarioEnv::paper_testbed();
            let r = rolling_restart_collectives(&env, n, size, kill_gap);
            assert_eq!(
                r.waves_completed, r.waves_expected,
                "seed {seed}: live-traffic waves completed (n={n} size={size} gap={kill_gap})"
            );
            assert_eq!(r.refetches_completed, n, "seed {seed}: restarted nodes re-fetched W");
            assert!(r.reduce_ok, "seed {seed}: mid-sequence reduce completed");
            let expected: Vec<NodeId> = (0..n as u32).map(NodeId).collect();
            assert_eq!(r.holders, expected, "seed {seed}: zero lost location records");
            assert_eq!(r.primaries_restored, n, "seed {seed}: original owners lead again");
            assert!(r.resyncs >= n as u64, "seed {seed}: snapshot resync ran per restart");
        });
    }
    eprintln!("soak_rolling_restart_seeds: {SEEDS} seeds green");
}

/// Backup resync drill across seeds (r = 3): kill and restart the first backup under
/// a continuous registration stream, with chunked catch-up forced. Every seed must
/// converge — no lost records, no blocked traffic, both backups complete — with the
/// chunk budget respected throughout.
#[test]
#[ignore = "soak lane: run via the CI scenario-soak step or with -- --ignored"]
fn soak_backup_resync_seeds() {
    for seed in 0..SEEDS {
        with_seed("backup_resync_under_load", seed, move || {
            let mut lcg = Lcg::new(seed ^ 0x5EED_CAFE);
            let n = lcg.pick(5, 9) as usize;
            let fail_at = 0.3 + lcg.pick(0, 20) as f64 * 0.05;
            let env = ScenarioEnv::paper_testbed();
            let r = backup_resync_under_load(&env, n, fail_at, seed);
            assert_eq!(
                r.puts_completed, r.expected_records,
                "seed {seed}: live traffic never blocked (n={n} fail_at={fail_at})"
            );
            assert_eq!(r.records_at_primary, r.expected_records, "seed {seed}: primary complete");
            assert_eq!(
                r.records_at_live_backup, r.expected_records,
                "seed {seed}: live backup converged"
            );
            assert_eq!(
                r.records_at_restarted, r.expected_records,
                "seed {seed}: restarted backup caught up"
            );
            assert!(r.resyncs >= 1, "seed {seed}: the restarted backup resynced");
            assert!(r.snapshot_chunks_sent >= 2, "seed {seed}: catch-up was chunked");
            assert!(
                r.snapshot_bytes <= r.snapshot_chunks_sent * r.chunk_budget,
                "seed {seed}: chunk bound held ({} bytes / {} chunks / budget {})",
                r.snapshot_bytes,
                r.snapshot_chunks_sent,
                r.chunk_budget
            );
        });
    }
    eprintln!("soak_backup_resync_seeds: {SEEDS} seeds green");
}

/// SWIM-detector false-positive sweep: at every seed, a transient partition drives
/// suspicion and a 4–10× straggler carries bulk traffic while being probed. The
/// detector must end every seed with zero deaths — the suspect's incarnation-bump
/// refutation lands inside the suspicion window, and slow is never mistaken for
/// dead — while traffic on both sides of the cut completes.
#[test]
#[ignore = "soak lane: run via the CI scenario-soak step or with -- --ignored"]
fn soak_detector_false_positive_seeds() {
    for seed in 0..SEEDS {
        with_seed("partition_suspicion_refuted", seed, move || {
            let mut lcg = Lcg::new(seed ^ 0x5A11_D0C7);
            let n = lcg.pick(4, 9) as usize;
            let env = ScenarioEnv::paper_testbed();
            let r = partition_suspicion_refuted(&env, n, seed);
            assert!(r.probes_sent > 0, "seed {seed}: detector probing (n={n})");
            assert!(r.suspicions_raised >= 1, "seed {seed}: the cut drove suspicion (n={n})");
            assert!(r.refutations_sent >= 1, "seed {seed}: refutation sent (n={n})");
            assert_eq!(r.deaths_declared, 0, "seed {seed}: zero false-positive deaths (n={n})");
            assert_eq!(r.deaths_learned, 0, "seed {seed}: no death gossip (n={n})");
            assert_eq!(
                r.gets_completed, r.gets_expected,
                "seed {seed}: traffic completed on both sides of the cut (n={n})"
            );
        });
    }
    eprintln!("soak_detector_false_positive_seeds: {SEEDS} seeds green");
}

/// Replica-set kill drills (r = 3): at every seed, kill the primary, the first backup,
/// and the last backup mid-stream under varying cluster sizes, registration counts,
/// and kill times. Whatever dies, the survivors must converge with zero lost
/// location records.
#[test]
#[ignore = "soak lane: run via the CI scenario-soak step or with -- --ignored"]
fn soak_replica_kill_drill_seeds() {
    for seed in 0..KILL_DRILL_SEEDS {
        with_seed("replica_kill_drill", seed, move || {
            let mut lcg = Lcg::new(seed ^ 0xC0FFEE);
            let n = lcg.pick(5, 9) as usize;
            let objects = lcg.pick(12, 32) as usize;
            let fail_at = 0.02 + lcg.pick(0, 20) as f64 * 0.01;
            let env = ScenarioEnv::paper_testbed();
            for kill in [ReplicaKill::Primary, ReplicaKill::FirstBackup, ReplicaKill::LastBackup] {
                let r = replica_kill_drill(&env, n, kill, objects, fail_at);
                assert_eq!(
                    r.surviving_records, r.expected_records,
                    "seed {seed}: zero lost records with the {kill:?} killed \
                     (n={n} objects={objects} fail_at={fail_at})"
                );
            }
        });
    }
    eprintln!("soak_replica_kill_drill_seeds: {KILL_DRILL_SEEDS} seeds x 3 positions green");
}
