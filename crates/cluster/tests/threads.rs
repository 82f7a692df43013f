//! Thread census of a TCP `LocalCluster`, in a process of its own so no other test's
//! threads are counted: after every pair of nodes has talked in both directions, a
//! 4-node cluster runs one node thread and one accept thread per node and one reader
//! and one writer per directed edge — 32 threads, named after what they serve — and
//! nothing between a reader and the node (the pump threads are gone).
#![cfg(target_os = "linux")]

use std::collections::BTreeMap;

use hoplite_cluster::{LocalCluster, LocalFabric};
use hoplite_core::prelude::*;

/// Thread names of this process as the kernel reports them (cut at 15 bytes).
fn comms() -> Vec<String> {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .map(|comm| comm.trim_end().to_string())
        .collect()
}

#[test]
fn a_four_node_tcp_cluster_runs_32_named_threads_and_no_pump() {
    let before = comms().len();
    let n = 4;
    let cluster = LocalCluster::with_fabric(n, HopliteConfig::default(), LocalFabric::Tcp);
    for holder in 0..n {
        let obj = ObjectId::from_name(&format!("census-{holder}"));
        cluster.client(holder).put(obj, Payload::zeros(100_000)).unwrap();
        for getter in (0..n).filter(|&g| g != holder) {
            // Pull request one way, block the other: both edges of the pair exist now.
            assert_eq!(cluster.client(getter).get(obj).unwrap().len(), 100_000);
        }
    }
    let after = comms();
    assert!(after.len() <= before + 37, "{} threads before, now {after:?}", before);
    let mut roles: BTreeMap<&str, usize> = BTreeMap::new();
    for comm in after.iter().filter(|comm| comm.starts_with("hoplite-")) {
        *roles.entry(comm.get(..14).unwrap_or(comm)).or_default() += 1;
    }
    let node_threads: Vec<String> = (0..n).map(|i| format!("hoplite-node-{i}")).collect();
    let mut expected = BTreeMap::from([
        ("hoplite-accept", n),
        ("hoplite-reader", n * (n - 1)),
        ("hoplite-writer", n * (n - 1)),
    ]);
    expected.extend(node_threads.iter().map(|name| (name.as_str(), 1)));
    assert_eq!(roles, expected);
}
