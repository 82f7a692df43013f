//! Experiment harness: regenerates every table and figure of the Hoplite paper's
//! evaluation (§5 and the appendices) on the simulated testbed.
//!
//! Usage:
//!
//! ```text
//! experiments <fig6|fig7|fig8|fig9|fig10|fig11|fig12|fig13|fig14|fig15|directory|pipeline-block|small-object-threshold|all>
//! ```
//!
//! Output is a set of aligned text tables (one series per column), mirroring the series
//! plotted in the corresponding paper figure. Every number is **modelled**: the Hoplite
//! column is the simulator, the comparators are `hoplite-baselines`' analytic cost models
//! on the same `NetworkModel`, and each table's header says so. Real-bytes numbers come
//! from `perf/`.

use hoplite_apps::fault::{
    async_sgd_failure_timeline, broadcast_failover_demo, figure12_systems, serving_failure_timeline,
};
use hoplite_apps::params::{ALEXNET, SGD_MODELS};
use hoplite_apps::workloads::{
    async_sgd_throughput, rl_throughput, serving_throughput, sync_training_systems,
    sync_training_throughput, task_workload_systems, RlAlgorithm,
};
use hoplite_baselines::{Baseline, CollectiveKind, NetworkModel};
use hoplite_cluster::scenarios::{self, ScenarioEnv};
use hoplite_core::prelude::HopliteConfig;

const KB: u64 = 1024;
const MB: u64 = 1024 * 1024;
const GB: u64 = 1024 * 1024 * 1024;

fn human_size(bytes: u64) -> String {
    if bytes >= GB {
        format!("{}GB", bytes / GB)
    } else if bytes >= MB {
        format!("{}MB", bytes / MB)
    } else {
        format!("{}KB", bytes / KB)
    }
}

fn header(title: &str) {
    println!();
    println!("==== {title} [modelled] ====");
}

fn fig6() {
    header("Figure 6: point-to-point RTT (2 nodes), seconds");
    let env = ScenarioEnv::paper_testbed();
    let model = NetworkModel::from_network(&env.network);
    println!(
        "{:<12} {:>12} {:>12} {:>12} {:>12} {:>12}",
        "size", "Optimal", "Hoplite", "OpenMPI", "Ray", "Dask"
    );
    for size in [KB, MB, GB] {
        let hoplite = scenarios::p2p_rtt(&env, size).latency_s;
        println!(
            "{:<12} {:>12.6} {:>12.6} {:>12.6} {:>12.6} {:>12.6}",
            human_size(size),
            Baseline::Optimal.p2p_rtt(&model, size),
            hoplite,
            Baseline::MpiLike.p2p_rtt(&model, size),
            Baseline::RayLike.p2p_rtt(&model, size),
            Baseline::DaskLike.p2p_rtt(&model, size),
        );
    }
}

fn collective_figure(title: &str, sizes: &[u64], nodes: &[usize]) {
    header(title);
    let env = ScenarioEnv::paper_testbed();
    let model = NetworkModel::from_network(&env.network);
    let collectives = [
        ("Broadcast", CollectiveKind::Broadcast),
        ("Gather", CollectiveKind::Gather),
        ("Reduce", CollectiveKind::Reduce),
        ("AllReduce", CollectiveKind::AllReduce),
    ];
    for &size in sizes {
        for (name, kind) in collectives {
            println!();
            println!("-- {name} {} --", human_size(size));
            println!(
                "{:<8} {:>12} {:>12} {:>12} {:>12} {:>14} {:>14} {:>18}",
                "nodes",
                "Hoplite",
                "OpenMPI",
                "Ray",
                "Dask",
                "Gloo(Bcast)",
                "Gloo(Ring)",
                "Gloo(HalvDoubl)"
            );
            for &n in nodes {
                let hoplite = match kind {
                    CollectiveKind::Broadcast => scenarios::broadcast_latency(&env, n, size, 0.0),
                    CollectiveKind::Gather => scenarios::gather_latency(&env, n, size),
                    CollectiveKind::Reduce => scenarios::reduce_latency(&env, n, size, None, 0.0),
                    CollectiveKind::AllReduce => scenarios::allreduce_latency(&env, n, size, 0.0),
                }
                .latency_s;
                let b = |base: Baseline| base.collective(&model, kind, n, size);
                println!(
                    "{:<8} {:>12.6} {:>12.6} {:>12.6} {:>12.6} {:>14.6} {:>14.6} {:>18.6}",
                    n,
                    hoplite,
                    b(Baseline::MpiLike),
                    b(Baseline::RayLike),
                    b(Baseline::DaskLike),
                    b(Baseline::GlooBroadcast),
                    b(Baseline::GlooRingChunked),
                    b(Baseline::GlooHalvingDoubling),
                );
            }
        }
    }
}

fn fig7() {
    collective_figure(
        "Figure 7: collective latency, medium/large objects (seconds)",
        &[MB, 32 * MB, GB],
        &[4, 8, 12, 16],
    );
}

fn fig14() {
    collective_figure(
        "Figure 14 (Appendix A): collective latency, small objects (seconds)",
        &[KB, 32 * KB],
        &[4, 8, 12, 16],
    );
}

fn fig8() {
    header("Figure 8: 1 GB collectives on 16 nodes with staggered arrivals (seconds)");
    let env = ScenarioEnv::paper_testbed();
    let model = NetworkModel::from_network(&env.network);
    let intervals = [0.0, 0.1, 0.2, 0.3];
    for (name, kind) in [
        ("Broadcast", CollectiveKind::Broadcast),
        ("Reduce", CollectiveKind::Reduce),
        ("AllReduce", CollectiveKind::AllReduce),
    ] {
        println!();
        println!("-- {name} --");
        println!("{:<10} {:>12} {:>12} {:>16}", "interval", "Hoplite", "OpenMPI", "Gloo(Ring)");
        for &interval in &intervals {
            let hoplite = match kind {
                CollectiveKind::Broadcast => scenarios::broadcast_latency(&env, 16, GB, interval),
                CollectiveKind::Reduce => scenarios::reduce_latency(&env, 16, GB, None, interval),
                CollectiveKind::AllReduce => scenarios::allreduce_latency(&env, 16, GB, interval),
                CollectiveKind::Gather => unreachable!(),
            }
            .latency_s;
            let mpi = Baseline::MpiLike.collective_staggered(&model, kind, 16, GB, interval);
            let gloo =
                Baseline::GlooRingChunked.collective_staggered(&model, kind, 16, GB, interval);
            println!("{:<10} {:>12.3} {:>12.3} {:>16.3}", interval, hoplite, mpi, gloo);
        }
    }
}

fn fig9() {
    header("Figure 9: asynchronous SGD training throughput (samples/s)");
    for &nodes in &[8usize, 16] {
        println!();
        println!("-- {nodes} nodes --");
        println!("{:<12} {:>12} {:>12} {:>10}", "model", "Hoplite", "Ray", "speedup");
        for model in SGD_MODELS {
            let mut row = Vec::new();
            for system in task_workload_systems() {
                row.push(async_sgd_throughput(system, nodes, model).throughput);
            }
            println!(
                "{:<12} {:>12.1} {:>12.1} {:>9.1}x",
                model.name,
                row[0],
                row[1],
                row[0] / row[1]
            );
        }
    }
}

fn fig10() {
    header("Figure 10: RL training throughput (samples/s)");
    for algo in [RlAlgorithm::Impala, RlAlgorithm::A3c] {
        println!();
        println!("-- {} --", algo.label());
        println!("{:<8} {:>12} {:>12} {:>10}", "nodes", "Hoplite", "Ray", "speedup");
        for &nodes in &[8usize, 16] {
            let mut row = Vec::new();
            for system in task_workload_systems() {
                row.push(rl_throughput(system, nodes, algo).throughput);
            }
            println!("{:<8} {:>12.1} {:>12.1} {:>9.1}x", nodes, row[0], row[1], row[0] / row[1]);
        }
    }
}

fn fig11() {
    header("Figure 11: ensemble model-serving throughput (queries/s)");
    println!("{:<8} {:>12} {:>12} {:>10}", "nodes", "Hoplite", "Ray", "speedup");
    for &nodes in &[8usize, 16] {
        let mut row = Vec::new();
        for system in task_workload_systems() {
            row.push(serving_throughput(system, nodes).throughput);
        }
        println!("{:<8} {:>12.2} {:>12.2} {:>9.1}x", nodes, row[0], row[1], row[0] / row[1]);
    }
}

fn fig12() {
    header("Figure 12: latency around a worker failure and rejoin");
    let demo = broadcast_failover_demo(8, 256 * MB, 0.05);
    println!(
        "protocol-level failover demo (8 nodes, 256MB broadcast, intermediate killed mid-transfer):"
    );
    println!(
        "  no failure: {:.3}s   with failure: {:.3}s   surviving receivers completed: {}   failovers: {}",
        demo.baseline_s, demo.with_failure_s, demo.completed_receivers, demo.failovers
    );
    println!();
    println!("-- (a) Ray Serve latency per query (8 models, fail @20, rejoin @45) --");
    for system in figure12_systems() {
        let t = serving_failure_timeline(system, 8, 70, 20, 45);
        let line: Vec<String> = t
            .iter()
            .step_by(5)
            .map(|p| {
                format!(
                    "{}:{:.3}{}",
                    p.index,
                    p.latency_s,
                    if p.event.is_empty() { "" } else { "*" }
                )
            })
            .collect();
        println!("{:<12} {}", system.label(), line.join(" "));
    }
    println!();
    println!("-- (b) async SGD latency per iteration (6 workers, fail @10, rejoin @20) --");
    for system in figure12_systems() {
        let t = async_sgd_failure_timeline(system, 6, 30, 10, 20, ALEXNET);
        let line: Vec<String> = t
            .iter()
            .step_by(2)
            .map(|p| {
                format!(
                    "{}:{:.3}{}",
                    p.index,
                    p.latency_s,
                    if p.event.is_empty() { "" } else { "*" }
                )
            })
            .collect();
        println!("{:<12} {}", system.label(), line.join(" "));
    }
    println!("(* marks the failure / rejoin points)");
}

fn fig13() {
    header("Figure 13: synchronous data-parallel training throughput (samples/s)");
    for &nodes in &[8usize, 16] {
        println!();
        println!("-- {nodes} nodes --");
        println!(
            "{:<12} {:>12} {:>12} {:>14} {:>12}",
            "model", "Hoplite", "OpenMPI", "Gloo(Ring)", "Ray"
        );
        for model in SGD_MODELS {
            let mut row = Vec::new();
            for system in sync_training_systems() {
                row.push(sync_training_throughput(system, nodes, model).throughput);
            }
            println!(
                "{:<12} {:>12.1} {:>12.1} {:>14.1} {:>12.1}",
                model.name, row[0], row[1], row[2], row[3]
            );
        }
    }
}

fn fig15() {
    header("Figure 15 (Appendix B): reduce latency vs tree degree d (seconds)");
    let env = ScenarioEnv::paper_testbed();
    let sizes = [4 * KB, 32 * KB, 256 * KB, MB, 4 * MB, 8 * MB, 16 * MB, 32 * MB];
    let nodes = [8usize, 16, 32, 48, 64];
    for &size in &sizes {
        println!();
        println!("-- object size {} --", human_size(size));
        println!("{:<8} {:>12} {:>12} {:>12} {:>12}", "nodes", "d=1", "d=2", "d=n", "auto");
        for &n in &nodes {
            let run = |degree: Option<usize>| {
                scenarios::reduce_latency(&env, n, size, degree, 0.0).latency_s
            };
            println!(
                "{:<8} {:>12.6} {:>12.6} {:>12.6} {:>12.6}",
                n,
                run(Some(1)),
                run(Some(2)),
                run(Some(0)),
                run(None)
            );
        }
    }
}

fn directory_bench() {
    header("Section 5.1.1 directory microbenchmark");
    let env = ScenarioEnv::paper_testbed();
    let fetch = scenarios::directory_fetch_latency(&env, 1024).latency_s;
    println!("small-object (1 KB) location query + inline fetch: {:.1} us", fetch * 1e6);
    println!("(paper: location write 167 us, location read 177 us)");
}

fn pipeline_block_ablation() {
    header("Ablation: pipelining block size (16 nodes, 1 GB broadcast)");
    println!("{:<12} {:>12}", "block", "latency (s)");
    for block in [MB, 4 * MB, 16 * MB, 64 * MB] {
        let mut env = ScenarioEnv::paper_testbed();
        env.hoplite = HopliteConfig { block_size: block, ..env.hoplite };
        let r = scenarios::broadcast_latency(&env, 16, GB, 0.0);
        println!("{:<12} {:>12.3}", human_size(block), r.latency_s);
    }
}

fn small_object_threshold_ablation() {
    header("Ablation: small-object inline-cache threshold (2 nodes, 32 KB object fetch)");
    println!("{:<16} {:>14}", "threshold", "fetch latency");
    for threshold in [0u64, 4 * KB, 64 * KB, 256 * KB] {
        let mut env = ScenarioEnv::paper_testbed();
        env.hoplite = HopliteConfig { inline_threshold: threshold, ..env.hoplite };
        let r = scenarios::directory_fetch_latency(&env, 32 * KB);
        println!("{:<16} {:>11.1} us", format!("{threshold}B"), r.latency_s * 1e6);
    }
}

fn main() {
    let arg = std::env::args().nth(1).unwrap_or_else(|| "all".to_string());
    let run = |name: &str| arg == name || arg == "all";
    let mut matched = false;
    for (name, f) in [
        ("fig6", fig6 as fn()),
        ("fig7", fig7),
        ("fig8", fig8),
        ("fig9", fig9),
        ("fig10", fig10),
        ("fig11", fig11),
        ("fig12", fig12),
        ("fig13", fig13),
        ("fig14", fig14),
        ("fig15", fig15),
        ("directory", directory_bench),
        ("pipeline-block", pipeline_block_ablation),
        ("small-object-threshold", small_object_threshold_ablation),
    ] {
        if run(name) {
            matched = true;
            f();
        }
    }
    if !matched {
        eprintln!(
            "unknown experiment '{arg}'; expected fig6..fig15, directory, pipeline-block, small-object-threshold, or all"
        );
        std::process::exit(2);
    }
    println!();
}
