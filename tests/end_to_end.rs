//! End-to-end integration tests spanning the whole workspace: real data plane
//! (LocalCluster over channels and TCP), simulated cluster-scale behaviour
//! (SimCluster), fault tolerance, and paper-shape assertions.

use hoplite::apps::comm::CommSystem;
use hoplite::apps::fault::broadcast_failover_demo;
use hoplite::apps::workloads::{async_sgd_throughput, serving_throughput};
use hoplite::baselines::Baseline;
use hoplite::cluster::scenarios::{self, ScenarioEnv};
use hoplite::cluster::{LocalCluster, LocalFabric, SimCluster};
use hoplite::core::prelude::*;
use hoplite::simnet::SimTime;
use hoplite::task::TaskSystem;

const MB: u64 = 1024 * 1024;

#[test]
fn real_cluster_broadcast_delivers_identical_bytes_everywhere() {
    let cluster = LocalCluster::new(5, HopliteConfig::small_for_tests());
    let object = ObjectId::from_name("e2e-broadcast");
    let data: Vec<u8> = (0..200_000u32).map(|i| (i * 31 % 251) as u8).collect();
    cluster.client(0).put(object, Payload::from_vec(data.clone())).unwrap();
    let handles: Vec<std::thread::JoinHandle<Vec<u8>>> = (1..5)
        .map(|i| {
            let client = cluster.client(i);
            std::thread::spawn(move || client.get(object).unwrap().to_owned_vec().unwrap())
        })
        .collect();
    for h in handles {
        assert_eq!(h.join().unwrap(), data);
    }
}

#[test]
fn real_cluster_allreduce_matches_serial_computation() {
    let cluster = LocalCluster::new(4, HopliteConfig::small_for_tests());
    let dim = 2048usize;
    let sources: Vec<ObjectId> = (0..4).map(|i| ObjectId::from_name(&format!("ar-{i}"))).collect();
    let mut expected = vec![0f32; dim];
    for (i, &src) in sources.iter().enumerate() {
        let values: Vec<f32> = (0..dim).map(|j| (i * dim + j) as f32 * 1e-3).collect();
        for (e, v) in expected.iter_mut().zip(&values) {
            *e += *v;
        }
        cluster.client(i).put(src, Payload::from_f32s(&values)).unwrap();
    }
    let target = ObjectId::from_name("ar-sum");
    cluster.client(0).reduce(target, sources, None, ReduceSpec::sum_f32()).unwrap();
    // AllReduce = reduce + broadcast: every node fetches the result.
    for i in 0..4 {
        let got = cluster.client(i).get(target).unwrap().to_f32s();
        for (g, e) in got.iter().zip(&expected) {
            assert!((g - e).abs() < 1e-3, "node {i}: {g} vs {e}");
        }
    }
}

#[test]
fn tcp_fabric_end_to_end_reduce() {
    let cluster = LocalCluster::with_fabric(3, HopliteConfig::small_for_tests(), LocalFabric::Tcp);
    let sources: Vec<ObjectId> =
        (0..3).map(|i| ObjectId::from_name(&format!("tcp-src-{i}"))).collect();
    for (i, &src) in sources.iter().enumerate() {
        cluster.client(i).put(src, Payload::from_f32s(&vec![1.0 + i as f32; 1000])).unwrap();
    }
    let target = ObjectId::from_name("tcp-sum");
    cluster.client(1).reduce(target, sources, None, ReduceSpec::sum_f32()).unwrap();
    let result = cluster.client(1).get(target).unwrap().to_f32s();
    for v in result {
        assert!((v - 6.0).abs() < 1e-4);
    }
}

#[test]
fn task_framework_runs_the_figure1_pattern() {
    // The paper's Figure 1b: reduce a subset of gradient futures, update the policy,
    // launch the next round.
    let ts = TaskSystem::new(4, HopliteConfig::small_for_tests());
    ts.register("rollout", |args| {
        let policy = args[0].to_f32s();
        Payload::from_f32s(&policy.iter().map(|w| w + 1.0).collect::<Vec<_>>())
    });
    let mut policy = vec![0.0f32; 512];
    for _round in 0..2 {
        let policy_ref = ts.put(Payload::from_f32s(&policy)).unwrap();
        let grads: Vec<_> =
            (0..4).map(|_| ts.submit("rollout", vec![policy_ref]).unwrap()).collect();
        let reduced = ts.reduce(&grads, Some(2), ReduceSpec::sum_f32()).unwrap();
        let update = ts.get(reduced).unwrap().to_f32s();
        for (p, u) in policy.iter_mut().zip(update) {
            *p += u / 2.0;
        }
    }
    // Two rounds of "+1 then average the sum of two copies" => policy grows by 1 + 2.
    assert!((policy[0] - 3.0).abs() < 1e-4, "policy[0] = {}", policy[0]);
}

#[test]
fn simulated_broadcast_beats_ray_baseline_by_paper_margin() {
    let env = ScenarioEnv::paper_testbed();
    let hoplite = scenarios::broadcast_latency(&env, 16, 1024 * MB, 0.0).latency_s;
    let model = hoplite::baselines::NetworkModel::from_network(&env.network);
    let ray = Baseline::RayLike.collective(
        &model,
        hoplite::baselines::CollectiveKind::Broadcast,
        16,
        1024 * MB,
    );
    assert!(
        ray / hoplite > 3.0,
        "expected >3x gap at 16 nodes x 1 GB, got hoplite {hoplite:.2}s ray {ray:.2}s"
    );
}

#[test]
fn simulated_failure_mid_broadcast_still_completes() {
    let result = broadcast_failover_demo(8, 128 * MB, 0.03);
    assert_eq!(result.completed_receivers, 6);
    assert!(result.failovers >= 1);
}

#[test]
fn simulated_reduce_subset_makes_progress_without_stragglers() {
    // Reduce 4 of 8 objects; the other 4 are never created. The reduce must still
    // complete (this is the asynchrony property of §3.4.2).
    let mut cluster = SimCluster::paper_testbed(8);
    let sources: Vec<ObjectId> = (0..8).map(|i| ObjectId::from_name(&format!("sub-{i}"))).collect();
    for (i, &source) in sources.iter().enumerate().take(4) {
        cluster.submit_at(
            SimTime::ZERO,
            i,
            ClientOp::Put { object: source, payload: Payload::synthetic(32 * MB) },
        );
    }
    let target = ObjectId::from_name("sub-sum");
    let start = SimTime::from_secs_f64(1.0);
    cluster.submit_at(
        start,
        0,
        ClientOp::Reduce {
            target,
            sources,
            num_objects: Some(4),
            spec: ReduceSpec::sum_f32(),
            degree: None,
        },
    );
    let get = cluster.submit_at(start, 0, ClientOp::Get { object: target });
    cluster.run();
    assert!(cluster.done_time(get).is_some(), "subset reduce completed");
}

#[test]
fn workload_projections_reproduce_headline_speedups() {
    // The abstract's headline numbers: up to 7.8x async SGD, 3.3x serving.
    let sgd_h = async_sgd_throughput(CommSystem::Hoplite, 16, hoplite::apps::params::ALEXNET);
    let sgd_r = async_sgd_throughput(
        CommSystem::Baseline(Baseline::RayLike),
        16,
        hoplite::apps::params::ALEXNET,
    );
    let speedup = sgd_h.throughput / sgd_r.throughput;
    assert!(speedup > 5.0, "async SGD speedup {speedup:.1} < 5");

    let srv_h = serving_throughput(CommSystem::Hoplite, 16);
    let srv_r = serving_throughput(CommSystem::Baseline(Baseline::RayLike), 16);
    let speedup = srv_h.throughput / srv_r.throughput;
    assert!(speedup > 1.8, "serving speedup {speedup:.1} < 1.8");
}

#[test]
fn degree_ablation_crossover_matches_appendix_b() {
    let env = ScenarioEnv::paper_testbed();
    // Small objects: star (d = n) wins; large objects: chain (d = 1) wins.
    let small_star = scenarios::reduce_latency(&env, 16, 4 * 1024, Some(0), 0.0).latency_s;
    let small_chain = scenarios::reduce_latency(&env, 16, 4 * 1024, Some(1), 0.0).latency_s;
    assert!(small_star < small_chain, "star {small_star} vs chain {small_chain} at 4 KB");
    let large_star = scenarios::reduce_latency(&env, 16, 32 * MB, Some(0), 0.0).latency_s;
    let large_chain = scenarios::reduce_latency(&env, 16, 32 * MB, Some(1), 0.0).latency_s;
    assert!(large_chain < large_star, "chain {large_chain} vs star {large_star} at 32 MB");
}
