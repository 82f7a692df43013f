//! Toy-scale tests of the benchmark itself (`cargo test --manifest-path perf/Cargo.toml`):
//! the same scripts and executors as the measured runs, on ≤ 1 MiB objects.

use std::time::Instant;

use hoplite_bench::json::Json;
use hoplite_cluster::LocalFabric;
use hoplite_core::prelude::*;
// The prelude's one-parameter `Result` alias would shadow this.
use std::result::Result;

use crate::exec::{ClusterExec, Executor, GetOutcome, Tally};
use crate::gen::{script, script_hash, Inputs, Kill, Round, Shape, Step, Workload};
use crate::inline::InlineDriver;
use crate::report::{self, Pooled, END_TO_END, PER_LAYER};
use crate::simlane::SimExec;
use crate::spans::SpanLog;
use crate::stats::{median, percentile, quartiles, spread, Samples};
use crate::{contract_line, run_script};

const SEED: u64 = 7;

/// Run `workload`'s toy script on `exec`.
fn run_toy<E: Executor>(exec: &mut E, workload: Workload, n: usize) -> (Samples, Tally) {
    let shape = Shape::toy(workload, n);
    let inputs = Inputs::build(workload, &shape, SEED);
    let script = script(workload, &shape, SEED, 0);
    let (mut samples, mut tally) = (Samples::default(), Tally::default());
    run_script(exec, &script, &inputs, true, Instant::now(), &mut samples, &mut tally)
        .expect("every payload validates");
    (samples, tally)
}

#[test]
fn every_workload_completes_at_toy_scale_on_both_fabrics() {
    for (fabric, n) in [(LocalFabric::Channels, 3), (LocalFabric::Tcp, 4)] {
        for workload in Workload::ALL {
            let mut exec = ClusterExec::start(&Shape::toy(workload, n), fabric, true);
            let (samples, tally) = run_toy(&mut exec, workload, n);
            assert!(tally.attempted > 0);
            assert_eq!(tally.failed, 0, "{} over {fabric:?}", workload.name());
            let rounds = Shape::toy(workload, n).rounds as usize;
            assert_eq!(samples.get("round_ms").len(), rounds, "{}", workload.name());
            assert!(samples.get("get_us").iter().all(|us| *us > 0.0));
            if workload == Workload::Allreduce64m {
                assert_eq!(samples.get("reduce_ms").len(), 2);
            }
            if workload == Workload::Failover256m {
                assert_eq!(exec.extra.get("rejoin_ms").len(), 1, "the victim came back");
            }
            let log = exec.spans.as_ref().expect("traced");
            assert!(log.spans().iter().all(|s| s.parent.is_some() || s.name == "round"));
        }
    }
}

/// Passes calls through to `inner`, remembering what every Get returned and, when
/// asked, handing back the payload with its first two blocks swapped.
struct Tap<E> {
    inner: E,
    swap_blocks: Option<u64>,
    seen: Vec<(usize, Vec<u8>)>,
}

impl<E: Executor> Executor for Tap<E> {
    fn put(&mut self, node: usize, object: ObjectId, payload: Payload) -> Result<(), String> {
        self.inner.put(node, object, payload)
    }
    fn get(&mut self, nodes: &[usize], object: ObjectId, kill: Option<Kill>) -> Vec<GetOutcome> {
        let mut outcomes = self.inner.get(nodes, object, kill);
        outcomes.sort_by_key(|o| o.node);
        for outcome in &mut outcomes {
            let Ok(payload) = &mut outcome.result else { continue };
            if let Some(block) = self.swap_blocks {
                let (a, b) = (payload.slice(0, block), payload.slice(block, block));
                *payload = b.concat(&a).concat(&payload.slice(2 * block, payload.len()));
            }
            self.seen.push((outcome.node, payload.to_owned_vec().expect("real bytes")));
        }
        outcomes
    }
    fn reduce(
        &mut self,
        node: usize,
        target: ObjectId,
        sources: Vec<ObjectId>,
    ) -> Result<(), String> {
        self.inner.reduce(node, target, sources)
    }
    fn delete(&mut self, node: usize, object: ObjectId) -> Result<(), String> {
        self.inner.delete(node, object)
    }
    fn rejoin(&mut self) -> Result<(), String> {
        self.inner.rejoin()
    }
    fn clock_ms(&self) -> f64 {
        self.inner.clock_ms()
    }
    fn begin_round(&mut self, round: &Round) {
        self.inner.begin_round(round)
    }
    fn end_round(&mut self) {
        self.inner.end_round()
    }
}

#[test]
fn a_misordered_block_fails_validation() {
    let workload = Workload::Bcast64m;
    let shape = Shape::toy(workload, 3);
    let inputs = Inputs::build(workload, &shape, SEED);
    let script = script(workload, &shape, SEED, 0);
    let mut exec = Tap {
        inner: InlineDriver::new(&shape, false),
        swap_blocks: Some(shape.cfg.block_size),
        seen: Vec::new(),
    };
    let (mut samples, mut tally) = (Samples::default(), Tally::default());
    let outcome =
        run_script(&mut exec, &script, &inputs, false, Instant::now(), &mut samples, &mut tally);
    let why = outcome.expect_err("two swapped blocks must not validate");
    assert!(why.contains("are not Bulk"), "{why}");
    assert_eq!(tally.failed, 0, "a wrong payload is a benchmark failure, not a failed operation");
}

#[test]
fn inline_driver_and_local_cluster_return_identical_bytes() {
    for workload in Workload::ALL {
        let shape = Shape::toy(workload, 4);
        let tap = |inner| Tap { inner, swap_blocks: None, seen: Vec::new() };
        let mut inline = tap(InlineDriver::new(&shape, true));
        let (_, tally) = run_toy(&mut inline, workload, 4);
        assert_eq!(tally.failed, 0);
        let mut cluster = Tap {
            inner: ClusterExec::start(&shape, LocalFabric::Tcp, false),
            swap_blocks: None,
            seen: Vec::new(),
        };
        let (_, tally) = run_toy(&mut cluster, workload, 4);
        assert_eq!(tally.failed, 0);
        assert!(!inline.seen.is_empty());
        assert!(inline.seen == cluster.seen, "{}: Gets disagree between backends", workload.name());
    }
}

#[test]
fn every_inline_span_has_a_parent_or_is_a_round_root() {
    for codec in [false, true] {
        let workload = Workload::Allreduce64m;
        let mut driver = InlineDriver::new(&Shape::toy(workload, 4), codec);
        let (samples, _) = run_toy(&mut driver, workload, 4);
        let spans = driver.log.spans();
        assert!(spans.iter().all(|s| s.parent.is_some() || s.name == "round"));
        assert!(spans.iter().all(|s| s.parent.is_none_or(|p| spans[p as usize].trace == s.trace)));
        assert_eq!(spans.iter().any(|s| s.name == "transport.framing"), codec);
        let rounds = report::inline_rounds(&driver.log, &samples);
        assert_eq!(rounds.get("round_ms").len(), 2);
        assert!(rounds.get("core.node.reduce").iter().all(|ms| *ms > 0.0));
        assert!(rounds.get("replicates").iter().all(|n| *n > 0.0));
        assert_eq!(rounds.get("wire_bytes").iter().all(|b| *b > 0.0), codec);
    }
}

#[test]
fn the_simulator_lane_runs_the_same_script() {
    for workload in [Workload::Bcast64m, Workload::Allreduce64m, Workload::Small1k] {
        let mut sim = SimExec::new(&Shape::toy(workload, 4), 1.0, 50.0, 5.0);
        let (samples, tally) = run_toy(&mut sim, workload, 4);
        assert_eq!(tally.failed, 0, "{}", workload.name());
        assert!(samples.get("round_ms").iter().all(|ms| *ms > 0.0), "{}", workload.name());
    }
    // 1 MiB to three receivers through a 1 GiB/s NIC cannot beat one transfer time.
    let mut sim = SimExec::new(&Shape::toy(Workload::Bcast64m, 4), 1.0, 50.0, 5.0);
    let (samples, _) = run_toy(&mut sim, Workload::Bcast64m, 4);
    assert!(median(samples.get("round_ms")) > 1.0);
}

#[test]
fn scripts_are_a_function_of_the_seed() {
    for workload in Workload::ALL {
        let shape = Shape::full(workload);
        let (a, b) = (script(workload, &shape, 1, 0), script(workload, &shape, 1, 0));
        assert_eq!(script_hash(&a), script_hash(&b));
        let other = script(workload, &shape, 2, 0);
        assert_ne!(script_hash(&a), script_hash(&other));
        let first_object = |s: &[Round]| match s[0].prepare.iter().chain(&s[0].timed).next() {
            Some(Step::Put { object, .. }) => *object,
            other => panic!("scripts start with a Put, not {other:?}"),
        };
        assert_ne!(first_object(&a), first_object(&other), "names depend on the seed");
        assert_ne!(
            script_hash(&a),
            script_hash(&script(workload, &shape, 1, 1)),
            "and on the child"
        );
    }
    let shape = Shape::toy(Workload::Bcast64m, 3);
    let bytes = |seed| {
        let inputs = Inputs::build(Workload::Bcast64m, &shape, seed);
        inputs.payload(crate::gen::Data::Bulk).to_owned_vec().expect("real bytes")
    };
    assert_eq!(bytes(1), bytes(1));
    assert_ne!(bytes(1), bytes(2));
    let constant = bytes(1).iter().all(|b| *b == bytes(1)[0]);
    assert!(!constant, "payloads must not be constant");
}

#[test]
fn reduce_inputs_sum_exactly() {
    let shape = Shape::toy(Workload::Allreduce64m, 4);
    let inputs = Inputs::build(Workload::Allreduce64m, &shape, SEED);
    let sum = inputs.payload(crate::gen::Data::Sum).to_f32s();
    let sources: Vec<Vec<f32>> =
        (0..4).map(|i| inputs.payload(crate::gen::Data::Source(i)).to_f32s()).collect();
    for (i, total) in sum.iter().enumerate() {
        // Reverse order: small integers add exactly whichever way the tree folds them.
        let folded: f32 = sources.iter().rev().map(|s| s[i]).sum();
        assert_eq!(folded.to_bits(), total.to_bits());
    }
    assert!(sum.iter().any(|v| *v != sum[0]));
}

#[test]
fn order_statistics_match_python() {
    let v: Vec<f64> = (1..=10).map(f64::from).collect();
    // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
    assert_eq!(quartiles(&v), (2.75, 8.25));
    assert_eq!(median(&v), 5.5);
    assert!((spread(&v) - 1.0).abs() < 1e-12);
    // statistics.quantiles([3, 1, 4, 1, 5, 9, 2, 6], n=4) == [1.25, 3.5, 5.75]
    assert_eq!(quartiles(&[3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0]), (1.25, 5.75));
    assert_eq!(percentile(&v, 0.0), 1.0);
    assert_eq!(percentile(&v, 100.0), 10.0);
    assert!((percentile(&v, 90.0) - 9.1).abs() < 1e-12);
    assert_eq!(percentile(&[4.0], 90.0), 4.0);
}

#[test]
fn self_time_is_duration_minus_child_cover() {
    let mut log = SpanLog::new();
    let root = log.record("round", None, 0, None, 0, 100);
    log.record("a", Some(root), 0, None, 10, 40);
    log.record("b", Some(root), 0, None, 30, 60); // overlaps `a`: covered once
    let late = log.record("c", Some(root), 0, None, 90, 130); // clipped to the parent
    log.record("d", Some(late), 0, None, 200, 300); // causal child outside the interval
    assert_eq!(log.self_times_ns(), vec![100 - 50 - 10, 30, 30, 40, 100]);
    let by_name = log.self_time_by_name();
    assert_eq!(by_name["round"], (1, 40));
}

/// The names, units, directions and bounds `BENCHMARK.json` declares.
fn declared(section: &str) -> Vec<(String, String, String, Option<f64>)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
    let json = Json::parse(&text).expect("BENCHMARK.json parses");
    let text_of = |m: &Json, key: &str| m.get(key).and_then(Json::as_str).expect(key).to_string();
    json.get(section)
        .and_then(Json::as_arr)
        .expect(section)
        .iter()
        .map(|m| {
            (
                text_of(m, "name"),
                text_of(m, "unit"),
                text_of(m, "better"),
                m.get("bound").and_then(Json::as_f64),
            )
        })
        .collect()
}

#[test]
fn benchmark_json_mirrors_the_registry() {
    let e2e: Vec<_> = END_TO_END
        .iter()
        .map(|m| (m.name.to_string(), m.unit.to_string(), m.better.to_string(), Some(m.bound)))
        .collect();
    assert_eq!(declared("end_to_end"), e2e);
    let layers: Vec<_> = PER_LAYER
        .iter()
        .map(|m| (m.0.to_string(), m.1.to_string(), m.2.to_string(), None))
        .collect();
    assert_eq!(declared("per_layer"), layers);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
    let workloads: Vec<&str> = json
        .get("workloads")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).unwrap())
        .collect();
    assert_eq!(workloads, Workload::ALL.map(Workload::name));
}

#[test]
fn the_result_line_parses_and_names_every_declared_metric() {
    let mut exec =
        ClusterExec::start(&Shape::toy(Workload::Small1k, 3), LocalFabric::Channels, false);
    let (samples, tally) = run_toy(&mut exec, Workload::Small1k, 3);
    let mut pooled = Pooled::default();
    pooled.add(&samples, 0.5, 10.0);
    for (section, metrics) in [
        ("end_to_end", report::end_to_end(&pooled)),
        ("per_layer", report::complete_per_layer(&[])),
    ] {
        let line = contract_line(tally, &metrics);
        assert!(!line.contains('\n'));
        let json = Json::parse(&line).expect("the result line is JSON");
        let Json::Obj(keys) = &json else { panic!("not an object") };
        let keys: Vec<&str> = keys.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        for (name, unit, _, _) in declared(section) {
            let metric = json.get("metrics").and_then(|m| m.get(&name)).expect(&name);
            assert_eq!(metric.get("unit").and_then(Json::as_str), Some(unit.as_str()));
            let value = metric.get("value").and_then(Json::as_f64).expect("a number");
            // CPU time has 10 ms resolution: a toy run can read 0 where a real one cannot.
            let may_be_zero = section == "per_layer" || name == "cpu_ms_per_round";
            assert!(value.is_finite() && (may_be_zero || value > 0.0), "{name} must never be 0");
        }
    }
}
