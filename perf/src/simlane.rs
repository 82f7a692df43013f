//! Sim-vs-real lane: the same op script on [`SimCluster`], with the simulated NIC set
//! from this box's measured loopback bandwidth and round-trip time, so the simulator's
//! prediction for a cell can be set against the real run of the same cell.

use hoplite_cluster::{OpHandle, SimCluster};
use hoplite_core::prelude::*;
// The prelude's one-parameter `Result` alias would shadow this.
use hoplite_simnet::prelude::*;
use std::result::Result;

use crate::exec::{Executor, GetOutcome};
use crate::gen::{Kill, Shape};

/// Simulated seconds one step may take before it counts as hung.
const STEP_LIMIT_S: f64 = 120.0;

/// Executes steps on the discrete-event simulator. Its clock is simulated time spent
/// inside steps (idle timers firing between steps do not count).
pub struct SimExec {
    cluster: SimCluster,
    elapsed_ms: f64,
    /// A submitted reduce whose traffic runs together with the Get that follows it.
    reduce: Option<OpHandle>,
}

impl SimExec {
    /// `shape.n` simulated nodes whose NICs move `stream_gibps` with a one-way latency
    /// of half `rtt_us`, and whose memory copies run at `memcpy_gibps`.
    pub fn new(shape: &Shape, stream_gibps: f64, rtt_us: f64, memcpy_gibps: f64) -> SimExec {
        const GIB: f64 = (1u64 << 30) as f64;
        let net = NetworkConfig {
            bandwidth: stream_gibps * GIB,
            latency: SimDuration::from_secs_f64(rtt_us / 2e6),
            ..NetworkConfig::paper_testbed()
        };
        let cfg = HopliteConfig { memcpy_bandwidth: memcpy_gibps * GIB, ..shape.cfg.clone() };
        SimExec { cluster: SimCluster::new(shape.n, cfg, net), elapsed_ms: 0.0, reduce: None }
    }

    /// Submit `ops` now, run until the cluster is quiet, and return each op's latency
    /// in milliseconds with its reply.
    fn run(&mut self, ops: Vec<(usize, ClientOp)>) -> Vec<Result<(f64, ClientReply), String>> {
        let start = self.cluster.now();
        let handles: Vec<OpHandle> =
            ops.into_iter().map(|(node, op)| self.cluster.submit_at(start, node, op)).collect();
        self.cluster.run_until(SimTime::from_secs_f64(start.as_secs_f64() + STEP_LIMIT_S));
        let outcome = |cluster: &SimCluster, handle: OpHandle| {
            let done = cluster
                .completions(handle)
                .iter()
                .find(|c| !matches!(c.reply, ClientReply::ReduceAccepted { .. }));
            match done {
                Some(c) if !matches!(c.reply, ClientReply::Error { .. }) => {
                    Ok(((c.at.as_secs_f64() - start.as_secs_f64()) * 1e3, c.reply.clone()))
                }
                Some(c) => Err(format!("simulated op failed: {:?}", c.reply)),
                None => Err(format!("simulated op {:?} did not complete", handle.op)),
            }
        };
        let mut outcomes: Vec<_> = handles.iter().map(|&h| outcome(&self.cluster, h)).collect();
        if let Some(reduce) = self.reduce.take() {
            if let Err(why) = outcome(&self.cluster, reduce) {
                outcomes = outcomes.into_iter().map(|_| Err(why.clone())).collect();
            }
        }
        let longest = outcomes.iter().flatten().fold(0.0, |a: f64, (ms, _)| a.max(*ms));
        self.elapsed_ms += longest;
        outcomes
    }

    fn run_one(&mut self, node: usize, op: ClientOp) -> Result<(), String> {
        self.run(vec![(node, op)]).pop().expect("one op").map(|_| ())
    }
}

impl Executor for SimExec {
    fn put(&mut self, node: usize, object: ObjectId, payload: Payload) -> Result<(), String> {
        // The simulator moves lengths, not bytes.
        self.run_one(node, ClientOp::Put { object, payload: Payload::synthetic(payload.len()) })
    }

    fn get(&mut self, nodes: &[usize], object: ObjectId, _kill: Option<Kill>) -> Vec<GetOutcome> {
        let ops = nodes.iter().map(|&node| (node, ClientOp::Get { object })).collect();
        nodes
            .iter()
            .zip(self.run(ops))
            .map(|(&node, outcome)| match outcome {
                Ok((ms, ClientReply::GetDone { payload, .. })) => {
                    GetOutcome { node, result: Ok(payload), micros: ms * 1e3 }
                }
                Ok((_, other)) => GetOutcome {
                    node,
                    result: Err(format!("not a GetDone: {other:?}")),
                    micros: 0.0,
                },
                Err(why) => GetOutcome { node, result: Err(why), micros: 0.0 },
            })
            .collect()
    }

    fn reduce(
        &mut self,
        node: usize,
        target: ObjectId,
        sources: Vec<ObjectId>,
    ) -> Result<(), String> {
        let spec = ReduceSpec::sum_f32();
        let op = ClientOp::Reduce { target, sources, num_objects: None, spec, degree: None };
        // Not run yet: a reduce is accepted at once and its tree streams while the
        // following Get waits, so both are submitted at the same simulated instant.
        self.reduce = Some(self.cluster.submit_at(self.cluster.now(), node, op));
        Ok(())
    }

    fn delete(&mut self, node: usize, object: ObjectId) -> Result<(), String> {
        self.run_one(node, ClientOp::Delete { object })
    }

    fn rejoin(&mut self) -> Result<(), String> {
        Ok(())
    }

    fn clock_ms(&self) -> f64 {
        self.elapsed_ms
    }
}
