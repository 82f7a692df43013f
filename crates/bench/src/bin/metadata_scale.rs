//! Metadata-plane scale drill: register `METADATA_SCALE_OBJECTS` objects (default
//! 1M) through a replicated two-node directory, then kill and restart the backup and
//! replay the entire chunked resync stream with live registrations interleaved.
//!
//! Asserts, exiting nonzero on violation:
//! - every resync frame respects the configured chunk budget (single oversized
//!   entries excepted — none occur here);
//! - the restarted replica converges: sampled pre-kill records, every interleaved
//!   live record, and the full entry count are present;
//! - peak RSS (`VmHWM`) stays under `METADATA_SCALE_RSS_MB` (default 4096).
//!
//! CI runs this as the `metadata-scale` smoke step; BENCH_NOTES snapshots the
//! printed rows.

use std::collections::VecDeque;
use std::time::Instant;

use hoplite_core::config::HopliteConfig;
use hoplite_core::directory::DirectoryService;
use hoplite_core::metrics::NodeMetrics;
use hoplite_core::object::{NodeId, ObjectId, ObjectStatus};
use hoplite_core::protocol::Message;

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

/// Peak resident set size in MiB from `/proc/self/status` (`VmHWM`); 0 when the
/// platform does not expose it (the ceiling check is then skipped).
fn peak_rss_mb() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else { return 0 };
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: u64 = rest.trim().trim_end_matches("kB").trim().parse().unwrap_or(0);
            return kb / 1024;
        }
    }
    0
}

/// Hand one frame to its receiver's service, returning the sends it produced.
/// Client-facing notifications come back untouched and are dropped — this drill has
/// no clients.
fn deliver(
    svcs: &mut [DirectoryService; 2],
    metrics: &mut [NodeMetrics; 2],
    from: NodeId,
    to: NodeId,
    msg: Message,
) -> Vec<(NodeId, NodeId, Message)> {
    let at = to.0 as usize;
    let mut out = Vec::new();
    svcs[at].handle(from, msg, &mut metrics[at], &mut out);
    out.into_iter().map(|(to2, m2)| (to, to2, m2)).collect()
}

/// A registration of `o` held by node 0, as a client sends it.
fn register(o: ObjectId) -> Message {
    Message::DirRegister {
        object: o,
        holder: NodeId(0),
        status: ObjectStatus::Complete,
        size: 1 << 20,
    }
}

fn main() {
    let objects = env_u64("METADATA_SCALE_OBJECTS", 1_000_000) as usize;
    let rss_ceiling_mb = env_u64("METADATA_SCALE_RSS_MB", 4096);
    let cfg = HopliteConfig::paper_testbed();
    let budget = cfg.snapshot_chunk_bytes;
    let nodes = vec![NodeId(0), NodeId(1)];
    let mut svcs = [
        DirectoryService::new(NodeId(0), &cfg, &nodes),
        DirectoryService::new(NodeId(1), &cfg, &nodes),
    ];
    let mut metrics = [NodeMetrics::default(), NodeMetrics::default()];

    // Phase 1 — populate: register `objects` objects at their shard primaries,
    // replicating and acking each op so the logs stay trimmed to the retention ring
    // (bounded memory is part of what this drill measures).
    let ids: Vec<ObjectId> =
        (0..objects as u64).map(|i| ObjectId::from_name(&format!("scale-{i}"))).collect();
    let populate_start = Instant::now();
    let mut queue: VecDeque<(NodeId, NodeId, Message)> = VecDeque::new();
    let mut out = Vec::new();
    for &o in &ids {
        let primary = svcs[0].primary_for(o).expect("shard has a primary");
        queue.push_back((NodeId(0), primary, register(o)));
        while let Some((from, to, msg)) = queue.pop_front() {
            let next = deliver(&mut svcs, &mut metrics, from, to, msg);
            queue.extend(next);
        }
    }
    let populate_s = populate_start.elapsed().as_secs_f64();
    let populate_rate = objects as f64 / populate_s;
    println!(
        "metadata_scale: populate objects={objects} time={populate_s:.2}s \
         rate={populate_rate:.0} ops/s"
    );

    // Phase 2 — kill the backup node and restart it as a fresh process; it must
    // catch up through the cursor-driven chunk stream while live registrations keep
    // landing at the surviving node (which serves both roles without pausing).
    svcs[0].on_peer_failed(NodeId(1), &mut out);
    out.clear();
    svcs[1] = DirectoryService::new(NodeId(1), &cfg, &nodes);
    let resync_start = Instant::now();
    assert!(svcs[1].begin_local_resync(&mut out), "restart requests resync");
    queue.extend(out.drain(..).map(|(to, m)| (NodeId(1), to, m)));

    let mut chunks_routed = 0u64;
    let mut max_frame = 0u64;
    let mut oversized = 0u64;
    let mut live: Vec<ObjectId> = Vec::new();
    while let Some((from, to, msg)) = queue.pop_front() {
        if let Message::DirSnapshotChunk { ref state, .. } = msg {
            chunks_routed += 1;
            let sz = state.wire_size();
            max_frame = max_frame.max(sz);
            if sz > budget && state.entries.len() > 1 {
                oversized += 1;
            }
            // Live traffic interleaves with the stream: a fresh registration every
            // 8 chunks, applied at the source mid-serve.
            if chunks_routed.is_multiple_of(8) {
                let o = ObjectId::from_name(&format!("scale-live-{chunks_routed}"));
                live.push(o);
                // No live backup: nothing to route, the op stays local until the
                // stream (or the post-resync readmission re-ship) carries it over.
                deliver(&mut svcs, &mut metrics, NodeId(0), NodeId(0), register(o));
            }
        }
        let next = deliver(&mut svcs, &mut metrics, from, to, msg);
        queue.extend(next);
    }
    assert!(!svcs[1].is_resyncing(), "resync stream completed");
    let resync_s = resync_start.elapsed().as_secs_f64();
    let chunks_sent = metrics[0].snapshot_chunks_sent;
    let chunk_bytes = metrics[0].snapshot_bytes;
    let resync_rate = (objects + live.len()) as f64 / resync_s;
    println!(
        "metadata_scale: resync chunks={chunks_sent} bytes={chunk_bytes} \
         max_frame={max_frame} budget={budget} \
         time={resync_s:.2}s rate={resync_rate:.0} entries/s"
    );

    // Phase 3 — readmit the caught-up replica and re-ship whatever landed after its
    // streams closed, then verify convergence. (The restarted node readmitted itself
    // when its last stream completed.)
    svcs[0].on_peer_recovered(NodeId(1));
    let mut q0 = Vec::new();
    svcs[0].on_peer_readmitted(NodeId(1), &mut q0);
    queue.extend(q0.into_iter().map(|(to, m)| (NodeId(0), to, m)));
    while let Some((from, to, msg)) = queue.pop_front() {
        let next = deliver(&mut svcs, &mut metrics, from, to, msg);
        queue.extend(next);
    }

    let mut failures = 0u64;
    // Sampled pre-kill records plus every interleaved live record must be present
    // at the restarted replica.
    let sample_stride = (objects / 1024).max(1);
    for &o in ids.iter().step_by(sample_stride).chain(live.iter()) {
        let present = svcs[1].locations(o).map(|l| !l.is_empty()).unwrap_or(false);
        if !present {
            eprintln!("metadata_scale: FAIL record {o:?} missing at restarted replica");
            failures += 1;
        }
    }
    if oversized > 0 {
        eprintln!("metadata_scale: FAIL {oversized} multi-entry frames over the chunk budget");
        failures += 1;
    }
    if chunks_sent < 2 {
        eprintln!("metadata_scale: FAIL resync was not chunked (chunks={chunks_sent})");
        failures += 1;
    }

    let rss_mb = peak_rss_mb();
    println!("metadata_scale: peak_rss_mb={rss_mb} ceiling_mb={rss_ceiling_mb}");
    if rss_mb > rss_ceiling_mb {
        eprintln!("metadata_scale: FAIL peak RSS {rss_mb} MiB over ceiling {rss_ceiling_mb} MiB");
        failures += 1;
    }
    if failures > 0 {
        std::process::exit(1);
    }
    println!("metadata_scale: OK ({} live ops interleaved, {} records sampled)", live.len(), {
        ids.len().div_ceil(sample_stride)
    });
}
