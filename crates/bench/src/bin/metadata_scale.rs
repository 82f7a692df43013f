//! Metadata-plane scale drill: register `METADATA_SCALE_OBJECTS` objects (default
//! 1M) through a replicated two-node directory, then kill and restart the backup and
//! replay the entire chunked resync stream with live registrations interleaved. The
//! source ships the restarted node every live op from its stream's first chunk on,
//! and the drill routes those shipments; `replayed=` counts the live ops that landed
//! behind a stream's served cursor, which its last chunk must replay.
//!
//! Asserts, exiting nonzero on violation:
//! - every resync frame respects the configured chunk budget (single oversized
//!   entries excepted — none occur here);
//! - the restarted replica converges: each of its shards equals the source's, entry
//!   for entry, compared one chunk budget at a time;
//! - peak RSS (`VmHWM`) stays under `METADATA_SCALE_RSS_MB` (default 4096).
//!
//! CI runs this as the `metadata-scale` smoke step; BENCH_NOTES snapshots the
//! printed rows.

use std::collections::VecDeque;
use std::time::Instant;

use hoplite_core::config::HopliteConfig;
use hoplite_core::detector::GossipState;
use hoplite_core::directory::DirectoryService;
use hoplite_core::metrics::NodeMetrics;
use hoplite_core::object::{NodeId, ObjectId, ObjectStatus};
use hoplite_core::protocol::Message;
use hoplite_core::time::Time;

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
        DirectoryService::new(NodeId(0), &cfg, &nodes, 0),
        DirectoryService::new(NodeId(1), &cfg, &nodes, 0),
    ];
    let mut metrics = [NodeMetrics::default(), NodeMetrics::default()];

    // Phase 1 — populate: register `objects` objects at their shard primaries,
    // replicating and acking each op so the primaries' logs stay empty (bounded memory
    // is part of what this drill measures).
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
    // `served` is, per shard, the last object id the source has served so far, while
    // that shard's stream is open. Liveness enters the surviving node's service as the
    // node states it: incarnation 0 of node 1 died, and incarnation 1 (named in its
    // restart requests' digests) is up.
    svcs[0].liveness(&[(NodeId(1), 0, GossipState::Dead)], None, Time::ZERO, &mut out);
    out.clear();
    svcs[1] = DirectoryService::new(NodeId(1), &cfg, &nodes, 1);
    let resync_start = Instant::now();
    assert!(svcs[1].begin_local_resync(&mut out), "restart requests resync");
    svcs[0].liveness(&[(NodeId(1), 1, GossipState::Alive)], None, Time::ZERO, &mut Vec::new());
    queue.extend(out.drain(..).map(|(to, m)| (NodeId(1), to, m)));

    let mut chunks_routed = 0u64;
    let mut max_frame = 0u64;
    let mut oversized = 0u64;
    let mut live: Vec<ObjectId> = Vec::new();
    let mut served: Vec<Option<Option<ObjectId>>> = vec![Some(None); nodes.len()];
    let mut replayed = 0u64;
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
                let shard = svcs[0].placement().shard_of(o);
                replayed += u64::from(served[shard].flatten().is_some_and(|last| o <= last));
                queue.extend(deliver(&mut svcs, &mut metrics, NodeId(0), NodeId(0), register(o)));
            }
        }
        let next = deliver(&mut svcs, &mut metrics, from, to, msg);
        for (_, _, msg) in &next {
            if let Message::DirSnapshotChunk { shard, done, ref state, .. } = *msg {
                let stream = &mut served[shard as usize];
                *stream = match (done, *stream) {
                    (false, Some(last)) => Some(last.max(state.entries.last().map(|e| e.object))),
                    _ => None,
                };
            }
        }
        queue.extend(next);
    }
    assert!(!svcs[1].is_resyncing(), "resync stream completed");
    let resync_s = resync_start.elapsed().as_secs_f64();
    let chunks_sent = metrics[0].snapshot_chunks_sent;
    let chunk_bytes = metrics[0].snapshot_bytes;
    let resync_rate = (objects + live.len()) as f64 / resync_s;
    println!(
        "metadata_scale: resync chunks={chunks_sent} bytes={chunk_bytes} \
         max_frame={max_frame} budget={budget} replayed={replayed} \
         time={resync_s:.2}s rate={resync_rate:.0} entries/s"
    );

    // Phase 3 — the restarted replica's shards must equal the source's, entry for
    // entry. (It readmitted itself when its last stream completed.)
    let mut failures = 0u64;
    for shard in 0..nodes.len() {
        let [source, restarted] = [0, 1].map(|i| svcs[i].replica(shard).expect("hosted").shard());
        let mut after = None;
        loop {
            let chunk = source.snapshot_range(after, budget);
            if restarted.snapshot_range(after, budget) != chunk {
                eprintln!("metadata_scale: FAIL shard {shard} differs after {after:?}");
                failures += 1;
                break;
            }
            after = chunk.0.last().map(|e| e.object);
            if chunk.1 {
                break;
            }
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
    println!(
        "metadata_scale: OK ({} live ops interleaved, {replayed} replayed, shards equal)",
        live.len()
    );
}
