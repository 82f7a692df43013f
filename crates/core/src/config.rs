//! Configuration of a Hoplite deployment.

use crate::detector::DetectorConfig;

/// Size thresholds and protocol parameters of a Hoplite node.
///
/// Defaults mirror the paper's implementation: 4 MiB pipelining blocks and a 64 KiB
/// small-object threshold under which objects are cached inline in the object
/// directory. (The reduce degree is chosen from `{1, 2, n}` by
/// [`crate::reduce::DegreeModel::paper_testbed`], §4.)
#[derive(Clone, Debug, PartialEq)]
pub struct HopliteConfig {
    /// Pipelining block size in bytes. Transfers, reductions and worker↔store copies
    /// all operate at this granularity (the paper uses 4 MiB).
    pub block_size: u64,
    /// Objects at or below this size are cached inline in the directory shard and
    /// served directly from location-query replies (§3.2, 64 KiB in the paper).
    pub inline_threshold: u64,
    /// Local store capacity in bytes; additional unpinned copies are evicted LRU when
    /// the store fills up (§6 "Garbage collection").
    pub store_capacity: u64,
    /// Memory-copy bandwidth between a worker and its local store in bytes per second
    /// (used by the simulator to model the extra copies that pipelining hides, §3.3).
    pub memcpy_bandwidth: f64,
    /// Number of replicas (primary + backups) of every directory shard (§3.5: the
    /// paper replicates the object directory so metadata survives node failures).
    /// The primary ships every op to every live backup (star fan-out).
    /// Clamped to the cluster size at placement time; `1` disables replication.
    pub directory_replication: usize,
    /// Upper bound, in bytes, on the state carried by one `DirSnapshotChunk` resync
    /// frame. Replica resync streams the shard as a cursor-driven sequence of chunks
    /// no larger than this, interleaved with live op shipments, instead of one
    /// O(objects) burst. A chunk may exceed the bound only when a
    /// single entry alone is larger than it (entries are indivisible).
    pub snapshot_chunk_bytes: u64,
    /// Byte budget for inline small-object payloads cached in each directory shard.
    /// When the budget is exceeded the least-recently-used inline payloads are
    /// dropped (the location records stay; the object is then served via the normal
    /// pull path). Entries whose only copy is the inline payload are never evicted.
    pub directory_inline_cache_bytes: u64,
    /// How many *acked* (already trimmed) replication-log ops each replica retains
    /// for delta resync: a replica whose gap fits inside the retained suffix replays
    /// ops instead of requesting a state snapshot at all.
    pub directory_log_retention: usize,
    /// SWIM-style gossip failure detector. `None` (the default) disables it:
    /// liveness then comes only from driver verdicts (`peer-failed` notices, the
    /// simulator's fault schedule), exactly as before. `Some` arms a per-node
    /// probe/suspect/refute loop — see [`crate::detector`].
    pub detector: Option<DetectorConfig>,
}

impl Default for HopliteConfig {
    fn default() -> Self {
        HopliteConfig {
            block_size: 4 * 1024 * 1024,
            inline_threshold: 64 * 1024,
            store_capacity: 64 * 1024 * 1024 * 1024,
            memcpy_bandwidth: 5.0e9,
            directory_replication: 2,
            snapshot_chunk_bytes: 256 * 1024,
            directory_inline_cache_bytes: 64 * 1024 * 1024,
            directory_log_retention: 1024,
            detector: None,
        }
    }
}

impl HopliteConfig {
    /// Configuration matching the paper's testbed (16 × m5.4xlarge, 10 Gbps, Linux).
    pub fn paper_testbed() -> Self {
        HopliteConfig::default()
    }

    /// Configuration for fast unit tests: tiny blocks so pipelining paths are exercised
    /// with small objects, and a small store to exercise eviction.
    pub fn small_for_tests() -> Self {
        HopliteConfig {
            block_size: 1024,
            inline_threshold: 64,
            store_capacity: 64 * 1024 * 1024,
            // Tiny chunks so even small-shard resyncs exercise the multi-chunk path.
            snapshot_chunk_bytes: 1024,
            ..HopliteConfig::default()
        }
    }

    /// Number of whole blocks needed to hold `size` bytes.
    pub fn num_blocks(&self, size: u64) -> u64 {
        if size == 0 {
            0
        } else {
            size.div_ceil(self.block_size)
        }
    }

    /// Size of block `index` of an object of `size` bytes (the final block may be
    /// short).
    pub fn block_len(&self, size: u64, index: u64) -> u64 {
        let start = index * self.block_size;
        debug_assert!(start < size || size == 0);
        (size - start).min(self.block_size)
    }

    /// Whether an object of `size` bytes takes the small-object fast path.
    pub fn is_inline(&self, size: u64) -> bool {
        size <= self.inline_threshold
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let cfg = HopliteConfig::default();
        assert_eq!(cfg.block_size, 4 * 1024 * 1024);
        assert_eq!(cfg.inline_threshold, 64 * 1024);
        // The reduce degree: chosen from {1, 2, n} for a 10 Gb/s, 170 µs network.
        use crate::reduce::{degree::DEGREE_CANDIDATES, DegreeModel};
        use crate::time::Duration;
        assert_eq!(DEGREE_CANDIDATES, [1, 2, 0]);
        let testbed = DegreeModel { latency: Duration::from_micros(170), bandwidth: 1.25e9 };
        assert_eq!(DegreeModel::paper_testbed(), testbed);
    }

    #[test]
    fn block_math() {
        let cfg = HopliteConfig { block_size: 100, ..HopliteConfig::default() };
        assert_eq!(cfg.num_blocks(0), 0);
        assert_eq!(cfg.num_blocks(1), 1);
        assert_eq!(cfg.num_blocks(100), 1);
        assert_eq!(cfg.num_blocks(101), 2);
        assert_eq!(cfg.block_len(250, 0), 100);
        assert_eq!(cfg.block_len(250, 2), 50);
    }

    #[test]
    fn inline_threshold() {
        let cfg = HopliteConfig::default();
        assert!(cfg.is_inline(1024));
        assert!(cfg.is_inline(64 * 1024));
        assert!(!cfg.is_inline(64 * 1024 + 1));
    }
}
