//! Per-node counters used by tests, benchmarks and the experiment harness.

/// Declares [`NodeMetrics`] from one list of counters, each named once with its doc
/// comment, and derives `fields()` and `merge()` from the same list.
macro_rules! node_metrics {
    ($($(#[$doc:meta])* $name:ident,)*) => {
        /// Monotonic counters maintained by an [`crate::node::ObjectStoreNode`].
        #[derive(Clone, Debug, Default, PartialEq, Eq)]
        pub struct NodeMetrics {
            $($(#[$doc])* pub $name: u64,)*
        }

        impl NodeMetrics {
            /// Every counter as a `(name, value)` pair, in declaration order. Harnesses
            /// that serialize metrics (the daemon status line, `hoplitectl status
            /// --json`) iterate this instead of hand-listing fields.
            pub fn fields(&self) -> Vec<(&'static str, u64)> {
                vec![$((stringify!($name), self.$name),)*]
            }

            /// Fold another node's metrics into this one (used to aggregate per-cluster
            /// stats).
            pub fn merge(&mut self, other: &NodeMetrics) {
                $(self.$name += other.$name;)*
            }
        }
    };
}

node_metrics! {
    /// Protocol messages sent.
    messages_sent,
    /// Bytes of payload sent on the data plane (pull blocks + reduce blocks).
    data_bytes_sent,
    /// Bytes of payload received on the data plane.
    data_bytes_received,
    /// Objects created locally via `Put`.
    objects_put,
    /// `Get` operations completed for local clients.
    gets_completed,
    /// Remote pull requests served (acting as a broadcast intermediate or origin).
    pulls_served,
    /// Blocks forwarded as a reduce participant.
    reduce_blocks_sent,
    /// Reduce operations coordinated by this node.
    reduces_coordinated,
    /// Times this node re-queried the directory because a sender failed.
    broadcast_failovers,
    /// Times this node re-issued an outstanding directory query because the shard's
    /// primary failed over to a backup replica.
    directory_failovers,
    /// Journaled registrations/subscriptions re-driven at a new primary after a
    /// failover (only the genuinely-unacked window is re-driven; confirmed intents
    /// survive inside the replication layer).
    directory_redrives,
    /// Directory shard snapshots this node installed while being re-admitted to a
    /// replica set (state transfer + log catch-up).
    directory_resyncs,
    /// Times a reduce subtree on this node was cleared because of a failure.
    reduce_resets,
    /// Directory queries answered by the shard hosted on this node.
    directory_queries_served,
    /// Directory registrations processed by the shard hosted on this node.
    directory_registrations,
    /// Inline (small-object) directory hits served by the shard hosted on this node.
    directory_inline_hits,
    /// `DirReplicate` frames this node shipped (primary egress: one per live backup
    /// per op).
    directory_replicates_sent,
    /// Receive slabs checked out of a connection's [slab pool] that reused a retained
    /// allocation instead of allocating fresh (transport-level; folded in by harnesses
    /// that run nodes over the TCP fabric).
    recv_slab_reuse,
    /// Small control frames that went out corked — batched with at least one other
    /// frame into a single vectored write (transport-level, like `recv_slab_reuse`).
    corked_frames_per_write,
    /// `DirSnapshotChunk` frames this node served as a resync source. Chunked resync
    /// streams bounded frames interleaved with live traffic instead of one
    /// O(objects) burst.
    snapshot_chunks_sent,
    /// Bytes of shard state shipped in resync chunks served by this node.
    snapshot_bytes,
    /// Inline small-object payloads evicted from this node's directory shards to
    /// keep the inline cache under `directory_inline_cache_bytes`.
    inline_evictions,
    /// Directory leases reclaimed by bulk timer-wheel expiry on this node.
    leases_expired,
    /// Failure notices dropped because they named an incarnation older than the
    /// highest this node has seen — late news about a process that already
    /// restarted (the notice must not re-kill or re-park the new incarnation).
    stale_failure_notices_dropped,
    /// Peer deaths this node learned secondhand — from a resync membership digest
    /// or from a gossiped `Dead` claim — rather than declared by its own failure
    /// detector or a driver verdict.
    membership_deaths_learned,
    /// Direct SWIM probes (`Ping` frames) this node sent, including pings
    /// forwarded on behalf of a `PingReq` relay request.
    probes_sent,
    /// `PingReq` frames this node sent after a direct probe missed its ack (one
    /// per relay, so a single escalation counts `indirect_fanout` times).
    indirect_probes,
    /// Peers this node moved to Suspect — by its own probe timeouts or by
    /// adopting a gossiped suspicion.
    suspicions_raised,
    /// Times this node bumped its own incarnation to refute a suspicion (or
    /// premature death claim) about itself.
    refutations_sent,
    /// Suspicion windows that expired on this node into a local death verdict.
    deaths_declared,
    /// Gossip digest entries piggybacked on outgoing Ping/Ack/PingReq frames.
    gossip_entries_piggybacked,
    /// Bytes currently live in the local object store (a gauge, sampled after every
    /// event; merging sums the per-node gauges into a cluster total).
    store_bytes_live,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_sums_fields() {
        let mut a = NodeMetrics { messages_sent: 2, data_bytes_sent: 10, ..Default::default() };
        let b = NodeMetrics {
            messages_sent: 3,
            gets_completed: 1,
            snapshot_chunks_sent: 4,
            recv_slab_reuse: 7,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.messages_sent, 5);
        assert_eq!(a.data_bytes_sent, 10);
        assert_eq!(a.gets_completed, 1);
        assert_eq!(a.snapshot_chunks_sent, 4);
        assert_eq!(a.recv_slab_reuse, 7);
    }
}
