//! Per-node counters used by tests, benchmarks and the experiment harness.

/// Monotonic counters maintained by an [`crate::node::ObjectStoreNode`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct NodeMetrics {
    /// Protocol messages sent.
    pub messages_sent: u64,
    /// Bytes of payload sent on the data plane (pull blocks + reduce blocks).
    pub data_bytes_sent: u64,
    /// Bytes of payload received on the data plane.
    pub data_bytes_received: u64,
    /// Objects created locally via `Put`.
    pub objects_put: u64,
    /// `Get` operations completed for local clients.
    pub gets_completed: u64,
    /// Remote pull requests served (acting as a broadcast intermediate or origin).
    pub pulls_served: u64,
    /// Blocks forwarded as a reduce participant.
    pub reduce_blocks_sent: u64,
    /// Reduce operations coordinated by this node.
    pub reduces_coordinated: u64,
    /// Times this node re-queried the directory because a sender failed.
    pub broadcast_failovers: u64,
    /// Times this node re-issued an outstanding directory query because the shard's
    /// primary failed over to a backup replica.
    pub directory_failovers: u64,
    /// Journaled registrations/subscriptions re-driven at a new primary after a
    /// failover (only the genuinely-unacked window is re-driven; confirmed intents
    /// survive inside the replication layer).
    pub directory_redrives: u64,
    /// Directory shard snapshots this node installed while being re-admitted to a
    /// replica set (state transfer + log catch-up).
    pub directory_resyncs: u64,
    /// Times a reduce subtree on this node was cleared because of a failure.
    pub reduce_resets: u64,
    /// Directory queries answered by the shard hosted on this node.
    pub directory_queries_served: u64,
    /// Directory registrations processed by the shard hosted on this node.
    pub directory_registrations: u64,
    /// Inline (small-object) directory hits served by the shard hosted on this node.
    pub directory_inline_hits: u64,
    /// `DirReplicate` frames this node shipped (primary egress: one per live backup
    /// per op).
    pub directory_replicates_sent: u64,
    /// Receive slabs checked out of a connection's [slab pool] that reused a retained
    /// allocation instead of allocating fresh (transport-level; folded in by harnesses
    /// that run nodes over the TCP fabric).
    pub recv_slab_reuse: u64,
    /// Small control frames that went out corked — batched with at least one other
    /// frame into a single vectored write (transport-level, like `recv_slab_reuse`).
    pub corked_frames_per_write: u64,
    /// `DirSnapshotChunk` frames this node served as a resync source. Chunked resync
    /// streams bounded frames interleaved with live traffic instead of one
    /// O(objects) burst.
    pub snapshot_chunks_sent: u64,
    /// Bytes of shard state shipped in resync chunks served by this node.
    pub snapshot_bytes: u64,
    /// Resyncs this node served as a *delta* — the requester's gap was bridgeable
    /// from the retained log suffix, so ops were replayed instead of state shipped.
    pub delta_resyncs: u64,
    /// Inline small-object payloads evicted from this node's directory shards to
    /// keep the inline cache under `directory_inline_cache_bytes`.
    pub inline_evictions: u64,
    /// Directory leases reclaimed by bulk timer-wheel expiry on this node.
    pub leases_expired: u64,
    /// Failure notices dropped because they named an incarnation older than the
    /// highest this node has seen — late news about a process that already
    /// restarted (the notice must not re-kill or re-park the new incarnation).
    pub stale_failure_notices_dropped: u64,
    /// Peer deaths this node learned secondhand — from a resync membership digest
    /// or from a gossiped `Dead` claim — rather than declared by its own failure
    /// detector or a driver verdict.
    pub membership_deaths_learned: u64,
    /// Direct SWIM probes (`Ping` frames) this node sent, including pings
    /// forwarded on behalf of a `PingReq` relay request.
    pub probes_sent: u64,
    /// `PingReq` frames this node sent after a direct probe missed its ack (one
    /// per relay, so a single escalation counts `indirect_fanout` times).
    pub indirect_probes: u64,
    /// Peers this node moved to Suspect — by its own probe timeouts or by
    /// adopting a gossiped suspicion.
    pub suspicions_raised: u64,
    /// Times this node bumped its own incarnation to refute a suspicion (or
    /// premature death claim) about itself.
    pub refutations_sent: u64,
    /// Suspicion windows that expired on this node into a local death verdict.
    pub deaths_declared: u64,
    /// Gossip digest entries piggybacked on outgoing Ping/Ack/PingReq frames.
    pub gossip_entries_piggybacked: u64,
    /// Bytes currently live in the local object store (a gauge, sampled after every
    /// event; merging sums the per-node gauges into a cluster total).
    pub store_bytes_live: u64,
}

impl NodeMetrics {
    /// Every counter as a `(name, value)` pair, in declaration order. Harnesses that
    /// serialize metrics (the daemon status line, `hoplitectl status --json`) iterate
    /// this instead of hand-listing fields that would drift from the struct.
    pub fn fields(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("messages_sent", self.messages_sent),
            ("data_bytes_sent", self.data_bytes_sent),
            ("data_bytes_received", self.data_bytes_received),
            ("objects_put", self.objects_put),
            ("gets_completed", self.gets_completed),
            ("pulls_served", self.pulls_served),
            ("reduce_blocks_sent", self.reduce_blocks_sent),
            ("reduces_coordinated", self.reduces_coordinated),
            ("broadcast_failovers", self.broadcast_failovers),
            ("directory_failovers", self.directory_failovers),
            ("directory_redrives", self.directory_redrives),
            ("directory_resyncs", self.directory_resyncs),
            ("reduce_resets", self.reduce_resets),
            ("directory_queries_served", self.directory_queries_served),
            ("directory_registrations", self.directory_registrations),
            ("directory_inline_hits", self.directory_inline_hits),
            ("directory_replicates_sent", self.directory_replicates_sent),
            ("recv_slab_reuse", self.recv_slab_reuse),
            ("corked_frames_per_write", self.corked_frames_per_write),
            ("snapshot_chunks_sent", self.snapshot_chunks_sent),
            ("snapshot_bytes", self.snapshot_bytes),
            ("delta_resyncs", self.delta_resyncs),
            ("inline_evictions", self.inline_evictions),
            ("leases_expired", self.leases_expired),
            ("stale_failure_notices_dropped", self.stale_failure_notices_dropped),
            ("membership_deaths_learned", self.membership_deaths_learned),
            ("probes_sent", self.probes_sent),
            ("indirect_probes", self.indirect_probes),
            ("suspicions_raised", self.suspicions_raised),
            ("refutations_sent", self.refutations_sent),
            ("deaths_declared", self.deaths_declared),
            ("gossip_entries_piggybacked", self.gossip_entries_piggybacked),
            ("store_bytes_live", self.store_bytes_live),
        ]
    }

    /// Fold another node's metrics into this one (used to aggregate per-cluster stats).
    pub fn merge(&mut self, other: &NodeMetrics) {
        self.messages_sent += other.messages_sent;
        self.data_bytes_sent += other.data_bytes_sent;
        self.data_bytes_received += other.data_bytes_received;
        self.objects_put += other.objects_put;
        self.gets_completed += other.gets_completed;
        self.pulls_served += other.pulls_served;
        self.reduce_blocks_sent += other.reduce_blocks_sent;
        self.reduces_coordinated += other.reduces_coordinated;
        self.broadcast_failovers += other.broadcast_failovers;
        self.directory_failovers += other.directory_failovers;
        self.directory_redrives += other.directory_redrives;
        self.directory_resyncs += other.directory_resyncs;
        self.reduce_resets += other.reduce_resets;
        self.directory_queries_served += other.directory_queries_served;
        self.directory_registrations += other.directory_registrations;
        self.directory_inline_hits += other.directory_inline_hits;
        self.directory_replicates_sent += other.directory_replicates_sent;
        self.recv_slab_reuse += other.recv_slab_reuse;
        self.corked_frames_per_write += other.corked_frames_per_write;
        self.snapshot_chunks_sent += other.snapshot_chunks_sent;
        self.snapshot_bytes += other.snapshot_bytes;
        self.delta_resyncs += other.delta_resyncs;
        self.inline_evictions += other.inline_evictions;
        self.leases_expired += other.leases_expired;
        self.stale_failure_notices_dropped += other.stale_failure_notices_dropped;
        self.membership_deaths_learned += other.membership_deaths_learned;
        self.probes_sent += other.probes_sent;
        self.indirect_probes += other.indirect_probes;
        self.suspicions_raised += other.suspicions_raised;
        self.refutations_sent += other.refutations_sent;
        self.deaths_declared += other.deaths_declared;
        self.gossip_entries_piggybacked += other.gossip_entries_piggybacked;
        self.store_bytes_live += other.store_bytes_live;
    }
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
            delta_resyncs: 4,
            recv_slab_reuse: 7,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.messages_sent, 5);
        assert_eq!(a.data_bytes_sent, 10);
        assert_eq!(a.gets_completed, 1);
        assert_eq!(a.delta_resyncs, 4);
        assert_eq!(a.recv_slab_reuse, 7);
    }
}
