//! SWIM-style gossip failure detector (decentralized liveness, §3.5 companion).
//!
//! **The detector is a prober.** It owns what detection needs and nothing else: the
//! shuffled probe ring, the one outstanding probe, the gossip retransmit queue, its
//! rng and its [`DetectorConfig`]. What is believed about each peer lives in the
//! node's one liveness table ([`MembershipView`], which also holds the override
//! policy); the detector *borrows* it — to skip dead peers, to time suspicion
//! windows, to fill gossip — and never writes it. Its verdicts are
//! [`DetectorAction`]s, which the node feeds through the same evidence function as a
//! supervisor notice or a gossiped claim.
//!
//! The protocol is SWIM (Das, Gupta, Motivala 2002) with the incarnation
//! refinement from Lifeguard-era practice, in the crate's sans-IO style — a pure,
//! tick-driven state machine that each node runs against its own clock:
//!
//! * every probe period the node pings one peer, walking a shuffled ring so
//!   probing is round-robin-random (every peer probed once per cycle);
//! * a missed direct ack escalates to `k` indirect **ping-req**s through random
//!   relays before the detector asks for the peer to be moved to **Suspect**;
//! * a Suspect peer that stays silent for the suspicion window is declared
//!   **Dead** — the verdict feeds the exact same failure path a supervisor
//!   notice would;
//! * a suspected-but-alive node *refutes* by bumping its incarnation and
//!   gossiping the newer liveness claim, which the table arbitrates like any other.
//!
//! Dissemination is epidemic: every `Ping`/`Ack`/`PingReq` piggybacks a bounded
//! digest of recently changed table entries (`(node, incarnation, state)` triples),
//! each retransmitted a logarithmic number of times. Two entries are
//! prioritized on every message: the sender's own alive claim, and whatever the
//! sender believes about the *destination* — so a suspected node always learns
//! of its suspicion from the next message it receives and can refute in time.

use crate::membership::MembershipView;
use crate::object::NodeId;
use crate::time::{Duration, Time};

/// Tuning knobs for the failure detector.
///
/// The detector is **off by default**: `HopliteConfig::detector` is `None`, so
/// existing drivers, sweeps, and sims are bit-for-bit unaffected unless a
/// config opts in.
#[derive(Clone, Debug, PartialEq)]
pub struct DetectorConfig {
    /// How often a node starts a new probe round (one peer pinged per round).
    pub probe_period: Duration,
    /// How long to wait for a direct ack before escalating to indirect
    /// ping-reqs, and again for the indirect acks before suspecting.
    pub ack_timeout: Duration,
    /// Suspicion window as a multiple of `probe_period`: a Suspect peer that
    /// has not refuted after `probe_period * suspicion_multiplier` is declared
    /// dead.
    pub suspicion_multiplier: u32,
    /// Number of relays asked to ping the target indirectly after a missed
    /// direct ack.
    pub indirect_fanout: usize,
    /// Maximum gossip entries piggybacked on one Ping/Ack/PingReq.
    pub gossip_budget: usize,
}

impl Default for DetectorConfig {
    fn default() -> DetectorConfig {
        DetectorConfig {
            probe_period: Duration::from_millis(200),
            ack_timeout: Duration::from_millis(60),
            suspicion_multiplier: 15,
            indirect_fanout: 3,
            gossip_budget: 6,
        }
    }
}

impl DetectorConfig {
    /// The suspicion window: how long a Suspect peer gets to refute before it
    /// is declared dead.
    pub fn suspicion_window(&self) -> Duration {
        self.probe_period.mul(u64::from(self.suspicion_multiplier))
    }
}

/// Liveness claim carried by a gossip entry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GossipState {
    /// The incarnation is believed alive.
    Alive,
    /// The incarnation missed probes and is in its suspicion window.
    Suspect,
    /// The incarnation has been declared dead (sticky: only a newer
    /// incarnation can revive the node).
    Dead,
}

impl GossipState {
    /// Wire encoding (stable: used by the framing layer).
    pub fn to_wire(self) -> u8 {
        match self {
            GossipState::Alive => 0,
            GossipState::Suspect => 1,
            GossipState::Dead => 2,
        }
    }

    /// Decode the wire byte; `None` for anything unknown.
    pub fn from_wire(b: u8) -> Option<GossipState> {
        match b {
            0 => Some(GossipState::Alive),
            1 => Some(GossipState::Suspect),
            2 => Some(GossipState::Dead),
            _ => None,
        }
    }
}

/// One piggybacked membership claim: `(node, incarnation, state)`.
pub type GossipEntry = (NodeId, u64, GossipState);

/// What the detector wants the driver/node to do after a tick.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DetectorAction {
    /// Send a direct probe to `to`.
    Ping {
        /// Probe target.
        to: NodeId,
        /// Correlates the eventual ack with this probe round.
        probe_id: u64,
    },
    /// Ask `relay` to ping `target` on our behalf (indirect probe).
    PingReq {
        /// The intermediary asked to forward the probe.
        relay: NodeId,
        /// The unresponsive peer the relay should ping.
        target: NodeId,
        /// Same correlation id as the failed direct probe.
        probe_id: u64,
    },
    /// `node` (at `incarnation`) missed direct + indirect probes and entered
    /// its suspicion window.
    Suspect {
        /// The newly suspected peer.
        node: NodeId,
        /// The incarnation under suspicion.
        incarnation: u64,
    },
    /// `node` (at `incarnation`) stayed Suspect for the whole window: declare
    /// it dead and run the failure rules.
    Dead {
        /// The peer to declare dead.
        node: NodeId,
        /// The incarnation being declared dead.
        incarnation: u64,
    },
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum ProbePhase {
    Direct,
    Indirect,
}

#[derive(Clone, Copy, Debug)]
struct Outstanding {
    target: NodeId,
    probe_id: u64,
    phase: ProbePhase,
    deadline: Time,
}

#[derive(Clone, Copy, Debug)]
struct QueuedEntry {
    node: NodeId,
    sends_left: u32,
}

/// The per-node SWIM prober. Pure state machine: the driver calls
/// [`tick`](FailureDetector::tick) whenever the timer it armed for
/// [`next_wake`](FailureDetector::next_wake) fires, forwards acks, applies the
/// returned [`DetectorAction`]s, and reports every table entry that changed through
/// [`disseminate`](FailureDetector::disseminate).
#[derive(Clone, Debug)]
pub struct FailureDetector {
    me: NodeId,
    cfg: DetectorConfig,
    rng: u64,
    ring: Vec<NodeId>,
    ring_pos: usize,
    next_probe_at: Time,
    next_probe_id: u64,
    outstanding: Option<Outstanding>,
    queue: Vec<QueuedEntry>,
    retransmit_limit: u32,
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn ceil_log2(n: usize) -> u32 {
    usize::BITS - n.saturating_sub(1).leading_zeros()
}

impl FailureDetector {
    /// A detector for a cluster of `n` nodes, run by `me`. `seed` makes ring
    /// shuffles and relay choices deterministic per node (drivers derive it
    /// from the node id). The first probe fires one `probe_period` after
    /// `start`.
    pub fn new(
        me: NodeId,
        n: usize,
        cfg: DetectorConfig,
        seed: u64,
        start: Time,
    ) -> FailureDetector {
        let mut det = FailureDetector {
            me,
            retransmit_limit: 3 * ceil_log2(n.max(2)) + 3,
            next_probe_at: start + cfg.probe_period,
            cfg,
            rng: seed ^ 0xD6E8_FEB8_6659_FD93,
            ring: (0..n as u32).map(NodeId).filter(|&p| p != me).collect(),
            ring_pos: 0,
            next_probe_id: 0,
            outstanding: None,
            queue: Vec::new(),
        };
        det.reshuffle();
        det
    }

    fn reshuffle(&mut self) {
        for i in (1..self.ring.len()).rev() {
            let j = (splitmix(&mut self.rng) % (i as u64 + 1)) as usize;
            self.ring.swap(i, j);
        }
    }

    /// Queue `node`'s table entry for gossip: the node calls this whenever a claim
    /// changed it, whatever the claim's source.
    pub fn disseminate(&mut self, node: NodeId) {
        self.queue.retain(|q| q.node != node);
        self.queue.push(QueuedEntry { node, sends_left: self.retransmit_limit });
    }

    /// When the driver should next call [`tick`](FailureDetector::tick): the
    /// earliest of the next probe round, the outstanding probe's ack deadline,
    /// and the nearest suspicion expiry in `table`.
    pub fn next_wake(&self, table: &MembershipView) -> Time {
        let mut wake = self.next_probe_at;
        if let Some(o) = &self.outstanding {
            wake = wake.min(o.deadline);
        }
        for (_, _, since) in table.suspects() {
            wake = wake.min(since + self.cfg.suspicion_window());
        }
        wake
    }

    /// The next ring position worth probing: not dead, and not about to be declared
    /// dead by this very tick.
    fn next_target(&mut self, table: &MembershipView, expired: &[NodeId]) -> Option<NodeId> {
        for _ in 0..self.ring.len() {
            if self.ring_pos >= self.ring.len() {
                self.ring_pos = 0;
                self.reshuffle();
            }
            let cand = self.ring[self.ring_pos];
            self.ring_pos += 1;
            if table.is_alive(cand) && !expired.contains(&cand) {
                return Some(cand);
            }
        }
        None
    }

    fn pick_relays(&mut self, table: &MembershipView, target: NodeId) -> Vec<NodeId> {
        let mut candidates: Vec<NodeId> = (0..table.len() as u32)
            .map(NodeId)
            .filter(|&p| p != self.me && p != target && table.is_alive(p))
            .collect();
        for i in (1..candidates.len()).rev() {
            let j = (splitmix(&mut self.rng) % (i as u64 + 1)) as usize;
            candidates.swap(i, j);
        }
        candidates.truncate(self.cfg.indirect_fanout);
        candidates
    }

    /// Advance the state machine to `now` against the node's liveness `table`.
    /// Escalates or abandons the outstanding probe, turns expired suspicion windows
    /// into death verdicts, and starts the next probe round when due. The table is
    /// only read: the caller applies the `Suspect` / `Dead` actions to it — before it
    /// frames this tick's probes, so their gossip already carries the verdicts.
    pub fn tick(&mut self, table: &MembershipView, now: Time, out: &mut Vec<DetectorAction>) {
        if let Some(o) = self.outstanding {
            if now >= o.deadline {
                let relays = match o.phase {
                    ProbePhase::Direct => self.pick_relays(table, o.target),
                    ProbePhase::Indirect => Vec::new(),
                };
                if relays.is_empty() {
                    // Unanswered directly and through relays: ask for the target to be
                    // suspected, unless the table already holds worse than alive.
                    if let Some((incarnation, GossipState::Alive)) = table.get(o.target) {
                        out.push(DetectorAction::Suspect { node: o.target, incarnation });
                    }
                    self.outstanding = None;
                } else {
                    for relay in relays {
                        out.push(DetectorAction::PingReq {
                            relay,
                            target: o.target,
                            probe_id: o.probe_id,
                        });
                    }
                    self.outstanding = Some(Outstanding {
                        phase: ProbePhase::Indirect,
                        deadline: o.deadline + self.cfg.ack_timeout,
                        ..o
                    });
                }
            }
        }

        let window = self.cfg.suspicion_window();
        let mut expired = Vec::new();
        for (node, incarnation, since) in table.suspects() {
            if now >= since + window {
                expired.push(node);
                out.push(DetectorAction::Dead { node, incarnation });
            }
        }

        if now >= self.next_probe_at {
            self.next_probe_at = now + self.cfg.probe_period;
            if self.outstanding.is_none() {
                if let Some(target) = self.next_target(table, &expired) {
                    self.next_probe_id += 1;
                    let probe_id = self.next_probe_id;
                    self.outstanding = Some(Outstanding {
                        target,
                        probe_id,
                        phase: ProbePhase::Direct,
                        deadline: now + self.cfg.ack_timeout,
                    });
                    out.push(DetectorAction::Ping { to: target, probe_id });
                }
            }
        }
    }

    /// An ack for `probe_id` arrived (directly or via a relay): the probe
    /// round succeeded. Note that per strict SWIM rules an ack does **not**
    /// clear an existing suspicion — only a higher-incarnation alive claim
    /// (the refutation) does.
    pub fn on_ack(&mut self, probe_id: u64) {
        if let Some(o) = &self.outstanding {
            if o.probe_id == probe_id {
                self.outstanding = None;
            }
        }
    }

    /// The bounded gossip digest to piggyback on a message to `dest`, read out of
    /// `table`. Always leads with our own alive claim, then whatever we believe
    /// about `dest` if it is under suspicion or dead — guaranteeing a suspected
    /// destination hears about it and can refute — then drains the retransmit
    /// queue round-robin up to the budget.
    pub fn piggyback(&mut self, table: &MembershipView, dest: NodeId) -> Vec<GossipEntry> {
        let cap = self.cfg.gossip_budget.max(2);
        let mut out: Vec<GossipEntry> =
            vec![(self.me, table.self_incarnation(), GossipState::Alive)];
        if dest != self.me {
            if let Some((incarnation, state)) = table.get(dest) {
                if state != GossipState::Alive {
                    out.push((dest, incarnation, state));
                }
            }
        }
        for _ in 0..self.queue.len() {
            if out.len() >= cap {
                break;
            }
            let mut q = self.queue.remove(0);
            if q.node == self.me || out.iter().any(|&(n, _, _)| n == q.node) {
                self.queue.push(q);
                continue;
            }
            let Some((incarnation, state)) = table.get(q.node) else { continue };
            out.push((q.node, incarnation, state));
            q.sends_left -= 1;
            if q.sends_left > 0 {
                self.queue.push(q);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::membership::Transition;
    use GossipState::{Alive, Dead, Suspect};

    fn cfg() -> DetectorConfig {
        DetectorConfig {
            probe_period: Duration::from_millis(100),
            ack_timeout: Duration::from_millis(30),
            suspicion_multiplier: 5, // 500ms window
            indirect_fanout: 2,
            gossip_budget: 4,
        }
    }

    /// A detector beside the table its node owns, wired the way the node's evidence
    /// function wires them: every claim goes to the table, every change is queued
    /// for gossip, and a tick's verdicts are applied as claims.
    struct Prober {
        d: FailureDetector,
        table: MembershipView,
    }

    impl Prober {
        fn new(me: u32, n: usize, seed: u64) -> Prober {
            Prober {
                d: FailureDetector::new(NodeId(me), n, cfg(), seed, Time::ZERO),
                table: MembershipView::new(NodeId(me), n, 0),
            }
        }

        fn claim(&mut self, node: NodeId, inc: u64, state: GossipState, now: Time) -> Transition {
            let t = self.table.claim(node, inc, state, now);
            if t.changed() {
                self.d.disseminate(node);
            }
            t
        }

        /// Step to the next wake-up and tick, returning (now, actions).
        fn step(&mut self) -> (Time, Vec<DetectorAction>) {
            let now = self.d.next_wake(&self.table);
            (now, self.tick(now))
        }

        fn tick(&mut self, now: Time) -> Vec<DetectorAction> {
            let mut out = Vec::new();
            self.d.tick(&self.table, now, &mut out);
            for a in &out {
                match *a {
                    DetectorAction::Suspect { node, incarnation } => {
                        assert_eq!(
                            self.claim(node, incarnation, Suspect, now),
                            Transition::Suspected
                        );
                    }
                    DetectorAction::Dead { node, incarnation } => {
                        assert_eq!(self.claim(node, incarnation, Dead, now), Transition::Died);
                    }
                    _ => {}
                }
            }
            out
        }

        fn piggyback(&mut self, dest: NodeId) -> Vec<GossipEntry> {
            self.d.piggyback(&self.table, dest)
        }
    }

    fn det(n: usize) -> Prober {
        Prober::new(0, n, 42)
    }

    #[test]
    fn ring_probes_cover_all_peers_before_repeating() {
        let mut d = det(6);
        for _cycle in 0..3 {
            let mut seen = Vec::new();
            while seen.len() < 5 {
                let (_, actions) = d.step();
                for a in actions {
                    if let DetectorAction::Ping { to, probe_id } = a {
                        assert!(!seen.contains(&to), "peer {to:?} probed twice in one cycle");
                        seen.push(to);
                        d.d.on_ack(probe_id);
                    }
                }
            }
            seen.sort_by_key(|n| n.0);
            assert_eq!(seen, (1..6).map(NodeId).collect::<Vec<_>>());
        }
    }

    #[test]
    fn missed_ack_escalates_then_suspects_then_declares_dead() {
        let mut d = det(4);
        let mut pings = 0;
        let mut ping_reqs = Vec::new();
        let mut suspected_at = None;
        let mut dead_at = None;
        let mut target = None;
        while dead_at.is_none() {
            let (now, actions) = d.step();
            for a in actions {
                match a {
                    DetectorAction::Ping { to, .. } => {
                        if target.is_none() {
                            target = Some(to);
                        }
                        // Suspect peers keep being probed (that is how they learn of
                        // the suspicion); count only the pre-suspicion direct probe.
                        if Some(to) == target && suspected_at.is_none() {
                            pings += 1;
                        }
                        // Never ack: every probe times out.
                    }
                    DetectorAction::PingReq { relay, target: t2, .. } => {
                        if Some(t2) == target && suspected_at.is_none() {
                            ping_reqs.push(relay);
                        }
                    }
                    DetectorAction::Suspect { node, incarnation } => {
                        if Some(node) == target {
                            assert_eq!(incarnation, 0);
                            suspected_at = Some(now);
                        }
                    }
                    DetectorAction::Dead { node, incarnation } => {
                        if Some(node) == target {
                            assert_eq!(incarnation, 0);
                            dead_at = Some(now);
                        }
                    }
                }
            }
        }
        assert_eq!(pings, 1, "one direct probe per round");
        assert_eq!(ping_reqs.len(), 2, "indirect_fanout relays tried");
        assert!(!ping_reqs.contains(&NodeId(0)) && !ping_reqs.contains(&target.unwrap()));
        let window = cfg().suspicion_window();
        assert_eq!(dead_at.unwrap(), suspected_at.unwrap() + window);
        assert_eq!(d.table.get(target.unwrap()), Some((0, Dead)));
    }

    #[test]
    fn timely_ack_prevents_escalation() {
        let mut d = det(4);
        for _ in 0..20 {
            let (_, actions) = d.step();
            for a in actions {
                match a {
                    DetectorAction::Ping { probe_id, .. } => d.d.on_ack(probe_id),
                    DetectorAction::PingReq { .. } => panic!("escalated despite timely acks"),
                    DetectorAction::Suspect { .. } | DetectorAction::Dead { .. } => {
                        panic!("suspected despite timely acks")
                    }
                }
            }
        }
    }

    #[test]
    fn dead_never_regresses_within_an_incarnation() {
        // Property sweep: after Dead{i}, no Suspect/Alive claim at j <= i may
        // change the state; only Alive{j > i} revives.
        let mut rng = 7u64;
        for _case in 0..200 {
            let mut d = det(4);
            let node = NodeId(1 + (splitmix(&mut rng) % 3) as u32);
            let i = splitmix(&mut rng) % 5;
            d.claim(node, i, Dead, Time::ZERO);
            assert_eq!(d.table.get(node), Some((i, Dead)));
            for _op in 0..10 {
                let j = splitmix(&mut rng) % (i + 1);
                let state = if splitmix(&mut rng).is_multiple_of(2) { Suspect } else { Alive };
                assert_eq!(d.claim(node, j, state, Time::ZERO), Transition::Stale);
                assert_eq!(d.table.get(node), Some((i, Dead)), "regressed from Dead");
            }
            assert!(d.claim(node, i + 1, Alive, Time::ZERO).changed());
            assert_eq!(d.table.get(node), Some((i + 1, Alive)));
        }
    }

    #[test]
    fn suspicion_beats_same_incarnation_alive_and_is_cleared_by_refutation() {
        let mut d = det(4);
        assert_eq!(d.claim(NodeId(2), 0, Suspect, Time::ZERO), Transition::Suspected);
        // An alive claim at the same incarnation is NOT a refutation.
        assert!(!d.claim(NodeId(2), 0, Alive, Time::ZERO).changed());
        assert_eq!(d.table.get(NodeId(2)), Some((0, Suspect)));
        // The incarnation bump is.
        assert!(d.claim(NodeId(2), 1, Alive, Time::ZERO).changed());
        assert_eq!(d.table.get(NodeId(2)), Some((1, Alive)));
        // With the suspicion refuted, the window never expires into a death.
        let out = d.tick(Time::ZERO + Duration::from_secs(10));
        assert!(!out.iter().any(|a| matches!(a, DetectorAction::Dead { .. })));
    }

    #[test]
    fn unrefuted_gossip_suspicion_expires_into_death() {
        let mut d = det(4);
        let t0 = Time::ZERO + Duration::from_millis(7);
        assert_eq!(d.claim(NodeId(3), 0, Suspect, t0), Transition::Suspected);
        assert!(d.d.next_wake(&d.table) <= t0 + cfg().suspicion_window());
        let out = d.tick(t0 + cfg().suspicion_window());
        assert!(out.contains(&DetectorAction::Dead { node: NodeId(3), incarnation: 0 }));
    }

    #[test]
    fn piggyback_is_bounded_and_prioritizes_self_and_dest() {
        let mut d = det(16);
        for i in 2..12 {
            d.claim(NodeId(i), 0, Dead, Time::ZERO);
        }
        d.claim(NodeId(1), 0, Suspect, Time::ZERO);
        d.table.refute(8);
        let g = d.piggyback(NodeId(1));
        assert!(g.len() <= cfg().gossip_budget, "budget exceeded: {g:?}");
        assert_eq!(g[0], (NodeId(0), 9, Alive), "self claim leads");
        assert_eq!(g[1], (NodeId(1), 0, Suspect), "dest told of its suspicion");
        // No duplicates within one digest.
        for (i, &(n, _, _)) in g.iter().enumerate() {
            assert!(!g[i + 1..].iter().any(|&(m, _, _)| m == n));
        }
    }

    #[test]
    fn gossip_queue_rotates_and_retransmits_a_bounded_number_of_times() {
        let mut d = det(8);
        d.claim(NodeId(5), 0, Dead, Time::ZERO);
        let mut carried = 0;
        // Drain far past the retransmit limit; the entry must stop appearing.
        for _ in 0..200 {
            if d.piggyback(NodeId(1)).iter().any(|&(n, _, _)| n == NodeId(5)) {
                carried += 1;
            }
        }
        let limit = 3 * ceil_log2(8) + 3;
        assert_eq!(carried, limit, "entry retransmitted exactly `limit` times");
    }

    #[test]
    fn gossip_converges_over_a_lossy_ring() {
        // 8 detectors; node 0 learns of node 7's death. Each round every node
        // sends one digest to a random peer; 30% of messages are lost. All
        // surviving nodes must still converge on the death well within the
        // retransmit budget.
        let n = 8;
        let mut dets: Vec<Prober> =
            (0..n).map(|i| Prober::new(i as u32, n, 1000 + i as u64)).collect();
        dets[0].claim(NodeId(7), 0, Dead, Time::ZERO);
        let mut rng = 99u64;
        for _round in 0..40 {
            for i in 0..n - 1 {
                let dest = NodeId((splitmix(&mut rng) % (n as u64 - 1)) as u32);
                let digest = dets[i].piggyback(dest);
                if splitmix(&mut rng) % 10 < 3 {
                    continue; // lost
                }
                for (node, inc, state) in digest {
                    dets[dest.0 as usize].claim(node, inc, state, Time::ZERO);
                }
            }
        }
        for (i, d) in dets.iter().take(n - 1).enumerate() {
            assert!(!d.table.is_alive(NodeId(7)), "node {i} never learned of the death");
        }
    }

    #[test]
    fn two_node_cluster_skips_indirect_phase() {
        // With no possible relays the direct timeout suspects immediately.
        let mut d = det(2);
        let mut saw_suspect = false;
        for _ in 0..6 {
            let (_, actions) = d.step();
            for a in &actions {
                assert!(!matches!(a, DetectorAction::PingReq { .. }));
                if matches!(a, DetectorAction::Suspect { node: NodeId(1), .. }) {
                    saw_suspect = true;
                }
            }
            if saw_suspect {
                break;
            }
        }
        assert!(saw_suspect);
    }

    #[test]
    fn dead_peers_are_not_probed() {
        let mut d = det(4);
        d.claim(NodeId(1), 0, Dead, Time::ZERO);
        d.claim(NodeId(2), 0, Dead, Time::ZERO);
        for _ in 0..12 {
            let (_, actions) = d.step();
            for a in actions {
                if let DetectorAction::Ping { to, probe_id } = a {
                    assert_eq!(to, NodeId(3), "probed a dead peer");
                    d.d.on_ack(probe_id);
                }
            }
        }
    }

    #[test]
    fn a_peer_whose_window_expires_in_a_tick_is_not_that_ticks_probe_target() {
        // The table still says Suspect while the tick runs (the caller applies the
        // Dead verdict afterwards); the ring must already treat the peer as gone.
        let mut d = det(3);
        d.claim(NodeId(1), 0, Suspect, Time::ZERO);
        d.claim(NodeId(2), 0, Suspect, Time::ZERO);
        let out = d.tick(Time::ZERO + cfg().suspicion_window());
        assert_eq!(out.iter().filter(|a| matches!(a, DetectorAction::Dead { .. })).count(), 2);
        assert!(!out.iter().any(|a| matches!(a, DetectorAction::Ping { .. })), "{out:?}");
    }
}
