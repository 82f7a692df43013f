//! The discrete-event simulation engine.
//!
//! A [`Simulation`] owns a set of actors (one per simulated node), a [`Nic`] pair per
//! node, and a time-ordered event queue. Actors are arbitrary state machines
//! implementing [`SimActor`]; they communicate only through [`SimContext::send`], which
//! routes messages through the NIC bandwidth model of [`crate::nic`].
//!
//! The engine supports node failure, announced to the survivors after a configurable
//! detection delay and naming the incarnation that died, and unannounced recovery,
//! external calls injected at chosen times (used by experiment scenarios to issue
//! client operations), and deterministic execution: ties in the event queue are broken
//! by insertion order, and the only randomness is the seeded per-message fault draw of
//! [`crate::config::LinkFaults`] — a hash of `(seed, link, message index)`, so every
//! run replays identically for the same seed.
//!
//! Beyond the uniform network, the engine honors the optional [`NetworkConfig`]
//! layers (per-node NIC speeds, latency tiers, shared group uplinks, link faults) and
//! two scheduled degradations used by fault sweeps: [`Simulation::partition_between`]
//! (transient network partition with TCP-like stall-and-heal semantics) and
//! [`Simulation::slow_node_between`] (straggler windows that divide a node's NIC
//! rate).

use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashMap};

use crate::config::NetworkConfig;
use crate::nic::Nic;
use crate::time::{SimDuration, SimTime};

/// A simulated node's behaviour.
pub trait SimActor: Sized {
    /// Message type exchanged between actors.
    type Msg;

    /// Called once when the simulation starts (and again after a recovery restart).
    fn on_start(&mut self, _ctx: &mut SimContext<'_, Self::Msg>) {}

    /// A message from `from` finished arriving.
    fn on_message(&mut self, from: usize, msg: Self::Msg, ctx: &mut SimContext<'_, Self::Msg>);

    /// A timer armed via [`SimContext::set_timer`] fired.
    fn on_timer(&mut self, _token: u64, _ctx: &mut SimContext<'_, Self::Msg>) {}

    /// The incarnation a failure verdict about this node names: the actor's own. The
    /// default, 0, suits an actor that never reads the verdict's incarnation.
    fn incarnation(&self) -> u64 {
        0
    }

    /// Another node was declared failed (after the detection delay). `incarnation` is
    /// the one that died ([`SimActor::incarnation`] when it failed). No recovery is
    /// ever declared: a recovered node's own traffic announces it.
    fn on_peer_failed(
        &mut self,
        _peer: usize,
        _incarnation: u64,
        _ctx: &mut SimContext<'_, Self::Msg>,
    ) {
    }
}

/// Actions an actor can take during a callback.
enum Action<M> {
    Send { to: usize, msg: M, bytes: u64 },
    Timer { delay: SimDuration, token: u64 },
}

/// Handle through which an actor interacts with the simulation during a callback.
pub struct SimContext<'a, M> {
    node: usize,
    now: SimTime,
    actions: &'a mut Vec<Action<M>>,
}

impl<'a, M> SimContext<'a, M> {
    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The node this actor is running on.
    pub fn node(&self) -> usize {
        self.node
    }

    /// Send `msg` (of `bytes` modelled size) to node `to`.
    pub fn send(&mut self, to: usize, msg: M, bytes: u64) {
        self.actions.push(Action::Send { to, msg, bytes });
    }

    /// Arm a timer that fires `delay` from now with the given token.
    pub fn set_timer(&mut self, delay: SimDuration, token: u64) {
        self.actions.push(Action::Timer { delay, token });
    }
}

type ExternalCall<A> = Box<dyn FnOnce(&mut A, &mut SimContext<'_, <A as SimActor>::Msg>) + 'static>;

enum EventKind<A: SimActor> {
    /// A bulk message reached the receiver's NIC input.
    NicArrival { from: usize, to: usize, msg: A::Msg, bytes: u64 },
    /// A message finished arriving and is handed to the actor.
    Deliver { from: usize, to: usize, msg: A::Msg, bytes: u64 },
    /// A timer fires on `node`.
    Timer { node: usize, token: u64 },
    /// Kill a node.
    NodeFail { node: usize },
    /// Bring a node back (empty).
    NodeRecover { node: usize },
    /// Tell `node` that `peer`'s `incarnation` failed.
    PeerFailedNotice { node: usize, peer: usize, incarnation: u64 },
    /// Run an injected closure against `node`'s actor.
    External { node: usize, call: ExternalCall<A> },
}

struct Event<A: SimActor> {
    time: SimTime,
    seq: u64,
    kind: EventKind<A>,
}

impl<A: SimActor> PartialEq for Event<A> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<A: SimActor> Eq for Event<A> {}
impl<A: SimActor> PartialOrd for Event<A> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<A: SimActor> Ord for Event<A> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed so the BinaryHeap becomes a min-heap on (time, seq).
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}

/// Aggregate statistics of a simulation run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Messages delivered to actors.
    pub messages_delivered: u64,
    /// Modelled bytes delivered to actors.
    pub bytes_delivered: u64,
    /// Messages dropped because the destination (or source) node was down.
    pub messages_dropped: u64,
    /// Events processed in total.
    pub events_processed: u64,
    /// Messages whose first transmission was lost (they arrived late, after the
    /// modeled retransmission timeout). Only nonzero with [`NetworkConfig::faults`].
    pub messages_lost: u64,
    /// Messages delayed by reordering jitter (and re-sequenced behind the per-pair
    /// FIFO clamp). Only nonzero with [`NetworkConfig::faults`].
    pub messages_reordered: u64,
}

/// A scheduled transient partition: while active, messages crossing the side boundary
/// stall and are delivered after the heal (TCP retransmits across the cut).
struct PartitionWindow {
    from: SimTime,
    until: SimTime,
    side: Vec<bool>,
}

/// A scheduled straggler window: `node`'s NIC drains `factor`× slower while active.
struct SlowWindow {
    node: usize,
    from: SimTime,
    until: SimTime,
    factor: f64,
}

/// SplitMix64: the per-message deterministic fault draw.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E3779B97F4A7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
    x ^ (x >> 31)
}

/// Map a hash to a uniform draw in `[0, 1)`.
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// The discrete-event simulator.
pub struct Simulation<A: SimActor> {
    cfg: NetworkConfig,
    actors: Vec<A>,
    nics: Vec<Nic>,
    /// Shared per-group uplink/downlink queues (empty without `cfg.uplinks`).
    uplinks: Vec<Nic>,
    /// Group of each node, padded to the cluster size (empty without `cfg.uplinks`).
    group_of: Vec<usize>,
    alive: Vec<bool>,
    queue: BinaryHeap<Event<A>>,
    now: SimTime,
    seq: u64,
    stats: SimStats,
    started: bool,
    partitions: Vec<PartitionWindow>,
    slow_windows: Vec<SlowWindow>,
    /// Per-message index feeding the fault hash.
    fault_draws: u64,
    /// Last scheduled arrival per (from, to): the FIFO clamp that keeps per-pair
    /// delivery in send order under jitter (TCP head-of-line blocking). Only
    /// maintained when faults are configured.
    last_arrival: HashMap<(usize, usize), SimTime>,
}

impl<A: SimActor> Simulation<A> {
    /// Create a simulation over the given actors (node `i` runs `actors[i]`).
    pub fn new(cfg: NetworkConfig, actors: Vec<A>) -> Self {
        let n = actors.len();
        let (uplinks, group_of) = match &cfg.uplinks {
            Some(up) => {
                (vec![Nic::default(); up.num_groups()], (0..n).map(|i| up.group(i)).collect())
            }
            None => (Vec::new(), Vec::new()),
        };
        Simulation {
            cfg,
            actors,
            nics: vec![Nic::default(); n],
            uplinks,
            group_of,
            alive: vec![true; n],
            queue: BinaryHeap::new(),
            now: SimTime::ZERO,
            seq: 0,
            stats: SimStats::default(),
            started: false,
            partitions: Vec::new(),
            slow_windows: Vec::new(),
            fault_draws: 0,
            last_arrival: HashMap::new(),
        }
    }

    /// Number of simulated nodes.
    pub fn len(&self) -> usize {
        self.actors.len()
    }

    /// `true` when the simulation has no nodes.
    pub fn is_empty(&self) -> bool {
        self.actors.is_empty()
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Statistics so far.
    pub fn stats(&self) -> &SimStats {
        &self.stats
    }

    /// Immutable access to an actor (for reading results after a run).
    pub fn actor(&self, node: usize) -> &A {
        &self.actors[node]
    }

    /// Whether a node is currently alive.
    pub fn is_alive(&self, node: usize) -> bool {
        self.alive[node]
    }

    /// Network configuration in effect.
    pub fn network(&self) -> &NetworkConfig {
        &self.cfg
    }

    fn push(&mut self, time: SimTime, kind: EventKind<A>) {
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(Event { time, seq, kind });
    }

    /// Schedule a closure to run against `node`'s actor at `at`.
    pub fn call_at<F>(&mut self, at: SimTime, node: usize, f: F)
    where
        F: FnOnce(&mut A, &mut SimContext<'_, A::Msg>) + 'static,
    {
        self.push(at, EventKind::External { node, call: Box::new(f) });
    }

    /// Schedule a node failure.
    pub fn fail_node_at(&mut self, at: SimTime, node: usize) {
        self.push(at, EventKind::NodeFail { node });
    }

    /// Schedule a node recovery.
    pub fn recover_node_at(&mut self, at: SimTime, node: usize) {
        self.push(at, EventKind::NodeRecover { node });
    }

    /// Schedule a transient partition between `from` and `until`: `side[i]` assigns
    /// node `i` to one half (nodes beyond the vector land on the `false` side).
    /// Messages sent across the boundary while the window is active stall and arrive
    /// one propagation delay after the heal — TCP retransmits across the cut, so no
    /// message is lost and per-pair ordering is preserved, but every cross-cut
    /// exchange (queries, pulls, acks) stalls for the duration.
    pub fn partition_between(&mut self, from: SimTime, until: SimTime, side: Vec<bool>) {
        self.partitions.push(PartitionWindow { from, until, side });
    }

    /// Schedule a straggler window: between `from` and `until`, `node`'s NIC (both
    /// directions) drains `factor`× slower than its configured rate. Transfers queued
    /// while the window is active serialize at the degraded rate.
    pub fn slow_node_between(&mut self, node: usize, from: SimTime, until: SimTime, factor: f64) {
        assert!(factor >= 1.0, "slow-down factor must be >= 1");
        self.slow_windows.push(SlowWindow { node, from, until, factor });
    }

    /// Effective NIC rate of `node` at `now`: the per-node bandwidth divided by the
    /// strongest active straggler window.
    fn node_rate(&self, node: usize, now: SimTime) -> f64 {
        let mut factor = 1.0f64;
        for w in &self.slow_windows {
            if w.node == node && now >= w.from && now < w.until && w.factor > factor {
                factor = w.factor;
            }
        }
        self.cfg.node_bandwidth(node) / factor
    }

    /// When an active partition separates `from` and `to` at `now`, the time the cut
    /// heals (the latest such heal across overlapping windows).
    fn partition_release(&self, from: usize, to: usize, now: SimTime) -> Option<SimTime> {
        let mut release: Option<SimTime> = None;
        for p in &self.partitions {
            if now >= p.from && now < p.until {
                let sf = p.side.get(from).copied().unwrap_or(false);
                let st = p.side.get(to).copied().unwrap_or(false);
                if sf != st {
                    release = Some(release.map_or(p.until, |r| r.max(p.until)));
                }
            }
        }
        release
    }

    /// Per-message fault draw: extra delivery delay plus (lost, reordered) flags.
    fn fault_penalty(&mut self, from: usize, to: usize) -> (SimDuration, bool, bool) {
        let Some(f) = &self.cfg.faults else { return (SimDuration::ZERO, false, false) };
        let idx = self.fault_draws;
        self.fault_draws += 1;
        let h = splitmix64(f.seed ^ ((from as u64) << 40) ^ ((to as u64) << 20) ^ idx);
        let u = unit(h);
        if u < f.loss {
            (f.retransmit, true, false)
        } else if u < f.loss + f.reorder {
            let frac = unit(splitmix64(h));
            (SimDuration::from_secs_f64(f.jitter.as_secs_f64() * frac), false, true)
        } else {
            (SimDuration::ZERO, false, false)
        }
    }

    /// Clamp `t` so per-pair arrivals stay in send order (only needed once jitter or
    /// partitions can delay an earlier message past a later one).
    fn fifo_clamp(&mut self, from: usize, to: usize, t: SimTime) -> SimTime {
        if self.cfg.faults.is_none() && self.partitions.is_empty() {
            return t;
        }
        let last = self.last_arrival.entry((from, to)).or_insert(SimTime::ZERO);
        let t = t.max(*last);
        *last = t;
        t
    }

    /// Groups of `from` and `to` plus the shared uplink bandwidth, when group uplinks
    /// are configured and the nodes sit in different groups.
    fn cross_group(&self, from: usize, to: usize) -> Option<(usize, usize, f64)> {
        let up = self.cfg.uplinks.as_ref()?;
        let (gf, gt) = (self.group_of[from], self.group_of[to]);
        if gf == gt {
            None
        } else {
            Some((gf, gt, up.bandwidth))
        }
    }

    /// Run until the event queue is empty or `deadline` is reached. Returns the time of
    /// the last processed event.
    pub fn run_until_idle(&mut self, deadline: SimTime) -> SimTime {
        self.ensure_started();
        while let Some(ev) = self.queue.peek() {
            if ev.time > deadline {
                break;
            }
            let ev = self.queue.pop().expect("peeked");
            self.now = ev.time;
            self.dispatch(ev);
        }
        self.now
    }

    /// Run everything (no deadline). Panics if the simulation exceeds an internal event
    /// budget, which indicates a livelock in the protocol under test.
    pub fn run_to_completion(&mut self) -> SimTime {
        self.run_until_idle(SimTime(u64::MAX))
    }

    fn ensure_started(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        for node in 0..self.actors.len() {
            let mut actions = Vec::new();
            {
                let mut ctx = SimContext { node, now: self.now, actions: &mut actions };
                self.actors[node].on_start(&mut ctx);
            }
            self.apply_actions(node, actions);
        }
    }

    fn dispatch(&mut self, ev: Event<A>) {
        self.stats.events_processed += 1;
        match ev.kind {
            EventKind::NicArrival { from, to, msg, bytes } => {
                if !self.alive[to] {
                    self.stats.messages_dropped += 1;
                    return;
                }
                // Cross-group bulk traffic serializes through the receiver group's
                // shared downlink before the endpoint NIC.
                let mut at = self.now;
                if let Some((_gf, gt, up_bw)) = self.cross_group(from, to) {
                    at = self.uplinks[gt].rx.enqueue_at(at, bytes, up_bw);
                }
                let rate = self.node_rate(to, self.now);
                let deliver_at = self.nics[to].rx.enqueue_at(at, bytes, rate);
                self.push(deliver_at, EventKind::Deliver { from, to, msg, bytes });
            }
            EventKind::Deliver { from, to, msg, bytes } => {
                if !self.alive[to] {
                    self.stats.messages_dropped += 1;
                    return;
                }
                self.stats.messages_delivered += 1;
                self.stats.bytes_delivered += bytes;
                let mut actions = Vec::new();
                {
                    let mut ctx = SimContext { node: to, now: self.now, actions: &mut actions };
                    self.actors[to].on_message(from, msg, &mut ctx);
                }
                self.apply_actions(to, actions);
            }
            EventKind::Timer { node, token } => {
                if !self.alive[node] {
                    return;
                }
                let mut actions = Vec::new();
                {
                    let mut ctx = SimContext { node, now: self.now, actions: &mut actions };
                    self.actors[node].on_timer(token, &mut ctx);
                }
                self.apply_actions(node, actions);
            }
            EventKind::NodeFail { node } => {
                if !self.alive[node] {
                    return;
                }
                self.alive[node] = false;
                self.nics[node].reset();
                let notice_at = self.now + self.cfg.failure_detection_delay;
                let incarnation = self.actors[node].incarnation();
                for other in 0..self.actors.len() {
                    if other != node && self.alive[other] {
                        let notice =
                            EventKind::PeerFailedNotice { node: other, peer: node, incarnation };
                        self.push(notice_at, notice);
                    }
                }
            }
            EventKind::NodeRecover { node } => {
                if self.alive[node] {
                    return;
                }
                self.alive[node] = true;
                self.nics[node].reset();
                let mut actions = Vec::new();
                {
                    let mut ctx = SimContext { node, now: self.now, actions: &mut actions };
                    self.actors[node].on_start(&mut ctx);
                }
                self.apply_actions(node, actions);
            }
            EventKind::PeerFailedNotice { node, peer, incarnation } => {
                if !self.alive[node] {
                    return;
                }
                let mut actions = Vec::new();
                {
                    let mut ctx = SimContext { node, now: self.now, actions: &mut actions };
                    self.actors[node].on_peer_failed(peer, incarnation, &mut ctx);
                }
                self.apply_actions(node, actions);
            }
            EventKind::External { node, call } => {
                if !self.alive[node] {
                    return;
                }
                let mut actions = Vec::new();
                {
                    let mut ctx = SimContext { node, now: self.now, actions: &mut actions };
                    call(&mut self.actors[node], &mut ctx);
                }
                self.apply_actions(node, actions);
            }
        }
    }

    fn apply_actions(&mut self, from: usize, actions: Vec<Action<A::Msg>>) {
        for action in actions {
            match action {
                Action::Send { to, msg, bytes } => {
                    if !self.alive[from] {
                        self.stats.messages_dropped += 1;
                        continue;
                    }
                    if to == from {
                        // Loopback: latency only; no faults, no partitions.
                        let at = self.now + self.cfg.loopback_latency;
                        self.push(at, EventKind::Deliver { from, to, msg, bytes });
                        continue;
                    }
                    let (penalty, lost, reordered) = self.fault_penalty(from, to);
                    if lost {
                        self.stats.messages_lost += 1;
                    }
                    if reordered {
                        self.stats.messages_reordered += 1;
                    }
                    let heal = self.partition_release(from, to, self.now);
                    let latency = self.cfg.one_way_latency(from, to);
                    if bytes <= self.cfg.control_cutoff {
                        // Control RPC: pays latency but does not contend for NIC
                        // bandwidth (packets interleave with bulk flows).
                        let mut at = self.now + latency + penalty;
                        if let Some(h) = heal {
                            at = at.max(h + latency);
                        }
                        let at = self.fifo_clamp(from, to, at);
                        self.push(at, EventKind::Deliver { from, to, msg, bytes });
                    } else {
                        let rate = self.node_rate(from, self.now);
                        let tx_done = self.nics[from].tx.enqueue_at(self.now, bytes, rate);
                        // Cross-group traffic also serializes through the sender
                        // group's shared uplink (the oversubscription bottleneck).
                        let mut depart = tx_done;
                        if let Some((gf, _gt, up_bw)) = self.cross_group(from, to) {
                            depart = self.uplinks[gf].tx.enqueue_at(tx_done, bytes, up_bw);
                        }
                        let mut arrival = depart + latency + penalty;
                        if let Some(h) = heal {
                            arrival = arrival.max(h + latency);
                        }
                        let arrival = self.fifo_clamp(from, to, arrival);
                        self.push(arrival, EventKind::NicArrival { from, to, msg, bytes });
                    }
                }
                Action::Timer { delay, token } => {
                    self.push(self.now + delay, EventKind::Timer { node: from, token });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Simple flooding actor used to exercise the engine: node 0 sends `size`-byte
    /// messages to everyone, everyone records arrival time.
    struct Flood {
        me: usize,
        n: usize,
        size: u64,
        received_at: Option<SimTime>,
        peers_failed: Vec<(usize, u64)>,
        /// Times `on_start` ran: the first start, then one per recovery.
        starts: u64,
    }

    impl SimActor for Flood {
        type Msg = u64;
        fn on_start(&mut self, ctx: &mut SimContext<'_, u64>) {
            self.starts += 1;
            if self.me == 0 {
                for to in 1..self.n {
                    ctx.send(to, 42, self.size);
                }
            }
        }
        fn on_message(&mut self, _from: usize, _msg: u64, ctx: &mut SimContext<'_, u64>) {
            self.received_at = Some(ctx.now());
        }
        fn on_peer_failed(
            &mut self,
            peer: usize,
            incarnation: u64,
            _ctx: &mut SimContext<'_, u64>,
        ) {
            self.peers_failed.push((peer, incarnation));
        }
        /// Its recoveries so far.
        fn incarnation(&self) -> u64 {
            self.starts.saturating_sub(1)
        }
    }

    fn flood(n: usize, size: u64) -> Vec<Flood> {
        (0..n)
            .map(|me| Flood { me, n, size, received_at: None, peers_failed: Vec::new(), starts: 0 })
            .collect()
    }

    #[test]
    fn sender_uplink_serializes_bulk_transfers() {
        let cfg = NetworkConfig {
            bandwidth: 1e9,
            latency: SimDuration::from_micros(100),
            ..NetworkConfig::paper_testbed()
        };
        let mut sim = Simulation::new(cfg, flood(5, 10_000_000)); // 10 MB to 4 receivers
        sim.run_to_completion();
        // The last receiver can only finish after the sender pushed all 40 MB through
        // its uplink: >= 40 ms.
        let latest = (1..5).map(|i| sim.actor(i).received_at.expect("received")).max().unwrap();
        assert!(latest.as_secs_f64() >= 0.040, "latest = {latest:?}");
        let earliest = (1..5).map(|i| sim.actor(i).received_at.expect("received")).min().unwrap();
        assert!(earliest.as_secs_f64() >= 0.010 && earliest.as_secs_f64() < 0.025);
    }

    #[test]
    fn control_messages_bypass_bandwidth_queues() {
        let cfg = NetworkConfig {
            bandwidth: 1e9,
            latency: SimDuration::from_micros(100),
            control_cutoff: 4096,
            ..NetworkConfig::paper_testbed()
        };
        let mut sim = Simulation::new(cfg, flood(3, 128));
        sim.run_to_completion();
        for i in 1..3 {
            let t = sim.actor(i).received_at.unwrap();
            assert_eq!(t.as_nanos(), 100_000, "latency only");
        }
    }

    #[test]
    fn failure_notifications_arrive_after_detection_delay() {
        let cfg = NetworkConfig {
            failure_detection_delay: SimDuration::from_millis(500),
            ..NetworkConfig::paper_testbed()
        };
        let mut sim = Simulation::new(cfg, flood(3, 128));
        sim.fail_node_at(SimTime::from_secs_f64(1.0), 2);
        sim.run_to_completion();
        assert!(!sim.is_alive(2));
        assert_eq!(sim.actor(0).peers_failed, vec![(2, 0)]);
        assert_eq!(sim.actor(1).peers_failed, vec![(2, 0)]);
        assert!(sim.now().as_secs_f64() >= 1.5);
    }

    #[test]
    fn messages_to_failed_nodes_are_dropped() {
        let cfg = NetworkConfig::paper_testbed();
        let mut sim = Simulation::new(cfg, flood(2, 128));
        sim.fail_node_at(SimTime::ZERO, 1);
        // Node 0 sends a message to node 1 after the failure.
        sim.call_at(SimTime::from_secs_f64(1.0), 0, |_actor, ctx| {
            ctx.send(1, 7, 128);
        });
        sim.run_to_completion();
        assert!(sim.actor(1).received_at.is_none() || sim.stats().messages_dropped > 0);
    }

    #[test]
    fn external_calls_and_timers_fire_in_order() {
        struct Ticker {
            fired: Vec<(u64, SimTime)>,
        }
        impl SimActor for Ticker {
            type Msg = ();
            fn on_message(&mut self, _f: usize, _m: (), _c: &mut SimContext<'_, ()>) {}
            fn on_timer(&mut self, token: u64, ctx: &mut SimContext<'_, ()>) {
                self.fired.push((token, ctx.now()));
                if token < 3 {
                    ctx.set_timer(SimDuration::from_millis(10), token + 1);
                }
            }
        }
        let mut sim =
            Simulation::new(NetworkConfig::paper_testbed(), vec![Ticker { fired: vec![] }]);
        sim.call_at(SimTime::ZERO, 0, |_a, ctx| ctx.set_timer(SimDuration::from_millis(5), 1));
        sim.run_to_completion();
        let fired = &sim.actor(0).fired;
        assert_eq!(fired.iter().map(|(t, _)| *t).collect::<Vec<_>>(), vec![1, 2, 3]);
        assert_eq!(fired[2].1.as_nanos(), 25_000_000);
    }

    #[test]
    fn recovery_restarts_the_actor() {
        let cfg = NetworkConfig {
            failure_detection_delay: SimDuration::from_millis(1),
            ..NetworkConfig::paper_testbed()
        };
        let mut sim = Simulation::new(cfg, flood(3, 64));
        sim.fail_node_at(SimTime::from_secs_f64(0.1), 0);
        sim.recover_node_at(SimTime::from_secs_f64(0.2), 0);
        sim.run_to_completion();
        assert!(sim.is_alive(0));
        // on_start ran again for node 0 after recovery, so receivers saw a second send.
        assert!(sim.stats().messages_delivered >= 4);
    }

    #[test]
    fn a_failure_notice_names_the_incarnation_that_died() {
        let cfg = NetworkConfig {
            failure_detection_delay: SimDuration::from_millis(500),
            ..NetworkConfig::paper_testbed()
        };
        let mut sim = Simulation::new(cfg, flood(3, 64));
        sim.fail_node_at(SimTime::from_secs_f64(0.1), 2);
        // Back before the first notice lands: that notice still names incarnation 0.
        sim.recover_node_at(SimTime::from_secs_f64(0.2), 2);
        sim.fail_node_at(SimTime::from_secs_f64(1.0), 2);
        sim.run_to_completion();
        assert_eq!(sim.actor(0).peers_failed, vec![(2, 0), (2, 1)]);
        assert_eq!(sim.actor(1).peers_failed, vec![(2, 0), (2, 1)]);
    }

    #[test]
    fn heterogeneous_nics_scale_transfer_time() {
        // Node 0 → 1 at 1 GB/s and node 2 → 3 at 2 GB/s, same 10 MB payload: the
        // faster pair finishes in half the serialization time.
        let cfg = NetworkConfig {
            bandwidth: 1e9,
            node_bandwidth: vec![1e9, 1e9, 2e9, 2e9],
            latency: SimDuration::from_micros(100),
            ..NetworkConfig::paper_testbed()
        };
        let mut sim = Simulation::new(cfg, flood(4, 0));
        sim.call_at(SimTime::ZERO, 0, |_a, ctx| ctx.send(1, 1, 10_000_000));
        sim.call_at(SimTime::ZERO, 2, |_a, ctx| ctx.send(3, 2, 10_000_000));
        sim.run_to_completion();
        let slow = sim.actor(1).received_at.unwrap().as_secs_f64();
        let fast = sim.actor(3).received_at.unwrap().as_secs_f64();
        // tx + rx serialization dominate: 20 ms vs 10 ms (plus latency).
        assert!(slow > 0.019 && slow < 0.022, "slow = {slow}");
        assert!(fast > 0.009 && fast < 0.012, "fast = {fast}");
    }

    #[test]
    fn oversubscribed_uplink_throttles_cross_group_flows() {
        use crate::config::UplinkSpec;
        // Two racks of two nodes; the shared uplink runs at node speed (so two
        // concurrent cross-rack flows halve each other), intra-rack flows don't touch
        // it.
        let cfg = NetworkConfig {
            bandwidth: 1e9,
            latency: SimDuration::from_micros(100),
            uplinks: Some(UplinkSpec { group_of: vec![0, 0, 1, 1], bandwidth: 1e9 }),
            ..NetworkConfig::paper_testbed()
        };
        let mut sim = Simulation::new(cfg.clone(), flood(4, 0));
        // Both rack-0 nodes send 10 MB to rack 1 at t=0: the shared uplink serializes
        // 20 MB, so the later flow lands at >= 20 ms + rx.
        sim.call_at(SimTime::ZERO, 0, |_a, ctx| ctx.send(2, 1, 10_000_000));
        sim.call_at(SimTime::ZERO, 1, |_a, ctx| ctx.send(3, 2, 10_000_000));
        sim.run_to_completion();
        let last =
            sim.actor(2).received_at.unwrap().max(sim.actor(3).received_at.unwrap()).as_secs_f64();
        assert!(last >= 0.030, "uplink contention: {last}");
        // The same pair of flows kept intra-rack never touches the uplink.
        let mut sim = Simulation::new(cfg, flood(4, 0));
        sim.call_at(SimTime::ZERO, 0, |_a, ctx| ctx.send(1, 1, 10_000_000));
        sim.call_at(SimTime::ZERO, 2, |_a, ctx| ctx.send(3, 2, 10_000_000));
        sim.run_to_completion();
        let intra =
            sim.actor(1).received_at.unwrap().max(sim.actor(3).received_at.unwrap()).as_secs_f64();
        assert!(intra < 0.025, "no uplink contention intra-rack: {intra}");
    }

    #[test]
    fn latency_tiers_apply_to_cross_tier_pairs() {
        use crate::config::LatencyTiers;
        let us = SimDuration::from_micros;
        let cfg = NetworkConfig {
            latency: us(100),
            latency_tiers: Some(LatencyTiers {
                tier_of: vec![0, 0, 1],
                latency: vec![vec![us(100), us(10_000)], vec![us(10_000), us(100)]],
            }),
            ..NetworkConfig::paper_testbed()
        };
        let mut sim = Simulation::new(cfg, flood(3, 0));
        sim.call_at(SimTime::ZERO, 0, |_a, ctx| {
            ctx.send(1, 1, 128); // intra-site
            ctx.send(2, 2, 128); // cross-site
        });
        sim.run_to_completion();
        assert_eq!(sim.actor(1).received_at.unwrap().as_nanos(), 100_000);
        assert_eq!(sim.actor(2).received_at.unwrap().as_nanos(), 10_000_000);
    }

    #[test]
    fn link_faults_are_deterministic_and_preserve_pair_order() {
        use crate::config::LinkFaults;
        let faults = LinkFaults {
            loss: 0.2,
            reorder: 0.5,
            jitter: SimDuration::from_millis(5),
            retransmit: SimDuration::from_millis(200),
            seed: 7,
        };
        let run = |seed: u64| {
            let cfg = NetworkConfig {
                latency: SimDuration::from_micros(100),
                faults: Some(LinkFaults { seed, ..faults.clone() }),
                ..NetworkConfig::paper_testbed()
            };
            struct Recorder {
                got: Vec<u64>,
            }
            impl SimActor for Recorder {
                type Msg = u64;
                fn on_message(&mut self, _f: usize, m: u64, _c: &mut SimContext<'_, u64>) {
                    self.got.push(m);
                }
            }
            let actors = (0..2).map(|_| Recorder { got: vec![] }).collect();
            let mut sim = Simulation::new(cfg, actors);
            sim.call_at(SimTime::ZERO, 0, |_a, ctx| {
                for m in 0..50 {
                    ctx.send(1, m, 128);
                }
            });
            sim.run_to_completion();
            (sim.actor(1).got.clone(), sim.stats().clone())
        };
        let (order_a, stats_a) = run(7);
        let (order_b, stats_b) = run(7);
        // Deterministic replay for the same seed.
        assert_eq!(order_a, order_b);
        assert_eq!(stats_a, stats_b);
        // Faults actually fired...
        assert!(stats_a.messages_lost > 0, "loss drew at p=0.2 over 50 messages");
        assert!(stats_a.messages_reordered > 0, "reorder drew at p=0.5 over 50 messages");
        // ...yet per-pair delivery order is preserved (TCP head-of-line semantics).
        assert_eq!(order_a, (0..50).collect::<Vec<u64>>());
        // A different seed draws a different schedule.
        let (_, stats_c) = run(8);
        assert_ne!((stats_a.messages_lost, stats_a.messages_reordered), {
            (stats_c.messages_lost, stats_c.messages_reordered)
        });
    }

    #[test]
    fn partition_stalls_cross_cut_messages_until_heal() {
        let cfg = NetworkConfig {
            latency: SimDuration::from_micros(100),
            ..NetworkConfig::paper_testbed()
        };
        let mut sim = Simulation::new(cfg, flood(4, 0));
        // Nodes {2, 3} are cut off from {0, 1} between 1 s and 2 s.
        sim.partition_between(
            SimTime::from_secs_f64(1.0),
            SimTime::from_secs_f64(2.0),
            vec![false, false, true, true],
        );
        sim.call_at(SimTime::from_secs_f64(1.5), 0, |_a, ctx| {
            ctx.send(2, 1, 128); // crosses the cut: stalls until the heal
            ctx.send(1, 2, 128); // same side: unaffected
        });
        sim.run_to_completion();
        let stalled = sim.actor(2).received_at.unwrap().as_secs_f64();
        let same_side = sim.actor(1).received_at.unwrap().as_secs_f64();
        assert!(stalled >= 2.0, "crossed the cut after the heal: {stalled}");
        assert!(same_side < 1.6, "same-side message unaffected: {same_side}");
    }

    #[test]
    fn straggler_window_slows_the_node_then_releases() {
        let cfg = NetworkConfig {
            bandwidth: 1e9,
            latency: SimDuration::from_micros(100),
            ..NetworkConfig::paper_testbed()
        };
        let mut sim = Simulation::new(cfg, flood(2, 0));
        // Node 0's NIC is 10× slower between 0 and 1 s.
        sim.slow_node_between(0, SimTime::ZERO, SimTime::from_secs_f64(1.0), 10.0);
        sim.call_at(SimTime::ZERO, 0, |_a, ctx| ctx.send(1, 1, 10_000_000));
        sim.run_to_completion();
        // tx at 0.1 GB/s = 100 ms (rx still at full rate: +10 ms).
        let t = sim.actor(1).received_at.unwrap().as_secs_f64();
        assert!(t >= 0.100, "straggler tx dominates: {t}");
        // After the window, the same transfer runs at full speed.
        let cfg = NetworkConfig {
            bandwidth: 1e9,
            latency: SimDuration::from_micros(100),
            ..NetworkConfig::paper_testbed()
        };
        let mut sim = Simulation::new(cfg, flood(2, 0));
        sim.slow_node_between(0, SimTime::ZERO, SimTime::from_secs_f64(1.0), 10.0);
        sim.call_at(SimTime::from_secs_f64(2.0), 0, |_a, ctx| ctx.send(1, 1, 10_000_000));
        sim.run_to_completion();
        let t = sim.actor(1).received_at.unwrap().as_secs_f64() - 2.0;
        assert!(t < 0.025, "window released: {t}");
    }

    #[test]
    fn deterministic_across_runs() {
        let run = || {
            let mut sim = Simulation::new(NetworkConfig::paper_testbed(), flood(8, 1_000_000));
            sim.run_to_completion();
            (1..8).map(|i| sim.actor(i).received_at.unwrap().as_nanos()).collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }
}
