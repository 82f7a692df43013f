//! The shared node driver runtime.
//!
//! Every cluster backend — the discrete-event simulator behind
//! [`crate::sim_cluster::SimCluster`], the threaded real-byte deployment behind
//! [`crate::local::LocalCluster`], and any future fabric — drives its
//! [`ObjectStoreNode`]s through one [`NodeRuntime`]: events go in as [`NodeEvent`]s,
//! and the effects the sans-IO core emits come back out through a backend-provided
//! [`DriverPort`] (send a message, complete a client op, arm a timer, report local
//! progress).
//!
//! This is the seam that keeps the per-backend code down to "how do I move a message
//! and wake a timer on *my* fabric": protocol dispatch, effect routing, and the event
//! vocabulary live here, once.

use hoplite_core::prelude::*;

/// Everything that can happen to a node, in driver-neutral vocabulary.
///
/// A failure verdict is not an event of its own: a driver delivers it as a
/// [`NodeEvent::Message`] carrying [`Message::PeerFailureNotice`], naming the
/// incarnation that died, from the node itself. No event says a peer recovered: a
/// restarted peer's own traffic (its restart-flagged snapshot requests, its `Hello`,
/// its `DirResynced`) readmits it.
#[derive(Clone, Debug)]
pub enum NodeEvent {
    /// A local client submitted an operation.
    Client {
        /// Correlation id for the eventual [`ClientReply`].
        op: OpId,
        /// The operation.
        request: ClientOp,
    },
    /// A protocol message arrived from a peer.
    Message {
        /// Sending node.
        from: NodeId,
        /// The message.
        msg: Message,
    },
    /// A timer armed via [`DriverPort::set_timer`] fired.
    Timer(TimerToken),
    /// This process's event loop is live. Backends deliver this once per process
    /// lifetime, before any other traffic. A node built at an incarnation above 0 is a
    /// restart: it first begins directory recovery (restart-flagged snapshot requests,
    /// catch-up, `DirResynced`). Then every node arms its self-driven machinery, today
    /// the SWIM failure detector's probe timer when one is configured.
    Started,
}

/// How a backend executes the effects the core requests. One implementation per
/// fabric (simulated network, in-process channels, TCP, ...).
pub trait DriverPort {
    /// Deliver `msg` to peer `to`.
    fn send(&mut self, to: NodeId, msg: Message);

    /// Complete (one step of) client operation `op`.
    fn reply(&mut self, op: OpId, reply: ClientReply);

    /// Arrange for [`NodeEvent::Timer`] with `token` to be delivered after `delay`.
    fn set_timer(&mut self, token: TimerToken, delay: Duration);

    /// Advisory: `object`'s local watermark advanced. Backends that stream data to
    /// workers before an object completes use this; others ignore it.
    fn local_progress(&mut self, _object: ObjectId, _watermark: u64, _total_size: u64) {}

    /// The node's failure machinery declared `node` dead (detector verdict,
    /// gossiped death, or digest): backends holding real per-peer transport state
    /// tear it down, exactly as on a supervisor-issued failure command. Default
    /// no-op for backends without per-peer connections (the simulator).
    fn peer_down(&mut self, _node: NodeId) {}
}

/// One node plus the event/effect pump every backend shares.
pub struct NodeRuntime {
    node: ObjectStoreNode,
    /// Scratch buffer reused across events to avoid re-allocating per message.
    effects: Vec<Effect>,
}

impl NodeRuntime {
    /// Wrap a freshly-created node.
    pub fn new(node: ObjectStoreNode) -> Self {
        NodeRuntime { node, effects: Vec::new() }
    }

    /// The underlying node (metrics, store inspection).
    pub fn node(&self) -> &ObjectStoreNode {
        &self.node
    }

    /// Feed one event into the node at time `now` and route every resulting effect
    /// through `port`.
    pub fn handle<P: DriverPort>(&mut self, now: Time, event: NodeEvent, port: &mut P) {
        self.effects.clear();
        match event {
            NodeEvent::Client { op, request } => {
                self.node.handle_client(now, op, request, &mut self.effects)
            }
            NodeEvent::Message { from, msg } => {
                self.node.handle_message(now, from, msg, &mut self.effects)
            }
            NodeEvent::Timer(token) => self.node.handle_timer(now, token, &mut self.effects),
            NodeEvent::Started => {
                if self.node.incarnation() > 0 {
                    self.node.begin_recovery(now, &mut self.effects);
                }
                self.node.handle_started(now, &mut self.effects)
            }
        }
        for effect in self.effects.drain(..) {
            match effect {
                Effect::Send { to, msg } => port.send(to, msg),
                Effect::Reply { op, reply } => port.reply(op, reply),
                Effect::SetTimer { token, delay } => port.set_timer(token, delay),
                Effect::LocalProgress { object, watermark, total_size } => {
                    port.local_progress(object, watermark, total_size)
                }
                Effect::PeerDown { node } => port.peer_down(node),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A port that records everything, for asserting effect routing.
    #[derive(Default)]
    struct RecordingPort {
        sent: Vec<(NodeId, Message)>,
        replies: Vec<(OpId, ClientReply)>,
        timers: Vec<(TimerToken, Duration)>,
        progress: Vec<(ObjectId, u64, u64)>,
    }

    impl DriverPort for RecordingPort {
        fn send(&mut self, to: NodeId, msg: Message) {
            self.sent.push((to, msg));
        }
        fn reply(&mut self, op: OpId, reply: ClientReply) {
            self.replies.push((op, reply));
        }
        fn set_timer(&mut self, token: TimerToken, delay: Duration) {
            self.timers.push((token, delay));
        }
        fn local_progress(&mut self, object: ObjectId, watermark: u64, total_size: u64) {
            self.progress.push((object, watermark, total_size));
        }
    }

    fn runtime_of(n: usize, id: u32, opts: NodeOptions) -> NodeRuntime {
        let cluster = ClusterView::of_size(n);
        let cfg = HopliteConfig::small_for_tests();
        NodeRuntime::new(ObjectStoreNode::new(NodeId(id), cfg, cluster, opts))
    }

    #[test]
    fn client_put_routes_reply_and_directory_traffic() {
        let mut rt = runtime_of(2, 0, NodeOptions::default());
        let mut port = RecordingPort::default();
        let object = ObjectId::from_name("driver-put");
        rt.handle(
            Time::ZERO,
            NodeEvent::Client {
                op: OpId(1),
                request: ClientOp::Put { object, payload: Payload::zeros(5000) },
            },
            &mut port,
        );
        assert!(port
            .replies
            .iter()
            .any(|(op, r)| *op == OpId(1) && matches!(r, ClientReply::PutDone { .. })));
        // The directory registration went somewhere (possibly loopback, in which case
        // no external send is needed) and the local store holds the object.
        assert!(rt.node().has_complete(object));
    }

    #[test]
    fn two_runtimes_complete_a_get_through_their_ports() {
        let cluster = ClusterView::of_size(2);
        let cfg = HopliteConfig::small_for_tests();
        let mut runtimes: Vec<NodeRuntime> = (0..2u32)
            .map(|id| {
                NodeRuntime::new(ObjectStoreNode::new(
                    NodeId(id),
                    cfg.clone(),
                    cluster.clone(),
                    NodeOptions::default(),
                ))
            })
            .collect();
        let object = ObjectId::from_name("driver-get");
        let data: Vec<u8> = (0..4000u32).map(|i| (i % 250) as u8).collect();

        // A miniature backend: a queue of (from, to, msg) plus recorded replies.
        let mut port0 = RecordingPort::default();
        let mut port1 = RecordingPort::default();
        runtimes[0].handle(
            Time::ZERO,
            NodeEvent::Client {
                op: OpId(1),
                request: ClientOp::Put { object, payload: Payload::from_vec(data.clone()) },
            },
            &mut port0,
        );
        runtimes[1].handle(
            Time::ZERO,
            NodeEvent::Client { op: OpId(2), request: ClientOp::Get { object } },
            &mut port1,
        );
        // Shuttle messages until quiescent.
        let mut steps = 0;
        loop {
            let moved0: Vec<_> = port0.sent.drain(..).collect();
            let moved1: Vec<_> = port1.sent.drain(..).collect();
            if moved0.is_empty() && moved1.is_empty() {
                break;
            }
            for (to, msg) in moved0 {
                assert_eq!(to, NodeId(1));
                runtimes[1].handle(
                    Time::ZERO,
                    NodeEvent::Message { from: NodeId(0), msg },
                    &mut port1,
                );
            }
            for (to, msg) in moved1 {
                assert_eq!(to, NodeId(0));
                runtimes[0].handle(
                    Time::ZERO,
                    NodeEvent::Message { from: NodeId(1), msg },
                    &mut port0,
                );
            }
            steps += 1;
            assert!(steps < 1000, "ping-pong did not quiesce");
        }
        let got = port1
            .replies
            .iter()
            .find_map(|(op, r)| match (op, r) {
                (OpId(2), ClientReply::GetDone { payload, .. }) => Some(payload.clone()),
                _ => None,
            })
            .expect("get completed through the runtime");
        assert_eq!(got, Payload::from_vec(data));
        // Local progress advisories were surfaced to the receiving port.
        assert!(!port1.progress.is_empty());
    }

    #[test]
    fn a_node_above_incarnation_0_recovers_on_started_alone() {
        let restart_requests = |incarnation: u64| {
            let opts = NodeOptions { incarnation, ..NodeOptions::default() };
            let mut rt = runtime_of(4, 1, opts);
            let mut port = RecordingPort::default();
            rt.handle(Time::ZERO, NodeEvent::Started, &mut port);
            let sent = port.sent.into_iter().filter(|(_, msg)| {
                matches!(
                    msg,
                    Message::DirSnapshotRequest { requester: NodeId(1), restart: true, .. }
                )
            });
            (sent.count(), rt.node().directory_is_resyncing())
        };
        let (requests, resyncing) = restart_requests(1);
        assert!(requests >= 1 && resyncing, "{requests} restart requests, resyncing {resyncing}");
        assert_eq!(restart_requests(0), (0, false), "a cold boot is not a restart");
    }

    #[test]
    fn pipelined_put_arms_timers_through_the_port() {
        let mut rt = runtime_of(
            1,
            0,
            NodeOptions { synthetic_data: true, pipelined_put: true, incarnation: 0 },
        );
        let mut port = RecordingPort::default();
        let object = ObjectId::from_name("driver-pipelined");
        rt.handle(
            Time::ZERO,
            NodeEvent::Client {
                op: OpId(1),
                request: ClientOp::Put { object, payload: Payload::synthetic(10_000) },
            },
            &mut port,
        );
        assert_eq!(port.timers.len(), 1, "first copy step armed");
        // Firing the timer advances the copy and arms the next step.
        let (token, _) = port.timers[0];
        rt.handle(Time::ZERO, NodeEvent::Timer(token), &mut port);
        assert_eq!(port.timers.len(), 2);
    }
}
