//! Message fabrics: how Hoplite nodes exchange [`Message`]s in real (non-simulated)
//! deployments, and who runs a node when one arrives.
//!
//! A fabric owns no queue. Each node attaches an [`Ingress`] sink
//! ([`Fabric::attach`]) and the fabric hands every frame addressed to that node
//! straight to it, on whichever thread has the frame:
//!
//! * [`crate::tcp::TcpFabric`] — localhost TCP with the framing of [`crate::framing`],
//!   one connection per (sender, receiver) pair, mirroring the paper's raw-TCP data
//!   plane. A connection's reader thread has nothing else to do, so it calls
//!   [`Ingress::deliver`] and the sink may run the node's handlers right there; a
//!   send writes small frames to an idle connection on the sending thread, for at
//!   most one send timeout, and leaves the rest to the connection's writer thread.
//! * [`ChannelFabric`] — in-process, no sockets and no threads of its own: `send`
//!   runs on the *sender's* thread, usually inside another node's handler, so it
//!   calls [`Ingress::post`], which only enqueues and wakes the destination's own
//!   thread. A handler therefore never runs another node, and there is no lock
//!   order between nodes to get wrong.
//!
//! Attaching again swaps the sink (a node restart); frames for a node with no sink
//! are dropped like frames for a dead node. [`Fabric::take_receiver`] is the adapter
//! for callers that want a plain queue: it attaches a channel.
//!
//! Both fabrics preserve per-sender FIFO ordering, which the Hoplite block protocol
//! relies on: one sender's frames reach the sink from one thread, in order.
//!
//! Both are also **zero-copy for bulk payloads**: the channels fabric moves [`Message`]
//! values by ownership, so a segmented payload ([`Payload::Segments`]) arrives at the
//! receiver holding the very same shared segment buffers the sender read out of its
//! store — the segment vector passes through untouched. The TCP fabric achieves the
//! same by handing those segments to the kernel as an iovec gather (see
//! [`crate::tcp`]).

use std::sync::Arc;

use crossbeam_channel::{unbounded, Receiver, Sender};
use hoplite_core::prelude::*;
use parking_lot::RwLock;

/// The sending half of a fabric, cloneable and shareable across node threads.
///
/// Neither sending method waits for the network beyond a fixed bound: an
/// implementation may write to a socket on the calling thread — usually a thread
/// inside a node's handler — for at most one send timeout per peer addressed
/// ([`crate::tcp`] does, for small frames on an idle connection), and otherwise only
/// enqueues.
pub trait FabricSender: Send + Sync + 'static {
    /// Deliver `msg` from `from` to `to`. Delivery is asynchronous and best-effort:
    /// messages to a dead node are silently dropped (the failure detector reports the
    /// death separately). A call is complete on its own — nothing waits for a later
    /// call to flush it.
    fn send(&self, from: NodeId, to: NodeId, msg: Message);

    /// Deliver everything `from` sent while handling one event, in emission order,
    /// leaving `batch` empty. Frames to one peer keep their order; a fabric with a
    /// wire may put them on it in one write. The default sends them one by one.
    fn send_all(&self, from: NodeId, batch: &mut Vec<(NodeId, Message)>) {
        for (to, msg) in batch.drain(..) {
            self.send(from, to, msg);
        }
    }

    /// The failure detector declared `to` dead: tear down any cached transport state
    /// toward it, so the next send reconnects from scratch. Connection-oriented
    /// fabrics must implement this — a write into a socket whose remote process was
    /// SIGKILLed can succeed locally and vanish without an error, so sends after a
    /// restart would keep feeding a dead connection. Queue-based fabrics need nothing.
    fn peer_down(&self, _to: NodeId) {}
}

/// Where a fabric puts the frames addressed to one node. Neither method may block.
pub trait Ingress: Send + Sync + 'static {
    /// Hand over a frame from inside another node's handler: the sink only enqueues
    /// it and wakes the destination's own thread.
    fn post(&self, from: NodeId, msg: Message);

    /// Hand over a frame on a thread that is free to run the node (a connection's
    /// reader thread): the sink may execute the node's handlers before returning.
    /// A sink with nothing to run just posts, the default.
    fn deliver(&self, from: NodeId, msg: Message) {
        self.post(from, msg)
    }
}

/// A node's sink as a fabric holds it.
pub type IngressSink = Arc<dyn Ingress>;

/// The queue adapter behind [`Fabric::take_receiver`]. A disconnected receiver means
/// the destination was shut down; the frame is dropped.
impl Ingress for Sender<(NodeId, Message)> {
    fn post(&self, from: NodeId, msg: Message) {
        let _ = self.send((from, msg));
    }
}

/// The shared, swappable table of per-node sinks. Senders and reader threads look
/// the sink up per frame (a reader clones it out, so no lock is held while it runs),
/// so swapping a slot (node restart) atomically reroutes every surviving connection
/// to the new incarnation.
pub(crate) type IngressTable = Arc<RwLock<Vec<Option<IngressSink>>>>;

/// A fabric: a per-node ingress sink plus a cloneable sender.
pub trait Fabric {
    /// The sender type handed to node threads.
    type Sender: FabricSender + Clone;

    /// From now on hand every frame addressed to `node` to `sink`, replacing the
    /// sink attached before — the fabric-level half of restarting a node. Frames in
    /// flight to the previous sink go where it puts them (nowhere, for a stopped node).
    fn attach(&mut self, node: NodeId, sink: IngressSink);

    /// Attach a fresh queue as `node`'s sink and return its receiving end.
    fn take_receiver(&mut self, node: NodeId) -> Receiver<(NodeId, Message)> {
        let (tx, rx) = unbounded();
        self.attach(node, Arc::new(tx));
        rx
    }

    /// A sender usable from any node thread.
    fn sender(&self) -> Self::Sender;

    /// Tell the fabric that `node` restarted and now runs at `incarnation`, so any
    /// identity the wire carries (the TCP fabric's `Hello` greeting) advertises the
    /// new incarnation on future connections. Fabrics without wire-level identity
    /// ignore this, the default.
    fn note_restart(&mut self, _node: NodeId, _incarnation: u64) {}

    /// Transport-level counters (`recv_slab_reuse`, `corked_frames_per_write`), folded
    /// into the cluster's [`NodeMetrics`] by the deployment harness. Fabrics without a
    /// wire (channels move `Message`s by ownership — no slabs, no corks) report zeros,
    /// the default.
    fn transport_metrics(&self) -> NodeMetrics {
        NodeMetrics::default()
    }
}

/// In-process fabric with no queue and no thread of its own: a send posts the message
/// into the destination's sink on the sender's thread. The sinks live behind a shared
/// table so one can be swapped on restart while every outstanding
/// [`ChannelFabricSender`] clone keeps working.
pub struct ChannelFabric {
    sinks: IngressTable,
}

/// Sender half of [`ChannelFabric`].
#[derive(Clone)]
pub struct ChannelFabricSender {
    sinks: IngressTable,
}

impl ChannelFabric {
    /// Build a fabric for `n` nodes.
    pub fn new(n: usize) -> Self {
        ChannelFabric { sinks: Arc::new(RwLock::new(vec![None; n])) }
    }
}

impl Fabric for ChannelFabric {
    type Sender = ChannelFabricSender;

    fn attach(&mut self, node: NodeId, sink: IngressSink) {
        self.sinks.write()[node.index()] = Some(sink);
    }

    fn sender(&self) -> ChannelFabricSender {
        ChannelFabricSender { sinks: self.sinks.clone() }
    }
}

impl FabricSender for ChannelFabricSender {
    fn send(&self, from: NodeId, to: NodeId, msg: Message) {
        // `post` only enqueues, so it can run under the table's read lock.
        if let Some(Some(sink)) = self.sinks.read().get(to.index()) {
            sink.post(from, msg);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn channel_fabric_routes_by_destination() {
        let mut fabric = ChannelFabric::new(3);
        let rx1 = fabric.take_receiver(NodeId(1));
        let rx2 = fabric.take_receiver(NodeId(2));
        let sender = fabric.sender();
        sender.send(NodeId(0), NodeId(1), Message::DirDelete { object: ObjectId::from_name("a") });
        sender.send(NodeId(0), NodeId(2), Message::DirDelete { object: ObjectId::from_name("b") });
        let (from, msg) = rx1.recv().unwrap();
        assert_eq!(from, NodeId(0));
        assert!(matches!(msg, Message::DirDelete { .. }));
        assert!(rx2.recv().is_ok());
        assert!(rx1.try_recv().is_err());
    }

    #[test]
    fn sends_to_dropped_receivers_do_not_panic() {
        let mut fabric = ChannelFabric::new(2);
        drop(fabric.take_receiver(NodeId(1)));
        let sender = fabric.sender();
        sender.send(NodeId(0), NodeId(1), Message::DirDelete { object: ObjectId::from_name("x") });
    }

    #[test]
    fn a_send_only_posts_and_a_new_sink_replaces_the_old() {
        // `send` runs on the sender's thread, usually inside a node's handler, so it
        // must never take the `deliver` door (which may run the destination's
        // handlers on the calling thread). Attaching again swaps the sink.
        #[derive(Default)]
        struct Doors {
            delivered: AtomicUsize,
            posted: AtomicUsize,
        }
        impl Ingress for Doors {
            fn deliver(&self, _: NodeId, _: Message) {
                self.delivered.fetch_add(1, Ordering::SeqCst);
            }
            fn post(&self, _: NodeId, _: Message) {
                self.posted.fetch_add(1, Ordering::SeqCst);
            }
        }
        let counts =
            |d: &Doors| (d.delivered.load(Ordering::SeqCst), d.posted.load(Ordering::SeqCst));
        let mut fabric = ChannelFabric::new(2);
        let sender = fabric.sender();
        let msg = || Message::DirDelete { object: ObjectId::from_name("door") };
        sender.send(NodeId(0), NodeId(1), msg()); // no sink yet: dropped
        let (first, second) = (Arc::new(Doors::default()), Arc::new(Doors::default()));
        fabric.attach(NodeId(1), first.clone());
        sender.send(NodeId(0), NodeId(1), msg());
        sender.send(NodeId(1), NodeId(1), msg());
        fabric.attach(NodeId(1), second.clone());
        sender.send(NodeId(0), NodeId(1), msg());
        assert_eq!(counts(&first), (0, 2));
        assert_eq!(counts(&second), (0, 1));
    }

    #[test]
    fn segmented_payloads_pass_through_untouched() {
        // A forwarded block read out of a ProgressBuffer can span receive segments;
        // the channels fabric must deliver the segment vector as-is — same shared
        // buffers, no coalesce, no copy.
        use bytes::Bytes;
        let first = Bytes::from(vec![1u8; 8]);
        let second = Bytes::from(vec![2u8; 8]);
        let payload = Payload::from_segments(vec![first.clone(), second.clone()]);
        let mut fabric = ChannelFabric::new(2);
        let rx = fabric.take_receiver(NodeId(1));
        hoplite_core::copytrace::reset();
        fabric.sender().send(
            NodeId(0),
            NodeId(1),
            Message::PushBlock {
                object: ObjectId::from_name("seg"),
                offset: 0,
                total_size: 16,
                payload,
                complete: true,
            },
        );
        let (_, msg) = rx.recv().unwrap();
        let Message::PushBlock { payload, .. } = msg else { panic!("wrong variant") };
        let ptrs: Vec<_> = payload.segments().map(|s| s.as_slice().as_ptr()).collect();
        assert_eq!(ptrs, vec![first.as_slice().as_ptr(), second.as_slice().as_ptr()]);
        assert_eq!(hoplite_core::copytrace::bytes_copied(), 0);
    }

    #[test]
    fn fifo_per_sender_is_preserved() {
        let mut fabric = ChannelFabric::new(2);
        let rx = fabric.take_receiver(NodeId(1));
        let sender = fabric.sender();
        for i in 0..100u64 {
            sender.send(
                NodeId(0),
                NodeId(1),
                Message::PushBlock {
                    object: ObjectId::from_name("o"),
                    offset: i,
                    total_size: 100,
                    payload: Payload::synthetic(1),
                    complete: false,
                },
            );
        }
        let mut last = None;
        for _ in 0..100 {
            if let (_, Message::PushBlock { offset, .. }) = rx.recv().unwrap() {
                if let Some(prev) = last {
                    assert!(offset > prev);
                }
                last = Some(offset);
            }
        }
    }
}
