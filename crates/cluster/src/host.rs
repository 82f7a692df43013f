//! One hosted Hoplite node — in a [`crate::local::LocalCluster`] or as the single node
//! of a `hoplited` daemon: a mailbox, a lock around the node, and who runs it.
//!
//! A node ([`NodeRuntime`]) must see one event at a time. Whoever has an event puts
//! it in the mailbox and, if the node is free (`try_lock`), runs the mailbox on the
//! spot instead of waking a thread to do it. A thread that finds the node busy leaves
//! its event behind; the holder re-checks the mailbox after unlocking, so nothing is
//! stranded. Who runs how far:
//!
//! * a TCP reader thread with a decoded frame ([`Ingress::deliver`]) drains it all;
//! * a client thread in `put`/`get`/`reduce`/`delete`, or a control thread with a
//!   status query or a verdict, runs no further than its own event and leaves the
//!   rest to the node thread, so a caller cannot be captured by a busy node;
//! * a send issued inside another node's handler ([`Ingress::post`]: the channels
//!   fabric) only enqueues and wakes the node thread. A handler never runs another
//!   node, so there is no nesting and no lock order;
//! * the node thread (`hoplite-node-{id}`) does what nobody else did: it sleeps until
//!   the earliest timer is due or it is woken, then runs what it finds.
//!
//! What a handler sends collects in the node's outbox and goes to the fabric in one
//! [`FabricSender::send_all`] when the handler returns, still under the node's lock:
//! the fabric sees one event's burst whole, and over TCP the thread that produced a
//! small frame is the thread that writes it.
//!
//! One remote inline `Get`, counted in sleeping threads woken (`→`):
//!
//! ```text
//! client runs the Get and writes the query → reader answers it and writes the reply → reader completes it → client  (3)
//! ```

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, TryLockError};
use std::thread::{self, JoinHandle};
use std::time::{Duration as StdDuration, Instant};

use crossbeam_channel::{unbounded, Receiver, Sender};
use hoplite_core::prelude::*;
use hoplite_transport::fabric::{FabricSender, Ingress, IngressSink};

use crate::driver::{DriverPort, NodeEvent, NodeRuntime};

/// Everything a node's mailbox can carry. `Node` is what the runtime takes as is: a
/// frame (a verdict among them), a fired timer, the start-up events.
enum LoopEvent {
    Node(NodeEvent),
    Client { op_id: OpId, op: ClientOp, reply: Sender<ClientReply> },
    Status { reply: Sender<NodeStatus> },
}

/// A point-in-time snapshot of a hosted node, answered between two of its events.
#[derive(Clone, Debug)]
pub struct NodeStatus {
    /// The node's id.
    pub node: NodeId,
    /// The incarnation this process runs at (0 for a cold boot, bumped per restart).
    pub incarnation: u64,
    /// `true` while any directory shard replica on this node is still resyncing.
    pub resyncing: bool,
    /// Directory intents this node journaled that are not yet confirmed replicated:
    /// 0 once every write it issued is durable on its shard's backups.
    pub unconfirmed: usize,
    /// What this node believes of every node, by id, itself included: the incarnation
    /// it holds, alive / suspect / dead, and whether that incarnation is readmitted (a
    /// primary candidate once alive; an alive one not readmitted is resyncing).
    pub peers: Vec<(u64, GossipState, bool)>,
    /// The primary this node believes each directory shard has, by shard (`None`
    /// while every replica is dead or resyncing). Nodes that disagree here route one
    /// shard's ops to two primaries.
    pub primaries: Vec<Option<NodeId>>,
    /// The node's counters.
    pub metrics: NodeMetrics,
}

/// Blocking client bound to one hosted node.
#[derive(Clone)]
pub struct HopliteClient {
    host: Arc<Shared>,
    next_op: Arc<AtomicU64>,
}

impl HopliteClient {
    /// The node this client talks to.
    pub fn node(&self) -> NodeId {
        self.host.id
    }

    fn submit(&self, op: ClientOp) -> Receiver<ClientReply> {
        let (tx, rx) = unbounded();
        let op_id = OpId(self.next_op.fetch_add(1, Ordering::Relaxed));
        // A stopped node drops the event; `wait` reports the disconnected receiver.
        self.host.call(LoopEvent::Client { op_id, op, reply: tx });
        rx
    }

    fn wait<F: Fn(&ClientReply) -> bool>(
        rx: Receiver<ClientReply>,
        accept: F,
    ) -> Result<ClientReply> {
        loop {
            match rx.recv() {
                Ok(ClientReply::Error { error }) => return Err(error),
                Ok(reply) if accept(&reply) => return Ok(reply),
                Ok(_) => continue,
                Err(_) => {
                    return Err(HopliteError::Transport("node shut down".to_string()));
                }
            }
        }
    }

    /// Store an object (Table 1 `Put`): blocks until the local store holds it.
    pub fn put(&self, object: ObjectId, payload: Payload) -> Result<()> {
        Self::wait(self.submit(ClientOp::Put { object, payload }), |r| {
            matches!(r, ClientReply::PutDone { .. })
        })
        .map(|_| ())
    }

    /// Fetch an object (Table 1 `Get`): blocks until a complete copy is local, or, for
    /// an object at or below the inline threshold, until the directory's reply carries
    /// it. An inline object is handed to the caller and not kept in the local store,
    /// so every such Get asks the directory again (§3.2). An object larger than one
    /// block comes back as [`Payload::Segments`] — the blocks as received, not copied;
    /// [`Payload::to_owned_vec`] makes one flat buffer.
    pub fn get(&self, object: ObjectId) -> Result<Payload> {
        match Self::wait(self.submit(ClientOp::Get { object }), |r| {
            matches!(r, ClientReply::GetDone { .. })
        })? {
            ClientReply::GetDone { payload, .. } => Ok(payload),
            _ => unreachable!("wait() only accepts GetDone"),
        }
    }

    /// Reduce `num_objects` of `sources` into `target` (Table 1 `Reduce`); returns once
    /// the reduce has been accepted. Combine with [`HopliteClient::get`] on the target
    /// to obtain the result (that is also how the paper measures reduce latency).
    pub fn reduce(
        &self,
        target: ObjectId,
        sources: Vec<ObjectId>,
        num_objects: Option<usize>,
        spec: ReduceSpec,
    ) -> Result<()> {
        Self::wait(
            self.submit(ClientOp::Reduce { target, sources, num_objects, spec, degree: None }),
            |r| matches!(r, ClientReply::ReduceAccepted { .. }),
        )
        .map(|_| ())
    }

    /// Delete every copy of an object cluster-wide (Table 1 `Delete`).
    pub fn delete(&self, object: ObjectId) -> Result<()> {
        Self::wait(self.submit(ClientOp::Delete { object }), |r| {
            matches!(r, ClientReply::DeleteDone { .. })
        })
        .map(|_| ())
    }
}

/// One node's mailbox, lock and timer thread, plus the handles to talk to it.
pub struct NodeHost {
    shared: Arc<Shared>,
    next_op: Arc<AtomicU64>,
    handle: Option<JoinHandle<()>>,
}

impl NodeHost {
    /// Host `node`. `recovering` selects whether it starts cold or as a restarted
    /// process that must resync its directory replicas before leading again.
    /// `next_op` is the op-id source shared by every client of this process (clusters
    /// share one across all their hosts). `attach` is handed the node's ingress sink
    /// before the node handles its first event — pass it to
    /// [`Fabric::attach`](hoplite_transport::fabric::Fabric::attach) — so no answer to
    /// what the node says at start-up finds the fabric with nowhere to put it.
    pub fn spawn(
        node: ObjectStoreNode,
        fabric_tx: Box<dyn FabricSender>,
        recovering: bool,
        next_op: Arc<AtomicU64>,
        attach: impl FnOnce(IngressSink),
    ) -> NodeHost {
        let id = node.id();
        // First in every mailbox, ahead of any traffic: a restarted node requests
        // directory snapshots so it can be re-admitted to its replica sets, and cold
        // boot or restart alike arms the self-driven machinery (the SWIM probe timer,
        // when a detector is configured).
        let restarted = recovering.then_some(NodeEvent::Restarted);
        let queue = restarted.into_iter().chain([NodeEvent::Started]).map(LoopEvent::Node);
        let mailbox = Mailbox { queue: queue.collect(), ..Mailbox::default() };
        let node = Node {
            runtime: NodeRuntime::new(node),
            fabric: fabric_tx,
            outbox: Vec::new(),
            pending_replies: HashMap::new(),
            epoch: Instant::now(),
        };
        let shared = Arc::new(Shared {
            id,
            mailbox: Mutex::new(mailbox),
            wake: Condvar::new(),
            node: Mutex::new(Some(node)),
        });
        attach(shared.clone());
        let on_thread = shared.clone();
        let handle = thread::Builder::new()
            .name(format!("hoplite-node-{}", id.0))
            .spawn(move || on_thread.node_thread())
            .expect("spawn node thread");
        NodeHost { shared, next_op, handle: Some(handle) }
    }

    /// The hosted node's id.
    pub fn id(&self) -> NodeId {
        self.shared.id
    }

    /// `true` until the node is shut down.
    pub fn is_running(&self) -> bool {
        self.handle.is_some()
    }

    /// A blocking client bound to this node.
    pub fn client(&self) -> HopliteClient {
        HopliteClient { host: self.shared.clone(), next_op: self.next_op.clone() }
    }

    /// A status snapshot of the node. `None` if the node shut down.
    pub fn status(&self) -> Option<NodeStatus> {
        let (tx, rx) = unbounded();
        self.shared.call(LoopEvent::Status { reply: tx });
        rx.recv().ok()
    }

    /// Inject a protocol message as if it arrived over the fabric from `from`.
    /// Failure verdicts arrive this way, as [`Message::PeerFailureNotice`]s naming
    /// the incarnation that died: the ones `LocalCluster::kill_node` sends and the
    /// ones a control server relays from its supervisor.
    pub fn inject_message(&self, from: NodeId, msg: Message) {
        self.shared.call(LoopEvent::Node(NodeEvent::Message { from, msg }));
    }

    /// Stop the node: its runtime (store, slab pool, pending replies) is dropped
    /// before this returns, and whatever a leaked reader thread or an old client
    /// delivers afterwards is dropped on arrival. Idempotent.
    pub fn shutdown(&mut self) {
        self.shared.stop();
        // Waits for at most the one handler in flight: a stopped mailbox is empty.
        drop(self.shared.node.lock().map(|mut node| node.take()));
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for NodeHost {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// What is waiting for the node: events in arrival order, and its armed timers.
#[derive(Default)]
struct Mailbox {
    queue: VecDeque<LoopEvent>,
    /// How many events have been taken out: the sequence number of `queue[0]`.
    head: u64,
    timers: BinaryHeap<Reverse<(Instant, TimerToken)>>,
    stopped: bool,
}

/// What a [`NodeHost`], its clients, its node thread and the fabric's sink share.
struct Shared {
    id: NodeId,
    mailbox: Mutex<Mailbox>,
    /// Wakes the node thread; paired with `mailbox`.
    wake: Condvar,
    /// `None` once shut down. Held only while a handler runs and hands over its sends,
    /// and neither waits on anything but the fabric's bound: one send timeout per
    /// peer the event sent to (see [`FabricSender`]).
    node: Mutex<Option<Node>>,
}

impl Shared {
    fn mailbox(&self) -> MutexGuard<'_, Mailbox> {
        // No code panics while holding the mailbox, and every update leaves it valid.
        self.mailbox.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Stop taking events: drop every queued one, closing its caller's reply channel,
    /// and every timer, and wake the node thread so it exits.
    fn stop(&self) {
        *self.mailbox() = Mailbox { stopped: true, ..Mailbox::default() };
        self.wake.notify_one();
    }

    /// Append `event`; its sequence number, or `None` (event dropped) once stopped.
    fn enqueue(&self, event: LoopEvent) -> Option<u64> {
        let mut mailbox = self.mailbox();
        if mailbox.stopped {
            return None;
        }
        mailbox.queue.push_back(event);
        Some(mailbox.head + mailbox.queue.len() as u64 - 1)
    }

    /// What the node handles next: a due timer first, else the oldest event unless
    /// it was enqueued after number `upto`.
    fn pop(&self, upto: u64) -> Option<LoopEvent> {
        let mut mailbox = self.mailbox();
        if let Some(&Reverse((deadline, token))) = mailbox.timers.peek() {
            if deadline <= Instant::now() {
                mailbox.timers.pop();
                return Some(LoopEvent::Node(NodeEvent::Timer(token)));
            }
        }
        if mailbox.head > upto {
            return None;
        }
        let event = mailbox.queue.pop_front()?;
        mailbox.head += 1;
        Some(event)
    }

    /// Enqueue `event` from a client or control thread and run the node here if it is
    /// free, but no further than this event.
    fn call(&self, event: LoopEvent) {
        if let Some(seq) = self.enqueue(event) {
            self.drain(seq);
        }
    }

    /// Run the mailbox on this thread, up to event number `upto`, if the node is free.
    /// If it is not, whoever holds it re-checks the mailbox after unlocking — as this
    /// does — so an event left behind by a thread that lost the `try_lock` is never
    /// stranded. A node whose handler panicked has stopped: there is nothing to run.
    fn drain(&self, upto: u64) {
        loop {
            let mut guard = match self.node.try_lock() {
                Ok(guard) => guard,
                Err(TryLockError::WouldBlock | TryLockError::Poisoned(_)) => return,
            };
            let Some(node) = guard.as_mut() else { return };
            while let Some(event) = self.pop(upto) {
                node.run(self, event);
            }
            drop(guard);
            let mailbox = self.mailbox();
            if mailbox.queue.is_empty() {
                return;
            }
            if mailbox.head > upto {
                drop(mailbox);
                // Not this caller's to run: hand the backlog to the node thread.
                return self.wake.notify_one();
            }
        }
    }

    /// The node's own thread: run what nobody else did, sleep until the earliest
    /// timer is due or someone wakes it, repeat until shut down.
    fn node_thread(&self) {
        const IDLE_SLICE: StdDuration = StdDuration::from_secs(3600); // no timer armed
        loop {
            {
                let Ok(mut guard) = self.node.lock() else { return };
                let Some(node) = guard.as_mut() else { return };
                while let Some(event) = self.pop(u64::MAX) {
                    node.run(self, event);
                }
            }
            let mut mailbox = self.mailbox();
            while mailbox.queue.is_empty() && !mailbox.stopped {
                let left = mailbox.timers.peek().map_or(IDLE_SLICE, |&Reverse((deadline, _))| {
                    deadline.saturating_duration_since(Instant::now())
                });
                if left.is_zero() {
                    break;
                }
                mailbox =
                    self.wake.wait_timeout(mailbox, left).unwrap_or_else(|e| e.into_inner()).0;
            }
            if mailbox.stopped {
                return;
            }
        }
    }
}

impl Ingress for Shared {
    fn post(&self, from: NodeId, msg: Message) {
        self.enqueue(LoopEvent::Node(NodeEvent::Message { from, msg }));
        self.wake.notify_one();
    }

    fn deliver(&self, from: NodeId, msg: Message) {
        self.enqueue(LoopEvent::Node(NodeEvent::Message { from, msg }));
        self.drain(u64::MAX);
    }
}

/// The node and what its handlers answer through, behind [`Shared::node`].
struct Node {
    runtime: NodeRuntime,
    fabric: Box<dyn FabricSender>,
    /// What the event being handled has sent so far; empty between events.
    outbox: Vec<(NodeId, Message)>,
    pending_replies: HashMap<OpId, Sender<ClientReply>>,
    epoch: Instant,
}

impl Node {
    /// Handle one thing out of `host`'s mailbox. A handler that panics leaves the node
    /// in no state to run again: the host stops, and every caller waiting on it — an
    /// event still queued, or an op the node holds — gets its reply channel closed
    /// instead of waiting forever. The panic then goes on up and poisons the lock.
    fn run(&mut self, host: &Shared, event: LoopEvent) {
        if let Err(panic) = panic::catch_unwind(AssertUnwindSafe(|| self.handle(host, event))) {
            host.stop();
            self.pending_replies.clear();
            panic::resume_unwind(panic);
        }
    }

    fn handle(&mut self, host: &Shared, event: LoopEvent) {
        let event = match event {
            LoopEvent::Node(event) => event,
            LoopEvent::Client { op_id, op, reply } => {
                self.pending_replies.insert(op_id, reply);
                NodeEvent::Client { op: op_id, request: op }
            }
            LoopEvent::Status { reply } => {
                let node = self.runtime.node();
                let _ = reply.send(NodeStatus {
                    node: node.id(),
                    incarnation: node.incarnation(),
                    resyncing: node.directory_is_resyncing(),
                    unconfirmed: node.directory_unconfirmed_count(),
                    peers: node.membership().entries().map(|(_, i, s, r)| (i, s, r)).collect(),
                    primaries: node.directory_primaries(),
                    metrics: node.metrics().clone(),
                });
                return;
            }
        };
        let now = Time(self.epoch.elapsed().as_nanos() as u64);
        let mut port = RealPort {
            host,
            fabric: &*self.fabric,
            outbox: &mut self.outbox,
            pending_replies: &mut self.pending_replies,
        };
        self.runtime.handle(now, event, &mut port);
        // The event's sends leave together, so the fabric sees which frames belong to
        // one burst and can put those for one peer on the wire in one write.
        if !self.outbox.is_empty() {
            self.fabric.send_all(host.id, &mut self.outbox);
        }
    }
}

/// [`DriverPort`] over a real fabric: messages collect in the node's outbox and go out
/// through the fabric sender when the handler returns, replies go to the per-op
/// channels, and timers into the host's mailbox.
struct RealPort<'a> {
    host: &'a Shared,
    fabric: &'a dyn FabricSender,
    outbox: &'a mut Vec<(NodeId, Message)>,
    pending_replies: &'a mut HashMap<OpId, Sender<ClientReply>>,
}

impl DriverPort for RealPort<'_> {
    fn send(&mut self, to: NodeId, msg: Message) {
        self.outbox.push((to, msg));
    }

    fn reply(&mut self, op: OpId, reply: ClientReply) {
        // `ReduceAccepted` is the only non-terminal reply (`ReduceComplete` follows);
        // everything else finishes the op, so its sender can be dropped to keep the
        // map from growing with every operation ever submitted.
        let terminal = !matches!(reply, ClientReply::ReduceAccepted { .. });
        if terminal {
            if let Some(tx) = self.pending_replies.remove(&op) {
                let _ = tx.send(reply);
            }
        } else if let Some(tx) = self.pending_replies.get(&op) {
            let _ = tx.send(reply);
        }
    }

    fn set_timer(&mut self, token: TimerToken, delay: Duration) {
        let deadline = Instant::now() + delay.to_std();
        let mut mailbox = self.host.mailbox();
        let earliest = mailbox.timers.peek().is_none_or(|&Reverse((first, _))| deadline < first);
        mailbox.timers.push(Reverse((deadline, token)));
        drop(mailbox);
        if earliest {
            // The node thread sleeps on a later deadline (or none): re-arm it. A no-op
            // when this handler runs on the node thread itself.
            self.host.wake.notify_one();
        }
    }

    fn peer_down(&mut self, node: NodeId) {
        // The node accepted `node`'s death — whatever carried it: a supervisor verdict
        // or notice, the detector, gossip, a digest — so tear down cached connections
        // toward it (writes into a SIGKILLed process's socket can succeed silently, so
        // the transport cannot detect this on its own). A stale notice about an
        // incarnation that already restarted never gets here.
        self.fabric.peer_down(node);
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// A fabric sender that records what the node sends and on which thread, and can
    /// park the handler that sends about `gate` until the test lets it go.
    #[derive(Clone)]
    struct Recorder {
        sent: Arc<Mutex<Vec<(NodeId, Message, String)>>>,
        /// Every peer the node had its transport tear down, in order.
        downs: Arc<Mutex<Vec<NodeId>>>,
        gate: ObjectId,
        entered: Sender<()>,
        release: Receiver<()>,
    }

    impl FabricSender for Recorder {
        fn send(&self, _from: NodeId, to: NodeId, msg: Message) {
            let gated = matches!(&msg, Message::PullError { object, .. } if *object == self.gate);
            let thread = thread::current().name().unwrap_or("").to_string();
            self.sent.lock().unwrap().push((to, msg, thread));
            if gated {
                self.entered.send(()).unwrap();
                self.release.recv().unwrap();
            }
        }

        fn peer_down(&self, to: NodeId) {
            self.downs.lock().unwrap().push(to);
        }
    }

    struct Rig {
        host: NodeHost,
        sent: Arc<Mutex<Vec<(NodeId, Message, String)>>>,
        downs: Arc<Mutex<Vec<NodeId>>>,
        entered: Receiver<()>,
        release: Sender<()>,
    }

    /// Node 0 of an `n`-node cluster, hosted over a [`Recorder`] and idle: its
    /// start-up events are handled and its own thread is (about to be) asleep.
    fn rig(n: usize, cfg: HopliteConfig, pipelined_put: bool) -> Rig {
        let (entered_tx, entered) = unbounded();
        let (release, release_rx) = unbounded();
        let sent = Arc::new(Mutex::new(Vec::new()));
        let downs = Arc::new(Mutex::new(Vec::new()));
        let recorder = Recorder {
            sent: sent.clone(),
            downs: downs.clone(),
            gate: ObjectId::from_name("gate"),
            entered: entered_tx,
            release: release_rx,
        };
        let opts = NodeOptions { synthetic_data: false, pipelined_put, incarnation: 0 };
        let node = ObjectStoreNode::new(NodeId(0), cfg, ClusterView::of_size(n), opts);
        let next_op = Arc::new(AtomicU64::new(1));
        let host = NodeHost::spawn(node, Box::new(recorder), false, next_op, |_| {});
        // Only the node thread runs a posted frame: once it has, and has let go of
        // the node, it has noted that no timer is armed and sleeps on no deadline.
        let (from, msg) = pull(1, ObjectId::from_name("warm-up"));
        host.shared.post(from, msg);
        wait_until("the node thread to run the warm-up", || sent.lock().unwrap().len() == 1);
        drop(host.shared.node.lock().unwrap());
        assert_eq!(sent.lock().unwrap().pop().unwrap().2, "hoplite-node-0");
        Rig { host, sent, downs, entered, release }
    }

    /// Poll `ready` until it holds, for at most ten seconds.
    pub(crate) fn wait_until(what: &str, mut ready: impl FnMut() -> bool) {
        let deadline = Instant::now() + StdDuration::from_secs(10);
        while !ready() {
            assert!(Instant::now() < deadline, "timed out waiting for {what}");
            thread::sleep(StdDuration::from_millis(1));
        }
    }

    /// A frame the node answers with exactly one `PullError` about `object` to
    /// `from`: it holds no objects.
    fn pull(from: u32, object: ObjectId) -> (NodeId, Message) {
        (NodeId(from), Message::PullRequest { object, requester: NodeId(from), offset: 0 })
    }

    #[test]
    fn a_peer_is_torn_down_once_per_accepted_death_and_never_for_a_stale_notice() {
        let rig = rig(2, HopliteConfig::small_for_tests(), false);
        let peer = NodeId(1);
        // The peer reconnects as incarnation 1: the crash of incarnation 0 it implies
        // is the node's own verdict, with its own teardown.
        rig.host.inject_message(peer, Message::Hello { node: peer, incarnation: 1 });
        rig.host.status().expect("node is up");
        let downs = || rig.downs.lock().unwrap().len();
        let before = downs();
        // A late notice about incarnation 0 must not tear down the live edges to 1.
        let stale = Message::PeerFailureNotice { node: peer, incarnation: 0 };
        rig.host.inject_message(NodeId(0), stale);
        rig.host.status().expect("node is up");
        assert_eq!(downs() - before, 0, "a stale notice tore down a restarted peer's edges");
        // A fresh notice is one accepted death: one teardown.
        let fresh = Message::PeerFailureNotice { node: peer, incarnation: 1 };
        rig.host.inject_message(NodeId(0), fresh);
        rig.host.status().expect("node is up");
        assert_eq!(downs() - before, 1, "one teardown per accepted death");
        assert_eq!(rig.downs.lock().unwrap().last(), Some(&peer));
    }

    #[test]
    fn concurrent_deliveries_are_handled_exactly_once_in_per_sender_order() {
        const THREADS: u32 = 8;
        const EVENTS: usize = 2000;
        let rig = rig(THREADS as usize + 1, HopliteConfig::small_for_tests(), false);
        let name = |t: u32, i: usize| ObjectId::from_name(&format!("fifo-{t}-{i}"));
        thread::scope(|s| {
            for t in 1..=THREADS {
                let shared = &rig.host.shared;
                s.spawn(move || {
                    for i in 0..EVENTS {
                        let (from, msg) = pull(t, name(t, i));
                        shared.deliver(from, msg);
                    }
                });
            }
        });
        // The mailbox is FIFO, so the status reply follows every delivery above.
        rig.host.status().expect("node is up");
        let sent = rig.sent.lock().unwrap();
        assert_eq!(sent.len(), THREADS as usize * EVENTS, "each event handled exactly once");
        let mut next = vec![0usize; THREADS as usize + 1];
        for (to, msg, _) in sent.iter() {
            let Message::PullError { object, .. } = msg else { panic!("unexpected {msg:?}") };
            let i = &mut next[to.index()];
            assert_eq!(*object, name(to.0, *i), "sender {} out of order at {i}", to.0);
            *i += 1;
        }
    }

    /// Park `first` (a thread named `name`) inside the handler of its own event,
    /// enqueue three more events behind it from this thread — which finds the node
    /// busy and must not wait — then let go; the names of the threads that handled
    /// the three.
    fn handlers_of_late_events(rig: &Rig, name: &str, first: impl FnOnce() + Send) -> Vec<String> {
        thread::scope(|s| {
            thread::Builder::new().name(name.to_string()).spawn_scoped(s, first).unwrap();
            rig.entered.recv_timeout(StdDuration::from_secs(10)).expect("handler entered");
            for i in 0..3 {
                let (from, msg) = pull(1, ObjectId::from_name(&format!("late-{i}")));
                rig.host.inject_message(from, msg);
            }
            rig.release.send(()).unwrap();
        });
        rig.host.status().expect("node is up");
        let sent = rig.sent.lock().unwrap();
        assert_eq!(sent.len(), 4, "the gate event and the three late ones");
        assert_eq!(sent[0].2, name, "the first event ran on the thread that brought it");
        sent[1..].iter().map(|(_, _, thread)| thread.clone()).collect()
    }

    #[test]
    fn a_caller_runs_no_further_than_its_own_event() {
        // The captured-caller rule: events that arrive while a client or control
        // thread runs its own event are left to the node thread (or to a later
        // caller whose own event is behind them), never run by that thread.
        let rig = rig(2, HopliteConfig::small_for_tests(), false);
        let (from, gate) = pull(1, ObjectId::from_name("gate"));
        let late = handlers_of_late_events(&rig, "caller", || rig.host.inject_message(from, gate));
        assert!(late.iter().all(|thread| thread != "caller"), "caller was captured: {late:?}");
    }

    #[test]
    fn a_reader_runs_what_arrived_while_it_held_the_node() {
        // The other half of the hand-off: a thread that found the node busy leaves
        // its event behind, and the holder — a reader thread drains without bound —
        // picks it up after unlocking, so nothing is stranded.
        let rig = rig(2, HopliteConfig::small_for_tests(), false);
        let (from, gate) = pull(1, ObjectId::from_name("gate"));
        let late = handlers_of_late_events(&rig, "reader", || rig.host.shared.deliver(from, gate));
        assert_eq!(late, ["reader"; 3]);
    }

    #[test]
    fn a_posted_frame_runs_on_the_node_thread() {
        // `post` is the door for sends issued inside another node's handler: the
        // calling thread only enqueues, the node's own thread does the work.
        let rig = rig(2, HopliteConfig::small_for_tests(), false);
        let (from, msg) = pull(1, ObjectId::from_name("posted"));
        rig.host.shared.post(from, msg);
        wait_until("the posted frame to be handled", || rig.sent.lock().unwrap().len() == 1);
        assert_eq!(rig.sent.lock().unwrap()[0].2, "hoplite-node-0");
    }

    #[test]
    fn a_timer_armed_on_a_caller_thread_wakes_the_sleeping_node_thread() {
        // A pipelined put arms one copy-step timer per block. The first is armed by
        // the handler running on this thread while the node thread sleeps with no
        // deadline at all, so the put can only finish — and on time — if arming a
        // timer re-arms that thread.
        const STEP: StdDuration = StdDuration::from_millis(50);
        let mut cfg = HopliteConfig::small_for_tests();
        cfg.memcpy_bandwidth = cfg.block_size as f64 / STEP.as_secs_f64();
        let rig = rig(2, cfg.clone(), true);
        let object = (0u64..)
            .map(|k| ObjectId::from_name(&format!("timed-{k}")))
            .find(|&o| ClusterView::of_size(2).shard_node(o) == NodeId(1))
            .unwrap();
        let started = Instant::now();
        rig.host.client().put(object, Payload::zeros(2 * cfg.block_size as usize)).unwrap();
        let took = started.elapsed();
        assert!(2 * STEP <= took && took < 4 * STEP, "two {STEP:?} copy steps took {took:?}");
        let sent = rig.sent.lock().unwrap();
        let me = thread::current().name().unwrap_or("").to_string();
        assert_eq!(sent[0].2, me, "the put's handler ran on the calling thread");
    }

    #[test]
    fn one_events_sends_reach_the_fabric_as_one_batch_after_the_handler() {
        // A fabric that takes batches whole: what it was handed, on which thread, and
        // whether the event's client reply was already out (the handler had returned).
        type Batch = (Vec<(NodeId, Message)>, String, bool);
        struct Batches {
            batches: Arc<Mutex<Vec<Batch>>>,
            reply: Receiver<ClientReply>,
        }
        impl FabricSender for Batches {
            fn send(&self, _: NodeId, _: NodeId, msg: Message) {
                panic!("a hosted node sends by the batch, not {msg:?} alone");
            }
            fn send_all(&self, _from: NodeId, batch: &mut Vec<(NodeId, Message)>) {
                let thread = thread::current().name().unwrap_or("").to_string();
                let replied = self.reply.try_recv().is_ok();
                self.batches.lock().unwrap().push((std::mem::take(batch), thread, replied));
            }
        }
        // A reduce subscribes to each source at its directory shard: with three
        // sources homed on node 1 and one on node 2, accepting it emits three frames
        // to one peer and one to another, interleaved in source order.
        let view = ClusterView::of_size(3);
        let homed = |node: u32| {
            let view = &view;
            (0u64..)
                .map(move |k| ObjectId::from_name(&format!("batch-{node}-{k}")))
                .filter(move |&o| view.shard_node(o) == NodeId(node))
        };
        let (mut on_1, mut on_2) = (homed(1), homed(2));
        let sources: Vec<ObjectId> = vec![
            on_1.next().unwrap(),
            on_2.next().unwrap(),
            on_1.next().unwrap(),
            on_1.next().unwrap(),
        ];
        let (reply, replies) = unbounded();
        let batches = Arc::new(Mutex::new(Vec::new()));
        let fabric = Batches { batches: batches.clone(), reply: replies };
        let opts = NodeOptions { synthetic_data: false, pipelined_put: false, incarnation: 0 };
        let node = ObjectStoreNode::new(NodeId(0), HopliteConfig::small_for_tests(), view, opts);
        let next_op = Arc::new(AtomicU64::new(1));
        let host = NodeHost::spawn(node, Box::new(fabric), false, next_op, |_| {});
        // As in `rig`: once the node thread has run a posted frame and let go of the
        // node it is asleep, and the next caller finds the node free.
        let (from, msg) = pull(1, ObjectId::from_name("warm-up"));
        host.shared.post(from, msg);
        wait_until("the node thread to run the warm-up", || batches.lock().unwrap().len() == 1);
        drop(host.shared.node.lock().unwrap());

        let op = ClientOp::Reduce {
            target: ObjectId::from_name("batch-sum"),
            sources: sources.clone(),
            num_objects: None,
            spec: ReduceSpec::sum_f32(),
            degree: None,
        };
        thread::scope(|s| {
            let call = || host.shared.call(LoopEvent::Client { op_id: OpId(1), op, reply });
            thread::Builder::new().name("caller".to_string()).spawn_scoped(s, call).unwrap();
        });
        let batches = batches.lock().unwrap();
        let [_warm_up, (batch, thread, replied)] = batches.as_slice() else {
            panic!("one event, one batch: got {}", batches.len() - 1);
        };
        assert_eq!(thread, "caller", "the thread that ran the handler hands over its sends");
        assert!(replied, "the batch leaves after the handler returned");
        let emitted: Vec<(NodeId, ObjectId)> = batch
            .iter()
            .map(|(to, msg)| match msg {
                Message::DirSubscribe { object, .. } => (*to, *object),
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        let expected: Vec<(NodeId, ObjectId)> =
            [1, 2, 1, 1].map(NodeId).into_iter().zip(sources).collect();
        assert_eq!(emitted, expected, "emission order");
    }

    #[test]
    fn a_stopped_node_answers_none_and_errors_without_hanging() {
        let mut rig = rig(2, HopliteConfig::small_for_tests(), false);
        let client = rig.host.client();
        rig.host.shutdown();
        assert!(!rig.host.is_running());
        assert!(rig.host.status().is_none());
        let (from, msg) = pull(1, ObjectId::from_name("after"));
        rig.host.shared.deliver(from, msg);
        assert!(rig.sent.lock().unwrap().is_empty(), "a delivery after shutdown is a no-op");
        match client.put(ObjectId::from_name("x"), Payload::zeros(10)) {
            Err(HopliteError::Transport(why)) => assert_eq!(why, "node shut down"),
            other => panic!("expected a transport error, got {other:?}"),
        }
    }

    /// A handler that panics while a caller waits behind it: the fabric sender parks
    /// in `send`, a `get` from another thread queues behind the busy node, and then
    /// the send panics. The node stops, so the queued `get` fails instead of waiting
    /// for a reply nobody will produce, and later callers fail at once.
    #[test]
    fn a_caller_queued_behind_a_panicking_handler_gets_an_error() {
        struct Panicking {
            entered: Sender<()>,
            release: Receiver<()>,
        }
        impl FabricSender for Panicking {
            fn send(&self, _: NodeId, _: NodeId, _: Message) {
                self.entered.send(()).unwrap();
                self.release.recv().unwrap();
                panic!("the fabric sender panics");
            }
        }

        let (entered_tx, entered) = unbounded();
        let (release, release_rx) = unbounded();
        let sender = Box::new(Panicking { entered: entered_tx, release: release_rx });
        let node = ObjectStoreNode::new(
            NodeId(0),
            HopliteConfig::small_for_tests(),
            ClusterView::of_size(2),
            NodeOptions::default(),
        );
        let host = NodeHost::spawn(node, sender, false, Arc::new(AtomicU64::new(1)), |_| {});
        let shared = host.shared.clone();
        let handler = thread::spawn(move || {
            let (from, msg) = pull(1, ObjectId::from_name("first"));
            shared.deliver(from, msg);
        });
        entered.recv_timeout(StdDuration::from_secs(10)).expect("the handler sends");
        let (got, result) = unbounded();
        let client = host.client();
        thread::spawn(move || got.send(client.get(ObjectId::from_name("queued"))).unwrap());
        wait_until("the get to queue", || host.shared.mailbox().queue.len() == 1);
        release.send(()).unwrap();
        // The node thread may have run the frame instead; either way its handler panics.
        let _ = handler.join();
        match result.recv_timeout(StdDuration::from_secs(10)) {
            Ok(Err(HopliteError::Transport(why))) => assert_eq!(why, "node shut down"),
            other => panic!("the queued get should fail, got {other:?}"),
        }
        assert!(host.status().is_none(), "a stopped node answers no status");
        assert!(host.client().delete(ObjectId::from_name("later")).is_err());
    }

    /// A frame off the wire can name any node. A raw peer's query that names requester
    /// 99 in a two-node cluster is answered into the void — the transport drops a send
    /// outside its address table — and the node keeps serving. A handler that panics
    /// under the node lock strands every later caller, so the exchange runs on its own
    /// thread under a deadline.
    #[test]
    fn a_query_naming_a_node_outside_the_cluster_leaves_the_node_serving() {
        use hoplite_transport::fabric::Fabric;
        use hoplite_transport::framing::write_frame_vectored;
        use hoplite_transport::tcp::TcpFabric;

        let (done, finished) = unbounded();
        let exchange = thread::spawn(move || {
            let mut fabric = TcpFabric::new(2).unwrap();
            let cluster = ClusterView::of_size(2);
            let cfg = HopliteConfig::small_for_tests();
            let node = ObjectStoreNode::new(NodeId(0), cfg, cluster.clone(), Default::default());
            let (sender, addr) = (Box::new(fabric.sender()), fabric.addresses()[0]);
            let next_op = Arc::new(AtomicU64::new(1));
            let host = NodeHost::spawn(node, sender, false, next_op, |sink| {
                fabric.attach(NodeId(0), sink)
            });
            // An inline object of a shard node 0 leads, so node 0 answers the query.
            let object = (0..)
                .map(|i| ObjectId::from_name(&format!("hostile-{i}")))
                .find(|&o| cluster.shard_node(o) == NodeId(0))
                .unwrap();
            let payload = Payload::from_vec(vec![7; 32]);
            host.client().put(object, payload.clone()).unwrap();
            let mut peer = std::net::TcpStream::connect(addr).unwrap();
            let hello = Message::Hello { node: NodeId(1), incarnation: 0 };
            let query =
                Message::DirQuery { object, requester: NodeId(99), query_id: 1, exclude: vec![] };
            write_frame_vectored(&mut peer, &hello).unwrap();
            write_frame_vectored(&mut peer, &query).unwrap();
            wait_until("the hostile query to be served", || {
                host.status().expect("node is up").metrics.directory_queries_served == 1
            });
            assert_eq!(host.client().get(object).unwrap(), payload);
            done.send(()).unwrap();
        });
        finished.recv_timeout(StdDuration::from_secs(30)).expect("node 0 kept serving");
        exchange.join().expect("the exchange finished");
    }
}
