//! Localhost TCP fabric.
//!
//! Each node listens on an ephemeral `127.0.0.1` port. Senders open one TCP connection
//! per destination edge; the first frame on a connection is a [`Message::Hello`]
//! carrying the sender's node id, after which framed [`Message`]s flow. A reader
//! thread per accepted connection decodes frames and hands each to the destination
//! node's [`Ingress`] sink with [`Ingress::deliver`] — the node's handlers may run on
//! the reader thread itself — preserving per-sender FIFO order exactly like the
//! in-process fabric. A node's listener accepts from the moment its first sink is
//! attached; until then connections wait in the kernel's backlog, so no frame can
//! arrive with nowhere to go.
//!
//! Both directions are **zero-copy** for bulk payloads:
//!
//! * Sends go through the connection's `Edge`: a FIFO of encoded frames, a flag for
//!   who owns the socket, and a writer thread. A send that finds the edge idle with
//!   nothing queued, and whose frames for that peer fit the cork's 64 KiB cap, writes
//!   them itself — one vectored write on the calling thread, so a small request or
//!   reply wakes nobody. Everything else (bulk, anything behind a backlog or a write
//!   in progress) is queued for the writer thread, which writes bulk frames as
//!   scatter-gather iovecs (no staging copy) and corks bursts of small control frames
//!   ([`crate::framing::Cork`]) into single `write_vectored` calls, flushing whenever
//!   the queue drains.
//! * Receives go through a [`crate::framing::FrameReader`]: a block frame is read
//!   into a slab checked out for it alone and decoded in place, so its payload bytes
//!   are written once by the kernel and then adopted as shared views all the way into
//!   the store; everything else, and every wait, stays in the reader's own 64 KiB
//!   home buffer, which is all an idle connection holds. Every reader thread of a
//!   fabric draws from one [`SlabPool`] — the process's, when its builder hands one
//!   over ([`TcpFabric::with_pool`]), which the hosted nodes' reduce engines draw
//!   accumulators from too — so the slabs of a deleted object are what the next object
//!   is read or folded into, whichever peer sends it.
//!
//! Callers are usually inside a node's handler, and a stalled peer must not stall the
//! node that talks to it, so every socket carries a send timeout (`SEND_TIMEOUT`): a
//! caller's write blocks for at most that long, once — what the kernel did not take
//! goes to the front of the edge's queue, and while anything is queued later sends
//! only enqueue. Only the writer thread retries. That also breaks the cycle of two
//! reader threads each writing to a peer whose reader is busy writing back.

use std::collections::{HashMap, VecDeque};
use std::io::{ErrorKind, IoSlice, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, MutexGuard};
use std::thread::{self, JoinHandle};
use std::time::Duration;

use hoplite_core::prelude::*;
use parking_lot::{Mutex, RwLock};

use crate::fabric::{Fabric, FabricSender, IngressSink, IngressTable};
use crate::framing::{
    default_pool, encode_frame_vectored, write_frame_vectored, Cork, EncodedFrame, FrameReader,
    MAX_CORKED_BYTES,
};

/// How long an accepted connection may take to introduce itself before it is dropped.
const HELLO_TIMEOUT: Duration = Duration::from_secs(5);

/// The longest one write into an edge's socket can block (`SO_SNDTIMEO`): what a send
/// costs a handler, once, when the peer has stopped reading. Far above a healthy write
/// of 64 KiB, far below anything a failure detector would notice.
const SEND_TIMEOUT: Duration = Duration::from_millis(5);

/// A TCP-backed fabric for `n` co-hosted (or genuinely remote) nodes.
pub struct TcpFabric {
    addrs: Arc<Vec<SocketAddr>>,
    ingress: IngressTable,
    /// Bound listeners whose accept loop has not started: it starts with the slot's
    /// first [`Fabric::attach`].
    listeners: Vec<Option<TcpListener>>,
    incarnations: Arc<RwLock<Vec<u64>>>,
    /// Where every reader thread's receive slabs come from and go back to, at the
    /// pool's slab length: the process's pool, or one of the fabric's own.
    recv_pool: SlabPool,
    stats: Arc<SendStats>,
}

/// A fabric's send-side counters, shared with every sender it hands out.
#[derive(Default)]
struct SendStats {
    corked_frames: AtomicU64,
    corked_writes: AtomicU64,
    caller_frames: AtomicU64,
    writer_frames: AtomicU64,
}

/// The live edges of one sender and its clones, keyed by `(from, to)`. The last clone
/// to go shuts them, so a stopped node's connections and writer threads go with it.
#[derive(Default)]
struct EdgeMap(Mutex<HashMap<(u32, u32), Arc<Edge>>>);

impl Drop for EdgeMap {
    fn drop(&mut self) {
        self.0.get_mut().values().for_each(|edge| edge.shut());
    }
}

/// Sender half of [`TcpFabric`]: one `Edge` per `(from, to)` pair, dialed on first
/// use.
#[derive(Clone)]
pub struct TcpFabricSender {
    addrs: Arc<Vec<SocketAddr>>,
    edges: Arc<EdgeMap>,
    incarnations: Arc<RwLock<Vec<u64>>>,
    stats: Arc<SendStats>,
}

impl TcpFabric {
    /// Bind `n` listeners on localhost.
    pub fn new(n: usize) -> std::io::Result<Self> {
        let mut addrs = Vec::with_capacity(n);
        let mut listeners = Vec::with_capacity(n);
        for _ in 0..n {
            let listener = TcpListener::bind("127.0.0.1:0")?;
            addrs.push(listener.local_addr()?);
            listeners.push(Some(listener));
        }
        Ok(Self::over(addrs, listeners, vec![0; n]))
    }

    /// Bind only `me`'s listener from a cluster address map — the one-node-per-process
    /// shape `hoplited` runs. `addrs` must list every node's fabric address (fixed
    /// ports agreed out of band); only `addrs[me]` is bound locally, the rest are dialed
    /// on demand. A port still held by a just-killed previous incarnation is retried
    /// for a few seconds before giving up, so a supervisor can restart a daemon
    /// immediately after `kill -9` without racing the kernel's socket teardown.
    pub fn bind_node(me: NodeId, addrs: &[SocketAddr], incarnation: u64) -> std::io::Result<Self> {
        let n = addrs.len();
        let listener = bind_with_retry(addrs[me.index()])?;
        let mut addrs = addrs.to_vec();
        // Resolve a requested port 0 to the port actually bound.
        addrs[me.index()] = listener.local_addr()?;
        let mut listeners: Vec<Option<TcpListener>> = (0..n).map(|_| None).collect();
        listeners[me.index()] = Some(listener);
        let mut incarnations = vec![0; n];
        incarnations[me.index()] = incarnation;
        Ok(Self::over(addrs, listeners, incarnations))
    }

    fn over(
        addrs: Vec<SocketAddr>,
        listeners: Vec<Option<TcpListener>>,
        incarnations: Vec<u64>,
    ) -> Self {
        TcpFabric {
            ingress: Arc::new(RwLock::new(vec![None; addrs.len()])),
            addrs: Arc::new(addrs),
            listeners,
            incarnations: Arc::new(RwLock::new(incarnations)),
            recv_pool: default_pool(),
            stats: Arc::default(),
        }
    }

    /// Read into slabs of `pool` — the process's, sized for the deployment's block and
    /// shared with the nodes this fabric feeds — instead of a default-block pool of
    /// the fabric's own. Call before the first [`Fabric::attach`] starts an accept loop.
    pub fn with_pool(mut self, pool: SlabPool) -> Self {
        self.recv_pool = pool;
        self
    }

    /// Addresses of every node's listener (diagnostics).
    pub fn addresses(&self) -> &[SocketAddr] {
        &self.addrs
    }

    /// Record `node`'s current incarnation. New connections *from* `node` greet peers
    /// with this value in their [`Message::Hello`]; existing edges are unaffected
    /// (their Hello already went out), so pair this with
    /// [`TcpFabricSender::drop_edges_from`] when restarting an in-process node.
    pub fn set_incarnation(&self, node: NodeId, incarnation: u64) {
        self.incarnations.write()[node.index()] = incarnation;
    }
}

/// Bind `addr`, retrying `AddrInUse` for a few seconds. A daemon restarted in place
/// of a `kill -9`'d predecessor can land before the kernel has torn the old socket
/// down; anything else (privilege, bad address) fails immediately.
fn bind_with_retry(addr: SocketAddr) -> std::io::Result<TcpListener> {
    let mut last = None;
    for _ in 0..60 {
        match TcpListener::bind(addr) {
            Ok(listener) => return Ok(listener),
            Err(e) if e.kind() == ErrorKind::AddrInUse => {
                last = Some(e);
                thread::sleep(Duration::from_millis(50));
            }
            Err(e) => return Err(e),
        }
    }
    Err(last.expect("retry loop ran at least once"))
}

/// Accept connections for node `slot`. Each one must introduce itself with a
/// [`Message::Hello`] (read here, so its reader thread can carry the edge in its
/// name) and then gets a reader thread that hands every frame — the Hello first, so a
/// survivor that sees a restarted peer reconnect learns the new incarnation — to the
/// slot's sink. The sink is looked up per frame: a restart swaps it, and a surviving
/// connection must start feeding the new incarnation.
fn accept_loop(listener: TcpListener, slot: usize, ingress: IngressTable, pool: SlabPool) {
    for stream in listener.incoming() {
        let Ok(stream) = stream else { return };
        let _ = stream.set_read_timeout(Some(HELLO_TIMEOUT));
        let Ok(timeouts) = stream.try_clone() else { continue };
        let mut reader = FrameReader::with_pool(stream, pool.clone());
        let Ok(hello @ Message::Hello { node: from, .. }) = reader.read_message() else {
            continue;
        };
        let _ = timeouts.set_read_timeout(None);
        let ingress = ingress.clone();
        thread::Builder::new()
            .name(format!("hoplite-reader-{slot}-{}", from.0))
            .spawn(move || {
                let mut next = Ok(hello);
                while let Ok(msg) = next {
                    let Some(sink) = ingress.read()[slot].clone() else { return };
                    sink.deliver(from, msg);
                    next = reader.read_message();
                }
            })
            .expect("spawn reader thread");
    }
}

impl Fabric for TcpFabric {
    type Sender = TcpFabricSender;

    fn attach(&mut self, node: NodeId, sink: IngressSink) {
        self.ingress.write()[node.index()] = Some(sink);
        if let Some(listener) = self.listeners[node.index()].take() {
            let (slot, table, pool) = (node.index(), self.ingress.clone(), self.recv_pool.clone());
            thread::Builder::new()
                .name(format!("hoplite-accept-{slot}"))
                .spawn(move || accept_loop(listener, slot, table, pool))
                .expect("spawn accept thread");
        }
    }

    fn sender(&self) -> TcpFabricSender {
        TcpFabricSender {
            addrs: self.addrs.clone(),
            edges: Arc::default(),
            incarnations: self.incarnations.clone(),
            stats: self.stats.clone(),
        }
    }

    fn note_restart(&mut self, node: NodeId, incarnation: u64) {
        self.set_incarnation(node, incarnation);
    }

    fn transport_metrics(&self) -> NodeMetrics {
        NodeMetrics {
            // The pool's count: this fabric's receive slabs and, when the pool is the
            // process's, its nodes' reduce accumulators.
            recv_slab_reuse: self.recv_pool.reuses(),
            corked_frames_per_write: self.stats.corked_frames.load(Ordering::Relaxed),
            ..NodeMetrics::default()
        }
    }
}

/// One `(from, to)` connection's send side: the socket, the frames waiting for it,
/// and who is writing to it. The socket has one owner at a time (`busy`), a caller may
/// take it only when nothing is queued, and whoever gives it up looks at the queue
/// again under the lock, so nothing is stranded and nothing overtakes.
struct Edge {
    stream: TcpStream,
    state: std::sync::Mutex<EdgeState>,
    /// Wakes the writer thread; paired with `state`.
    wake: Condvar,
    stats: Arc<SendStats>,
}

#[derive(Default)]
struct EdgeState {
    /// Frames no write has taken yet, oldest first. What a caller's write left
    /// unwritten goes back in at the front, as one "frame" that is just those bytes.
    queue: VecDeque<EncodedFrame>,
    /// Total [`EncodedFrame::frame_len`] of `queue` — where a byte budget would go.
    queued_bytes: usize,
    /// A caller inside [`Edge::submit`], or the writer thread, owns the socket.
    busy: bool,
    /// Torn down, or a write failed: nothing more is written and the writer exits.
    closed: bool,
    /// The `hoplite-writer-{from}-{to}` thread, until [`Edge::shut`] joins it.
    writer: Option<JoinHandle<()>>,
}

impl Edge {
    fn state(&self) -> MutexGuard<'_, EdgeState> {
        // No code panics while holding the state, and every update leaves it valid.
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Send `frames` — one event's frames for this peer, in order — or hand them back
    /// if the edge is closed. Written here and now if the socket is free, nothing is
    /// queued and they are small; queued for the writer thread otherwise.
    fn submit(&self, frames: Vec<EncodedFrame>) -> std::result::Result<(), Vec<EncodedFrame>> {
        let bytes: usize = frames.iter().map(EncodedFrame::frame_len).sum();
        let mut state = self.state();
        if state.closed {
            return Err(frames);
        }
        let idle = !state.busy && state.queue.is_empty();
        if !idle || bytes > MAX_CORKED_BYTES {
            state.queued_bytes += bytes;
            state.queue.extend(frames);
            if idle {
                // Only on an idle edge is the writer thread asleep: a busy owner
                // re-checks the queue, and whoever made it non-empty has woken it.
                self.wake.notify_one();
            }
            return Ok(());
        }
        state.busy = true;
        drop(state);
        let written = self.write_now(&frames);
        let mut state = self.state();
        state.busy = false;
        match written {
            Ok(written) if written < bytes && !state.closed => {
                let tail: Vec<u8> =
                    frames.iter().flat_map(EncodedFrame::to_contiguous).skip(written).collect();
                state.queued_bytes += tail.len();
                state.queue.push_front(EncodedFrame { header: tail.into(), segments: Vec::new() });
            }
            Ok(_) => {}
            Err(_) => self.close(&mut state),
        }
        if !state.queue.is_empty() {
            self.wake.notify_one();
        }
        Ok(())
    }

    /// A caller's way to the socket: one vectored write on the calling thread, for at
    /// most [`SEND_TIMEOUT`]. Returns how many bytes the kernel took — all of them,
    /// unless the peer has stopped reading.
    fn write_now(&self, frames: &[EncodedFrame]) -> std::io::Result<usize> {
        self.stats.caller_frames.fetch_add(frames.len() as u64, Ordering::Relaxed);
        if frames.len() >= 2 {
            self.stats.corked_frames.fetch_add(frames.len() as u64, Ordering::Relaxed);
            self.stats.corked_writes.fetch_add(1, Ordering::Relaxed);
        }
        let parts: Vec<IoSlice<'_>> =
            frames.iter().flat_map(EncodedFrame::parts).map(|p| IoSlice::new(p)).collect();
        match (&self.stream).write_vectored(&parts) {
            Err(e) if is_timeout(&e) || e.kind() == ErrorKind::Interrupted => Ok(0),
            result => result,
        }
    }

    /// The writer thread's way to the socket, and its whole life: sleep until there is
    /// a queue and nobody owns the socket, then drain it through a cork — flushed when
    /// the queue goes empty, so corking never delays a burst's last frames — until
    /// the edge is closed.
    fn writer_loop(&self) {
        let (mut cork, mut socket) = (Cork::new(), self);
        let mut state = self.state();
        while !state.closed {
            if state.busy || state.queue.is_empty() {
                state = self.wake.wait(state).unwrap_or_else(|e| e.into_inner());
                continue;
            }
            state.busy = true;
            while !state.closed {
                let next = state.queue.pop_front();
                match &next {
                    Some(frame) => state.queued_bytes -= frame.frame_len(),
                    None if cork.has_pending() => {}
                    None => break,
                }
                drop(state);
                self.stats.writer_frames.fetch_add(next.is_some().into(), Ordering::Relaxed);
                let result = match next {
                    Some(frame) => cork.push(&mut socket, frame),
                    None => cork.flush(&mut socket),
                };
                state = self.state();
                if result.is_err() {
                    self.close(&mut state);
                }
            }
            state.busy = false;
            let (corked_frames, corked_writes) = cork.take_corked();
            self.stats.corked_frames.fetch_add(corked_frames, Ordering::Relaxed);
            self.stats.corked_writes.fetch_add(corked_writes, Ordering::Relaxed);
        }
    }

    /// Stop the edge: what is queued is dropped, a write in progress — a caller's or
    /// the writer thread's — fails at once, and the writer thread exits.
    fn close(&self, state: &mut EdgeState) {
        state.closed = true;
        state.queue.clear();
        state.queued_bytes = 0;
        let _ = self.stream.shutdown(Shutdown::Both);
        self.wake.notify_one();
    }

    /// [`Edge::close`] from outside, seeing the writer thread out.
    fn shut(&self) {
        let mut state = self.state();
        self.close(&mut state);
        let writer = state.writer.take();
        drop(state);
        if let Some(writer) = writer {
            let _ = writer.join();
        }
    }
}

/// The writer thread's view of its socket: a write that times out is retried, until
/// the peer takes something or [`Edge::close`] makes the write fail.
impl Write for &Edge {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.write_vectored(&[IoSlice::new(buf)])
    }

    fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> std::io::Result<usize> {
        loop {
            match (&self.stream).write_vectored(bufs) {
                Err(e) if is_timeout(&e) => continue,
                result => return result,
            }
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// What a blocking write reports when [`SEND_TIMEOUT`] ran out before any byte went.
fn is_timeout(e: &std::io::Error) -> bool {
    matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut)
}

impl TcpFabricSender {
    /// Control frames that went out batched with at least one other frame in a single
    /// vectored write, across every edge (→ the `corked_frames_per_write` metric).
    pub fn corked_frames(&self) -> u64 {
        self.stats.corked_frames.load(Ordering::Relaxed)
    }

    /// Multi-frame vectored writes issued across every edge.
    pub fn corked_writes(&self) -> u64 {
        self.stats.corked_writes.load(Ordering::Relaxed)
    }

    /// Frames handed to a socket by the thread that sent them, and by an edge's writer
    /// thread (a caller's unwritten tail counts as one), across every edge.
    pub fn frames_written(&self) -> (u64, u64) {
        let stats = &self.stats;
        (stats.caller_frames.load(Ordering::Relaxed), stats.writer_frames.load(Ordering::Relaxed))
    }

    /// Bytes queued on the `(from, to)` edge that no write has taken yet.
    pub fn queued_bytes(&self, from: NodeId, to: NodeId) -> usize {
        self.edges.0.lock().get(&(from.0, to.0)).map_or(0, |edge| edge.state().queued_bytes)
    }

    /// Tear down every outgoing edge whose source is `from`: the next send from `from`
    /// reconnects and greets with a fresh [`Message::Hello`].
    pub fn drop_edges_from(&self, from: NodeId) {
        self.drop_edges(|edge_from, _| edge_from == from.0);
    }

    /// Forget and [`Edge::shut`] every edge `doomed(from, to)` selects.
    fn drop_edges(&self, doomed: impl Fn(u32, u32) -> bool) {
        let mut dropped = Vec::new();
        self.edges.0.lock().retain(|&(from, to), edge| {
            let keep = !doomed(from, to);
            if !keep {
                dropped.push(edge.clone());
            }
            keep
        });
        dropped.iter().for_each(|edge| edge.shut());
    }

    /// The `(from, to)` edge, connecting (and greeting with [`Message::Hello`]) on
    /// first use. `None` for a peer outside the address table: a frame off the wire
    /// can name any node, and a send to one that does not exist is dropped.
    fn edge(&self, from: NodeId, to: NodeId) -> Option<Arc<Edge>> {
        let key = (from.0, to.0);
        if let Some(existing) = self.edges.0.lock().get(&key) {
            return Some(existing.clone());
        }
        let mut stream = TcpStream::connect(self.addrs.get(to.index())?).ok()?;
        stream.set_nodelay(true).ok()?;
        stream.set_write_timeout(Some(SEND_TIMEOUT)).ok()?;
        let incarnation = self.incarnations.read().get(from.index()).copied().unwrap_or(0);
        write_frame_vectored(&mut stream, &Message::Hello { node: from, incarnation }).ok()?;
        let edge = Arc::new(Edge {
            stream,
            state: Default::default(),
            wake: Condvar::new(),
            stats: self.stats.clone(),
        });
        let on_thread = edge.clone();
        let writer = thread::Builder::new()
            .name(format!("hoplite-writer-{}-{}", from.0, to.0))
            .spawn(move || on_thread.writer_loop())
            .ok()?;
        edge.state().writer = Some(writer);
        // Another thread may have missed the map when this one did and dialed too: the
        // first to get here wins, and the loser's edge goes, writer thread and all.
        let winner = self.edges.0.lock().entry(key).or_insert_with(|| edge.clone()).clone();
        if !Arc::ptr_eq(&winner, &edge) {
            edge.shut();
        }
        Some(winner)
    }
}

impl FabricSender for TcpFabricSender {
    fn send(&self, from: NodeId, to: NodeId, msg: Message) {
        self.send_all(from, &mut vec![(to, msg)]);
    }

    fn send_all(&self, from: NodeId, batch: &mut Vec<(NodeId, Message)>) {
        while let Some(&(to, _)) = batch.first() {
            // This peer's frames, in order; a message too large to frame, or for a
            // peer outside the address table, is dropped.
            let mut run = Vec::new();
            batch.retain(|(peer, msg)| {
                if *peer == to {
                    run.extend(encode_frame_vectored(msg));
                }
                *peer != to
            });
            let Some(edge) = self.edge(from, to) else { continue };
            if let Err(run) = edge.submit(run) {
                // The edge is closed (peer died or a write failed). Drop it so later
                // sends reconnect, and retry these frames once on a fresh edge.
                self.drop_edges(|f, t| (f, t) == (from.0, to.0));
                if let Some(edge) = self.edge(from, to) {
                    let _ = edge.submit(run);
                }
            }
        }
    }

    fn peer_down(&self, to: NodeId) {
        // Connections into a SIGKILLed process die silently: the first write after
        // its death lands in a half-closed socket and "succeeds", so error-driven
        // cleanup never fires. Drop every edge toward the peer on the detector's
        // verdict; the next send dials a fresh connection (which reaches the peer's
        // replacement process once it rebinds).
        self.drop_edges(|_, edge_to| edge_to == to.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::Ingress;
    use crate::framing::tests::Rng;
    use crossbeam_channel::{unbounded, Receiver, Sender};
    use std::sync::atomic::AtomicBool;
    use std::time::Duration as StdDuration;

    /// Receive the next non-Hello frame (every edge now leads with a forwarded
    /// [`Message::Hello`]; tests that care about data frames skip it).
    fn recv_data(rx: &Receiver<(NodeId, Message)>) -> (NodeId, Message) {
        loop {
            let (from, msg) = rx.recv_timeout(StdDuration::from_secs(10)).unwrap();
            if !matches!(msg, Message::Hello { .. }) {
                return (from, msg);
            }
        }
    }

    #[test]
    fn tcp_fabric_delivers_messages_with_sender_identity() {
        let mut fabric = TcpFabric::new(2).unwrap();
        let rx = fabric.take_receiver(NodeId(1));
        let sender = fabric.sender();
        sender.send(
            NodeId(0),
            NodeId(1),
            Message::PushBlock {
                object: ObjectId::from_name("tcp"),
                offset: 0,
                total_size: 4,
                payload: Payload::from_vec(vec![1, 2, 3, 4]),
                complete: true,
            },
        );
        let (from, msg) = recv_data(&rx);
        assert_eq!(from, NodeId(0));
        match msg {
            Message::PushBlock { payload, complete, .. } => {
                assert!(complete);
                assert_eq!(payload.as_bytes().unwrap().as_ref(), &[1, 2, 3, 4]);
            }
            other => panic!("unexpected message {other:?}"),
        }
    }

    /// A frame off the wire can name any node: a send to one outside the address table
    /// is dropped, and the sender keeps working.
    #[test]
    fn a_send_to_a_node_outside_the_address_table_is_dropped() {
        let mut fabric = TcpFabric::new(2).unwrap();
        let rx = fabric.take_receiver(NodeId(1));
        let sender = fabric.sender();
        let delete = |name| Message::DirDelete { object: ObjectId::from_name(name) };
        sender.send(NodeId(0), NodeId(99), delete("nowhere"));
        sender.send(NodeId(0), NodeId(1), delete("somewhere"));
        assert_eq!(recv_data(&rx), (NodeId(0), delete("somewhere")));
    }

    #[test]
    fn tcp_fabric_delivers_large_segmented_payloads_via_vectored_writes() {
        // A multi-megabyte payload split across several shared segments exercises the
        // scatter-gather write path end to end, including short-write resumption in
        // write_frame_vectored (socket buffers are far smaller than the frame).
        use bytes::Bytes;
        let mut fabric = TcpFabric::new(2).unwrap();
        let rx = fabric.take_receiver(NodeId(1));
        let sender = fabric.sender();
        let segments: Vec<Bytes> =
            (0..5u8).map(|i| Bytes::from(vec![i; 1024 * 1024 + i as usize])).collect();
        let payload = Payload::from_segments(segments.clone());
        let total = payload.len();
        sender.send(
            NodeId(0),
            NodeId(1),
            Message::PushBlock {
                object: ObjectId::from_name("sg-tcp"),
                offset: 0,
                total_size: total,
                payload: payload.clone(),
                complete: true,
            },
        );
        let (from, msg) = recv_data(&rx);
        assert_eq!(from, NodeId(0));
        match msg {
            Message::PushBlock { payload: received, total_size, .. } => {
                assert_eq!(total_size, total);
                // Logical equality across different segmentations: the receiver sees
                // one contiguous view of the sender's five segments.
                assert_eq!(received, payload);
            }
            other => panic!("unexpected message {other:?}"),
        }
    }

    #[test]
    fn tcp_fabric_preserves_order_and_reuses_connections() {
        let mut fabric = TcpFabric::new(2).unwrap();
        let rx = fabric.take_receiver(NodeId(1));
        let sender = fabric.sender();
        for i in 0..50u64 {
            sender.send(
                NodeId(0),
                NodeId(1),
                Message::PushBlock {
                    object: ObjectId::from_name("seq"),
                    offset: i,
                    total_size: 50,
                    payload: Payload::synthetic(1),
                    complete: false,
                },
            );
        }
        let mut expected = 0;
        while expected < 50 {
            let (_, msg) = rx.recv_timeout(StdDuration::from_secs(5)).unwrap();
            if let Message::PushBlock { offset, .. } = msg {
                assert_eq!(offset, expected);
                expected += 1;
            }
        }
    }

    /// A frame of each size class the edge treats differently, each carrying `seq`
    /// where [`seq_of`] finds it: a ~25-byte control frame, a 2 KiB inline reply (one
    /// contiguous part, like every frame the cork holds), and a bulk block.
    fn ack(seq: u64) -> Message {
        Message::DirAck { shard: 0, epoch: 1, seq }
    }

    fn inline(seq: u64) -> Message {
        let payload = Payload::from_vec(vec![seq as u8; 2048]);
        let object = ObjectId::from_name("edge-inline");
        Message::DirQueryReply { object, query_id: seq, result: QueryResult::Inline { payload } }
    }

    fn block(seq: u64, data: &Payload) -> Message {
        let object = ObjectId::from_name("edge-block");
        let total_size = u64::MAX;
        Message::PushBlock {
            object,
            offset: seq,
            total_size,
            payload: data.clone(),
            complete: false,
        }
    }

    fn seq_of(msg: &Message) -> Option<u64> {
        match msg {
            Message::DirAck { seq, .. } => Some(*seq),
            Message::DirQueryReply { query_id, .. } => Some(*query_id),
            Message::PushBlock { offset, .. } => Some(*offset),
            _ => None,
        }
    }

    /// Receive data frames until one carries `last`; every one must carry the number
    /// after its predecessor's, starting at `first`.
    fn expect_in_order(rx: &Receiver<(NodeId, Message)>, first: u64, last: u64) {
        for expected in first..=last {
            let (_, msg) = recv_data(rx);
            assert_eq!(seq_of(&msg), Some(expected), "out of order or lost: {msg:?}");
        }
    }

    /// A queue sink whose reader threads the test can wedge: `deliver` first waits for
    /// `gate`, so while the test holds it the node reads its `Hello`s and nothing else.
    struct Gated {
        gate: Arc<std::sync::Mutex<()>>,
        queue: Sender<(NodeId, Message)>,
    }

    impl Ingress for Gated {
        fn post(&self, from: NodeId, msg: Message) {
            Ingress::post(&self.queue, from, msg);
        }
        fn deliver(&self, from: NodeId, msg: Message) {
            drop(self.gate.lock().unwrap());
            self.post(from, msg);
        }
    }

    /// Attach a [`Gated`] sink for `node`; its gate and the queue it feeds.
    fn gated(
        fabric: &mut TcpFabric,
        node: NodeId,
    ) -> (Arc<std::sync::Mutex<()>>, Receiver<(NodeId, Message)>) {
        let (queue, rx) = unbounded();
        let gate = Arc::new(std::sync::Mutex::new(()));
        fabric.attach(node, Arc::new(Gated { gate: gate.clone(), queue }));
        (gate, rx)
    }

    #[test]
    fn tcp_fabric_corks_control_bursts() {
        // One event's burst to an idle edge — a `send_all` — leaves in one vectored
        // write on the calling thread (at most one per cork cap, by the acceptance
        // bound), in order, and the cork counters record it.
        let mut fabric = TcpFabric::new(2).unwrap();
        let (gate, rx) = gated(&mut fabric, NodeId(1));
        let sender = fabric.sender();
        const N: u64 = 2000;
        sender.send_all(NodeId(0), &mut (0..N).map(|i| (NodeId(1), ack(i))).collect());
        expect_in_order(&rx, 0, N - 1);
        assert_eq!(sender.corked_frames(), N);
        assert!(sender.corked_writes() <= N / 64 + 1, "{} writes", sender.corked_writes());
        // On a starved machine the one write can come back short; its tail is then
        // the writer thread's, as a single piece.
        let (by_callers, tails) = sender.frames_written();
        assert!(by_callers == N && tails <= 1, "{tails} tails");

        // A bare `send` to an idle edge is a complete batch of one, so a loop of them
        // corks only behind something: here 32 MiB of blocks the wedged peer will not
        // take, which keeps the writer thread inside a write while the sends queue up.
        // Once the peer reads again they follow the blocks out a cork-full at a time.
        let wedged = gate.lock().unwrap();
        let data = Payload::from_vec(vec![7u8; 4 * 1024 * 1024]);
        for i in 0..8 {
            sender.send(NodeId(0), NodeId(1), block(N + i, &data));
        }
        for i in 0..N {
            sender.send(NodeId(0), NodeId(1), ack(N + 8 + i));
        }
        drop(wedged);
        expect_in_order(&rx, N, 2 * N + 7);
        assert_eq!(sender.corked_frames(), 2 * N, "every queued control frame left corked");
        assert_eq!(sender.frames_written(), (N, tails + N + 8));
    }

    #[test]
    fn an_edge_keeps_send_order_across_both_writers() {
        // One sender, its calls serialised by a lock but issued from three threads, as
        // a `NodeHost`'s are: a seeded mix of control frames, inline replies, batches
        // that interleave two peers, and the occasional 1 MiB block. Whichever thread
        // ends up writing a frame — the caller on an idle edge, the writer thread
        // behind a block or a backlog — each peer sees exactly the order sent.
        const FRAMES: u64 = 120_000;
        let mut fabric = TcpFabric::new(3).unwrap();
        let rx = [fabric.take_receiver(NodeId(1)), fabric.take_receiver(NodeId(2))];
        let sender = fabric.sender();
        let data = Payload::from_vec(vec![3u8; 1024 * 1024]);
        // The generator, and the next sequence number for each of the two peers.
        let script = std::sync::Mutex::new((Rng(0xED6E_0001), [0u64; 2]));
        let sent = thread::scope(|s| {
            for _ in 0..3 {
                s.spawn(|| loop {
                    let mut script = script.lock().unwrap();
                    let (rng, next) = &mut *script;
                    if next[0] + next[1] >= FRAMES {
                        return;
                    }
                    // The next frame for `peer` (0 or 1 → node 1 or 2), of `kind`.
                    let mut frame = |peer: usize, kind: u64| {
                        next[peer] += 1;
                        let msg = match (next[peer] - 1, kind) {
                            (seq, 0) => block(seq, &data),
                            (seq, 1) => inline(seq),
                            (seq, _) => ack(seq),
                        };
                        (NodeId(peer as u32 + 1), msg)
                    };
                    match rng.range(0, 2000) {
                        0 => sender.send(NodeId(0), NodeId(1), frame(0, 0).1),
                        1..=600 => {
                            let mut batch: Vec<_> = (0..rng.range(2, 6))
                                .map(|_| frame(usize::from(rng.range(0, 4) == 0), rng.range(1, 5)))
                                .collect();
                            sender.send_all(NodeId(0), &mut batch);
                            assert!(batch.is_empty());
                        }
                        _ => sender.send(NodeId(0), NodeId(1), frame(0, rng.range(1, 5)).1),
                    }
                });
            }
            // Drain peer 1 while the senders run, so its edge sees both an idle
            // socket and a backlog; peer 2 is read afterwards.
            let mut seen = 0;
            while let Ok((_, msg)) = rx[0].recv_timeout(StdDuration::from_secs(10)) {
                if let Some(seq) = seq_of(&msg) {
                    assert_eq!(seq, seen, "peer 1 out of order");
                    seen += 1;
                }
                let (_, next) = &*script.lock().unwrap();
                if next[0] + next[1] >= FRAMES && seen == next[0] {
                    return *next;
                }
            }
            panic!("peer 1 stalled after {seen} frames");
        });
        assert!(sent[1] > 0);
        expect_in_order(&rx[1], 0, sent[1] - 1);
        let (by_callers, by_writers) = sender.frames_written();
        assert!(
            by_callers > 0 && by_writers > 0,
            "{by_callers} by callers, {by_writers} by writers"
        );
        assert!(by_callers + by_writers >= sent[0] + sent[1]);
    }

    #[test]
    fn a_wedged_receiver_costs_its_sender_one_timeout_not_one_per_frame() {
        // Node 1 accepts, reads the `Hello`, and stops reading. 64 MiB of control
        // frames to it must all be accepted without the sender waiting out more than
        // a handful of send timeouts in total: the first write the peer does not take
        // leaves its tail on the edge, and from then on sends only enqueue.
        const FRAMES: u64 = 32 * 1024; // of 2 KiB
        let mut fabric = TcpFabric::new(4).unwrap();
        let (gate, rx1) = gated(&mut fabric, NodeId(1));
        let (rx2, rx3) = (fabric.take_receiver(NodeId(2)), fabric.take_receiver(NodeId(3)));
        let sender = fabric.sender();
        let wedged = gate.lock().unwrap();
        // Time spent inside the sender, and how many frames callers had offered the
        // socket when the backlog began.
        let (mut in_send, mut offered) = (Duration::ZERO, None);
        for seq in (0..FRAMES).step_by(4) {
            // Bare sends and four-frame events alternate.
            let mut batch: Vec<_> = (seq..seq + 4).map(|i| (NodeId(1), inline(i))).collect();
            let started = std::time::Instant::now();
            if seq % 8 == 0 {
                sender.send_all(NodeId(0), &mut batch);
            }
            for (to, msg) in batch {
                sender.send(NodeId(0), to, msg);
            }
            in_send += started.elapsed();
            if offered.is_none() && sender.queued_bytes(NodeId(0), NodeId(1)) > 0 {
                offered = Some(sender.frames_written().0);
            }
        }
        assert!(in_send < 400 * SEND_TIMEOUT, "{in_send:?} inside send for {FRAMES} frames");
        let queued = sender.queued_bytes(NodeId(0), NodeId(1));
        assert!(queued > 32 << 20, "the backlog waits on the edge: {queued} bytes queued");
        // One congestion episode, one timeout: once a write was cut short no caller
        // went near the socket again.
        assert_eq!(Some(sender.frames_written().0), offered);

        // Meanwhile the rest of the fabric is untouched: a Get's two frames between
        // two other nodes — the query there, the inline reply back — go through.
        let query = Message::DirQuery {
            object: ObjectId::from_name("edge-inline"),
            requester: NodeId(2),
            query_id: 9,
            exclude: Vec::new(),
        };
        sender.send(NodeId(2), NodeId(3), query);
        assert!(matches!(recv_data(&rx3), (NodeId(2), Message::DirQuery { query_id: 9, .. })));
        sender.send(NodeId(3), NodeId(2), inline(9));
        assert_eq!(seq_of(&recv_data(&rx2).1), Some(9));

        // The peer resumes: every frame arrives once and in order, the one the
        // timeout cut in half included, and both writers took part.
        drop(wedged);
        expect_in_order(&rx1, 0, FRAMES - 1);
        assert_eq!(sender.queued_bytes(NodeId(0), NodeId(1)), 0);
        assert!(sender.frames_written().0 > 0 && sender.frames_written().1 > 0);
    }

    #[test]
    fn two_readers_flooding_each_other_from_deliver_both_finish() {
        // Each node answers its first frame by sending 32 MiB of control frames back
        // from inside `deliver`, so neither reader thread reads while it writes
        // and both sockets fill. A caller's write gives up after the send timeout and
        // leaves the rest to the edge's queue, so both floods are accepted, both
        // readers go back to reading, and everything arrives; a blocking write here
        // would hold both reader threads forever.
        const FRAMES: u64 = 16 * 1024; // of 2 KiB
        struct Flood {
            me: NodeId,
            sender: TcpFabricSender,
            flooded: AtomicBool,
            seen: AtomicU64,
            done: Sender<NodeId>,
        }
        impl Ingress for Flood {
            fn post(&self, _: NodeId, _: Message) {
                unreachable!("a reader thread delivers");
            }
            fn deliver(&self, from: NodeId, msg: Message) {
                let Some(seq) = seq_of(&msg) else { return }; // the Hello
                if !self.flooded.swap(true, Ordering::SeqCst) {
                    (0..FRAMES).for_each(|i| self.sender.send(self.me, from, inline(i)));
                }
                if seq != KICK_OFF {
                    assert_eq!(seq, self.seen.fetch_add(1, Ordering::SeqCst));
                    if seq == FRAMES - 1 {
                        self.done.send(self.me).unwrap();
                    }
                }
            }
        }
        let mut fabric = TcpFabric::new(2).unwrap();
        let sender = fabric.sender();
        let (done, finished) = unbounded();
        for me in [NodeId(0), NodeId(1)] {
            let (sender, done, flooded) = (sender.clone(), done.clone(), AtomicBool::new(false));
            let seen = AtomicU64::new(0);
            fabric.attach(me, Arc::new(Flood { me, sender, flooded, seen, done }));
        }
        // Node 1 floods at the kick-off, node 0 at the first frame of that flood, while
        // node 1 is still sending: each edge has one sending thread, as under a node's
        // lock, and the two floods overlap.
        const KICK_OFF: u64 = u64::MAX;
        sender.send(NodeId(0), NodeId(1), ack(KICK_OFF));
        let watchdog = StdDuration::from_secs(30);
        let mut nodes: Vec<NodeId> = (0..2)
            .map(|_| finished.recv_timeout(watchdog).expect("a flooding reader never read again"))
            .collect();
        nodes.sort();
        assert_eq!(nodes, [NodeId(0), NodeId(1)]);
    }

    #[test]
    fn closing_an_edge_under_a_callers_write_ends_its_writer_and_the_next_send_redials() {
        // `peer_down` and `drop_edges_from` land while a caller sits in a write the
        // wedged peer is not taking. The caller comes back, the edge's writer thread
        // is joined by the teardown — seen as the handle gone, not slept for — and the
        // next send dials a fresh connection that leads with a `Hello`. Dropping the
        // sender is the third way an edge ends.
        let mut fabric = TcpFabric::new(2).unwrap();
        let (gate, rx) = gated(&mut fabric, NodeId(1));
        let sender = fabric.sender();
        let wedged = gate.lock().unwrap();
        let teardowns: [fn(&TcpFabricSender); 2] =
            [|sender| sender.peer_down(NodeId(1)), |sender| sender.drop_edges_from(NodeId(0))];
        for (round, teardown) in teardowns.iter().enumerate() {
            fabric.set_incarnation(NodeId(0), round as u64); // tells the dials apart
            sender.send(NodeId(0), NodeId(1), ack(0));
            let edge = sender.edges.0.lock().get(&(0, 1)).cloned().expect("edge is up");
            let caught_in_write = thread::scope(|s| {
                // Fill the socket until one write is cut short (its tail is queued) or
                // the edge is closed under it.
                s.spawn(|| {
                    while sender.queued_bytes(NodeId(0), NodeId(1)) == 0 && !edge.state().closed {
                        sender.send(NodeId(0), NodeId(1), inline(1));
                    }
                });
                // A caller owns the socket, nothing is queued, and the count of frames
                // callers have written is not moving: it is inside the write that
                // will time out.
                loop {
                    let before = sender.frames_written().0;
                    let in_write = |edge: &Edge| {
                        let state = edge.state();
                        state.busy && state.queue.is_empty()
                    };
                    if in_write(&edge) {
                        thread::sleep(SEND_TIMEOUT / 5);
                        if in_write(&edge) && sender.frames_written().0 == before {
                            teardown(&sender);
                            return true;
                        }
                    }
                    if edge.state().queued_bytes > 0 {
                        teardown(&sender);
                        return false;
                    }
                }
            });
            assert!(caught_in_write, "round {round}: the teardown missed the caller's write");
            let state = edge.state();
            assert!(state.closed && state.writer.is_none(), "the writer thread was joined");
            assert_eq!((state.queue.len(), state.queued_bytes), (0, 0));
            assert!(sender.edges.0.lock().is_empty());
        }
        // What the dead connections had put in their sockets still drains, each behind
        // its own Hello; the third connection carries its Hello, then the one frame.
        fabric.set_incarnation(NodeId(0), 2);
        sender.send(NodeId(0), NodeId(1), ack(77));
        drop(wedged);
        let mut greeted = Vec::new();
        loop {
            match rx.recv_timeout(StdDuration::from_secs(10)).expect("frame 77 arrives").1 {
                Message::Hello { incarnation, .. } => greeted.push(incarnation),
                Message::DirAck { seq: 77, .. } => break,
                _ => {}
            }
        }
        assert!(greeted.contains(&2), "the fresh connection led with its Hello: {greeted:?}");
        // The last clone of a sender takes its edges with it, as a stopped node's does.
        let edge = sender.edges.0.lock().get(&(0, 1)).cloned().expect("edge is up");
        drop(sender);
        assert!(edge.state().closed && edge.state().writer.is_none());
    }

    #[test]
    fn two_threads_dialing_one_edge_at_once_end_up_on_one_connection() {
        // Two threads send for one node at the same moment, neither finding an edge:
        // both may dial, one edge must survive. Node 1 is never attached — the test is
        // its accept loop, so it sees connections and their ends, not just frames.
        let mut fabric = TcpFabric::new(2).unwrap();
        let listener = fabric.listeners[1].take().unwrap();
        let sender = fabric.sender();
        // Per connection: every frame, its Hello first, then `None` at EOF.
        let (events, rx) = unbounded::<(usize, Option<Message>)>();
        thread::spawn(move || {
            for (conn, stream) in listener.incoming().enumerate() {
                let (events, mut reader) = (events.clone(), FrameReader::new(stream.unwrap()));
                thread::spawn(move || {
                    while let Ok(msg) = reader.read_message() {
                        let _ = events.send((conn, Some(msg)));
                    }
                    let _ = events.send((conn, None));
                });
            }
        });
        const FRAMES: u64 = 20;
        let (mut opened, mut ended) = (0, 0);
        let mut next_event = move || {
            let (conn, msg) = rx.recv_timeout(StdDuration::from_secs(10)).expect("a hung edge");
            match msg {
                Some(Message::Hello { .. }) => opened += 1,
                None => ended += 1,
                Some(_) => {}
            }
            (conn, msg, opened, ended)
        };
        for round in 0..32u32 {
            // A fresh edge per round (a sender may name any node as the source).
            let from = NodeId(round);
            let start = std::sync::Barrier::new(2);
            thread::scope(|scope| {
                for t in 0..2u64 {
                    let (sender, start) = (&sender, &start);
                    scope.spawn(move || {
                        start.wait();
                        (0..FRAMES).for_each(|i| sender.send(from, NodeId(1), ack(1000 * t + i)));
                    });
                }
            });
            {
                let edges = sender.edges.0.lock();
                assert_eq!(edges.len(), 1, "round {round}: one edge in the map");
                let state = edges[&(from.0, 1)].state();
                assert!(!state.closed && state.writer.is_some(), "with its writer thread");
            }
            // Every data frame arrives on one connection, each thread's in the order
            // it sent them: the loser of a double dial wrote its Hello and nothing else.
            let (mut carrier, mut next) = (None, [0, 1000]);
            while next != [FRAMES, 1000 + FRAMES] {
                let (conn, Some(msg), ..) = next_event() else { continue };
                let Some(seq) = seq_of(&msg) else { continue };
                assert_eq!(*carrier.get_or_insert(conn), conn, "round {round}: two connections");
                let thread = (seq / 1000) as usize;
                assert_eq!(seq, next[thread], "round {round}: out of order");
                next[thread] += 1;
            }
            sender.drop_edges_from(from);
        }
        // With every edge in the map shut, every connection ever dialed ends — the last
        // round's has yet to: a loser's edge, which its writer thread would hold open,
        // did not outlive the dial.
        loop {
            let (.., opened, ended) = next_event();
            if ended >= 32 && ended == opened {
                break assert!(opened <= 64);
            }
        }
    }

    #[test]
    fn tcp_fabric_reuses_receive_slabs() {
        // Lockstep send/consume: each payload is dropped before the next frame is
        // sent, so by the time the reader thread checks out a slab for the next block
        // the previous one is unpinned and comes back out of the pool.
        let mut fabric = TcpFabric::new(2).unwrap();
        let rx = fabric.take_receiver(NodeId(1));
        let sender = fabric.sender();
        for i in 0..20u64 {
            sender.send(
                NodeId(0),
                NodeId(1),
                Message::PushBlock {
                    object: ObjectId::from_name("slab-reuse"),
                    offset: i,
                    total_size: 20,
                    payload: Payload::from_vec(vec![i as u8; 1024 * 1024]),
                    complete: false,
                },
            );
            let (_, msg) = recv_data(&rx);
            assert!(matches!(msg, Message::PushBlock { .. }));
            drop(msg);
        }
        assert!(
            fabric.transport_metrics().recv_slab_reuse > 0,
            "lockstep consumption should let the reader recycle slabs"
        );
    }

    #[test]
    fn tcp_relay_hop_has_zero_payload_copies() {
        // The full relay hop a forwarding node performs over real sockets: TCP read →
        // slab decode → buffer append → read back → re-encode → TCP send, for a
        // 64 MiB object in 4 MiB blocks. Everything runs on this thread so the
        // thread-local debug copy counter sees the whole hop — it must stay at zero:
        // payload bytes are written once by the kernel into a receive slab and then
        // travel as shared views the rest of the way.
        use crate::framing::write_frame_vectored;
        use hoplite_core::{buffer::ProgressBuffer, copytrace};
        const BLOCK: usize = 4 * 1024 * 1024;
        const TOTAL: usize = 64 * 1024 * 1024;
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let producer = thread::spawn(move || {
            let mut stream = TcpStream::connect(addr).unwrap();
            stream.set_nodelay(true).unwrap();
            for i in 0..TOTAL / BLOCK {
                let msg = Message::PushBlock {
                    object: ObjectId::from_name("relay64"),
                    offset: (i * BLOCK) as u64,
                    total_size: TOTAL as u64,
                    payload: Payload::from_vec(vec![(i % 251) as u8; BLOCK]),
                    complete: i == TOTAL / BLOCK - 1,
                };
                write_frame_vectored(&mut stream, &msg).unwrap();
            }
        });
        let sink_listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let sink_addr = sink_listener.local_addr().unwrap();
        let sink = thread::spawn(move || {
            let (mut s, _) = sink_listener.accept().unwrap();
            let mut received = 0u64;
            let mut buf = vec![0u8; 1 << 20];
            loop {
                match std::io::Read::read(&mut s, &mut buf) {
                    Ok(0) | Err(_) => return received,
                    Ok(n) => received += n as u64,
                }
            }
        });
        let (upstream, _) = listener.accept().unwrap();
        let mut downstream = TcpStream::connect(sink_addr).unwrap();
        downstream.set_nodelay(true).unwrap();
        copytrace::reset();
        let mut reader = FrameReader::new(upstream);
        let mut progress = ProgressBuffer::new(TOTAL as u64, false);
        let mut relayed = 0u64;
        while relayed < TOTAL as u64 {
            let Ok(Message::PushBlock { offset, payload, .. }) = reader.read_message() else {
                panic!("unexpected frame on the relay hop");
            };
            let len = payload.len();
            assert!(progress.append_at(offset, &payload));
            drop(payload); // the buffer holds the slab views now
            let out = progress.read(offset, len).unwrap();
            relayed += len;
            write_frame_vectored(
                &mut downstream,
                &Message::PushBlock {
                    object: ObjectId::from_name("relay64"),
                    offset,
                    total_size: TOTAL as u64,
                    payload: out,
                    complete: relayed == TOTAL as u64,
                },
            )
            .unwrap();
        }
        assert_eq!(
            copytrace::bytes_copied(),
            0,
            "TCP read → decode → append → read → re-encode → send must not memcpy payload"
        );
        assert_eq!(copytrace::copies(), 0);
        drop(downstream);
        producer.join().unwrap();
        assert!(sink.join().unwrap() >= TOTAL as u64);
    }

    #[test]
    fn hello_carries_incarnation_and_is_forwarded_to_the_node() {
        let mut fabric = TcpFabric::new(2).unwrap();
        fabric.set_incarnation(NodeId(0), 3);
        let rx = fabric.take_receiver(NodeId(1));
        let sender = fabric.sender();
        sender.send(NodeId(0), NodeId(1), Message::DirAck { shard: 0, epoch: 1, seq: 1 });
        let (from, msg) = rx.recv_timeout(StdDuration::from_secs(5)).unwrap();
        assert_eq!(from, NodeId(0));
        assert_eq!(msg, Message::Hello { node: NodeId(0), incarnation: 3 });
        assert!(matches!(recv_data(&rx).1, Message::DirAck { .. }));
    }

    #[test]
    fn frames_are_delivered_on_a_reader_thread_named_after_its_edge() {
        struct Names(Sender<Option<String>>);
        impl Ingress for Names {
            fn deliver(&self, _: NodeId, _: Message) {
                let _ = self.0.send(thread::current().name().map(str::to_string));
            }
            fn post(&self, _: NodeId, _: Message) {
                let _ = self.0.send(None); // a reader thread must use `deliver`
            }
        }
        let mut fabric = TcpFabric::new(3).unwrap();
        let (tx, rx) = unbounded();
        fabric.attach(NodeId(1), Arc::new(Names(tx)));
        fabric.sender().send(NodeId(2), NodeId(1), Message::DirAck { shard: 0, epoch: 1, seq: 1 });
        for _ in 0..2 {
            let name = rx.recv_timeout(StdDuration::from_secs(5)).unwrap();
            assert_eq!(name.as_deref(), Some("hoplite-reader-1-2"));
        }
    }

    #[test]
    fn reset_receiver_reroutes_live_connections_to_the_new_queue() {
        let mut fabric = TcpFabric::new(2).unwrap();
        let rx = fabric.take_receiver(NodeId(1));
        let sender = fabric.sender();
        sender.send(NodeId(0), NodeId(1), Message::DirAck { shard: 0, epoch: 1, seq: 1 });
        assert!(matches!(recv_data(&rx).1, Message::DirAck { seq: 1, .. }));

        // Restart node 1: swap its sink. The already-established connection from
        // node 0 must start feeding the new one without reconnecting.
        let rx2 = fabric.take_receiver(NodeId(1));
        drop(rx);
        sender.send(NodeId(0), NodeId(1), Message::DirAck { shard: 0, epoch: 1, seq: 2 });
        assert!(matches!(recv_data(&rx2).1, Message::DirAck { seq: 2, .. }));
    }

    #[test]
    fn bind_node_pair_talks_across_fabric_instances() {
        // Reserve two ports, then bind one single-node fabric per "process" against
        // the shared address map — the hoplited deployment shape in miniature.
        let reserve: Vec<TcpListener> =
            (0..2).map(|_| TcpListener::bind("127.0.0.1:0").unwrap()).collect();
        let addrs: Vec<SocketAddr> = reserve.iter().map(|l| l.local_addr().unwrap()).collect();
        drop(reserve);

        let mut a = TcpFabric::bind_node(NodeId(0), &addrs, 0).unwrap();
        let mut b = TcpFabric::bind_node(NodeId(1), &addrs, 2).unwrap();
        let rx_a = a.take_receiver(NodeId(0));
        let rx_b = b.take_receiver(NodeId(1));

        a.sender().send(NodeId(0), NodeId(1), Message::DirAck { shard: 0, epoch: 1, seq: 7 });
        let (from, hello) = rx_b.recv_timeout(StdDuration::from_secs(5)).unwrap();
        assert_eq!((from, hello), (NodeId(0), Message::Hello { node: NodeId(0), incarnation: 0 }));
        assert!(matches!(recv_data(&rx_b).1, Message::DirAck { seq: 7, .. }));

        // And the reverse direction advertises b's non-zero incarnation.
        b.sender().send(NodeId(1), NodeId(0), Message::DirAck { shard: 0, epoch: 1, seq: 8 });
        let (from, hello) = rx_a.recv_timeout(StdDuration::from_secs(5)).unwrap();
        assert_eq!((from, hello), (NodeId(1), Message::Hello { node: NodeId(1), incarnation: 2 }));
        assert!(matches!(recv_data(&rx_a).1, Message::DirAck { seq: 8, .. }));
    }

    #[test]
    fn bind_node_retries_a_port_still_held_by_a_dying_predecessor() {
        let holder = TcpListener::bind("127.0.0.1:0").unwrap();
        let addrs = vec![holder.local_addr().unwrap()];
        let release = thread::spawn(move || {
            thread::sleep(Duration::from_millis(300));
            drop(holder);
        });
        // SO_REUSEADDR makes a same-process rebind of a *closed* listener succeed;
        // while `holder` is live the bind fails with AddrInUse and must be retried.
        let fabric = TcpFabric::bind_node(NodeId(0), &addrs, 1).unwrap();
        release.join().unwrap();
        assert_eq!(fabric.addresses()[0], addrs[0]);
    }

    #[test]
    fn drop_edges_from_reconnects_with_a_fresh_hello() {
        let mut fabric = TcpFabric::new(2).unwrap();
        let rx = fabric.take_receiver(NodeId(1));
        let sender = fabric.sender();
        sender.send(NodeId(0), NodeId(1), Message::DirAck { shard: 0, epoch: 1, seq: 1 });
        let (_, hello) = rx.recv_timeout(StdDuration::from_secs(5)).unwrap();
        assert_eq!(hello, Message::Hello { node: NodeId(0), incarnation: 0 });
        assert!(matches!(recv_data(&rx).1, Message::DirAck { .. }));

        // Node 0 "restarts": bump its incarnation and tear down its outgoing edges.
        // The next send reconnects and the peer sees the new incarnation.
        fabric.set_incarnation(NodeId(0), 1);
        sender.drop_edges_from(NodeId(0));
        sender.send(NodeId(0), NodeId(1), Message::DirAck { shard: 0, epoch: 1, seq: 2 });
        let (_, hello) = rx.recv_timeout(StdDuration::from_secs(5)).unwrap();
        assert_eq!(hello, Message::Hello { node: NodeId(0), incarnation: 1 });
        assert!(matches!(recv_data(&rx).1, Message::DirAck { seq: 2, .. }));
    }
}
