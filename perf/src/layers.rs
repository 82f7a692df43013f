//! `perf layers`: the box's ceilings and one timed probe per layer, each taken from
//! outside by calling the layer's public functions with the shapes the workloads
//! send. Every probe is the median of [`BATCHES`] batches.

use std::hint::black_box;
use std::io::{Cursor, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::mpsc;
use std::thread;
use std::time::Instant;

use hoplite_cluster::{LocalCluster, LocalFabric};
use hoplite_core::prelude::*;
use hoplite_transport::fabric::{ChannelFabric, Fabric, FabricSender};
use hoplite_transport::framing::{encode_frame_vectored, Cork, FrameReader};
use hoplite_transport::tcp::TcpFabric;

use crate::gen::{Rng, MIB};
use crate::report::{metric, Metric};
use crate::stats::median;

/// Batches per probe.
pub const BATCHES: usize = 30;

/// The pipelining block every bulk workload moves.
const BLOCK: usize = 4 * MIB as usize;
/// The small object of `small1k`.
const SMALL: usize = 1024;
/// How many decoded inline frames the inline cache and local store keep alive.
const HELD_VIEWS: usize = 64;

fn probe(name: &'static str, mut batch: impl FnMut() -> f64) -> Metric {
    let values: Vec<f64> = (0..BATCHES).map(|_| batch()).collect();
    metric(name, median(&values), values.len())
}

fn gib_per_s(bytes: usize, since: Instant) -> f64 {
    bytes as f64 / (1u64 << 30) as f64 / since.elapsed().as_secs_f64()
}

fn ns_each(iters: usize, since: Instant) -> f64 {
    since.elapsed().as_nanos() as f64 / iters as f64
}

// ------------------------------------------------------- shapes the workloads send --

/// A 4 MiB `PushBlock`: block `index` of `object`, a view into the sender's copy.
pub fn block_msg(object: &Payload, index: usize) -> Message {
    let offset = (index * BLOCK) as u64;
    Message::PushBlock {
        object: ObjectId::from_name("probe-block"),
        offset,
        total_size: object.len(),
        payload: object.slice(offset, BLOCK as u64),
        complete: offset + BLOCK as u64 >= object.len(),
    }
}

/// The control frame `small1k` sends most: a directory query.
pub fn query_msg(query_id: u64) -> Message {
    Message::DirQuery {
        object: ObjectId::from_name("probe-small"),
        requester: NodeId(1),
        query_id,
        exclude: Vec::new(),
    }
}

/// The inline reply that answers it with a 1 KiB object.
pub fn inline_reply_msg(query_id: u64, payload: &Payload) -> Message {
    Message::DirQueryReply {
        object: ObjectId::from_name("probe-small"),
        query_id,
        result: QueryResult::Inline { payload: payload.clone() },
    }
}

fn random_payload(len: usize) -> Payload {
    Payload::from_vec(Rng::new(len as u64).bytes(len))
}

fn frames_of(msgs: impl Iterator<Item = Message>) -> Vec<u8> {
    let mut wire = Vec::new();
    for msg in msgs {
        wire.extend_from_slice(&encode_frame_vectored(&msg).expect("encodable").to_contiguous());
    }
    wire
}

// ---------------------------------------------------------------- box ceilings ----

fn calibration(out: &mut Vec<Metric>) {
    let len = 256 * MIB as usize;
    let src = vec![1u8; len];
    let mut dst = vec![0u8; len];
    out.push(probe("calib.memcpy_gibps", || {
        let t = Instant::now();
        dst.copy_from_slice(black_box(&src));
        black_box(&mut dst);
        gib_per_s(len, t)
    }));
    drop((src, dst));

    // Raw loopback TCP: what any transport on this box could reach.
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr");
    let batch_bytes = 8 * BLOCK;
    let sink = thread::spawn(move || {
        let (mut stream, _) = listener.accept().expect("accept");
        let mut buf = vec![0u8; BLOCK];
        let mut seen = 0usize;
        loop {
            match stream.read(&mut buf) {
                Ok(0) | Err(_) => return,
                Ok(n) => seen += n,
            }
            if seen >= batch_bytes {
                seen -= batch_bytes;
                if stream.write_all(&[1]).is_err() {
                    return;
                }
            }
        }
    });
    let mut stream = TcpStream::connect(addr).expect("connect loopback");
    let block = vec![7u8; BLOCK];
    out.push(probe("calib.loopback_stream_gibps", || {
        let t = Instant::now();
        for _ in 0..8 {
            stream.write_all(&block).expect("loopback write");
        }
        stream.read_exact(&mut [0u8; 1]).expect("loopback ack");
        gib_per_s(batch_bytes, t)
    }));
    drop(stream);
    sink.join().expect("loopback sink");

    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr");
    let echo = thread::spawn(move || {
        let (mut stream, _) = listener.accept().expect("accept");
        stream.set_nodelay(true).expect("nodelay");
        let mut buf = [0u8; 64];
        while stream.read_exact(&mut buf).is_ok() && stream.write_all(&buf).is_ok() {}
    });
    let mut stream = TcpStream::connect(addr).expect("connect loopback");
    stream.set_nodelay(true).expect("nodelay");
    out.push(probe("calib.loopback_rtt_us", || {
        let mut buf = [3u8; 64];
        let t = Instant::now();
        for _ in 0..200 {
            stream.write_all(&buf).expect("ping");
            stream.read_exact(&mut buf).expect("pong");
        }
        ns_each(200, t) / 1e3
    }));
    drop(stream);
    echo.join().expect("loopback echo");

    let (ping_tx, ping_rx) = mpsc::channel::<u64>();
    let (pong_tx, pong_rx) = mpsc::channel::<u64>();
    let echo = thread::spawn(move || {
        for v in ping_rx {
            if pong_tx.send(v).is_err() {
                return;
            }
        }
    });
    out.push(probe("calib.thread_handoff_us", || {
        let t = Instant::now();
        for i in 0..500 {
            ping_tx.send(i).expect("echo alive");
            black_box(pong_rx.recv().expect("echo alive"));
        }
        // A round trip is two hand-offs.
        ns_each(1000, t) / 1e3
    }));
    drop(ping_tx);
    echo.join().expect("handoff echo");
}

// ------------------------------------------------------------ transport.framing ----

fn framing(out: &mut Vec<Metric>) {
    let object = random_payload(8 * BLOCK);
    let blocks: Vec<Message> = (0..8).map(|i| block_msg(&object, i)).collect();
    out.push(probe("transport.framing.encode_block_ns", || {
        let t = Instant::now();
        for msg in &blocks {
            black_box(encode_frame_vectored(black_box(msg)).expect("encodable"));
        }
        ns_each(blocks.len(), t)
    }));
    let wire = frames_of(blocks.iter().cloned());
    out.push(probe("transport.framing.decode_block_ns", || {
        let mut reader = FrameReader::new(Cursor::new(wire.as_slice()));
        let t = Instant::now();
        for _ in 0..blocks.len() {
            black_box(reader.read_message().expect("decodable"));
        }
        ns_each(blocks.len(), t)
    }));
    drop((wire, blocks, object));

    let ctrl = 1000;
    out.push(probe("transport.framing.encode_ctrl_ns", || {
        let t = Instant::now();
        for i in 0..ctrl {
            black_box(encode_frame_vectored(black_box(&query_msg(i))).expect("encodable"));
        }
        ns_each(ctrl as usize, t)
    }));
    let wire = frames_of((0..ctrl).map(query_msg));
    out.push(probe("transport.framing.decode_ctrl_ns", || {
        let mut reader = FrameReader::new(Cursor::new(wire.as_slice()));
        let t = Instant::now();
        for _ in 0..ctrl {
            black_box(reader.read_message().expect("decodable"));
        }
        ns_each(ctrl as usize, t)
    }));

    // The slab-pinning case: a decoded inline payload is a view into the receive
    // slab, and the inline cache / local store keep it, so the slab cannot be written
    // again while it lives.
    let small = random_payload(SMALL);
    let inline = 2 * HELD_VIEWS as u64;
    let wire = frames_of((0..inline).map(|i| inline_reply_msg(i, &small)));
    let mut reuses = Vec::new();
    out.push(probe("transport.framing.decode_inline_ns", || {
        let mut reader = FrameReader::new(Cursor::new(wire.as_slice()));
        let mut held = std::collections::VecDeque::with_capacity(HELD_VIEWS);
        let t = Instant::now();
        for _ in 0..inline {
            if held.len() == HELD_VIEWS {
                held.pop_front();
            }
            held.push_back(reader.read_message().expect("decodable"));
        }
        let ns = ns_each(inline as usize, t);
        reuses.push(reader.take_slab_reuses() as f64 / inline as f64);
        ns
    }));
    out.push(metric("transport.framing.slab_reuse_ratio", median(&reuses), reuses.len()));

    /// Counts the writes a `Cork` issues.
    struct CountingSink(u64);
    impl Write for CountingSink {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0 += 1;
            Ok(buf.len())
        }
        fn write_vectored(&mut self, bufs: &[std::io::IoSlice<'_>]) -> std::io::Result<usize> {
            self.0 += 1;
            Ok(bufs.iter().map(|b| b.len()).sum())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }
    // One `small1k` Put fans out into a burst of about this many control frames on an
    // edge before its writer's queue drains.
    let burst = 4;
    out.push(probe("transport.framing.cork_frames_per_write", || {
        let (mut cork, mut sink) = (Cork::new(), CountingSink(0));
        for i in 0..ctrl {
            cork.write(&mut sink, &query_msg(i)).expect("sink never fails");
            if (i + 1) % burst == 0 {
                cork.flush(&mut sink).expect("sink never fails");
            }
        }
        cork.flush(&mut sink).expect("sink never fails");
        ctrl as f64 / sink.0 as f64
    }));
}

// ------------------------------------------------------- transport.tcp / fabric ----

/// The next protocol frame on `rx`. Every TCP edge leads with a forwarded `Hello`,
/// which is connection set-up, not traffic.
fn recv_data(rx: &crossbeam_channel::Receiver<(NodeId, Message)>) -> Message {
    loop {
        match rx.recv().expect("fabric alive") {
            (_, Message::Hello { .. }) => continue,
            (_, msg) => return msg,
        }
    }
}

/// Ends the echo thread of the fabric ping-pong probes.
fn stop_msg() -> Message {
    Message::PullCancel { object: ObjectId::from_name("probe-stop"), requester: NodeId(0) }
}

/// Ping-pong over a fabric: node 0 sends a query, node 1 answers with a control frame
/// (`inline == false`) or a 1 KiB inline reply that node 0 then keeps.
fn fabric_rtt<F: Fabric>(mut fabric: F, out: &mut Vec<Metric>, names: &[(&'static str, bool)])
where
    F::Sender: Clone,
{
    let rx0 = fabric.take_receiver(NodeId(0));
    let rx1 = fabric.take_receiver(NodeId(1));
    let sender = fabric.sender();
    let echo_sender = sender.clone();
    let echo = thread::spawn(move || {
        let small = random_payload(SMALL);
        loop {
            let reply = match recv_data(&rx1) {
                Message::DirQuery { query_id, .. } if query_id % 2 == 1 => {
                    inline_reply_msg(query_id, &small)
                }
                Message::DirQuery { query_id, .. } => query_msg(query_id),
                _ => return,
            };
            echo_sender.send(NodeId(1), NodeId(0), reply);
        }
    });
    for &(name, inline) in names {
        let mut held = std::collections::VecDeque::with_capacity(HELD_VIEWS);
        out.push(probe(name, || {
            let t = Instant::now();
            for i in 0..100u64 {
                sender.send(NodeId(0), NodeId(1), query_msg(2 * i + inline as u64));
                let reply = recv_data(&rx0);
                if held.len() == HELD_VIEWS {
                    held.pop_front();
                }
                held.push_back(reply);
            }
            ns_each(100, t) / 1e3
        }));
    }
    sender.send(NodeId(0), NodeId(1), stop_msg());
    echo.join().expect("fabric echo");
}

fn fabrics(out: &mut Vec<Metric>) {
    let mut fabric = TcpFabric::new(2).expect("bind localhost listeners");
    let rx1 = fabric.take_receiver(NodeId(1));
    let sender = fabric.sender();
    let object = random_payload(8 * BLOCK);
    out.push(probe("transport.tcp.stream_gibps", || {
        let t = Instant::now();
        for i in 0..8 {
            sender.send(NodeId(0), NodeId(1), block_msg(&object, i));
        }
        for _ in 0..8 {
            // Payloads are dropped on receipt, so receive slabs recycle.
            black_box(recv_data(&rx1));
        }
        gib_per_s(8 * BLOCK, t)
    }));
    drop((rx1, sender, fabric));

    fabric_rtt(
        TcpFabric::new(2).expect("bind localhost listeners"),
        out,
        &[("transport.tcp.ctrl_rtt_us", false), ("transport.tcp.inline_rtt_us", true)],
    );
    fabric_rtt(ChannelFabric::new(2), out, &[("transport.fabric.channel_rtt_us", false)]);
}

// ------------------------------------------------------------------------ core ----

fn core(out: &mut Vec<Metric>) {
    let object = random_payload(16 * BLOCK);
    let blocks: Vec<Payload> =
        (0..16).map(|i| object.slice((i * BLOCK) as u64, BLOCK as u64)).collect();
    let fill = |buffer: &mut ProgressBuffer| {
        for (i, block) in blocks.iter().enumerate() {
            assert!(buffer.append_at((i * BLOCK) as u64, block));
        }
    };
    out.push(probe("core.buffer.append_gibps", || {
        let mut buffer = ProgressBuffer::new(object.len(), false);
        let t = Instant::now();
        fill(&mut buffer);
        gib_per_s(16 * BLOCK, t)
    }));
    // The copy every large `get` ends with.
    out.push(probe("core.buffer.coalesce_gibps", || {
        let mut buffer = ProgressBuffer::new(object.len(), false);
        fill(&mut buffer);
        let t = Instant::now();
        black_box(buffer.to_payload().expect("complete"));
        gib_per_s(16 * BLOCK, t)
    }));
    let mut buffer = ProgressBuffer::new(object.len(), false);
    fill(&mut buffer);
    out.push(probe("core.buffer.read_block_ns", || {
        let t = Instant::now();
        for i in 0..16 {
            black_box(buffer.read((i * BLOCK) as u64, BLOCK as u64).expect("below watermark"));
        }
        ns_each(16, t)
    }));

    let small = random_payload(SMALL);
    let mut store = LocalStore::new(HopliteConfig::default().store_capacity);
    let mut next = 0u64;
    out.push(probe("core.store.put_get_ns", || {
        let t = Instant::now();
        for _ in 0..1000 {
            next += 1;
            let id = ObjectId::from_name("probe-store").derived(next);
            store.put_complete(id, small.clone(), true).expect("fresh id");
            black_box(store.get_complete(id).expect("just stored"));
            assert!(store.delete(id));
        }
        ns_each(1000, t)
    }));
    out.push(probe("core.store.append_read_ns", || {
        next += 1;
        let id = ObjectId::from_name("probe-store").derived(next);
        store.begin_receive(id, object.len(), false).expect("fresh id");
        let t = Instant::now();
        for (i, block) in blocks.iter().enumerate() {
            let offset = (i * BLOCK) as u64;
            store.append(id, offset, block).expect("in order");
            black_box(store.read(id, offset, BLOCK as u64).expect("below watermark"));
        }
        let ns = ns_each(16, t);
        store.delete(id);
        ns
    }));

    let spec = ReduceSpec::sum_f32();
    let values: Vec<f32> = (0..BLOCK / 4).map(|i| (i % 16) as f32).collect();
    let block = Payload::from_f32s(&values);
    let mut acc = vec![0u8; BLOCK];
    out.push(probe("core.reduce.op.combine_gibps", || {
        let t = Instant::now();
        for _ in 0..4 {
            spec.combine_into(ObjectId::default(), black_box(&mut acc), black_box(&block))
                .expect("matching shapes");
        }
        gib_per_s(4 * BLOCK, t)
    }));

    let mut shard = DirectoryShard::new(0, HopliteConfig::default());
    let mut replies = Vec::new();
    let base = ObjectId::from_name("probe-dir");
    let mut next = 0u64;
    out.push(probe("core.directory.shard.register_ns", || {
        let t = Instant::now();
        for _ in 0..1000 {
            next += 1;
            shard.register(
                base.derived(next),
                NodeId(0),
                ObjectStatus::Complete,
                64 * MIB,
                &mut replies,
            );
        }
        replies.clear();
        ns_each(1000, t)
    }));
    let inline_obj = ObjectId::from_name("probe-dir-inline");
    shard.put_inline(inline_obj, NodeId(0), small.clone(), &mut replies);
    let located_obj = base.derived(1);
    for (name, object) in [
        ("core.directory.shard.query_inline_ns", inline_obj),
        ("core.directory.shard.query_location_ns", located_obj),
    ] {
        out.push(probe(name, || {
            let t = Instant::now();
            for query_id in 0..1000 {
                shard.query(object, NodeId(1), query_id, Vec::new(), &mut replies);
            }
            assert_eq!(replies.len(), 1000, "every query is answered at once");
            replies.clear();
            ns_each(1000, t)
        }));
    }
}

// ---------------------------------------------------------------- cluster.host ----

/// Client → event loop → reply with nothing remote in between: the pure hand-off a
/// `put` or a local `get` pays on the real cluster.
fn host(out: &mut Vec<Metric>) {
    let cluster = LocalCluster::with_fabric(2, HopliteConfig::default(), LocalFabric::Tcp);
    let client = cluster.client(0);
    let small = random_payload(SMALL);
    let mut next = 0u64;
    let (mut put_us, mut get_us) = (Vec::new(), Vec::new());
    for _ in 0..BATCHES {
        let (mut put_ns, mut get_ns) = (0u128, 0u128);
        for _ in 0..20 {
            next += 1;
            let id = ObjectId::from_name("probe-host").derived(next);
            let t = Instant::now();
            client.put(id, small.clone()).expect("put");
            put_ns += t.elapsed().as_nanos();
            let t = Instant::now();
            black_box(client.get(id).expect("local get"));
            get_ns += t.elapsed().as_nanos();
            client.delete(id).expect("delete");
        }
        put_us.push(put_ns as f64 / 20e3);
        get_us.push(get_ns as f64 / 20e3);
    }
    for (name, values) in [("cluster.host.put_us", put_us), ("cluster.host.get_local_us", get_us)] {
        out.push(metric(name, median(&values), values.len()));
    }
}

/// Run every probe.
pub fn run() -> Vec<Metric> {
    let mut out = Vec::new();
    calibration(&mut out);
    framing(&mut out);
    fabrics(&mut out);
    core(&mut out);
    host(&mut out);
    out
}
