//! Criterion benches for the data-plane building blocks: streaming progress buffers,
//! block slicing, element-wise reduction, and wire framing.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use hoplite_core::buffer::{Payload, ProgressBuffer};
use hoplite_core::object::ObjectId;
use hoplite_core::reduce::ReduceSpec;
use hoplite_transport::framing::{
    decode_body, encode_frame_vectored, write_frame_vectored, Cork, FrameReader,
};

fn bench_progress_buffer(c: &mut Criterion) {
    let block = Payload::zeros(4 * 1024 * 1024);
    let total = 64 * 1024 * 1024u64;
    let mut group = c.benchmark_group("progress_buffer_append_64MB");
    group.throughput(Throughput::Bytes(total));
    group.bench_function("4MB_blocks", |b| {
        b.iter(|| {
            let mut buf = ProgressBuffer::new(total, false);
            let mut offset = 0;
            while offset < total {
                buf.append_at(offset, &block);
                offset += block.len();
            }
            buf.is_complete()
        })
    });
    // Appends are zero-copy segment adoptions and so is the complete payload `get`
    // returns; this variant is what a caller who wants one flat buffer pays on top.
    group.bench_function("4MB_blocks/to_owned_vec", |b| {
        b.iter(|| {
            let mut buf = ProgressBuffer::new(total, false);
            let mut offset = 0;
            while offset < total {
                buf.append_at(offset, &block);
                offset += block.len();
            }
            buf.to_payload().unwrap().to_owned_vec().unwrap().len()
        })
    });
    group.finish();
}

/// The forward hop of a relay node, minus the network: append received blocks, read
/// every block back out (including reads that straddle the received segments), and
/// re-encode each as a scatter-gather frame. No coalesce anywhere — this is the path
/// the zero-copy send work opened up, and the copy-counter tests pin it at zero
/// payload memcpys.
fn bench_forward_path(c: &mut Criterion) {
    let block_len = 4 * 1024 * 1024u64;
    let total = 64 * 1024 * 1024u64;
    let block = Payload::zeros(block_len as usize);
    let object = ObjectId::from_name("fwd");
    let mut group = c.benchmark_group("forward_path_64MB");
    group.throughput(Throughput::Bytes(total));
    group.bench_function("append_read_reencode_no_coalesce", |b| {
        b.iter(|| {
            let mut buf = ProgressBuffer::new(total, false);
            let mut offset = 0;
            while offset < total {
                buf.append_at(offset, &block);
                offset += block_len;
            }
            // Forward at a half-block phase shift so every read spans two received
            // segments — the case the old path could only serve with a memcpy.
            let mut sent = 0u64;
            let mut offset = block_len / 2;
            while offset + block_len <= total {
                let payload = buf.read(offset, block_len).unwrap();
                let frame = encode_frame_vectored(&hoplite_core::protocol::Message::PushBlock {
                    object,
                    offset,
                    total_size: total,
                    payload,
                    complete: false,
                })
                .unwrap();
                sent += frame.frame_len() as u64;
                offset += block_len;
            }
            sent
        })
    });
    group.finish();
}

fn bench_reduce_combine(c: &mut Criterion) {
    let spec = ReduceSpec::sum_f32();
    let target = ObjectId::from_name("bench");
    let a = Payload::from_f32s(&vec![1.0f32; 1 << 20]);
    let b_payload = Payload::from_f32s(&vec![2.0f32; 1 << 20]);
    let mut group = c.benchmark_group("reduce_combine_f32");
    group.throughput(Throughput::Bytes((1 << 20) * 4));
    // The streaming engines' path: fold into a reusable accumulator in place.
    group.bench_function("4MB_block_inplace", |bench| {
        let mut acc = a.to_owned_vec().unwrap();
        bench.iter(|| {
            spec.combine_into(target, &mut acc, &b_payload).unwrap();
            acc.len()
        })
    });
    group.finish();
}

fn bench_framing(c: &mut Criterion) {
    let msg = hoplite_core::protocol::Message::PushBlock {
        object: ObjectId::from_name("frame"),
        offset: 0,
        total_size: 4 * 1024 * 1024,
        payload: Payload::zeros(4 * 1024 * 1024),
        complete: false,
    };
    // Decode consumes a shared receive buffer holding the frame body (the wire bytes
    // after the length prefix), exactly as `FrameReader` hands it over.
    let encoded =
        bytes::Bytes::from(encode_frame_vectored(&msg).unwrap().to_contiguous().split_off(4));
    let mut group = c.benchmark_group("framing_push_block_4MB");
    group.throughput(Throughput::Bytes(4 * 1024 * 1024));
    // The send path: header-only work, the payload rides as a shared reference.
    group.bench_function("encode_vectored", |b| {
        b.iter(|| encode_frame_vectored(&msg).unwrap().frame_len())
    });
    group.bench_function("decode", |b| b.iter(|| decode_body(&encoded).unwrap()));

    // The receive path proper: a 64 MiB stream of 4 MiB PushBlock frames consumed by
    // the pooled slab reader (frames decode as views into a reused block-aligned slab;
    // payloads are never copied).
    let mut stream = Vec::new();
    for i in 0..16u64 {
        write_frame_vectored(
            &mut stream,
            &hoplite_core::protocol::Message::PushBlock {
                object: ObjectId::from_name("frame"),
                offset: i * 4 * 1024 * 1024,
                total_size: 64 * 1024 * 1024,
                payload: Payload::zeros(4 * 1024 * 1024),
                complete: false,
            },
        )
        .unwrap();
    }
    group.throughput(Throughput::Bytes(stream.len() as u64));
    group.bench_function("read_frame_slab", |b| {
        b.iter(|| {
            let mut reader = FrameReader::new(std::io::Cursor::new(stream.as_slice()));
            let mut frames = 0u64;
            for _ in 0..16 {
                reader.read_message().unwrap();
                frames += 1;
            }
            frames
        })
    });

    // Buffer acquisition, isolated: a warm slab checkout is a lock, a refcount scan
    // and a pointer swap. The full-stream row above is bounded below by the one
    // unavoidable copy out of the source; this shows the allocation machinery itself.
    use hoplite_core::buffer::SlabPool;
    group.bench_function("recv_buffer_slab_checkout", |b| {
        let pool = SlabPool::for_block_size(4 * 1024 * 1024);
        let warm = pool.checkout(pool.slab_len());
        pool.retain(warm);
        b.iter(|| {
            let slab = pool.checkout(pool.slab_len());
            let len = slab.len();
            pool.retain(slab);
            len
        })
    });
    group.finish();
}

/// A burst of small control frames (acks), written frame-by-frame vs corked into
/// batched vectored writes. On a real socket the win is syscall count (the TCP
/// fabric's writer thread corks opportunistically); this measures the framing-layer
/// overhead of both paths against a memory sink.
fn bench_control_burst(c: &mut Criterion) {
    const BURST: usize = 1024;
    let acks: Vec<hoplite_core::protocol::Message> = (0..BURST as u64)
        .map(|seq| hoplite_core::protocol::Message::DirAck { shard: 0, epoch: 1, seq })
        .collect();
    let mut group = c.benchmark_group("control_frame_burst");
    group.throughput(Throughput::Elements(BURST as u64));
    group.bench_function("uncorked", |b| {
        b.iter(|| {
            let mut sink = Vec::with_capacity(BURST * 32);
            for msg in &acks {
                write_frame_vectored(&mut sink, msg).unwrap();
            }
            sink.len()
        })
    });
    group.bench_function("corked", |b| {
        b.iter(|| {
            let mut sink = Vec::with_capacity(BURST * 32);
            let mut cork = Cork::new();
            for msg in &acks {
                cork.write(&mut sink, msg).unwrap();
            }
            cork.flush(&mut sink).unwrap();
            sink.len()
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_progress_buffer,
    bench_forward_path,
    bench_reduce_combine,
    bench_framing,
    bench_control_burst
);
criterion_main!(benches);
