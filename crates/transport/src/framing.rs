//! Wire framing for the real transports.
//!
//! The paper's implementation splits traffic into a gRPC control plane and a raw-TCP
//! data plane (§4). We mirror that split inside a single framed stream: every message
//! is encoded with a compact fixed binary layout — one tag byte selecting the variant,
//! followed by the variant's fields in wire order. Each frame is length-prefixed.
//!
//! ```text
//! +----------------+--------+----------------------------+
//! | length: u32 BE | tag u8 | body (length - 1 bytes)    |
//! +----------------+--------+----------------------------+
//! ```
//!
//! Integers are big-endian. Variable-length fields (`Vec`, `String`, payloads) are
//! length-prefixed. The codec is dependency-free and declared once: the `Wire` trait
//! says how each *field type* rides the wire, and the message table (search for
//! "message table" below) lists, per tag, the variant, its fields in wire order and
//! whether its payload may alias the receive buffer. The encoder, the decoder, the
//! bound on every list length and which frames can pin a receive slab are all
//! derived from those two; the decode side bounds-checks every read and rejects
//! trailing or truncated bytes. `tests/golden_frames.txt` pins the bytes peers observe.

use bytes::Bytes;
use hoplite_core::buffer::SlabPool;
use hoplite_core::copytrace;
use hoplite_core::prelude::*;
use hoplite_core::protocol::ReduceParent;
// The core prelude exports its own single-parameter `Result` alias; framing uses the
// standard two-parameter form.
use std::result::Result;

/// Errors produced while encoding or decoding frames.
#[derive(Debug)]
pub enum FrameError {
    /// The frame is shorter than its header or otherwise malformed.
    Malformed(String),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Malformed(m) => write!(f, "malformed frame: {m}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<FrameError> for std::io::Error {
    fn from(e: FrameError) -> std::io::Error {
        std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string())
    }
}

fn malformed(what: &str) -> FrameError {
    FrameError::Malformed(what.to_string())
}

fn oversized(body_len: usize) -> FrameError {
    FrameError::Malformed(format!("frame body of {body_len} bytes exceeds MAX_FRAME_BODY"))
}

/// Largest frame body either side accepts: sixteen default pipelining blocks, far
/// above any frame the product builds (a block frame is one block plus ~60 header
/// bytes; resync chunks are bounded by `snapshot_chunk_bytes`). The length prefix
/// comes straight off the network, so [`FrameReader`] checks it against this before it
/// sizes a receive slab, and the encoder refuses to build a longer frame so an honest
/// sender fails loudly instead of being disconnected by its peer.
pub const MAX_FRAME_BODY: usize = 64 * 1024 * 1024;

// ---------------------------------------------------------- scatter-gather frames --

/// Payload segments shorter than this are copied into the adjacent contiguous run
/// instead of being emitted as separate scatter-gather parts. This is the short-frame
/// coalesce threshold: control messages and tiny inline payloads stay one contiguous
/// part (one `write` syscall on the TCP fabric, no iovec bookkeeping), while bulk
/// blocks ride as shared segment references with zero payload memcpys. Tune it to the
/// crossover point where one extra iovec beats one memcpy on the target machine —
/// a few KiB on commodity Linux; raising it trades copies for fewer syscalls.
pub const GATHER_MIN_SEGMENT: usize = 4 * 1024;

/// A wire frame encoded as scatter-gather parts: the length-prefixed `header` holds
/// the tag and every fixed field, and `segments` holds the bulk payload as shared,
/// zero-copy references (for a forwarded block: the very [`Bytes`] views sitting in
/// the sender's `ProgressBuffer`, uncoalesced). The wire bytes are `header ++
/// segments`.
#[derive(Clone, Debug)]
pub struct EncodedFrame {
    /// Length prefix, tag, and fixed fields (plus any payload bytes below the
    /// [`GATHER_MIN_SEGMENT`] coalesce threshold).
    pub header: Bytes,
    /// Bulk payload segments, in wire order, shared zero-copy with their producers.
    pub segments: Vec<Bytes>,
}

impl EncodedFrame {
    /// Total frame length in bytes (length prefix included).
    pub fn frame_len(&self) -> usize {
        self.header.len() + self.segments.iter().map(|s| s.len()).sum::<usize>()
    }

    /// All parts in wire order (header first).
    pub fn parts(&self) -> impl Iterator<Item = &Bytes> {
        std::iter::once(&self.header).chain(self.segments.iter())
    }

    /// Flatten into one contiguous frame (tests and diagnostics; the send path never
    /// needs this).
    pub fn to_contiguous(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.frame_len());
        for part in self.parts() {
            out.extend_from_slice(part);
        }
        out
    }
}

/// Encode sink: an ordered list of parts, either owned contiguous runs or shared
/// payload segments adopted by reference.
enum Part {
    Owned(Vec<u8>),
    Shared(Bytes),
}

struct FrameWriter {
    parts: Vec<Part>,
}

impl FrameWriter {
    fn new() -> FrameWriter {
        FrameWriter { parts: vec![Part::Owned(Vec::new())] }
    }

    /// The current owned run, extended after any shared segment.
    fn run(&mut self) -> &mut Vec<u8> {
        if !matches!(self.parts.last(), Some(Part::Owned(_))) {
            self.parts.push(Part::Owned(Vec::new()));
        }
        match self.parts.last_mut() {
            Some(Part::Owned(v)) => v,
            _ => unreachable!("an owned run was just ensured"),
        }
    }

    fn put(&mut self, bytes: &[u8]) {
        self.run().extend_from_slice(bytes);
    }

    fn put_byte(&mut self, byte: u8) {
        self.run().push(byte);
    }

    /// Adopt a shared payload segment by reference, or copy it into the current run
    /// when it is under the coalesce threshold. The copy branch is the *only* place
    /// encode touches payload bytes, and it shows up in the debug copy tally.
    fn put_shared(&mut self, segment: &Bytes) {
        if segment.len() >= GATHER_MIN_SEGMENT {
            self.parts.push(Part::Shared(segment.clone()));
        } else {
            copytrace::record(segment.len());
            self.put(segment);
        }
    }

    /// Assemble a length-prefixed scatter-gather frame, refusing one whose body the
    /// receiving [`FrameReader`] would reject.
    fn into_frame(self) -> Result<EncodedFrame, FrameError> {
        let body_len: usize = self
            .parts
            .iter()
            .map(|p| match p {
                Part::Owned(v) => v.len(),
                Part::Shared(b) => b.len(),
            })
            .sum();
        let len32 = match u32::try_from(body_len) {
            Ok(len) if body_len <= MAX_FRAME_BODY => len,
            _ => return Err(oversized(body_len)),
        };
        let mut iter = self.parts.into_iter();
        let first = match iter.next() {
            Some(Part::Owned(v)) => v,
            _ => unreachable!("the writer is seeded with an owned run"),
        };
        let mut header = Vec::with_capacity(4 + first.len());
        header.extend_from_slice(&len32.to_be_bytes());
        header.extend_from_slice(&first);
        let segments = iter
            .map(|p| match p {
                Part::Owned(v) => Bytes::from(v),
                Part::Shared(b) => b,
            })
            .collect();
        Ok(EncodedFrame { header: Bytes::from(header), segments })
    }
}

/// Bounds-checked cursor over a received frame body.
///
/// The cursor borrows the frame as a shared [`Bytes`] buffer so block payloads decode
/// as zero-copy sub-slices of the receive buffer instead of fresh allocations — the
/// difference between ~1 GiB/s and encode-parity decode throughput on 4 MiB blocks
/// (see `BENCH_NOTES.md`).
struct Reader<'a> {
    buf: &'a Bytes,
    at: usize,
    /// Whether payload bytes decode as shared views of `buf` (pinning it for as long
    /// as they live) or as right-sized owned copies. Set from the frame's row in the
    /// message table, never per call site.
    alias_payloads: bool,
}

impl<'a> Reader<'a> {
    fn remaining(&self) -> usize {
        self.buf.len() - self.at
    }

    /// The next `n` bytes. A length that overflows or runs past the frame surfaces as
    /// `Malformed`, never as an arithmetic panic — these bytes come straight off the
    /// network.
    fn take(&mut self, n: usize) -> Result<&'a [u8], FrameError> {
        match self.at.checked_add(n) {
            Some(end) if end <= self.buf.len() => {
                let slice = &self.buf.as_slice()[self.at..end];
                self.at = end;
                Ok(slice)
            }
            _ => Err(malformed("truncated field")),
        }
    }

    /// The next `n` bytes as payload contents: a shared sub-slice of the frame when
    /// this frame's payload may alias it (no copy), otherwise an owned copy exactly
    /// `n` bytes long, recorded in the debug copy tally.
    fn take_payload(&mut self, n: usize) -> Result<Bytes, FrameError> {
        let start = self.at;
        let bytes = self.take(n)?;
        if self.alias_payloads {
            Ok(self.buf.slice(start..self.at))
        } else {
            copytrace::record(n);
            Ok(Bytes::copy_from_slice(bytes))
        }
    }

    fn finish(self) -> Result<(), FrameError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(malformed("trailing bytes after message"))
        }
    }
}

// ------------------------------------------------------------------- field types --

/// How one field type rides the wire. Implemented once per type; a message is a tag
/// plus a sequence of such fields (see `wire_enum!`), so no message has encode or
/// decode code of its own.
trait Wire: Sized {
    /// Fewest bytes any value of this type encodes to. A list announcing `n` elements
    /// is rejected unless `n * MIN_LEN` bytes are actually left in the frame, so a
    /// corrupt or hostile count cannot drive a huge `Vec::with_capacity`.
    const MIN_LEN: usize;
    /// Append the encoding of `self`.
    fn put(&self, out: &mut FrameWriter);
    /// Consume one value from the cursor, or say why the bytes there are not one.
    fn get(r: &mut Reader<'_>) -> Result<Self, FrameError>;
}

macro_rules! wire_int {
    ($($t:ty),*) => {$(
        impl Wire for $t {
            const MIN_LEN: usize = std::mem::size_of::<$t>();
            fn put(&self, out: &mut FrameWriter) {
                out.put(&self.to_be_bytes());
            }
            fn get(r: &mut Reader<'_>) -> Result<$t, FrameError> {
                let bytes = r.take(Self::MIN_LEN)?.try_into().expect("MIN_LEN bytes were taken");
                Ok(<$t>::from_be_bytes(bytes))
            }
        }
    )*};
}
wire_int!(u8, u32, u64);

/// Counts, slots and lengths travel as `u64` whatever the platform's word size.
impl Wire for usize {
    const MIN_LEN: usize = u64::MIN_LEN;
    fn put(&self, out: &mut FrameWriter) {
        (*self as u64).put(out);
    }
    fn get(r: &mut Reader<'_>) -> Result<usize, FrameError> {
        usize::try_from(u64::get(r)?).map_err(|_| malformed("length overflows usize"))
    }
}

impl Wire for bool {
    const MIN_LEN: usize = 1;
    fn put(&self, out: &mut FrameWriter) {
        out.put_byte(u8::from(*self));
    }
    fn get(r: &mut Reader<'_>) -> Result<bool, FrameError> {
        Ok(u8::get(r)? != 0)
    }
}

impl Wire for NodeId {
    const MIN_LEN: usize = u32::MIN_LEN;
    fn put(&self, out: &mut FrameWriter) {
        self.0.put(out);
    }
    fn get(r: &mut Reader<'_>) -> Result<NodeId, FrameError> {
        Ok(NodeId(u32::get(r)?))
    }
}

impl Wire for ObjectId {
    const MIN_LEN: usize = 16;
    fn put(&self, out: &mut FrameWriter) {
        out.put(&self.0);
    }
    fn get(r: &mut Reader<'_>) -> Result<ObjectId, FrameError> {
        Ok(ObjectId(r.take(Self::MIN_LEN)?.try_into().expect("MIN_LEN bytes were taken")))
    }
}

impl Wire for GossipState {
    const MIN_LEN: usize = 1;
    fn put(&self, out: &mut FrameWriter) {
        out.put_byte(self.to_wire());
    }
    fn get(r: &mut Reader<'_>) -> Result<GossipState, FrameError> {
        let raw = u8::get(r)?;
        GossipState::from_wire(raw).ok_or_else(|| malformed(&format!("unknown gossip state {raw}")))
    }
}

impl Wire for String {
    const MIN_LEN: usize = usize::MIN_LEN;
    fn put(&self, out: &mut FrameWriter) {
        self.len().put(out);
        out.put(self.as_bytes());
    }
    fn get(r: &mut Reader<'_>) -> Result<String, FrameError> {
        let len = usize::get(r)?;
        String::from_utf8(r.take(len)?.to_vec()).map_err(|_| malformed("invalid utf-8 string"))
    }
}

/// A payload is a kind byte, the total length, then the bytes. Real payloads —
/// contiguous or segmented — produce identical wire bytes, and their segments ride as
/// shared references instead of being copied, which is the whole point of the
/// scatter-gather send path. Whether the decoded bytes alias the frame is the frame's
/// property, not the field's: see `Reader::take_payload`.
impl Wire for Payload {
    const MIN_LEN: usize = 1 + u64::MIN_LEN;
    fn put(&self, out: &mut FrameWriter) {
        out.put_byte(u8::from(self.is_synthetic()));
        self.len().put(out);
        for segment in self.segments() {
            out.put_shared(segment);
        }
    }
    fn get(r: &mut Reader<'_>) -> Result<Payload, FrameError> {
        match u8::get(r)? {
            0 => {
                let len = usize::get(r)?;
                Ok(Payload::Bytes(r.take_payload(len)?))
            }
            1 => Ok(Payload::synthetic(u64::get(r)?)),
            other => Err(malformed(&format!("unknown payload kind {other}"))),
        }
    }
}

impl<T: Wire> Wire for Option<T> {
    const MIN_LEN: usize = 1;
    fn put(&self, out: &mut FrameWriter) {
        out.put_byte(u8::from(self.is_some()));
        if let Some(v) = self {
            v.put(out);
        }
    }
    fn get(r: &mut Reader<'_>) -> Result<Option<T>, FrameError> {
        match u8::get(r)? {
            0 => Ok(None),
            1 => Ok(Some(T::get(r)?)),
            other => Err(malformed(&format!("unknown option flag {other}"))),
        }
    }
}

impl<T: Wire> Wire for Vec<T> {
    const MIN_LEN: usize = usize::MIN_LEN;
    fn put(&self, out: &mut FrameWriter) {
        self.len().put(out);
        for item in self {
            item.put(out);
        }
    }
    fn get(r: &mut Reader<'_>) -> Result<Vec<T>, FrameError> {
        let n = usize::get(r)?;
        // `n` honest elements need at least `n * MIN_LEN` of the bytes still unread;
        // check before reserving for them.
        match n.checked_mul(T::MIN_LEN) {
            Some(needed) if needed <= r.remaining() => {}
            _ => return Err(malformed("list longer than frame")),
        }
        let mut items = Vec::with_capacity(n);
        for _ in 0..n {
            items.push(T::get(r)?);
        }
        Ok(items)
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    const MIN_LEN: usize = A::MIN_LEN + B::MIN_LEN;
    fn put(&self, out: &mut FrameWriter) {
        self.0.put(out);
        self.1.put(out);
    }
    fn get(r: &mut Reader<'_>) -> Result<(A, B), FrameError> {
        Ok((A::get(r)?, B::get(r)?))
    }
}

impl<A: Wire, B: Wire, C: Wire> Wire for (A, B, C) {
    const MIN_LEN: usize = A::MIN_LEN + B::MIN_LEN + C::MIN_LEN;
    fn put(&self, out: &mut FrameWriter) {
        self.0.put(out);
        self.1.put(out);
        self.2.put(out);
    }
    fn get(r: &mut Reader<'_>) -> Result<(A, B, C), FrameError> {
        Ok((A::get(r)?, B::get(r)?, C::get(r)?))
    }
}

/// A struct rides the wire as its fields in the order listed here (which is the wire
/// order, not necessarily the declaration order); `MIN_LEN` is the sum of theirs.
macro_rules! wire_struct {
    ($ty:ident { $($field:ident: $t:ty),* $(,)? }) => {
        impl Wire for $ty {
            const MIN_LEN: usize = 0 $(+ <$t as Wire>::MIN_LEN)*;
            fn put(&self, out: &mut FrameWriter) {
                $(self.$field.put(out);)*
            }
            fn get(r: &mut Reader<'_>) -> Result<$ty, FrameError> {
                Ok($ty { $($field: <$t as Wire>::get(r)?),* })
            }
        }
    };
}

/// An enum rides the wire as one tag byte, then the chosen variant's fields in the
/// order its row lists them (types come from the variant's declaration). Each variant
/// is named in exactly one row, and both directions are derived from it. `min` is a
/// lower bound on the encoded size (the tag plus whatever every variant carries).
///
/// The second form is for the message table: a row may end in `aliases_slab`, and the
/// named function reports that mark per tag.
macro_rules! wire_enum {
    ($ty:ident as $what:literal, min $min:expr, {
        $($tag:literal => $variant:ident $fields:tt),* $(,)?
    }) => {
        impl Wire for $ty {
            const MIN_LEN: usize = $min;
            fn put(&self, out: &mut FrameWriter) {
                match self {$(
                    wire_enum!(@pattern $ty $variant $fields) => {
                        out.put_byte($tag);
                        wire_enum!(@put out $fields);
                    }
                )*}
            }
            fn get(r: &mut Reader<'_>) -> Result<$ty, FrameError> {
                match u8::get(r)? {
                    $($tag => Ok(wire_enum!(@get r $ty $variant $fields)),)*
                    other => {
                        Err(malformed(&format!(concat!("unknown ", $what, " {}"), other)))
                    }
                }
            }
        }
    };
    ($ty:ident as $what:literal, min $min:expr, marks by $marked:ident, {
        $($tag:literal => $variant:ident $fields:tt $($mark:ident)?),* $(,)?
    }) => {
        wire_enum!($ty as $what, min $min, { $($tag => $variant $fields),* });
        fn $marked(tag: u8) -> bool {
            match tag {
                $($tag => wire_enum!(@marked $($mark)?),)*
                _ => false,
            }
        }
    };
    // A row's fields are `{ a, b, .. }` (`{}` for a unit variant) or `(inner)`.
    (@pattern $ty:ident $variant:ident { $($field:ident),* }) => {
        $ty::$variant { $($field),* }
    };
    (@pattern $ty:ident $variant:ident ($inner:ident)) => { $ty::$variant($inner) };
    (@put $out:ident { $($field:ident),* }) => { $($field.put($out);)* };
    (@put $out:ident ($inner:ident)) => { $inner.put($out) };
    (@get $r:ident $ty:ident $variant:ident { $($field:ident),* }) => {
        $ty::$variant { $($field: Wire::get($r)?),* }
    };
    (@get $r:ident $ty:ident $variant:ident ($inner:ident)) => {
        $ty::$variant(Wire::get($r)?)
    };
    (@marked) => { false };
    (@marked aliases_slab) => { true };
}

wire_enum!(ObjectStatus as "object status", min 1, { 0 => Partial {}, 1 => Complete {} });
wire_enum!(ReduceOp as "reduce op", min 1, { 0 => Sum {}, 1 => Min {}, 2 => Max {} });
wire_enum!(DType as "dtype", min 1, { 0 => F32 {}, 1 => F64 {}, 2 => I32 {}, 3 => I64 {} });
wire_struct!(ReduceSpec { op: ReduceOp, dtype: DType });

wire_struct!(ReduceParent { slot: usize, node: NodeId, epoch: u64 });
wire_struct!(ReduceInstruction {
    target: ObjectId,
    coordinator: NodeId,
    slot: usize,
    own_object: ObjectId,
    spec: ReduceSpec,
    object_size: u64,
    block_size: u64,
    num_inputs: usize,
    epoch: u64,
    parent: Option<ReduceParent>,
    children: Vec<(usize, NodeId, ObjectId)>,
    is_root: bool,
    total_slots: usize,
});

wire_struct!(SnapshotEntry {
    object: ObjectId,
    size: Option<u64>,
    locations: Vec<(NodeId, ObjectStatus, Option<NodeId>)>,
    inline: Option<Payload>,
    pending: Vec<(NodeId, u64, Vec<NodeId>)>,
    inline_stamp: u64,
    subscribers: Vec<NodeId>,
    pulls: Vec<(NodeId, NodeId)>,
    deleted: bool,
});
wire_struct!(ShardSnapshot { entries: Vec<SnapshotEntry> });

wire_enum!(QueryResult as "query result", min 1, {
    0 => Inline { payload },
    1 => Location { node, status, size },
    2 => Deleted {},
});

wire_enum!(ConfirmKind as "confirm kind", min 1, {
    0 => Location { status },
    1 => Inline {},
    2 => Subscription {},
});

// Every op names its object, so that much is always on the wire after the tag.
wire_enum!(DirOp as "directory op tag", min 1 + ObjectId::MIN_LEN, {
    0 => Register { object, holder, status, size },
    1 => PutInline { object, holder, payload },
    2 => Unregister { object, holder },
    3 => Query { object, requester, query_id, exclude },
    4 => Subscribe { object, subscriber },
    5 => Unsubscribe { object, subscriber },
    6 => TransferDone { object, receiver, sender },
    7 => Delete { object },
});

// ----------------------------------------------------------------- message table --
//
// The protocol, one row per message: tag, variant, fields in wire order. Tags are
// stable (1 and 2 are the bulk blocks; control tags follow in the order they were
// added). A row marked `aliases_slab` decodes its payload as a view into the receive
// buffer — zero-copy, but the buffer stays pinned until the consumer drops the view —
// and is reserved for the block frames, whose payloads are large and go straight into
// the store. Every other payload (inline objects in directory writes, query replies,
// replicated ops and resync entries) decodes into a right-sized owned copy, so a
// small frame can never pin a 4 MiB slab.
//
// `payload_aliases_slab(tag)` is that mark, read by `decode_body`.
wire_enum!(Message as "frame tag", min 1, marks by payload_aliases_slab, {
    1 => PushBlock { object, offset, total_size, complete, payload } aliases_slab,
    2 => ReduceBlock {
        target, to_slot, from_slot, parent_epoch, block_index, object_size, payload
    } aliases_slab,
    3 => DirRegister { object, holder, status, size },
    4 => DirPutInline { object, holder, payload },
    5 => DirUnregister { object, holder },
    6 => DirQuery { object, requester, query_id, exclude },
    7 => DirQueryReply { object, query_id, result },
    8 => DirSubscribe { object, subscriber },
    9 => DirPublish { object, holder, status, size },
    10 => DirTransferDone { object, receiver, sender },
    11 => DirDelete { object },
    12 => StoreRelease { object },
    13 => PullRequest { object, requester, offset },
    14 => PullCancel { object, requester },
    15 => PullError { object, reason },
    16 => ReduceInstruction(instruction),
    17 => ReduceDone { target, root },
    18 => DirUnsubscribe { object, subscriber },
    19 => DirReplicate { shard, epoch, seq, op },
    20 => ReduceRelease { target },
    21 => DirAck { shard, epoch, seq },
    22 => DirSnapshotRequest { shard, requester, restart, after, digest },
    23 => DirSnapshot { shard, epoch, seq, rank, state },
    24 => DirResynced { node, incarnation },
    25 => DirConfirm { object, kind },
    26 => Hello { node, incarnation },
    27 => DirSnapshotChunk { shard, epoch, seq, rank, done, state },
    28 => DirResyncDelta { shard, epoch, ops, done },
    29 => PeerFailureNotice { node, incarnation },
    30 => MembershipDigest { entries },
    31 => Ping { origin, probe_id, gossip },
    32 => Ack { probe_id, gossip },
    33 => PingReq { target, probe_id, gossip },
});

// ---------------------------------------------------------------- encode / decode --

/// Decode a frame body (everything after the length prefix).
///
/// The body is taken as a shared [`Bytes`] buffer so block payloads (`PushBlock`,
/// `ReduceBlock`) decode as zero-copy views into it; every other payload is copied
/// out, so only block frames keep `buf` alive. Callers that own a `Vec<u8>` convert
/// with `Bytes::from(vec)` rather than re-allocating.
pub fn decode_body(buf: &Bytes) -> Result<Message, FrameError> {
    let tag = *buf.first().ok_or_else(|| malformed("empty frame"))?;
    let mut r = Reader { buf, at: 0, alias_payloads: payload_aliases_slab(tag) };
    let msg = Message::get(&mut r)?;
    r.finish()?;
    Ok(msg)
}

/// Encode a whole frame as scatter-gather parts: the header (length prefix + tag +
/// fixed fields) is built fresh, and bulk payload bytes are **referenced, not
/// copied** — encoding a 4 MiB `PushBlock` is header-only work. Fails for a frame
/// whose body would exceed [`MAX_FRAME_BODY`].
pub fn encode_frame_vectored(msg: &Message) -> Result<EncodedFrame, FrameError> {
    let mut w = FrameWriter::new();
    msg.put(&mut w);
    w.into_frame()
}

/// Write a framed message with `write_vectored`, never copying bulk payload bytes.
///
/// Small frames — control messages, payloads under [`GATHER_MIN_SEGMENT`] — encode to
/// a single part and go out in one plain `write` syscall. Larger frames are written as
/// an iovec array of header + shared payload segments, resuming correctly across
/// short writes.
pub fn write_frame_vectored<W: std::io::Write>(w: &mut W, msg: &Message) -> std::io::Result<()> {
    let frame = encode_frame_vectored(msg)?;
    if frame.segments.is_empty() {
        return w.write_all(&frame.header);
    }
    let parts: Vec<&[u8]> = frame.parts().map(|p| p.as_slice()).collect();
    write_all_vectored(w, &parts)
}

// --------------------------------------------------------------- pooled slab reader --

/// A pool of its own for a reader or fabric nobody handed the process's: slabs for
/// the default pipelining block.
pub(crate) fn default_pool() -> SlabPool {
    SlabPool::for_block_size(hoplite_core::config::HopliteConfig::default().block_size)
}

/// Length of a reader's own buffer, where every wait happens and every frame that
/// neither aliases its payload nor outgrows it is read and decoded: one corked write.
pub const HOME_LEN: usize = MAX_CORKED_BYTES;

/// A length prefix and a tag: all a fill reads of a frame past the one it is reading.
const HEAD: usize = 5;

/// Zero-copy framed reader: the receive-side twin of [`write_frame_vectored`].
///
/// A reader owns one [`HOME_LEN`] home buffer, not taken from the pool, and holds
/// pool memory only for the one frame that needs it. Every wait happens in home, and
/// a frame whose payload decodes into owned fields — control traffic, inline objects
/// included — is read and decoded there, its next frame's header moved back to the
/// start, so such a stream stays in home's first pages. A block frame (the message
/// table's `aliases_slab` mark), or any frame longer than home, is read into a slab
/// checked out of the [`SlabPool`] for that frame alone — the process's, shared by
/// every reader of a fabric and the nodes it feeds ([`FrameReader::with_pool`]) — and
/// decoded **in place**: its payload is a [`Bytes`] view of the slab, written once by
/// the kernel and adopted as is by `ProgressBuffer` and the store. The slab goes back
/// to the pool right after decode, pinned while the block's views live and idle once
/// they drop, so an idle connection holds no pool memory.
///
/// A fill never reads past the end of the frame being read plus the next frame's
/// length prefix and tag: the most ever carried from home into a slab is those
/// [`HEAD`] header bytes, never payload, which keeps the zero-payload-memcpy
/// invariant by construction.
pub struct FrameReader<R> {
    inner: R,
    pool: SlabPool,
    /// The pool's reuse count when [`FrameReader::take_slab_reuses`] last read it.
    reuses_reported: u64,
    /// Never pinned: only frames that decode into owned fields are read into it.
    home: std::sync::Arc<Vec<u8>>,
    /// Buffered bytes at the start of `home`: between frames, at most [`HEAD`].
    filled: usize,
}

impl<R: std::io::Read> FrameReader<R> {
    /// Wrap `inner`, reading block frames into default (block-sized) slabs from a pool
    /// of its own.
    pub fn new(inner: R) -> FrameReader<R> {
        FrameReader::with_pool(inner, default_pool())
    }

    /// Wrap `inner`, reading block frames into slabs of at least `slab_len` bytes from
    /// a pool of its own (a longer frame still gets a slab of its length).
    pub fn with_slab_len(inner: R, slab_len: usize) -> FrameReader<R> {
        FrameReader::with_pool(inner, SlabPool::with_slab_len(slab_len.max(64)))
    }

    /// Wrap `inner` with slabs from `pool`, at its slab length, which other readers
    /// and the reduce engine may share: a slab one of them filled is, once unpinned,
    /// read into by any.
    pub fn with_pool(inner: R, pool: SlabPool) -> FrameReader<R> {
        let (reuses_reported, home) = (pool.reuses(), std::sync::Arc::new(vec![0; HOME_LEN]));
        FrameReader { inner, pool, reuses_reported, home, filled: 0 }
    }

    /// Read and decode one framed message, zero-copy for block payloads. A length
    /// prefix above [`MAX_FRAME_BODY`] is `InvalidData` before any slab is sized for it.
    pub fn read_message(&mut self) -> std::io::Result<Message> {
        self.need(4, 1)?;
        let len = u32::from_be_bytes(self.home[..4].try_into().expect("4 bytes")) as usize;
        if len > MAX_FRAME_BODY {
            return Err(oversized(len).into());
        }
        let total = 4 + len;
        self.need(total.min(HEAD), 0)?;
        if total <= HOME_LEN && !(len > 0 && payload_aliases_slab(self.home[4])) {
            self.need(total, HEAD)?;
            let msg = decode_body(&Bytes::from_arc(self.home.clone(), 4, total));
            let home = std::sync::Arc::get_mut(&mut self.home).expect("home is never pinned");
            home.copy_within(total..self.filled, 0);
            self.filled -= total;
            return Ok(msg?);
        }
        let mut slab = self.pool.checkout(total);
        let buf = std::sync::Arc::get_mut(&mut slab).expect("pool slab is uniquely held");
        let home = std::sync::Arc::get_mut(&mut self.home).expect("home is never pinned");
        let mut at = std::mem::take(&mut self.filled);
        buf[..at].copy_from_slice(&home[..at]);
        while at < total {
            use std::io::IoSliceMut;
            let mut into =
                [IoSliceMut::new(&mut buf[at..total]), IoSliceMut::new(&mut home[..HEAD])];
            at += filled(self.inner.read_vectored(&mut into))?;
        }
        self.filled = at - total;
        let msg = decode_body(&Bytes::from_arc(slab.clone(), 4, total));
        self.pool.retain(slab);
        Ok(msg?)
    }

    /// Slab checkouts the pool served by reuse since the last call (since
    /// construction, the first time). The count is the pool's, so it includes the
    /// checkouts of any reader sharing it.
    pub fn take_slab_reuses(&mut self) -> u64 {
        let total = self.pool.reuses();
        total - std::mem::replace(&mut self.reuses_reported, total)
    }

    /// Buffer the stream's next `n` bytes (at most [`HOME_LEN`]) in home, reading at
    /// most `ahead` bytes past them.
    fn need(&mut self, n: usize, ahead: usize) -> std::io::Result<()> {
        while self.filled < n {
            let home = std::sync::Arc::get_mut(&mut self.home).expect("home is never pinned");
            let limit = (n + ahead).min(HOME_LEN);
            self.filled += filled(self.inner.read(&mut home[self.filled..limit]))?;
        }
        Ok(())
    }
}

/// The bytes one read took: end of stream is an error, since a frame was asked for.
fn filled(read: std::io::Result<usize>) -> std::io::Result<usize> {
    use std::io::{Error, ErrorKind::UnexpectedEof};
    match read? {
        0 => Err(Error::new(UnexpectedEof, "connection closed mid-frame")),
        got => Ok(got),
    }
}

// -------------------------------------------------------------- control-frame cork --

/// Cap on frames held back by a [`Cork`] before an implicit flush.
const MAX_CORKED_FRAMES: usize = 64;

/// Cap on bytes held back by a [`Cork`] before an implicit flush — and so the most a
/// single batched write carries, which is what lets a TCP edge bound the time a
/// calling thread can spend writing one (see [`crate::tcp`]).
pub(crate) const MAX_CORKED_BYTES: usize = 64 * 1024;

/// Batches bursts of small control frames to one peer into a single vectored write.
///
/// Directory chatter — registers, acks, publishes, confirms — arrives at a
/// connection's writer in bursts (fan-outs, drain-after-failover), each frame well
/// under [`GATHER_MIN_SEGMENT`]. Writing them one `write` syscall at a time wastes
/// most of the syscall budget on sub-100-byte payloads. A `Cork` holds encoded
/// control frames (frames with no bulk segments) and flushes them as one
/// `write_vectored`; bulk frames flush the cork first and are written immediately so
/// they are never delayed behind batching. Callers flush explicitly on queue drain.
pub struct Cork {
    pending: Vec<Bytes>,
    pending_bytes: usize,
    corked_frames: u64,
    corked_writes: u64,
}

impl Default for Cork {
    fn default() -> Cork {
        Cork::new()
    }
}

impl Cork {
    /// An empty cork.
    pub fn new() -> Cork {
        Cork { pending: Vec::new(), pending_bytes: 0, corked_frames: 0, corked_writes: 0 }
    }

    /// Encode and submit `msg`: [`Cork::push`] of its frame.
    pub fn write<W: std::io::Write>(&mut self, w: &mut W, msg: &Message) -> std::io::Result<()> {
        self.push(w, encode_frame_vectored(msg)?)
    }

    /// Submit an encoded frame. Control frames are held for batching (up to the
    /// frame/byte caps); bulk frames flush anything pending and go out immediately
    /// through the zero-copy vectored path.
    pub fn push<W: std::io::Write>(
        &mut self,
        w: &mut W,
        frame: EncodedFrame,
    ) -> std::io::Result<()> {
        if !frame.segments.is_empty() {
            self.flush(w)?;
            let parts: Vec<&[u8]> = frame.parts().map(|p| p.as_slice()).collect();
            return write_all_vectored(w, &parts);
        }
        self.pending_bytes += frame.header.len();
        self.pending.push(frame.header);
        if self.pending.len() >= MAX_CORKED_FRAMES || self.pending_bytes >= MAX_CORKED_BYTES {
            self.flush(w)?;
        }
        Ok(())
    }

    /// Write every held frame as one vectored write. Called implicitly on bulk frames
    /// and cap overflow, and explicitly by the owner when its send queue drains.
    pub fn flush<W: std::io::Write>(&mut self, w: &mut W) -> std::io::Result<()> {
        if self.pending.is_empty() {
            return Ok(());
        }
        if self.pending.len() >= 2 {
            self.corked_frames += self.pending.len() as u64;
            self.corked_writes += 1;
        }
        let parts: Vec<&[u8]> = self.pending.iter().map(|p| p.as_slice()).collect();
        let result = write_all_vectored(w, &parts);
        self.pending.clear();
        self.pending_bytes = 0;
        result
    }

    /// `true` when frames are being held back (the owner should flush before parking).
    pub fn has_pending(&self) -> bool {
        !self.pending.is_empty()
    }

    /// `(frames, writes)` since the last call: frames that went out batched with at
    /// least one other frame, and the multi-frame vectored writes that carried them
    /// (→ the `corked_frames_per_write` metric).
    pub fn take_corked(&mut self) -> (u64, u64) {
        (std::mem::take(&mut self.corked_frames), std::mem::take(&mut self.corked_writes))
    }
}

/// Write `parts` fully, resuming across short writes and `Interrupted` (the shared
/// backbone of [`write_frame_vectored`] and [`Cork::flush`]).
fn write_all_vectored<W: std::io::Write>(w: &mut W, parts: &[&[u8]]) -> std::io::Result<()> {
    let mut part = 0usize; // first part with unwritten bytes
    let mut offset = 0usize; // progress within that part
    while part < parts.len() {
        if parts[part].len() == offset {
            part += 1;
            offset = 0;
            continue;
        }
        let slices: Vec<std::io::IoSlice<'_>> = std::iter::once(&parts[part][offset..])
            .chain(parts[part + 1..].iter().copied())
            .map(std::io::IoSlice::new)
            .collect();
        let mut n = match w.write_vectored(&slices) {
            Ok(0) => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::WriteZero,
                    "failed to write whole frame",
                ))
            }
            Ok(n) => n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        // Advance (part, offset) past the n bytes just written.
        while n > 0 {
            let remaining = parts[part].len() - offset;
            if n < remaining {
                offset += n;
                break;
            }
            n -= remaining;
            part += 1;
            offset = 0;
        }
    }
    Ok(())
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// One frame's wire bytes, length prefix included.
    fn wire(msg: &Message) -> Vec<u8> {
        encode_frame_vectored(msg).unwrap().to_contiguous()
    }

    /// One frame's body (tag onwards), as the owned bytes tests corrupt.
    fn body(msg: &Message) -> Vec<u8> {
        wire(msg).split_off(4)
    }

    fn roundtrip(msg: Message) {
        let frame = encode_frame_vectored(&msg).unwrap();
        let mut flat = frame.to_contiguous();
        assert_eq!(frame.frame_len(), flat.len());
        assert_eq!(u32::from_be_bytes(flat[..4].try_into().unwrap()) as usize, flat.len() - 4);
        assert_eq!(decode_body(&Bytes::from(flat.split_off(4))).unwrap(), msg);
    }

    #[test]
    fn push_block_roundtrip() {
        roundtrip(Message::PushBlock {
            object: ObjectId::from_name("x"),
            offset: 12345,
            total_size: 99999,
            payload: Payload::from_vec((0..255).collect()),
            complete: true,
        });
    }

    #[test]
    fn reduce_block_roundtrip() {
        roundtrip(Message::ReduceBlock {
            target: ObjectId::from_name("t"),
            to_slot: 3,
            from_slot: 9,
            parent_epoch: 2,
            block_index: 7,
            object_size: 4096,
            payload: Payload::from_f32s(&[1.0, -2.0, 3.5]),
        });
    }

    #[test]
    fn synthetic_payload_roundtrip() {
        roundtrip(Message::PushBlock {
            object: ObjectId::from_name("s"),
            offset: 0,
            total_size: 10,
            payload: Payload::synthetic(10),
            complete: false,
        });
    }

    #[test]
    fn every_control_message_roundtrips() {
        let obj = ObjectId::from_name("ctl");
        roundtrip(Message::DirRegister {
            object: obj,
            holder: NodeId(0),
            status: ObjectStatus::Partial,
            size: 123,
        });
        roundtrip(Message::DirPutInline {
            object: obj,
            holder: NodeId(3),
            payload: Payload::from_vec(vec![1, 2, 3]),
        });
        roundtrip(Message::DirUnregister { object: obj, holder: NodeId(1) });
        roundtrip(Message::DirQuery {
            object: obj,
            requester: NodeId(4),
            query_id: 77,
            exclude: vec![NodeId(1), NodeId(2)],
        });
        roundtrip(Message::DirQueryReply {
            object: obj,
            query_id: 9,
            result: QueryResult::Inline { payload: Payload::zeros(8) },
        });
        roundtrip(Message::DirQueryReply {
            object: obj,
            query_id: 10,
            result: QueryResult::Location {
                node: NodeId(5),
                status: ObjectStatus::Complete,
                size: 4096,
            },
        });
        roundtrip(Message::DirQueryReply {
            object: obj,
            query_id: 11,
            result: QueryResult::Deleted,
        });
        roundtrip(Message::DirSubscribe { object: obj, subscriber: NodeId(7) });
        roundtrip(Message::DirPublish {
            object: obj,
            holder: NodeId(2),
            status: ObjectStatus::Complete,
            size: 1 << 30,
        });
        roundtrip(Message::DirTransferDone { object: obj, receiver: NodeId(8), sender: NodeId(9) });
        roundtrip(Message::DirDelete { object: obj });
        roundtrip(Message::DirUnsubscribe { object: obj, subscriber: NodeId(7) });
        roundtrip(Message::StoreRelease { object: obj });
        roundtrip(Message::ReduceRelease { target: obj });
        roundtrip(Message::PullRequest { object: obj, requester: NodeId(1), offset: 512 });
        roundtrip(Message::PullCancel { object: obj, requester: NodeId(1) });
        roundtrip(Message::PullError { object: obj, reason: "object deleted".to_string() });
        roundtrip(Message::ReduceDone { target: obj, root: NodeId(3) });
        roundtrip(Message::Hello { node: NodeId(11), incarnation: 4 });
        roundtrip(Message::PeerFailureNotice { node: NodeId(6), incarnation: 2 });
        roundtrip(Message::MembershipDigest { entries: vec![] });
        roundtrip(Message::MembershipDigest {
            entries: vec![(NodeId(0), 3, true), (NodeId(5), 1, false)],
        });
    }

    #[test]
    fn reduce_instruction_roundtrips() {
        roundtrip(Message::ReduceInstruction(ReduceInstruction {
            target: ObjectId::from_name("t"),
            coordinator: NodeId(0),
            slot: 3,
            own_object: ObjectId::from_name("s"),
            spec: ReduceSpec::sum_f32(),
            object_size: 1024,
            block_size: 256,
            num_inputs: 3,
            epoch: 5,
            parent: Some(ReduceParent { slot: 5, node: NodeId(2), epoch: 1 }),
            children: vec![(1, NodeId(4), ObjectId::from_name("c"))],
            is_root: false,
            total_slots: 6,
        }));
        // Root variant: no parent, no children.
        roundtrip(Message::ReduceInstruction(ReduceInstruction {
            target: ObjectId::from_name("t2"),
            coordinator: NodeId(1),
            slot: 0,
            own_object: ObjectId::from_name("s2"),
            spec: ReduceSpec::sum_f32(),
            object_size: 8,
            block_size: 8,
            num_inputs: 1,
            epoch: 0,
            parent: None,
            children: vec![],
            is_root: true,
            total_slots: 1,
        }));
    }

    #[test]
    fn stream_roundtrip_through_a_buffer() {
        let messages = vec![
            Message::DirDelete { object: ObjectId::from_name("a") },
            Message::PushBlock {
                object: ObjectId::from_name("b"),
                offset: 4,
                total_size: 8,
                payload: Payload::from_vec(vec![9, 9, 9, 9]),
                complete: true,
            },
        ];
        let mut buf = Vec::new();
        for m in &messages {
            write_frame_vectored(&mut buf, m).unwrap();
        }
        let mut reader = FrameReader::new(std::io::Cursor::new(buf));
        for m in &messages {
            assert_eq!(&reader.read_message().unwrap(), m);
        }
    }

    #[test]
    fn every_replicated_op_roundtrips() {
        let obj = ObjectId::from_name("rep");
        let ops = vec![
            hoplite_core::DirOp::Register {
                object: obj,
                holder: NodeId(1),
                status: ObjectStatus::Complete,
                size: 999,
            },
            hoplite_core::DirOp::PutInline {
                object: obj,
                holder: NodeId(2),
                payload: Payload::from_vec(vec![5, 6, 7]),
            },
            hoplite_core::DirOp::Unregister { object: obj, holder: NodeId(3) },
            hoplite_core::DirOp::Query {
                object: obj,
                requester: NodeId(4),
                query_id: 11,
                exclude: vec![NodeId(0), NodeId(9)],
            },
            hoplite_core::DirOp::Subscribe { object: obj, subscriber: NodeId(5) },
            hoplite_core::DirOp::Unsubscribe { object: obj, subscriber: NodeId(5) },
            hoplite_core::DirOp::TransferDone {
                object: obj,
                receiver: NodeId(6),
                sender: NodeId(7),
            },
            hoplite_core::DirOp::Delete { object: obj },
        ];
        for (i, op) in ops.into_iter().enumerate() {
            roundtrip(Message::DirReplicate { shard: i as u64, epoch: 3, seq: 100 + i as u64, op });
        }
    }

    #[test]
    fn resync_and_ack_messages_roundtrip() {
        let obj = ObjectId::from_name("resync");
        roundtrip(Message::DirAck { shard: 3, epoch: 2, seq: 41 });
        roundtrip(Message::DirSnapshotRequest {
            shard: 7,
            requester: NodeId(4),
            restart: true,
            after: None,
            digest: vec![(NodeId(0), 1, true), (NodeId(2), 2, false)],
        });
        roundtrip(Message::DirSnapshotRequest {
            shard: 8,
            requester: NodeId(5),
            restart: false,
            after: Some(obj),
            digest: vec![],
        });
        roundtrip(Message::DirResynced { node: NodeId(9), incarnation: 1 });
        roundtrip(Message::DirConfirm {
            object: obj,
            kind: ConfirmKind::Location { status: ObjectStatus::Partial },
        });
        roundtrip(Message::DirConfirm { object: obj, kind: ConfirmKind::Inline });
        roundtrip(Message::DirConfirm { object: obj, kind: ConfirmKind::Subscription });
        // An empty snapshot and a fully-populated one.
        roundtrip(Message::DirSnapshot {
            shard: 1,
            epoch: 5,
            seq: 12,
            rank: 1,
            state: ShardSnapshot::default(),
        });
        let state = ShardSnapshot {
            entries: vec![
                SnapshotEntry {
                    object: ObjectId::from_name("full"),
                    size: Some(4096),
                    locations: vec![
                        (NodeId(0), ObjectStatus::Complete, None),
                        (NodeId(2), ObjectStatus::Partial, Some(NodeId(3))),
                    ],
                    inline: Some(Payload::from_vec(vec![1, 2, 3])),
                    inline_stamp: 17,
                    pending: vec![(NodeId(5), 77, vec![NodeId(1), NodeId(2)])],
                    subscribers: vec![NodeId(6), NodeId(7)],
                    pulls: vec![(NodeId(3), NodeId(2))],
                    deleted: false,
                },
                SnapshotEntry {
                    object: ObjectId::from_name("tombstone"),
                    size: None,
                    locations: vec![],
                    inline: None,
                    inline_stamp: 0,
                    pending: vec![],
                    subscribers: vec![],
                    pulls: vec![],
                    deleted: true,
                },
            ],
        };
        roundtrip(Message::DirSnapshot { shard: 2, epoch: 1, seq: 9, rank: 0, state });
    }

    #[test]
    fn truncated_snapshot_is_rejected() {
        let mut body = body(&Message::DirSnapshot {
            shard: 0,
            epoch: 0,
            seq: 1,
            rank: 0,
            state: ShardSnapshot {
                entries: vec![SnapshotEntry {
                    object: ObjectId::from_name("t"),
                    size: Some(8),
                    locations: vec![(NodeId(1), ObjectStatus::Complete, None)],
                    ..SnapshotEntry::default()
                }],
            },
        });
        body.truncate(body.len() - 3);
        assert!(decode_body(&Bytes::from(body)).is_err());
    }

    #[test]
    fn decoded_payload_aliases_the_frame_buffer() {
        // Zero-copy contract: the decoded PushBlock payload is a view into the frame
        // body, so decoding must not copy megabytes per block.
        let msg = Message::PushBlock {
            object: ObjectId::from_name("z"),
            offset: 0,
            total_size: 64,
            payload: Payload::from_vec((0..64).collect()),
            complete: true,
        };
        let body = Bytes::from(body(&msg));
        let decoded = decode_body(&body).unwrap();
        let Message::PushBlock { payload: Payload::Bytes(b), .. } = decoded else {
            panic!("decoded wrong variant");
        };
        // The payload sits at the tail of the frame: shared storage, not a copy.
        assert_eq!(b.as_slice().as_ptr(), body.as_slice()[body.len() - 64..].as_ptr());
        assert_eq!(b.len(), 64);
    }

    /// Deterministic xorshift64* generator — the same in-file seeded-fuzzer style as
    /// `crates/core/tests/properties.rs`, so failures reproduce exactly.
    pub(crate) struct Rng(pub(crate) u64);

    impl Rng {
        fn next_u64(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            self.0 = x;
            x.wrapping_mul(0x2545_f491_4f6c_dd1d)
        }

        pub(crate) fn range(&mut self, lo: u64, hi: u64) -> u64 {
            lo + self.next_u64() % (hi - lo)
        }

        fn node(&mut self) -> NodeId {
            NodeId(self.range(0, 64) as u32)
        }

        fn object(&mut self) -> ObjectId {
            ObjectId::from_name(&format!("fuzz-{}", self.range(0, 1 << 20)))
        }

        fn bytes(&mut self, len: usize) -> Vec<u8> {
            (0..len).map(|_| self.next_u64() as u8).collect()
        }

        fn nodes(&mut self) -> Vec<NodeId> {
            let n = self.range(0, 4) as usize;
            (0..n).map(|_| self.node()).collect()
        }

        /// Any payload shape: contiguous, segmented (sometimes with bulk segments at
        /// or above the gather threshold), or synthetic.
        fn payload(&mut self) -> Payload {
            match self.range(0, 4) {
                0 => {
                    let len = self.range(0, 64) as usize;
                    Payload::from_vec(self.bytes(len))
                }
                1 => {
                    // Segmented, small pieces (all below the coalesce threshold).
                    let n = self.range(2, 5) as usize;
                    let segs = (0..n)
                        .map(|_| {
                            let len = self.range(1, 32) as usize;
                            Bytes::from(self.bytes(len))
                        })
                        .collect();
                    Payload::from_segments(segs)
                }
                2 => {
                    // Segmented with bulk segments that ride as shared references.
                    let n = self.range(1, 4) as usize;
                    let segs = (0..n)
                        .map(|_| {
                            let len = GATHER_MIN_SEGMENT + self.range(0, 64) as usize;
                            Bytes::from(self.bytes(len))
                        })
                        .collect();
                    Payload::from_segments(segs)
                }
                _ => Payload::synthetic(self.range(0, 1 << 30)),
            }
        }

        fn status(&mut self) -> ObjectStatus {
            if self.range(0, 2) == 0 {
                ObjectStatus::Partial
            } else {
                ObjectStatus::Complete
            }
        }

        fn spec(&mut self) -> ReduceSpec {
            let op = match self.range(0, 3) {
                0 => ReduceOp::Sum,
                1 => ReduceOp::Min,
                _ => ReduceOp::Max,
            };
            let dtype = match self.range(0, 4) {
                0 => DType::F32,
                1 => DType::F64,
                2 => DType::I32,
                _ => DType::I64,
            };
            ReduceSpec { op, dtype }
        }

        fn dir_op(&mut self) -> hoplite_core::DirOp {
            use hoplite_core::DirOp;
            match self.range(0, 8) {
                0 => DirOp::Register {
                    object: self.object(),
                    holder: self.node(),
                    status: self.status(),
                    size: self.next_u64(),
                },
                1 => DirOp::PutInline {
                    object: self.object(),
                    holder: self.node(),
                    payload: self.payload(),
                },
                2 => DirOp::Unregister { object: self.object(), holder: self.node() },
                3 => DirOp::Query {
                    object: self.object(),
                    requester: self.node(),
                    query_id: self.next_u64(),
                    exclude: self.nodes(),
                },
                4 => DirOp::Subscribe { object: self.object(), subscriber: self.node() },
                5 => DirOp::Unsubscribe { object: self.object(), subscriber: self.node() },
                6 => DirOp::TransferDone {
                    object: self.object(),
                    receiver: self.node(),
                    sender: self.node(),
                },
                _ => DirOp::Delete { object: self.object() },
            }
        }

        fn snapshot(&mut self) -> ShardSnapshot {
            let n = self.range(0, 3) as usize;
            ShardSnapshot {
                entries: (0..n)
                    .map(|_| SnapshotEntry {
                        object: self.object(),
                        size: (self.range(0, 2) == 1).then(|| self.next_u64()),
                        locations: (0..self.range(0, 3))
                            .map(|_| {
                                let lease = (self.range(0, 2) == 1).then(|| self.node());
                                (self.node(), self.status(), lease)
                            })
                            .collect(),
                        inline: (self.range(0, 2) == 1).then(|| self.payload()),
                        inline_stamp: self.next_u64(),
                        pending: (0..self.range(0, 2))
                            .map(|_| (self.node(), self.next_u64(), self.nodes()))
                            .collect(),
                        subscribers: self.nodes(),
                        pulls: (0..self.range(0, 2)).map(|_| (self.node(), self.node())).collect(),
                        deleted: self.range(0, 2) == 1,
                    })
                    .collect(),
            }
        }

        fn digest(&mut self) -> Vec<(NodeId, u64, bool)> {
            (0..self.range(0, 4))
                .map(|_| (self.node(), self.next_u64(), self.range(0, 2) == 1))
                .collect()
        }

        fn gossip(&mut self) -> Vec<GossipEntry> {
            (0..self.range(0, 7))
                .map(|_| {
                    let state = match self.range(0, 3) {
                        0 => GossipState::Alive,
                        1 => GossipState::Suspect,
                        _ => GossipState::Dead,
                    };
                    (self.node(), self.next_u64(), state)
                })
                .collect()
        }

        fn message(&mut self) -> Message {
            use hoplite_core::protocol::ReduceParent;
            match self.range(0, 33) {
                0 => Message::PushBlock {
                    object: self.object(),
                    offset: self.next_u64(),
                    total_size: self.next_u64(),
                    payload: self.payload(),
                    complete: self.range(0, 2) == 1,
                },
                1 => Message::ReduceBlock {
                    target: self.object(),
                    to_slot: self.range(0, 1 << 20) as usize,
                    from_slot: self.range(0, 1 << 20) as usize,
                    parent_epoch: self.next_u64(),
                    block_index: self.next_u64(),
                    object_size: self.next_u64(),
                    payload: self.payload(),
                },
                2 => Message::DirRegister {
                    object: self.object(),
                    holder: self.node(),
                    status: self.status(),
                    size: self.next_u64(),
                },
                3 => Message::DirPutInline {
                    object: self.object(),
                    holder: self.node(),
                    payload: self.payload(),
                },
                4 => Message::DirUnregister { object: self.object(), holder: self.node() },
                5 => Message::DirQuery {
                    object: self.object(),
                    requester: self.node(),
                    query_id: self.next_u64(),
                    exclude: self.nodes(),
                },
                6 => Message::DirQueryReply {
                    object: self.object(),
                    query_id: self.next_u64(),
                    result: match self.range(0, 3) {
                        0 => QueryResult::Inline { payload: self.payload() },
                        1 => QueryResult::Location {
                            node: self.node(),
                            status: self.status(),
                            size: self.next_u64(),
                        },
                        _ => QueryResult::Deleted,
                    },
                },
                7 => Message::DirSubscribe { object: self.object(), subscriber: self.node() },
                8 => Message::DirUnsubscribe { object: self.object(), subscriber: self.node() },
                9 => Message::DirPublish {
                    object: self.object(),
                    holder: self.node(),
                    status: self.status(),
                    size: self.next_u64(),
                },
                10 => Message::DirTransferDone {
                    object: self.object(),
                    receiver: self.node(),
                    sender: self.node(),
                },
                11 => Message::DirDelete { object: self.object() },
                12 => Message::StoreRelease { object: self.object() },
                13 => Message::PullRequest {
                    object: self.object(),
                    requester: self.node(),
                    offset: self.next_u64(),
                },
                14 => Message::PullCancel { object: self.object(), requester: self.node() },
                15 => Message::PullError {
                    object: self.object(),
                    reason: format!("reason-{}", self.range(0, 1000)),
                },
                16 => Message::ReduceInstruction(ReduceInstruction {
                    target: self.object(),
                    coordinator: self.node(),
                    slot: self.range(0, 256) as usize,
                    own_object: self.object(),
                    spec: self.spec(),
                    object_size: self.next_u64(),
                    block_size: self.next_u64(),
                    num_inputs: self.range(0, 16) as usize,
                    epoch: self.next_u64(),
                    parent: (self.range(0, 2) == 1).then(|| ReduceParent {
                        slot: self.range(0, 256) as usize,
                        node: self.node(),
                        epoch: self.next_u64(),
                    }),
                    children: (0..self.range(0, 3))
                        .map(|_| (self.range(0, 256) as usize, self.node(), self.object()))
                        .collect(),
                    is_root: self.range(0, 2) == 1,
                    total_slots: self.range(1, 256) as usize,
                }),
                17 => Message::ReduceDone { target: self.object(), root: self.node() },
                18 => Message::ReduceRelease { target: self.object() },
                19 => Message::DirReplicate {
                    shard: self.next_u64(),
                    epoch: self.next_u64(),
                    seq: self.next_u64(),
                    op: self.dir_op(),
                },
                20 => Message::DirAck {
                    shard: self.next_u64(),
                    epoch: self.next_u64(),
                    seq: self.next_u64(),
                },
                21 => Message::DirSnapshotRequest {
                    shard: self.next_u64(),
                    requester: self.node(),
                    restart: self.range(0, 2) == 1,
                    after: (self.range(0, 2) == 1).then(|| self.object()),
                    digest: self.digest(),
                },
                22 => Message::DirSnapshot {
                    shard: self.next_u64(),
                    epoch: self.next_u64(),
                    seq: self.next_u64(),
                    rank: self.next_u64(),
                    state: self.snapshot(),
                },
                23 => Message::DirResynced { node: self.node(), incarnation: self.next_u64() },
                24 => Message::Hello { node: self.node(), incarnation: self.next_u64() },
                25 => Message::DirSnapshotChunk {
                    shard: self.next_u64(),
                    epoch: self.next_u64(),
                    seq: self.next_u64(),
                    rank: self.next_u64(),
                    done: self.range(0, 2) == 1,
                    state: self.snapshot(),
                },
                26 => Message::DirResyncDelta {
                    shard: self.next_u64(),
                    epoch: self.next_u64(),
                    ops: (0..self.range(0, 3)).map(|_| (self.next_u64(), self.dir_op())).collect(),
                    done: self.range(0, 2) == 1,
                },
                28 => {
                    Message::PeerFailureNotice { node: self.node(), incarnation: self.next_u64() }
                }
                29 => Message::MembershipDigest { entries: self.digest() },
                30 => Message::Ping {
                    origin: self.node(),
                    probe_id: self.next_u64(),
                    gossip: self.gossip(),
                },
                31 => Message::Ack { probe_id: self.next_u64(), gossip: self.gossip() },
                32 => Message::PingReq {
                    target: self.node(),
                    probe_id: self.next_u64(),
                    gossip: self.gossip(),
                },
                _ => Message::DirConfirm {
                    object: self.object(),
                    kind: match self.range(0, 3) {
                        0 => ConfirmKind::Location { status: self.status() },
                        1 => ConfirmKind::Inline,
                        _ => ConfirmKind::Subscription,
                    },
                },
            }
        }
    }

    /// Property (seeded fuzzer): *every* message variant, with payloads in every shape,
    /// round-trips through the vectored encoder, flattened, and `decode_body`. (The
    /// name predates the removal of the contiguous encoder; the bytes themselves are
    /// pinned by `tests/golden_frames.rs`, the independent reference that encoder,
    /// which shared its code with the vectored one, never was.)
    #[test]
    fn fuzz_vectored_encoding_matches_contiguous_for_every_variant() {
        let mut rng = Rng(0x5CA7_7E2F);
        let mut variants_seen = [false; 33];
        for case in 0..700 {
            let msg = rng.message();
            let body = body(&msg);
            variants_seen[(body[0] - 1) as usize] = true;
            let decoded = decode_body(&Bytes::from(body)).unwrap();
            assert_eq!(decoded, msg, "case {case}: decode roundtrip");
        }
        assert!(
            variants_seen.iter().all(|&seen| seen),
            "700 cases should cover all 33 tags: {variants_seen:?}"
        );
    }

    /// Property (seeded fuzzer): chunking is codec-transparent. A shard's entry list
    /// split into `DirSnapshotChunk` frames at *arbitrary* boundaries — empty chunks,
    /// single-entry chunks, everything in one chunk — round-trips each frame and
    /// reassembles to exactly the original entries, regardless of where the cuts
    /// fall.
    #[test]
    fn fuzz_chunk_boundary_splits_reassemble_exactly() {
        let mut rng = Rng(0xC4_0B0B);
        for case in 0..200 {
            let total = rng.range(0, 24) as usize;
            let entries: Vec<SnapshotEntry> =
                (0..total).flat_map(|_| rng.snapshot().entries).collect();

            // Cut the entry list at random boundaries (possibly producing empty
            // chunks, which the wire format allows).
            let mut chunks: Vec<Vec<SnapshotEntry>> = Vec::new();
            let mut rest = entries.as_slice();
            while !rest.is_empty() {
                let cut = rng.range(0, rest.len() as u64 + 1) as usize;
                chunks.push(rest[..cut].to_vec());
                rest = &rest[cut..];
            }
            chunks.push(Vec::new()); // trailing empty done-chunk

            let mut reassembled = Vec::new();
            let last = chunks.len() - 1;
            for (i, chunk) in chunks.into_iter().enumerate() {
                let msg = Message::DirSnapshotChunk {
                    shard: rng.next_u64(),
                    epoch: rng.next_u64(),
                    seq: rng.next_u64(),
                    rank: rng.next_u64(),
                    done: i == last,
                    state: ShardSnapshot { entries: chunk },
                };
                let decoded = decode_body(&Bytes::from(body(&msg))).unwrap();
                assert_eq!(decoded, msg, "case {case}: chunk {i} roundtrip");
                let Message::DirSnapshotChunk { state, .. } = decoded else { unreachable!() };
                reassembled.extend(state.entries);
            }
            assert_eq!(reassembled, entries, "case {case}: splits must reassemble");
        }
    }

    #[test]
    fn bulk_payload_rides_as_shared_segments() {
        let backing = Bytes::from(vec![7u8; 2 * GATHER_MIN_SEGMENT]);
        let msg = Message::PushBlock {
            object: ObjectId::from_name("sg"),
            offset: 0,
            total_size: backing.len() as u64,
            payload: Payload::Bytes(backing.clone()),
            complete: true,
        };
        let frame = encode_frame_vectored(&msg).unwrap();
        assert_eq!(frame.segments.len(), 1);
        // Shared storage, not a copy: the segment points at the payload's buffer.
        assert_eq!(frame.segments[0].as_slice().as_ptr(), backing.as_slice().as_ptr());
        // Control messages coalesce to a single contiguous part.
        let ctl = encode_frame_vectored(&Message::DirResynced { node: NodeId(3), incarnation: 0 })
            .unwrap();
        assert!(ctl.segments.is_empty());
        // Payloads under the threshold coalesce too (short-frame single-syscall path).
        let small = encode_frame_vectored(&Message::PushBlock {
            object: ObjectId::from_name("small"),
            offset: 0,
            total_size: 64,
            payload: Payload::zeros(64),
            complete: true,
        })
        .unwrap();
        assert!(small.segments.is_empty());
    }

    #[test]
    fn forward_path_has_zero_payload_copies() {
        // The full forward hop a relaying node performs: receive frame → decode →
        // append to the store buffer → read a block back out → re-encode for the next
        // receiver. With scatter-gather encode this must not copy one payload byte —
        // the debug copy counter proves it, so the invariant cannot silently regress.
        use hoplite_core::buffer::ProgressBuffer;
        use hoplite_core::copytrace;
        let block_len = 2 * GATHER_MIN_SEGMENT as u64;
        let total = 2 * block_len;
        let incoming: Vec<Bytes> = (0..2)
            .map(|i| {
                Bytes::from(body(&Message::PushBlock {
                    object: ObjectId::from_name("fwd"),
                    offset: i * block_len,
                    total_size: total,
                    payload: Payload::from_vec(vec![i as u8 + 1; block_len as usize]),
                    complete: i == 1,
                }))
            })
            .collect();
        copytrace::reset();
        let mut buf = ProgressBuffer::new(total, false);
        for frame in &incoming {
            let Message::PushBlock { offset, payload, .. } = decode_body(frame).unwrap() else {
                panic!("wrong variant");
            };
            assert!(buf.append_at(offset, &payload));
        }
        // Forward at an offset that straddles the two received segments — the hardest
        // case, which the old path would coalesce.
        let fwd = buf.read(block_len / 2, block_len).unwrap();
        assert!(fwd.as_bytes().is_none(), "straddling read should stay segmented");
        let frame = encode_frame_vectored(&Message::PushBlock {
            object: ObjectId::from_name("fwd"),
            offset: block_len / 2,
            total_size: total,
            payload: fwd,
            complete: false,
        })
        .unwrap();
        assert_eq!(frame.segments.len(), 2, "both straddled views ride as references");
        assert_eq!(
            copytrace::bytes_copied(),
            0,
            "decode → append → read → encode must not memcpy payload bytes"
        );
        assert_eq!(copytrace::copies(), 0);
    }

    #[test]
    fn corrupt_frames_are_rejected() {
        let decode = |v: &[u8]| decode_body(&Bytes::copy_from_slice(v));
        assert!(decode(&[]).is_err());
        assert!(decode(&[42]).is_err());
        assert!(decode(&[1, 1, 2]).is_err(), "truncated PushBlock");
        // A valid message with trailing garbage is rejected too.
        let mut trailing = body(&Message::DirDelete { object: ObjectId::from_name("x") });
        trailing.push(0);
        assert!(decode(&trailing).is_err());
        // Truncated node list.
        let query = body(&Message::DirQuery {
            object: ObjectId::from_name("q"),
            requester: NodeId(0),
            query_id: 1,
            exclude: vec![NodeId(1)],
        });
        assert!(decode(&query[..query.len() - 2]).is_err());
        // A list count the remaining bytes cannot honour is refused before anything
        // is reserved for it: two 4-byte nodes do not fit the 4 bytes left.
        let mut overcount = query.clone();
        let count_at = overcount.len() - 4 - 8; // count u64 sits just before the one node
        overcount[count_at..count_at + 8].copy_from_slice(&2u64.to_be_bytes());
        let err = decode(&overcount).unwrap_err().to_string();
        assert!(err.contains("list longer than frame"), "{err}");
        // A payload length field of u64::MAX must come back Malformed, not panic
        // (checked end-offset arithmetic in the reader).
        let mut huge = body(&Message::PushBlock {
            object: ObjectId::from_name("huge"),
            offset: 0,
            total_size: 8,
            payload: Payload::from_vec(vec![1; 8]),
            complete: true,
        });
        let len_at = huge.len() - 8 - 8; // length u64 sits just before the 8 payload bytes
        huge[len_at..len_at + 8].copy_from_slice(&u64::MAX.to_be_bytes());
        assert!(decode(&huge).is_err());
    }

    /// Serves a fixed byte stream in adversarially small chunks: every `read` returns
    /// at most `max_chunk` bytes (rng-sized when `max_chunk > 1`), so frame headers,
    /// bodies, and slab boundaries are straddled in every possible way.
    struct ChunkedReader<'a> {
        data: &'a [u8],
        at: usize,
        rng: Rng,
        max_chunk: usize,
    }

    impl std::io::Read for ChunkedReader<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if self.at == self.data.len() {
                return Ok(0);
            }
            let chunk = if self.max_chunk <= 1 {
                1
            } else {
                self.rng.range(1, self.max_chunk as u64 + 1) as usize
            };
            let n = chunk.min(buf.len()).min(self.data.len() - self.at);
            buf[..n].copy_from_slice(&self.data[self.at..self.at + n]);
            self.at += n;
            Ok(n)
        }
    }

    /// Property (seeded fuzzer): a [`FrameReader`] fed any message mix through any
    /// read chunking — 1-byte reads, short reads mid-header, reads that end inside a
    /// slab-bound frame or spill over into the next header — decodes exactly the messages
    /// that were encoded into the byte stream. (The name predates the removal of the
    /// allocating per-frame reader it used to be compared with.)
    #[test]
    fn fuzz_frame_reader_matches_read_frame_under_adversarial_chunking() {
        let mut rng = Rng(0xF8A3_11D7);
        for round in 0..25u64 {
            let n_msgs = rng.range(1, 12) as usize;
            let msgs: Vec<Message> = (0..n_msgs).map(|_| rng.message()).collect();
            let stream: Vec<u8> = msgs.iter().flat_map(wire).collect();
            for (slab_len, max_chunk) in
                [(64usize, 1usize), (97, 3), (1 << 10, 11), (1 << 16, 4096)]
            {
                let chunked =
                    ChunkedReader { data: &stream, at: 0, rng: Rng(rng.next_u64() | 1), max_chunk };
                let mut reader = FrameReader::with_slab_len(chunked, slab_len);
                let decoded: Vec<Message> = (0..n_msgs)
                    .map(|i| {
                        reader.read_message().unwrap_or_else(|e| {
                            panic!("round {round} slab {slab_len} chunk {max_chunk} msg {i}: {e}")
                        })
                    })
                    .collect();
                assert_eq!(decoded, msgs, "round {round} slab {slab_len} chunk {max_chunk}");
                // The stream ends at a frame boundary; the next read reports EOF.
                let err = reader.read_message().unwrap_err();
                assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
            }
        }
    }

    #[test]
    fn frame_reader_reuses_slabs_and_decodes_bulk_payloads_in_place() {
        use hoplite_core::copytrace;
        let block = 2 * GATHER_MIN_SEGMENT;
        let msgs: Vec<Message> = (0..8)
            .map(|i| Message::PushBlock {
                object: ObjectId::from_name("slab"),
                offset: (i * block) as u64,
                total_size: (8 * block) as u64,
                payload: Payload::from_vec(vec![i as u8 + 1; block]),
                complete: i == 7,
            })
            .collect();
        let stream: Vec<u8> = msgs.iter().flat_map(wire).collect();
        copytrace::reset();
        let mut reader = FrameReader::with_slab_len(std::io::Cursor::new(stream), 4 * block);
        for want in &msgs {
            let got = reader.read_message().unwrap();
            assert_eq!(&got, want);
            // `got` (and its payload view into the slab) drops here, unpinning the
            // slab so the pool can hand it out again for the next block.
        }
        assert!(reader.take_slab_reuses() > 0, "pool should recycle unpinned slabs");
        assert_eq!(
            copytrace::bytes_copied(),
            0,
            "slab-reader decode must not memcpy payload bytes"
        );
    }

    #[test]
    fn slabs_of_a_deleted_object_are_read_into_again() {
        // Two 16-block objects through readers sharing one pool, each block kept
        // alive as the store would. Once the first object is dropped, its slabs —
        // filled by reader A — are what the second object lands in, whether it
        // arrives over A again or over a different reader of the same pool.
        let block = 2 * GATHER_MIN_SEGMENT;
        let object = |name: &str| -> Vec<u8> {
            (0..16)
                .map(|i| Message::PushBlock {
                    object: ObjectId::from_name(name),
                    offset: (i * block) as u64,
                    total_size: (16 * block) as u64,
                    payload: Payload::from_vec(vec![i as u8 + 1; block]),
                    complete: i == 15,
                })
                .flat_map(|msg| wire(&msg))
                .collect()
        };
        // Default slabs: 4 MiB of address space each, of which a block touches 8 KiB.
        let pool = default_pool();
        let reader_over =
            |stream: Vec<u8>| FrameReader::with_pool(std::io::Cursor::new(stream), pool.clone());
        // Read one object, returning its blocks (kept alive, as the store would) and
        // where each one's payload landed: the same header length puts it at the same
        // offset of whichever slab it was read into.
        fn read_object<R: std::io::Read>(r: &mut FrameReader<R>) -> (Vec<Message>, Vec<*const u8>) {
            (0..16)
                .map(|_| {
                    let msg = r.read_message().unwrap();
                    let Message::PushBlock { payload: Payload::Bytes(bytes), .. } = &msg else {
                        panic!("expected a block, got {msg:?}");
                    };
                    let at = bytes.as_slice().as_ptr();
                    (msg, at)
                })
                .unzip()
        }
        let mut a = reader_over([object("first"), object("second")].concat());

        // Every block pins the slab it was read into; the pool has nothing to offer.
        let (first, first_slabs) = read_object(&mut a);
        assert_eq!(a.take_slab_reuses(), 0);
        assert_eq!((pool.pinned_slabs(), pool.idle_slabs()), (16, 0));
        drop(first);

        // Each block of the second object lands in a slab the first one freed.
        let (second, second_slabs) = read_object(&mut a);
        assert_eq!(a.take_slab_reuses(), 16, "the second object allocates nothing");
        assert!(second_slabs.iter().all(|slab| first_slabs.contains(slab)));
        drop(second);

        // `a` keeps none of them between frames: all sixteen serve another reader.
        let mut b = reader_over(object("third"));
        let (_third, third_slabs) = read_object(&mut b);
        assert_eq!(b.take_slab_reuses(), 16, "another reader of the pool allocates nothing");
        assert!(third_slabs.iter().all(|slab| first_slabs.contains(slab)));
    }

    #[test]
    fn inline_replies_never_pin_or_leave_the_first_slab() {
        // The small-object stream that used to retire one 4 MiB slab per 1 KiB frame:
        // every decoded reply is kept alive, as the inline cache and the store do. All
        // of it is read in the reader's home buffer.
        let msgs: Vec<Message> = (0..256)
            .map(|query_id| Message::DirQueryReply {
                object: ObjectId::from_name("small"),
                query_id,
                result: QueryResult::Inline { payload: Payload::from_vec(vec![0xAB; 1024]) },
            })
            .collect();
        let stream: Vec<u8> = msgs.iter().flat_map(wire).collect();
        copytrace::reset();
        let mut reader = FrameReader::new(std::io::Cursor::new(stream));
        let home = reader.home.as_ptr_range();
        let held: Vec<Message> = msgs.iter().map(|_| reader.read_message().unwrap()).collect();
        assert_eq!(held, msgs);
        assert_eq!(reader.home.as_ptr_range(), home, "the reader never left its home buffer");
        assert_eq!(reader.take_slab_reuses(), 0);
        assert_eq!(reader.pool.idle_slabs() + reader.pool.pinned_slabs(), 0, "no slab taken");
        assert_eq!(std::sync::Arc::strong_count(&reader.home), 1, "no held message pins it");
        for msg in &held {
            let Message::DirQueryReply {
                result: QueryResult::Inline { payload: Payload::Bytes(bytes) },
                ..
            } = msg
            else {
                panic!("decoded wrong variant");
            };
            assert!(!home.contains(&bytes.as_slice().as_ptr()), "payload is an owned copy");
        }
        // The copy that buys this is on the books.
        if cfg!(debug_assertions) {
            assert_eq!(copytrace::bytes_copied(), 256 * 1024);
        }
    }

    #[test]
    fn a_control_stream_never_takes_a_pool_slab() {
        // 8 MiB of 1 KiB directory writes, each decoded and dropped: all of it is read
        // in home, whose cursor goes back to its start after every frame, so the
        // reader never walks off a buffer and never checks one out of the pool.
        let frame = |i: u64| Message::DirPutInline {
            object: ObjectId::from_name(&format!("ctl-{i}")),
            holder: NodeId(1),
            payload: Payload::from_vec(vec![i as u8; 1024]),
        };
        let count = (8 << 20) / 1024 + 1;
        let stream: Vec<u8> = (0..count).flat_map(|i| wire(&frame(i))).collect();
        assert!(stream.len() >= 8 << 20);
        let chunked = ChunkedReader { data: &stream, at: 0, rng: Rng(0xC0DE), max_chunk: 4096 };
        let mut reader = FrameReader::new(chunked);
        for i in 0..count {
            assert_eq!(reader.read_message().unwrap(), frame(i));
            assert!(reader.filled <= HEAD, "at most the next prefix and tag stay buffered");
        }
        assert_eq!(reader.take_slab_reuses(), 0);
        assert_eq!(reader.pool.idle_slabs() + reader.pool.pinned_slabs(), 0, "no slab taken");
    }

    #[test]
    fn frame_reader_rejects_an_oversized_length_prefix_before_sizing_a_slab() {
        for len in [u32::MAX, MAX_FRAME_BODY as u32 + 1] {
            let prefix = len.to_be_bytes().to_vec();
            let mut reader = FrameReader::with_slab_len(std::io::Cursor::new(prefix), 64);
            let home = reader.home.as_ptr_range();
            // Reading on would have hit the end of the stream: `InvalidData` is the
            // bound, checked on the prefix alone.
            let err = reader.read_message().unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
            assert_eq!(reader.home.as_ptr_range(), home, "the prefix was read in home");
            assert_eq!(reader.pool.idle_slabs() + reader.pool.pinned_slabs(), 0);
        }
    }

    #[test]
    fn encoder_refuses_a_frame_the_reader_would_reject() {
        // Views of one 4 MiB buffer: payloads of 60 and 64 MiB that cost 4 MiB to build.
        let block = Bytes::from(vec![0u8; 4 << 20]);
        let msg = |blocks: usize| Message::PushBlock {
            object: ObjectId::from_name("too-big"),
            offset: 0,
            total_size: (blocks << 22) as u64,
            payload: Payload::from_segments(vec![block.clone(); blocks]),
            complete: true,
        };
        assert!(encode_frame_vectored(&msg(15)).unwrap().frame_len() <= 4 + MAX_FRAME_BODY);
        // 64 MiB of payload plus its header is over the bound.
        let err = encode_frame_vectored(&msg(16)).unwrap_err().to_string();
        assert!(err.contains("MAX_FRAME_BODY"), "{err}");
        let mut sink = Vec::new();
        let err = write_frame_vectored(&mut sink, &msg(16)).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(sink.is_empty(), "nothing of a refused frame reaches the wire");
    }

    /// The golden frames short enough to be pinned as hex (`tests/golden_frames.rs`).
    fn golden_frames() -> Vec<Vec<u8>> {
        include_str!("../tests/golden_frames.txt")
            .lines()
            .filter_map(|line| line.split_once(' '))
            .filter(|(name, value)| *name != "#" && !value.starts_with("len="))
            .map(|(_, hex)| {
                (0..hex.len())
                    .step_by(2)
                    .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).unwrap())
                    .collect()
            })
            .collect()
    }

    /// One piece of a hostile stream: random bytes, or a golden frame that is intact,
    /// truncated, bit-flipped, or given a different length prefix.
    fn hostile_piece(rng: &mut Rng, golden: &[Vec<u8>]) -> Vec<u8> {
        let mut frame = golden[rng.range(0, golden.len() as u64) as usize].clone();
        match rng.range(0, 5) {
            0 => {
                let len = rng.range(0, 200) as usize;
                return rng.bytes(len);
            }
            1 => {}
            2 => frame.truncate(rng.range(0, frame.len() as u64) as usize),
            3 => {
                for _ in 0..rng.range(1, 5) {
                    let bit = rng.range(0, 8 * frame.len() as u64) as usize;
                    frame[bit / 8] ^= 1 << (bit % 8);
                }
            }
            _ => {
                let honest = frame.len() as u32 - 4;
                let spliced = match rng.range(0, 6) {
                    0 => 0,
                    1 => honest.wrapping_sub(rng.range(1, 9) as u32),
                    2 => honest + rng.range(1, 9) as u32,
                    3 => MAX_FRAME_BODY as u32 + rng.range(0, 2) as u32,
                    4 => u32::MAX - rng.range(0, 4) as u32,
                    _ => rng.next_u64() as u32,
                };
                frame[..4].copy_from_slice(&spliced.to_be_bytes());
            }
        }
        frame
    }

    /// Property (seeded fuzzer): bytes off the wire can never panic a reader or make
    /// it size a slab past the frame bound. Every read is `Ok` or an `io::Error`.
    #[test]
    fn fuzz_arbitrary_bytes_never_panic_or_oversize_a_slab() {
        let golden = golden_frames();
        assert!(golden.len() >= 33, "fixture parsed");
        let mut seeds = Rng(0xBAD_B17E5);
        for case in 0..2000 {
            let seed = seeds.next_u64() | 1;
            let outcome = std::panic::catch_unwind(|| {
                let mut rng = Rng(seed);
                let stream: Vec<u8> =
                    (0..rng.range(1, 4)).flat_map(|_| hostile_piece(&mut rng, &golden)).collect();
                let slab_len = [64usize, 97, 1 << 10, 1 << 16][rng.range(0, 4) as usize];
                let max_chunk = [1usize, 3, 11, 4096][rng.range(0, 4) as usize];
                let chunked =
                    ChunkedReader { data: &stream, at: 0, rng: Rng(rng.next_u64() | 1), max_chunk };
                let mut reader = FrameReader::with_slab_len(chunked, slab_len);
                // Every `Ok` consumes at least a length prefix, so this terminates.
                for _ in 0..=stream.len() {
                    let ok = reader.read_message().is_ok();
                    // Home is where it was and unpinned, no slab outlives the message
                    // read into it, and none was sized past the frame bound.
                    assert_eq!(reader.home.len(), HOME_LEN);
                    assert_eq!(std::sync::Arc::strong_count(&reader.home), 1);
                    assert_eq!(reader.pool.pinned_slabs(), 0);
                    while reader.pool.idle_slabs() > 0 {
                        assert!(reader.pool.checkout(0).len() <= slab_len.max(MAX_FRAME_BODY + 4));
                    }
                    if !ok {
                        return;
                    }
                    assert!(reader.filled <= HEAD);
                }
                panic!("reader produced more messages than the stream has bytes");
            });
            assert!(outcome.is_ok(), "case {case} failed: re-run with Rng({seed:#x})");
        }
    }

    /// Counts syscall-shaped write calls and captures the byte stream, with a real
    /// gathering `write_vectored` (the std default would only take the first slice).
    #[derive(Default)]
    struct CountingWriter {
        out: Vec<u8>,
        calls: usize,
    }

    impl std::io::Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.calls += 1;
            self.out.extend_from_slice(buf);
            Ok(buf.len())
        }
        fn write_vectored(&mut self, bufs: &[std::io::IoSlice<'_>]) -> std::io::Result<usize> {
            self.calls += 1;
            let mut n = 0;
            for b in bufs {
                self.out.extend_from_slice(b);
                n += b.len();
            }
            Ok(n)
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn cork_batches_control_bursts_into_one_vectored_write() {
        let controls: Vec<Message> =
            (0..10).map(|i| Message::DirAck { shard: i, epoch: 1, seq: i + 1 }).collect();
        let mut expected = Vec::new();
        for m in &controls {
            write_frame_vectored(&mut expected, m).unwrap();
        }
        let mut w = CountingWriter::default();
        let mut cork = Cork::new();
        for m in &controls {
            cork.write(&mut w, m).unwrap();
        }
        assert_eq!(w.calls, 0, "control frames are held until flush");
        cork.flush(&mut w).unwrap();
        assert_eq!(w.calls, 1, "the whole burst goes out as one vectored write");
        assert_eq!(w.out, expected, "corked stream must be byte-exact");
        assert_eq!(cork.take_corked(), (10, 1));
    }

    #[test]
    fn cork_flushes_ahead_of_bulk_frames_and_on_cap_overflow() {
        let bulk = Message::PushBlock {
            object: ObjectId::from_name("blk"),
            offset: 0,
            total_size: 2 * GATHER_MIN_SEGMENT as u64,
            payload: Payload::Bytes(Bytes::from(vec![5u8; 2 * GATHER_MIN_SEGMENT])),
            complete: true,
        };
        let ctl = Message::DirResynced { node: NodeId(1), incarnation: 0 };
        let mut expected = Vec::new();
        write_frame_vectored(&mut expected, &ctl).unwrap();
        write_frame_vectored(&mut expected, &ctl).unwrap();
        write_frame_vectored(&mut expected, &bulk).unwrap();
        let mut w = CountingWriter::default();
        let mut cork = Cork::new();
        cork.write(&mut w, &ctl).unwrap();
        cork.write(&mut w, &ctl).unwrap();
        cork.write(&mut w, &bulk).unwrap();
        assert!(!cork.has_pending(), "a bulk frame flushes the cork first");
        assert_eq!(w.calls, 2, "pending burst, then the bulk frame itself");
        assert_eq!(w.out, expected, "ordering is preserved across the implicit flush");
        // Overflowing the frame cap flushes implicitly, so a cork never holds an
        // unbounded backlog.
        let mut w2 = CountingWriter::default();
        for i in 0..(MAX_CORKED_FRAMES as u64 + 1) {
            cork.write(&mut w2, &Message::DirAck { shard: 0, epoch: 0, seq: i }).unwrap();
        }
        assert_eq!(w2.calls, 1);
        assert!(cork.has_pending(), "the overflow frame starts the next batch");
        cork.flush(&mut w2).unwrap();
    }
}
