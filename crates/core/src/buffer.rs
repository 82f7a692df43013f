//! Object payloads and streaming (partially-received) buffers.
//!
//! Hoplite moves objects as sequences of fixed-size blocks. Three payload kinds exist:
//!
//! * [`Payload::Bytes`] carries real data in one contiguous shared buffer. The real
//!   transports and the data-plane correctness tests use this kind, and reduce
//!   operations perform real arithmetic on it.
//! * [`Payload::Segments`] carries real data as an ordered list of shared segments
//!   viewed as one logical byte string. It is what a read spanning several received
//!   blocks produces — a `get` of an object larger than one block included: the
//!   segments are passed through the store, the node engines, the channels fabric,
//!   the scatter-gather frame encoder and on to the caller of `get` **without ever
//!   being coalesced**. A caller that needs one flat buffer asks for it explicitly
//!   with [`Payload::to_owned_vec`], the one copy on the path.
//! * [`Payload::Synthetic`] carries only a length. The discrete-event simulator uses it
//!   so that cluster-scale experiments (16 nodes × 1 GiB objects) model timing without
//!   allocating or copying gigabytes of memory.
//!
//! Every protocol path treats the kinds identically; only the arithmetic differs, and
//! two real payloads compare equal when their logical bytes agree regardless of how
//! they are segmented.
//!
//! Bulk memory has one owner per process, the [`SlabPool`]: the transport reads block
//! frames into slabs checked out of it and the reduce engine of every hosted node
//! accumulates into them — all of one length, so the buffers of a deleted object are
//! what the next object is written into, whichever of the two it comes from.

use std::fmt;
use std::sync::{Arc, Mutex};

use bytes::Bytes;

use crate::copytrace;

/// The contents (or modelled contents) of an object or of a single transferred block.
#[derive(Clone)]
pub enum Payload {
    /// Real bytes in one contiguous shared buffer.
    Bytes(Bytes),
    /// Real bytes as two or more non-empty shared segments (zero-copy views, usually
    /// straight out of a [`ProgressBuffer`]'s segment list). Constructed through
    /// [`Payload::from_segments`], which normalizes the degenerate cases to
    /// [`Payload::Bytes`] so this variant always means "genuinely scattered".
    Segments {
        /// The segments, in order. Invariant: at least two, none empty.
        segments: Vec<Bytes>,
        /// Total length in bytes (the sum of the segment lengths, cached).
        len: u64,
    },
    /// A length-only stand-in used by the simulator.
    Synthetic {
        /// Modelled length in bytes.
        len: u64,
    },
}

impl Payload {
    /// A real payload from a byte vector.
    pub fn from_vec(data: Vec<u8>) -> Payload {
        Payload::Bytes(Bytes::from(data))
    }

    /// A real payload of `len` zero bytes (useful in tests).
    pub fn zeros(len: usize) -> Payload {
        Payload::Bytes(Bytes::from(vec![0u8; len]))
    }

    /// A synthetic payload of `len` modelled bytes.
    pub fn synthetic(len: u64) -> Payload {
        Payload::Synthetic { len }
    }

    /// A real payload viewing `segments` as one logical byte string, zero-copy.
    /// Empty segments are dropped; zero or one survivors collapse to
    /// [`Payload::Bytes`].
    pub fn from_segments(segments: Vec<Bytes>) -> Payload {
        let mut segments: Vec<Bytes> = segments.into_iter().filter(|s| !s.is_empty()).collect();
        match segments.len() {
            0 => Payload::Bytes(Bytes::new()),
            1 => Payload::Bytes(segments.pop().expect("one segment")),
            _ => {
                let len = segments.iter().map(|s| s.len() as u64).sum();
                Payload::Segments { segments, len }
            }
        }
    }

    /// A real payload encoding a slice of `f32`s in little-endian order.
    pub fn from_f32s(values: &[f32]) -> Payload {
        let mut out = Vec::with_capacity(values.len() * 4);
        for v in values {
            out.extend_from_slice(&v.to_le_bytes());
        }
        Payload::from_vec(out)
    }

    /// Decode a real payload as little-endian `f32`s, segment by segment: no staging
    /// copy however the payload is split. Panics on synthetic payloads or lengths not
    /// divisible by four (callers check [`Payload::is_synthetic`] first).
    pub fn to_f32s(&self) -> Vec<f32> {
        assert!(!self.is_synthetic(), "cannot decode a synthetic payload");
        assert!(self.len().is_multiple_of(4), "payload length {} not a multiple of 4", self.len());
        let mut out = Vec::with_capacity(self.len() as usize / 4);
        self.for_each_element_run::<4>(|run| {
            out.extend(run.chunks_exact(4).map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]])));
        });
        out
    }

    /// Walk the real bytes in order as runs of whole `W`-byte elements, without
    /// materializing the payload: each segment's aligned middle is passed to `f` as
    /// is, and an element that straddles segment boundaries is staged through a
    /// `W`-byte carry (bookkeeping, not a payload copy, so it stays out of the debug
    /// copy tally). The caller guarantees the length is a multiple of `W`.
    pub(crate) fn for_each_element_run<const W: usize>(&self, mut f: impl FnMut(&[u8])) {
        let mut carry = [0u8; W];
        let mut carried = 0usize;
        for seg in self.segments() {
            let mut s = seg.as_slice();
            if carried > 0 {
                // Finish the element started by the previous segment(s).
                let take = (W - carried).min(s.len());
                carry[carried..carried + take].copy_from_slice(&s[..take]);
                carried += take;
                s = &s[take..];
                if carried < W {
                    continue;
                }
                f(&carry);
            }
            let whole = s.len() - s.len() % W;
            f(&s[..whole]);
            carried = s.len() - whole;
            carry[..carried].copy_from_slice(&s[whole..]);
        }
        debug_assert_eq!(carried, 0, "length is a whole number of elements");
    }

    /// Length in (real or modelled) bytes.
    pub fn len(&self) -> u64 {
        match self {
            Payload::Bytes(b) => b.len() as u64,
            Payload::Segments { len, .. } => *len,
            Payload::Synthetic { len } => *len,
        }
    }

    /// `true` when the payload is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `true` for simulator (length-only) payloads.
    pub fn is_synthetic(&self) -> bool {
        matches!(self, Payload::Synthetic { .. })
    }

    /// Borrow the real bytes **when they are contiguous**. Returns `None` for
    /// segmented and synthetic payloads — a `get` of a multi-block object is
    /// segmented; callers that can consume scattered data should iterate
    /// [`Payload::segments`] instead, and callers that genuinely need one flat buffer
    /// pay the coalesce via [`Payload::to_owned_vec`].
    pub fn as_bytes(&self) -> Option<&Bytes> {
        match self {
            Payload::Bytes(b) => Some(b),
            Payload::Segments { .. } | Payload::Synthetic { .. } => None,
        }
    }

    /// Iterate the real segments of this payload in order (one segment for
    /// [`Payload::Bytes`], none for synthetic payloads). Zero-copy: the forward path
    /// and the frame encoder consume payloads through this.
    pub fn segments(&self) -> impl Iterator<Item = &Bytes> {
        let slice: &[Bytes] = match self {
            Payload::Bytes(b) => std::slice::from_ref(b),
            Payload::Segments { segments, .. } => segments,
            Payload::Synthetic { .. } => &[],
        };
        slice.iter()
    }

    /// Copy the real bytes into one owned vector (`None` for synthetic payloads).
    /// This is a genuine materialization — it shows up in the debug copy tally.
    pub fn to_owned_vec(&self) -> Option<Vec<u8>> {
        match self {
            Payload::Bytes(b) => {
                copytrace::record(b.len());
                Some(b.to_vec())
            }
            Payload::Segments { segments, len } => {
                copytrace::record(*len as usize);
                let mut v = Vec::with_capacity(*len as usize);
                for s in segments {
                    v.extend_from_slice(s);
                }
                Some(v)
            }
            Payload::Synthetic { .. } => None,
        }
    }

    /// Sub-range `[offset, offset + len)` of this payload. Zero-copy for real
    /// payloads — a sub-range of a segmented payload is a (possibly shorter) list of
    /// segment sub-views — and trivial for synthetic ones.
    pub fn slice(&self, offset: u64, len: u64) -> Payload {
        let end = (offset + len).min(self.len());
        let offset = offset.min(end);
        match self {
            Payload::Bytes(b) => Payload::Bytes(b.slice(offset as usize..end as usize)),
            Payload::Segments { segments, .. } => {
                let mut out = Vec::new();
                let mut seg_start = 0u64;
                for seg in segments {
                    let seg_end = seg_start + seg.len() as u64;
                    if seg_end > offset && seg_start < end {
                        let a = offset.saturating_sub(seg_start) as usize;
                        let b = (end.min(seg_end) - seg_start) as usize;
                        out.push(seg.slice(a..b));
                    }
                    seg_start = seg_end;
                    if seg_start >= end {
                        break;
                    }
                }
                Payload::from_segments(out)
            }
            Payload::Synthetic { .. } => Payload::Synthetic { len: end - offset },
        }
    }

    /// Concatenate two payloads, zero-copy: the result shares both inputs' segments.
    /// Mixing real and synthetic payloads degrades to a synthetic result (only the
    /// simulator ever does this).
    pub fn concat(&self, other: &Payload) -> Payload {
        if self.is_synthetic() || other.is_synthetic() {
            return Payload::Synthetic { len: self.len() + other.len() };
        }
        Payload::from_segments(self.segments().chain(other.segments()).cloned().collect())
    }
}

impl PartialEq for Payload {
    /// Logical equality: two real payloads are equal when their bytes agree,
    /// regardless of segmentation; synthetic payloads are equal only to synthetic
    /// payloads of the same length.
    fn eq(&self, other: &Payload) -> bool {
        match (self.is_synthetic(), other.is_synthetic()) {
            (true, true) => return self.len() == other.len(),
            (false, false) => {}
            _ => return false,
        }
        if self.len() != other.len() {
            return false;
        }
        // Walk both segment lists in lockstep without materializing either side
        // (empty segments contribute nothing and are skipped).
        let mut ours = self.segments().map(|s| s.as_slice()).filter(|s| !s.is_empty());
        let mut theirs = other.segments().map(|s| s.as_slice()).filter(|s| !s.is_empty());
        let (mut a, mut b) = (&[][..], &[][..]);
        loop {
            if a.is_empty() {
                a = match ours.next() {
                    Some(s) => s,
                    None => return b.is_empty() && theirs.next().is_none(),
                };
                continue;
            }
            if b.is_empty() {
                b = match theirs.next() {
                    Some(s) => s,
                    None => return false,
                };
                continue;
            }
            let n = a.len().min(b.len());
            if a[..n] != b[..n] {
                return false;
            }
            a = &a[n..];
            b = &b[n..];
        }
    }
}

impl Eq for Payload {}

impl fmt::Debug for Payload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Payload::Bytes(b) => write!(f, "Payload::Bytes({} bytes)", b.len()),
            Payload::Segments { segments, len } => {
                write!(f, "Payload::Segments({len} bytes in {} segments)", segments.len())
            }
            Payload::Synthetic { len } => write!(f, "Payload::Synthetic({len} bytes)"),
        }
    }
}

/// An object that is being created or received block by block.
///
/// The buffer tracks a *watermark*: the number of contiguous bytes available from the
/// start of the object. Pipelining (§3.3) works by letting other parties read up to the
/// watermark while the rest of the object is still in flight.
///
/// Real data is stored as a sequence of contiguous **segments** adopted zero-copy
/// from the incoming blocks (which are themselves zero-copy views into receive
/// frames): an append is a refcount bump, not a memcpy. Every read below the
/// watermark is zero-copy too — a range inside one segment comes back as a shared
/// sub-slice, and a range spanning segments comes back as a [`Payload::Segments`]
/// view, so neither the forward path (receiver → chained receiver, participant →
/// parent) nor the complete payload handed to a local consumer
/// ([`ProgressBuffer::to_payload`]) ever coalesces.
#[derive(Clone, Debug)]
pub struct ProgressBuffer {
    total_size: u64,
    watermark: u64,
    data: PayloadAccum,
}

#[derive(Clone, Debug)]
enum PayloadAccum {
    /// In-order contiguous segments; `starts[i]` is the object offset of
    /// `segments[i]`, and the segments jointly cover `0..watermark`.
    Real {
        segments: Vec<Bytes>,
        starts: Vec<u64>,
    },
    Synthetic,
}

impl ProgressBuffer {
    /// Start an empty buffer for an object of `total_size` bytes. `synthetic` selects
    /// the length-only representation used by the simulator.
    pub fn new(total_size: u64, synthetic: bool) -> Self {
        let data = if synthetic {
            PayloadAccum::Synthetic
        } else {
            PayloadAccum::Real { segments: Vec::new(), starts: Vec::new() }
        };
        ProgressBuffer { total_size, watermark: 0, data }
    }

    /// Build an already-complete buffer from a payload (the `Put` path). Zero-copy:
    /// the payload's segments become the buffer's segments.
    pub fn complete_from(payload: Payload) -> Self {
        let mut buffer = ProgressBuffer::new(payload.len(), payload.is_synthetic());
        buffer.append_at(0, &payload);
        buffer
    }

    /// Total object size in bytes.
    pub fn total_size(&self) -> u64 {
        self.total_size
    }

    /// Contiguous bytes available from the start of the object.
    pub fn watermark(&self) -> u64 {
        self.watermark
    }

    /// `true` once every byte has been appended.
    pub fn is_complete(&self) -> bool {
        self.watermark >= self.total_size
    }

    /// `true` if the buffer stores only modelled lengths.
    pub fn is_synthetic(&self) -> bool {
        matches!(self.data, PayloadAccum::Synthetic)
    }

    /// Append a block at `offset`. Blocks must arrive in order (offset == watermark);
    /// out-of-order appends indicate a protocol bug and return `false` without
    /// modifying the buffer. Duplicate (already-covered) blocks are ignored and return
    /// `true`, which makes retransmission after sender failover idempotent.
    ///
    /// Real blocks are adopted as shared segments — no per-block memcpy, whether the
    /// block arrives contiguous or already segmented.
    pub fn append_at(&mut self, offset: u64, payload: &Payload) -> bool {
        let len = payload.len();
        if offset + len <= self.watermark {
            return true; // duplicate block, e.g. replayed after a failover
        }
        if offset > self.watermark {
            return false; // gap: the protocol only ever streams contiguously
        }
        // Possibly overlapping head; keep only the new suffix.
        let skip = self.watermark - offset;
        let fresh = payload.slice(skip, len - skip);
        if let PayloadAccum::Real { segments, starts } = &mut self.data {
            if fresh.is_synthetic() {
                // A synthetic block arriving into a real buffer would corrupt it.
                // This only happens if a driver mixes modes, which is a bug.
                return false;
            }
            let mut at = self.watermark;
            for seg in fresh.segments() {
                if !seg.is_empty() {
                    starts.push(at);
                    at += seg.len() as u64;
                    segments.push(seg.clone());
                }
            }
        }
        self.watermark = (offset + len).min(self.total_size);
        true
    }

    /// Read `[offset, offset+len)` if it is already below the watermark. Always
    /// zero-copy: a range inside one received segment (the common, block-aligned
    /// case) is a shared sub-slice; a range spanning segments is a
    /// [`Payload::Segments`] view over the covered pieces.
    pub fn read(&self, offset: u64, len: u64) -> Option<Payload> {
        let end = (offset + len).min(self.total_size);
        if end > self.watermark || offset > end {
            return None;
        }
        match &self.data {
            PayloadAccum::Real { segments, starts } => {
                if offset == end {
                    return Some(Payload::Bytes(Bytes::new()));
                }
                // Last segment starting at or before `offset`.
                let idx = starts.partition_point(|&s| s <= offset) - 1;
                let seg_start = starts[idx];
                let seg = &segments[idx];
                if end <= seg_start + seg.len() as u64 {
                    let a = (offset - seg_start) as usize;
                    let b = (end - seg_start) as usize;
                    return Some(Payload::Bytes(seg.slice(a..b)));
                }
                // Range spans segments: a zero-copy view over the covered pieces.
                let mut views = Vec::new();
                let mut at = offset;
                for (i, seg) in segments.iter().enumerate().skip(idx) {
                    if at >= end {
                        break;
                    }
                    let seg_start = starts[i];
                    let a = (at - seg_start) as usize;
                    let b = ((end - seg_start) as usize).min(seg.len());
                    views.push(seg.slice(a..b));
                    at = seg_start + b as u64;
                }
                Some(Payload::from_segments(views))
            }
            PayloadAccum::Synthetic => Some(Payload::Synthetic { len: end - offset }),
        }
    }

    /// The complete payload; `None` until [`ProgressBuffer::is_complete`]. Zero-copy
    /// like every other read: the segments the buffer received, one refcount each
    /// ([`Payload::Bytes`] when there is a single one).
    pub fn to_payload(&self) -> Option<Payload> {
        if !self.is_complete() {
            return None;
        }
        self.read(0, self.total_size)
    }
}

/// How many idle slabs a [`SlabPool`] keeps for reuse; the rest are freed when a slab
/// is next handed back. Sized from what a process of four nodes frees between a delete
/// and the next transfer: a 64 MiB broadcast round 48 block slabs, a 64 MiB allreduce
/// round about 100 (accumulators and received blocks alike) while its middle slots
/// pinned their accumulators until release, and no more since a participant lets go of
/// each block as it sends it ([`crate::reduce::tree`]), a 256 MiB failover round 128.
/// Those are all the slabs such a process has: no frame reader keeps one between
/// frames.
pub const MAX_IDLE_SLABS: usize = 128;

/// What a slab carries beyond one block: room for the frame header and a trailing
/// length prefix — and no more, because an escaped block payload pins its whole slab.
const FRAME_SLACK: usize = 4096;

/// The pool bulk memory comes from, one per process: receive slabs for the transport's
/// frame readers and accumulators for the reduce engine of every hosted node. A reader
/// checks a slab out for one block frame (or one frame too long for its own 64 KiB
/// buffer) and hands it back right after decoding it, so between frames the pool's
/// list holds every receive slab there is, pinned or idle.
///
/// Slabs are `Arc<Vec<u8>>` allocations. Whoever checks one out writes it through
/// `Arc::get_mut`, mints [`Bytes`] views of it with [`Bytes::from_arc`] and hands the
/// slab back with [`SlabPool::retain`]; the slab stays pinned — `strong_count > 1` —
/// for exactly as long as any view is alive, and checkout only ever hands out a slab
/// whose refcount has dropped back to one: no free-lists, no drop hooks, the `Arc`
/// refcount *is* the in-use bit. The pool keeps its handle on every pinned slab (the
/// store accounts for those bytes) and on at most [`MAX_IDLE_SLABS`] idle ones, so the
/// slabs of a deleted object are what the next object lands in — already mapped, no
/// page faults. A pool built [`SlabPool::for_block_size`] allocates every slab at one
/// length, so the accumulators of a released reduce are what the next receive reads
/// into, and the reverse. Clones share the pool; it is `Send + Sync`.
#[derive(Clone, Default)]
pub struct SlabPool {
    state: Arc<Mutex<PoolState>>,
    /// The least a miss allocates (0: exactly what was asked for).
    slab_len: usize,
}

#[derive(Default)]
struct PoolState {
    slabs: Vec<Arc<Vec<u8>>>,
    reuses: u64,
}

impl SlabPool {
    /// An empty pool of no set slab length: what a node keeps when nobody hands it one.
    pub fn new() -> SlabPool {
        SlabPool::default()
    }

    /// An empty pool for a process that moves `block_size`-byte pipelining blocks.
    pub fn for_block_size(block_size: u64) -> SlabPool {
        Self::with_slab_len(block_size as usize + FRAME_SLACK)
    }

    /// An empty pool whose slabs are at least `slab_len` bytes.
    pub fn with_slab_len(slab_len: usize) -> SlabPool {
        SlabPool { slab_len, ..SlabPool::default() }
    }

    /// The length this pool allocates slabs at (longer for a longer request).
    pub fn slab_len(&self) -> usize {
        self.slab_len
    }

    fn state(&self) -> std::sync::MutexGuard<'_, PoolState> {
        // Every update leaves the slab list valid, so a panicked holder is survivable.
        self.state.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Check a writable (uniquely held) slab of at least `min_len` bytes out of the
    /// pool: an idle slab that fits, or — when none does — a fresh zeroed allocation of
    /// `min_len` bytes or the pool's slab length, whichever is longer, which costs
    /// address space until it is first written (the `Vec` is adopted behind the `Arc`
    /// in place, never copied).
    pub fn checkout(&self, min_len: usize) -> Arc<Vec<u8>> {
        let mut state = self.state();
        let fits = |slab: &Arc<Vec<u8>>| Arc::strong_count(slab) == 1 && slab.len() >= min_len;
        if let Some(i) = state.slabs.iter().position(fits) {
            state.reuses += 1;
            return state.slabs.swap_remove(i);
        }
        drop(state);
        Arc::new(vec![0u8; min_len.max(self.slab_len)])
    }

    /// Hand a slab back. It becomes reusable once every view into it drops.
    pub fn retain(&self, slab: Arc<Vec<u8>>) {
        let mut state = self.state();
        state.slabs.push(slab);
        let mut idle = 0;
        state.slabs.retain(|slab| {
            let pinned = Arc::strong_count(slab) > 1;
            idle += usize::from(!pinned);
            pinned || idle <= MAX_IDLE_SLABS
        });
    }

    /// Checkouts — receive slabs and accumulators alike — served from a pooled slab
    /// instead of a fresh allocation, ever (feeds the `recv_slab_reuse` metric).
    pub fn reuses(&self) -> u64 {
        self.state().reuses
    }

    /// Slabs the pool holds that no view pins.
    pub fn idle_slabs(&self) -> usize {
        self.state().slabs.iter().filter(|slab| Arc::strong_count(slab) == 1).count()
    }

    /// Slabs handed back to the pool that a view still pins.
    pub fn pinned_slabs(&self) -> usize {
        self.state().slabs.iter().filter(|slab| Arc::strong_count(slab) > 1).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payload_slice_and_concat() {
        let p = Payload::from_vec(vec![1, 2, 3, 4, 5]);
        assert_eq!(p.slice(1, 3).as_bytes().unwrap().as_ref(), &[2, 3, 4]);
        assert_eq!(p.slice(4, 10).len(), 1);
        let q = Payload::from_vec(vec![6, 7]);
        assert_eq!(p.concat(&q).len(), 7);
        let s = Payload::synthetic(100);
        assert_eq!(s.slice(90, 20).len(), 10);
        assert!(p.concat(&s).is_synthetic());
    }

    #[test]
    fn f32_roundtrip() {
        let values = vec![1.0f32, -2.5, 3.25, 0.0];
        let p = Payload::from_f32s(&values);
        assert_eq!(p.len(), 16);
        assert_eq!(p.to_f32s(), values);
    }

    #[test]
    fn segmented_payload_equals_contiguous() {
        let seg = Payload::from_segments(vec![
            Bytes::from(vec![1, 2]),
            Bytes::from(vec![3]),
            Bytes::from(vec![4, 5, 6]),
        ]);
        assert!(matches!(seg, Payload::Segments { .. }));
        assert_eq!(seg.len(), 6);
        assert_eq!(seg, Payload::from_vec(vec![1, 2, 3, 4, 5, 6]));
        assert_ne!(seg, Payload::from_vec(vec![1, 2, 3, 4, 5, 7]));
        assert_ne!(seg, Payload::from_vec(vec![1, 2, 3, 4, 5]));
        assert_ne!(seg, Payload::synthetic(6));
        // Differently-split segmentations of the same bytes are equal too.
        let other = Payload::from_segments(vec![
            Bytes::from(vec![1]),
            Bytes::from(vec![2, 3, 4, 5]),
            Bytes::from(vec![6]),
        ]);
        assert_eq!(seg, other);
    }

    #[test]
    fn from_segments_normalizes() {
        assert!(matches!(Payload::from_segments(vec![]), Payload::Bytes(_)));
        let one = Payload::from_segments(vec![Bytes::new(), Bytes::from(vec![9])]);
        assert_eq!(one.as_bytes().unwrap().as_ref(), &[9]);
        let two = Payload::from_segments(vec![Bytes::from(vec![1]), Bytes::from(vec![2])]);
        assert!(two.as_bytes().is_none());
        assert_eq!(two.segments().count(), 2);
    }

    #[test]
    fn segmented_slice_is_zero_copy() {
        let a = Bytes::from(vec![0, 1, 2, 3]);
        let b = Bytes::from(vec![4, 5, 6, 7]);
        let p = Payload::from_segments(vec![a.clone(), b.clone()]);
        // Slice inside the second segment collapses to a contiguous shared view.
        let tail = p.slice(5, 3);
        let tail_bytes = tail.as_bytes().unwrap();
        assert_eq!(tail_bytes.as_ref(), &[5, 6, 7]);
        assert_eq!(tail_bytes.as_slice().as_ptr(), b.as_slice()[1..].as_ptr());
        // Slice spanning the boundary keeps both views, still sharing storage.
        let span = p.slice(2, 4);
        assert_eq!(span, Payload::from_vec(vec![2, 3, 4, 5]));
        let ptrs: Vec<_> = span.segments().map(|s| s.as_slice().as_ptr()).collect();
        assert_eq!(ptrs, vec![a.as_slice()[2..].as_ptr(), b.as_slice().as_ptr()]);
    }

    #[test]
    fn concat_shares_segments() {
        let a = Payload::from_vec(vec![1, 2]);
        let b = Payload::from_vec(vec![3]);
        let joined = a.concat(&b);
        assert_eq!(joined, Payload::from_vec(vec![1, 2, 3]));
        let a_ptr = a.as_bytes().unwrap().as_slice().as_ptr();
        assert_eq!(joined.segments().next().unwrap().as_slice().as_ptr(), a_ptr);
    }

    #[test]
    fn progress_buffer_in_order() {
        let mut b = ProgressBuffer::new(10, false);
        assert!(!b.is_complete());
        assert!(b.append_at(0, &Payload::from_vec(vec![0, 1, 2, 3])));
        assert_eq!(b.watermark(), 4);
        // Gap is rejected.
        assert!(!b.append_at(6, &Payload::from_vec(vec![9])));
        // Duplicate is accepted and ignored.
        assert!(b.append_at(0, &Payload::from_vec(vec![0, 1])));
        assert_eq!(b.watermark(), 4);
        // Overlapping append keeps only the new suffix.
        assert!(b.append_at(2, &Payload::from_vec(vec![2, 3, 4, 5])));
        assert_eq!(b.watermark(), 6);
        assert!(b.append_at(6, &Payload::from_vec(vec![6, 7, 8, 9])));
        assert!(b.is_complete());
        // Three appends, three segments: the complete payload is those segments,
        // logically equal to the flat bytes.
        let all = b.to_payload().unwrap();
        assert_eq!(all.segments().count(), 3);
        assert_eq!(all, Payload::from_vec(vec![0, 1, 2, 3, 4, 5, 6, 7, 8, 9]));
    }

    #[test]
    fn progress_buffer_read_respects_watermark() {
        let mut b = ProgressBuffer::new(8, false);
        b.append_at(0, &Payload::from_vec(vec![1, 2, 3, 4]));
        assert!(b.read(2, 4).is_none());
        assert_eq!(b.read(1, 3).unwrap().as_bytes().unwrap().as_ref(), &[2, 3, 4]);
        assert!(b.to_payload().is_none());
    }

    #[test]
    fn spanning_read_is_a_zero_copy_segment_view() {
        let mut b = ProgressBuffer::new(8, false);
        let first = Bytes::from(vec![0, 1, 2, 3]);
        let second = Bytes::from(vec![4, 5, 6, 7]);
        b.append_at(0, &Payload::Bytes(first.clone()));
        b.append_at(4, &Payload::Bytes(second.clone()));
        copytrace::reset();
        let spanning = b.read(2, 4).unwrap();
        assert_eq!(spanning, Payload::from_vec(vec![2, 3, 4, 5]));
        let ptrs: Vec<_> = spanning.segments().map(|s| s.as_slice().as_ptr()).collect();
        assert_eq!(ptrs, vec![first.as_slice()[2..].as_ptr(), second.as_slice().as_ptr()]);
        assert_eq!(crate::copytrace::bytes_copied(), 0, "spanning reads must not copy");
    }

    #[test]
    fn segmented_append_adopts_each_segment() {
        let mut b = ProgressBuffer::new(6, false);
        let block = Payload::from_segments(vec![Bytes::from(vec![0, 1]), Bytes::from(vec![2, 3])]);
        copytrace::reset();
        assert!(b.append_at(0, &block));
        assert_eq!(crate::copytrace::bytes_copied(), 0, "segmented appends must not copy");
        assert_eq!(b.watermark(), 4);
        assert!(b.append_at(4, &Payload::from_vec(vec![4, 5])));
        assert_eq!(b.to_payload().unwrap(), Payload::from_vec(vec![0, 1, 2, 3, 4, 5]));
    }

    #[test]
    fn synthetic_progress_buffer() {
        let mut b = ProgressBuffer::new(1000, true);
        assert!(b.append_at(0, &Payload::synthetic(400)));
        assert!(b.append_at(400, &Payload::synthetic(600)));
        assert!(b.is_complete());
        assert!(b.to_payload().unwrap().is_synthetic());
        assert_eq!(b.read(100, 50).unwrap().len(), 50);
    }

    #[test]
    fn complete_from_payload() {
        let b = ProgressBuffer::complete_from(Payload::from_vec(vec![9; 32]));
        assert!(b.is_complete());
        assert_eq!(b.total_size(), 32);
        assert_eq!(b.read(30, 10).unwrap().len(), 2);
        // A segmented payload is adopted segment-by-segment, zero-copy.
        let seg = Payload::from_segments(vec![Bytes::from(vec![1, 2]), Bytes::from(vec![3, 4])]);
        copytrace::reset();
        let b = ProgressBuffer::complete_from(seg);
        assert_eq!(b.read(1, 2).unwrap(), Payload::from_vec(vec![2, 3]));
        assert_eq!(b.to_payload().unwrap(), Payload::from_vec(vec![1, 2, 3, 4]));
        assert_eq!(crate::copytrace::bytes_copied(), 0, "neither adoption nor to_payload copies");
    }

    #[test]
    fn pool_hands_out_only_unpinned_slabs_and_allocates_fresh_ones_in_place() {
        let pool = SlabPool::new();
        // Empty pool: one zeroed allocation of exactly the requested size, the `Vec`
        // adopted behind the `Arc` where it is — views alias it, nothing was copied.
        let mut slab = pool.checkout(64);
        assert_eq!(slab.as_slice(), &[0u8; 64]);
        assert_eq!(pool.reuses(), 0);
        Arc::get_mut(&mut slab).expect("checked-out slabs are uniquely held")[..2]
            .copy_from_slice(&[7, 8]);
        let view = Bytes::from_arc(slab.clone(), 0, 2);
        assert_eq!(view.as_slice().as_ptr(), slab.as_ptr());
        let ptr = slab.as_ptr();
        pool.retain(slab);
        // Pinned by `view`: the refcount is the in-use bit, so it is not handed out.
        assert_eq!(pool.idle_slabs(), 0);
        let other = pool.checkout(64);
        assert_ne!(other.as_ptr(), ptr);
        assert_eq!(pool.reuses(), 0);
        // Unpinned: the same memory comes back, to any clone of the pool — but never
        // for a request it is too small for.
        drop(view);
        assert_eq!(pool.idle_slabs(), 1);
        assert_ne!(pool.clone().checkout(65).as_ptr(), ptr);
        assert_eq!(pool.clone().checkout(16).as_ptr(), ptr);
        assert_eq!(pool.reuses(), 1);
    }

    #[test]
    fn a_sized_pool_serves_accumulators_and_receive_slabs_from_the_same_slabs() {
        let block = 1024;
        let pool = SlabPool::for_block_size(block as u64);
        assert_eq!(pool.slab_len(), block + FRAME_SLACK);
        // A receive slab, as a frame reader checks it out; idle again, it is what an
        // accumulator-sized checkout — a block, no slack — gets.
        let recv = pool.checkout(pool.slab_len());
        let recv_ptr = recv.as_ptr();
        pool.retain(recv);
        let acc = pool.checkout(block);
        assert_eq!(acc.as_ptr(), recv_ptr);
        // And the reverse: a miss on an accumulator-sized request allocates at the
        // pool's length, so the slab serves the next receive.
        let acc2 = pool.checkout(block);
        assert_eq!(acc2.len(), pool.slab_len());
        let acc2_ptr = acc2.as_ptr();
        pool.retain(acc2);
        assert_eq!(pool.checkout(pool.slab_len()).as_ptr(), acc2_ptr);
        assert_eq!(pool.reuses(), 2);
        // A longer request is still honoured, at its own length.
        assert_eq!(pool.checkout(3 * pool.slab_len()).len(), 3 * pool.slab_len());
        drop(acc);
    }

    #[test]
    fn idle_slabs_are_bounded() {
        let pool = SlabPool::new();
        let extra = 10;
        let views: Vec<Bytes> = (0..MAX_IDLE_SLABS + extra)
            .map(|_| {
                let slab = pool.checkout(16);
                let view = Bytes::from_arc(slab.clone(), 0, 16);
                pool.retain(slab);
                view
            })
            .collect();
        // Pinned slabs are all tracked, however many there are.
        assert_eq!(pool.idle_slabs(), 0);
        let freed: Vec<std::sync::Weak<Vec<u8>>> = {
            let state = pool.state();
            assert_eq!(state.slabs.len(), MAX_IDLE_SLABS + extra);
            state.slabs.iter().map(Arc::downgrade).collect()
        };
        // Dropped all at once: the next slab handed back finds the pool over its
        // bound, and exactly the bound is kept, the rest freed.
        drop(views);
        assert_eq!(pool.idle_slabs(), MAX_IDLE_SLABS + extra);
        pool.retain(pool.checkout(16));
        assert_eq!(pool.idle_slabs(), MAX_IDLE_SLABS);
        assert_eq!(pool.state().slabs.len(), MAX_IDLE_SLABS);
        assert_eq!(freed.iter().filter(|w| w.upgrade().is_none()).count(), extra);
    }
}
