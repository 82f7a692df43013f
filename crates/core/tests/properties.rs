//! Randomized property tests for the core data structures and invariants.
//!
//! The build environment is offline, so instead of `proptest` these use a small
//! deterministic xorshift generator: each property is checked against a few hundred
//! pseudo-random cases with a fixed seed, which keeps failures reproducible while
//! covering the same invariants the original property suite asserted.

use hoplite_core::buffer::{Payload, ProgressBuffer};
use hoplite_core::object::{NodeId, ObjectId};
use hoplite_core::reduce::{DegreeModel, ReduceInput, ReduceSpec, ReduceTreePlan, TreeShape};
use hoplite_core::time::Duration;

/// Deterministic xorshift64* generator.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed.max(1))
    }

    fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// Uniform value in `[lo, hi)`.
    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(hi > lo);
        lo + self.next_u64() % (hi - lo)
    }

    fn usize(&mut self, lo: usize, hi: usize) -> usize {
        self.range(lo as u64, hi as u64) as usize
    }

    fn f32(&mut self, lo: f32, hi: f32) -> f32 {
        let unit = (self.next_u64() >> 11) as f32 / (1u64 << 53) as f32;
        lo + unit * (hi - lo)
    }

    fn bytes(&mut self, len: usize) -> Vec<u8> {
        (0..len).map(|_| self.next_u64() as u8).collect()
    }
}

/// The tree shape is a well-formed tree for every (n, d): exactly one root, every
/// other slot has a parent, children counts respect the degree, and parent/child
/// links agree.
#[test]
fn tree_shape_is_well_formed() {
    let mut rng = Rng::new(0xA11CE);
    for _ in 0..300 {
        let n = rng.usize(1, 200);
        let d = rng.usize(1, 12);
        let shape = TreeShape::new(n, d);
        assert_eq!(shape.len(), n);
        let mut roots = 0;
        let mut child_edges = 0;
        for slot in shape.slots() {
            if slot.parent.is_none() {
                roots += 1;
            }
            assert!(slot.children.len() <= d, "n={n} d={d}: degree exceeded");
            child_edges += slot.children.len();
            for &c in &slot.children {
                assert_eq!(shape.slot(c).parent, Some(slot.index), "n={n} d={d}");
            }
        }
        assert_eq!(roots, 1, "n={n} d={d}: exactly one root");
        assert_eq!(child_edges, n - 1, "n={n} d={d}: every non-root has a parent");
        for slot in shape.slots() {
            assert!(shape.ancestors(slot.index).len() < n, "n={n} d={d}: bounded ancestry");
        }
    }
}

/// Chain trees (d = 1) have height n - 1; stars (d >= n) have height 1.
#[test]
fn tree_height_extremes() {
    let mut rng = Rng::new(0xB0B);
    for _ in 0..100 {
        let n = rng.usize(2, 100);
        let tallest =
            |shape: TreeShape| (0..n).map(|slot| shape.ancestors(slot).len()).max().unwrap_or(0);
        assert_eq!(tallest(TreeShape::new(n, 1)), n - 1);
        assert_eq!(tallest(TreeShape::new(n, n)), 1);
    }
}

/// Offering objects in any order assigns each object at most one slot, fills slots
/// in in-order rank order, and never assigns more than `n` objects.
#[test]
fn plan_assignment_is_injective() {
    let mut rng = Rng::new(0xC0FFEE);
    for _ in 0..200 {
        let n = rng.usize(1, 40);
        let extra = rng.usize(0, 10);
        let d = rng.usize(1, 5);
        let mut plan = ReduceTreePlan::new(n, d);
        for i in 0..n + extra {
            plan.offer_input(ReduceInput {
                object: ObjectId::from_name(&format!("obj{i}")),
                node: NodeId(i as u32),
            });
        }
        let mut seen = std::collections::HashSet::new();
        for slot in 0..n {
            let input = plan.assignment(slot).expect("every slot is assigned");
            assert!(seen.insert(input.object), "object assigned twice (n={n} d={d})");
            // Slot k holds the k-th arrival.
            assert_eq!(input.node, NodeId(slot as u32));
        }
    }
}

/// After any sequence of failures and re-offers, no failed node owns a slot and no
/// object is assigned twice.
#[test]
fn plan_failures_never_double_assign() {
    let mut rng = Rng::new(0xDEAD);
    for _ in 0..200 {
        let n = rng.usize(2, 20);
        let d = rng.usize(1, 4);
        let num_failures = rng.usize(0, 6);
        let mut plan = ReduceTreePlan::new(n, d);
        for i in 0..n {
            plan.offer_input(ReduceInput {
                object: ObjectId::from_name(&format!("src{i}")),
                node: NodeId(i as u32),
            });
        }
        let mut failed = std::collections::HashSet::new();
        for round in 0..num_failures {
            let f = rng.range(0, 20) as u32;
            plan.on_node_failed(NodeId(f));
            failed.insert(f);
            // A replacement object appears on a fresh node.
            plan.offer_input(ReduceInput {
                object: ObjectId::from_name(&format!("replacement{round}")),
                node: NodeId(100 + round as u32),
            });
        }
        let mut seen = std::collections::HashSet::new();
        for slot in 0..n {
            if let Some(input) = plan.assignment(slot) {
                assert!(
                    !failed.contains(&input.node.0),
                    "failed node still assigned (n={n} d={d})"
                );
                assert!(seen.insert(input.object), "double assignment (n={n} d={d})");
            }
        }
    }
}

/// The degree model never returns a degree outside [1, n] and its prediction is
/// positive and finite.
#[test]
fn degree_model_is_bounded() {
    let mut rng = Rng::new(0xFACE);
    let model = DegreeModel { latency: Duration::from_micros(100), bandwidth: 1.25e9 };
    for _ in 0..500 {
        let n = rng.usize(1, 128);
        let size = rng.range(1, 1 << 30);
        let d = model.choose(&[1, 2, 0], n, size);
        assert!(d >= 1 && d <= n.max(1), "n={n} size={size}: chose {d}");
        let t = model.predict(d, n, size);
        assert!(t.as_secs_f64() > 0.0, "n={n} size={size}");
    }
}

/// Appending arbitrary in-order chunks to a progress buffer reconstructs the
/// original bytes, regardless of how the object is split.
#[test]
fn progress_buffer_reassembles_any_split() {
    let mut rng = Rng::new(0xFEED);
    for _ in 0..200 {
        let len = rng.usize(1, 2000);
        let data = rng.bytes(len);
        let total = data.len() as u64;
        let mut buf = ProgressBuffer::new(total, false);
        let mut offset = 0usize;
        while offset < data.len() {
            let len = rng.usize(1, 50).min(data.len() - offset);
            let chunk = Payload::from_vec(data[offset..offset + len].to_vec());
            assert!(buf.append_at(offset as u64, &chunk));
            offset += len;
        }
        assert!(buf.is_complete());
        let reassembled = buf.to_payload().unwrap();
        assert_eq!(reassembled, Payload::from_vec(data));
    }
}

/// Out-of-order (gapped) appends are always rejected and leave the watermark
/// untouched.
#[test]
fn progress_buffer_rejects_gaps() {
    let mut rng = Rng::new(0x9A9);
    for _ in 0..300 {
        let gap = rng.range(1, 1000);
        let len = rng.range(1, 100);
        let mut buf = ProgressBuffer::new(10_000, false);
        let before = buf.watermark();
        assert!(!buf.append_at(before + gap, &Payload::zeros(len as usize)));
        assert_eq!(buf.watermark(), before);
    }
}

/// Element-wise sum is commutative for arbitrary f32 vectors (no NaNs).
#[test]
fn reduce_sum_commutes() {
    let mut rng = Rng::new(0x5EED);
    let spec = ReduceSpec::sum_f32();
    let target = ObjectId::from_name("prop");
    for _ in 0..200 {
        let len = rng.usize(1, 256);
        let a: Vec<f32> = (0..len).map(|_| rng.f32(-1e6, 1e6)).collect();
        let b: Vec<f32> = (0..len).map(|_| rng.f32(-1e6, 1e6)).collect();
        let (pa, pb) = (Payload::from_f32s(&a), Payload::from_f32s(&b));
        let mut ab = pa.to_owned_vec().unwrap();
        spec.combine_into(target, &mut ab, &pb).unwrap();
        let mut ba = pb.to_owned_vec().unwrap();
        spec.combine_into(target, &mut ba, &pa).unwrap();
        assert_eq!(ab, ba);
    }
}

/// Any segmentation of a byte string is logically equal to the contiguous payload,
/// and slicing the segmented view agrees with slicing the flat bytes — for every
/// random split and every random sub-range.
#[test]
fn segmented_payload_views_agree_with_contiguous() {
    use bytes::Bytes;
    let mut rng = Rng::new(0x5E6);
    for _ in 0..200 {
        let len = rng.usize(1, 1500);
        let data = rng.bytes(len);
        // Random segmentation (possibly including empty segments, which normalize
        // away).
        let mut segments = Vec::new();
        let mut at = 0usize;
        while at < len {
            let take = rng.usize(0, 64).min(len - at);
            segments.push(Bytes::from(data[at..at + take].to_vec()));
            at += take;
        }
        let segmented = Payload::from_segments(segments);
        let flat = Payload::from_vec(data.clone());
        assert_eq!(segmented, flat);
        assert_eq!(segmented.len(), len as u64);
        let off = rng.range(0, len as u64 + 10);
        let take = rng.range(0, len as u64 + 10);
        assert_eq!(segmented.slice(off, take), flat.slice(off, take));
        assert_eq!(segmented.to_owned_vec().unwrap(), data);
    }
}

/// Any split of the same bytes — including splits at offsets not divisible by four,
/// where an element straddles two or more segments — decodes to the same `f32`s, and
/// the decode stages no copy of the payload.
#[test]
fn f32_decode_is_segmentation_blind() {
    use bytes::Bytes;
    let mut rng = Rng::new(0xF32);
    for _ in 0..200 {
        let values: Vec<f32> = (0..rng.usize(1, 300)).map(|_| rng.f32(-1e3, 1e3)).collect();
        let flat = Payload::from_f32s(&values);
        let data = flat.to_owned_vec().unwrap();
        let mut segments = Vec::new();
        let mut at = 0usize;
        while at < data.len() {
            // Mostly 0–3 byte slivers early on, so elements split three ways too.
            let take = rng.usize(0, if at < 32 { 4 } else { 40 }).min(data.len() - at);
            segments.push(Bytes::from(data[at..at + take].to_vec()));
            at += take;
        }
        let segmented = Payload::from_segments(segments);
        hoplite_core::copytrace::reset();
        assert_eq!(segmented.to_f32s(), values);
        assert_eq!(flat.to_f32s(), values);
        assert_eq!(hoplite_core::copytrace::bytes_copied(), 0);
    }
}

/// Reading arbitrary in-watermark ranges out of a progress buffer fed by arbitrary
/// splits returns exactly the original bytes — whether the read lands inside one
/// segment (contiguous view) or spans several (zero-copy segmented view).
#[test]
fn progress_buffer_reads_agree_with_source_bytes() {
    let mut rng = Rng::new(0xB10C);
    for _ in 0..100 {
        let len = rng.usize(2, 1200);
        let data = rng.bytes(len);
        let mut buf = ProgressBuffer::new(len as u64, false);
        let mut offset = 0usize;
        while offset < len {
            let take = rng.usize(1, 80).min(len - offset);
            assert!(buf.append_at(
                offset as u64,
                &Payload::from_vec(data[offset..offset + take].to_vec())
            ));
            offset += take;
        }
        for _ in 0..20 {
            let off = rng.usize(0, len);
            let take = rng.usize(0, len);
            let end = (off + take).min(len);
            let got = buf.read(off as u64, take as u64).expect("below watermark");
            assert_eq!(got, Payload::from_vec(data[off..end].to_vec()));
        }
    }
}

/// In-place accumulation over arbitrarily-segmented blocks equals the whole-payload
/// combine, for random data and random element-straddling splits.
#[test]
fn combine_into_segmented_agrees_with_whole_payload_combine() {
    use bytes::Bytes;
    let mut rng = Rng::new(0xACC);
    let spec = ReduceSpec::sum_f32();
    let target = ObjectId::from_name("prop-acc");
    for _ in 0..200 {
        let elems = rng.usize(1, 128);
        let a: Vec<f32> = (0..elems).map(|_| rng.f32(-1e4, 1e4)).collect();
        let b: Vec<f32> = (0..elems).map(|_| rng.f32(-1e4, 1e4)).collect();
        let pa = Payload::from_f32s(&a);
        let pb = Payload::from_f32s(&b);
        let mut want = pa.to_owned_vec().unwrap();
        spec.combine_into(target, &mut want, &pb).unwrap();
        // Segment `b` at random byte boundaries, elements straddling freely.
        let bb = pb.to_owned_vec().unwrap();
        let mut segments = Vec::new();
        let mut at = 0usize;
        while at < bb.len() {
            let take = rng.usize(1, 11).min(bb.len() - at);
            segments.push(Bytes::from(bb[at..at + take].to_vec()));
            at += take;
        }
        let mut acc = pa.to_owned_vec().unwrap();
        spec.combine_into(target, &mut acc, &Payload::from_segments(segments)).unwrap();
        assert_eq!(acc, want);
    }
}

/// Payload slicing never exceeds the underlying length and concatenation preserves
/// total length.
#[test]
fn payload_slice_concat_lengths() {
    let mut rng = Rng::new(0x51105);
    for _ in 0..500 {
        let len = rng.range(0, 4096);
        let off = rng.range(0, 5000);
        let take = rng.range(0, 5000);
        let p = Payload::synthetic(len);
        let s = p.slice(off, take);
        assert!(s.len() <= len);
        assert_eq!(p.concat(&s).len(), len + s.len());
    }
}
