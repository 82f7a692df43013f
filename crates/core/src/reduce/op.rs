//! Reduce operations (the paper's `ReduceOp`: sum, min, max) over typed element arrays.
//!
//! The `Reduce` API requires the operation to be commutative and associative (§3.1),
//! which is what allows Hoplite to reduce objects in arrival order rather than rank
//! order. Real payloads are combined element-wise; synthetic payloads (simulator mode)
//! are combined by length only.
//!
//! The hot path is [`ReduceSpec::combine_into`]: in-place accumulation of one incoming
//! block into a reusable accumulator ([`ReduceSpec::combine_from`] for the first fold,
//! which has two inputs and no accumulator yet), written so the per-element work is a
//! pair of native-endian loads, one arithmetic op, and one store (`from_le_bytes` /
//! `to_le_bytes` over exact-width chunks compile to plain unaligned loads and stores on
//! little-endian targets, and the loop autovectorizes). Incoming blocks may be
//! segmented ([`Payload::Segments`]); segments whose boundaries fall mid-element are
//! handled by the small carry buffer of `Payload::for_each_element_run`.

use crate::buffer::Payload;
use crate::error::{HopliteError, Result};
use crate::object::ObjectId;

/// Element type of the arrays being reduced.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DType {
    /// 32-bit IEEE-754 floats (the paper's microbenchmarks use arrays of these).
    F32,
    /// 64-bit IEEE-754 floats.
    F64,
    /// 32-bit signed integers.
    I32,
    /// 64-bit signed integers.
    I64,
}

impl DType {
    /// Size of one element in bytes.
    pub fn element_size(self) -> u64 {
        match self {
            DType::F32 | DType::I32 => 4,
            DType::F64 | DType::I64 => 8,
        }
    }
}

/// Commutative, associative reduction operator.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ReduceOp {
    /// Element-wise addition (`ray.ADD` in the paper's pseudo-code).
    Sum,
    /// Element-wise minimum.
    Min,
    /// Element-wise maximum.
    Max,
}

/// A fully-specified reduction: operator plus element type.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ReduceSpec {
    /// Operator.
    pub op: ReduceOp,
    /// Element type of every input object.
    pub dtype: DType,
}

impl ReduceSpec {
    /// Element-wise sum of `f32` arrays — the common case for gradient aggregation.
    pub fn sum_f32() -> Self {
        ReduceSpec { op: ReduceOp::Sum, dtype: DType::F32 }
    }

    /// Validate that `len` can hold whole elements of this spec's dtype.
    fn check_multiple(&self, target: ObjectId, len: u64) -> Result<()> {
        if !len.is_multiple_of(self.dtype.element_size()) {
            return Err(HopliteError::ReduceShapeMismatch {
                target,
                detail: format!(
                    "length {len} not a multiple of element size {}",
                    self.dtype.element_size()
                ),
            });
        }
        Ok(())
    }

    /// Combine `block` element-wise **into** `acc` (little-endian bytes), in place:
    /// `acc[i] = op(acc[i], block[i])` with no allocation and no output copy. Lengths
    /// must match exactly and be a whole number of elements — a trailing partial
    /// element is an error, never a silent truncation. `block` may be contiguous or
    /// segmented; an element split across two segments goes through the carry-buffer
    /// fallback. Synthetic blocks are rejected (the caller short-circuits those).
    pub fn combine_into(&self, target: ObjectId, acc: &mut [u8], block: &Payload) -> Result<()> {
        if block.is_synthetic() {
            return Err(HopliteError::ReduceShapeMismatch {
                target,
                detail: "cannot accumulate a synthetic block in place".to_string(),
            });
        }
        if acc.len() as u64 != block.len() {
            return Err(HopliteError::ReduceShapeMismatch {
                target,
                detail: format!("length mismatch: {} vs {}", acc.len(), block.len()),
            });
        }
        self.check_multiple(target, acc.len() as u64)?;
        match self.dtype {
            DType::F32 => combine_into_typed::<f32, 4>(acc, block, self.op),
            DType::F64 => combine_into_typed::<f64, 8>(acc, block, self.op),
            DType::I32 => combine_into_typed::<i32, 4>(acc, block, self.op),
            DType::I64 => combine_into_typed::<i64, 8>(acc, block, self.op),
        }
        Ok(())
    }

    /// Combine two contiguous blocks element-wise **into a third**:
    /// `out[i] = op(a[i], b[i])`, one pass where seeding `out` from `a` and then
    /// [`ReduceSpec::combine_into`] is two. The same checks: all three lengths equal
    /// and a whole number of elements.
    pub fn combine_from(&self, target: ObjectId, out: &mut [u8], a: &[u8], b: &[u8]) -> Result<()> {
        if out.len() != a.len() || a.len() != b.len() {
            return Err(HopliteError::ReduceShapeMismatch {
                target,
                detail: format!("length mismatch: {} vs {} into {}", a.len(), b.len(), out.len()),
            });
        }
        self.check_multiple(target, out.len() as u64)?;
        match self.dtype {
            DType::F32 => combine_from_slices::<f32, 4>(out, a, b, self.op),
            DType::F64 => combine_from_slices::<f64, 8>(out, a, b, self.op),
            DType::I32 => combine_from_slices::<i32, 4>(out, a, b, self.op),
            DType::I64 => combine_from_slices::<i64, 8>(out, a, b, self.op),
        }
        Ok(())
    }
}

/// Element trait implemented for the supported numeric types.
trait Element: Copy {
    fn from_le(bytes: &[u8]) -> Self;
    fn write_le(self, out: &mut [u8]);
    fn apply(self, other: Self, op: ReduceOp) -> Self;
}

macro_rules! impl_element {
    ($t:ty, $sum:expr) => {
        impl Element for $t {
            #[inline(always)]
            fn from_le(bytes: &[u8]) -> Self {
                <$t>::from_le_bytes(bytes.try_into().expect("element width"))
            }
            #[inline(always)]
            fn write_le(self, out: &mut [u8]) {
                out.copy_from_slice(&self.to_le_bytes());
            }
            #[inline(always)]
            fn apply(self, other: Self, op: ReduceOp) -> Self {
                // `self` is the accumulated element, `other` the incoming one. Min/Max
                // keep the accumulator only when it compares *strictly* less/greater,
                // matching the historical combine: on ties — and on incomparable
                // floats — the incoming element wins, so an arriving NaN propagates
                // into the result instead of being silently masked.
                match op {
                    // Integer sums wrap (two's complement): combine runs on bytes
                    // straight off the wire, so overflow must never be a
                    // data-dependent debug panic.
                    ReduceOp::Sum => ($sum)(self, other),
                    ReduceOp::Min => {
                        if self < other {
                            self
                        } else {
                            other
                        }
                    }
                    ReduceOp::Max => {
                        if self > other {
                            self
                        } else {
                            other
                        }
                    }
                }
            }
        }
    };
}

impl_element!(f32, |a: f32, b: f32| a + b);
impl_element!(f64, |a: f64, b: f64| a + b);
impl_element!(i32, i32::wrapping_add);
impl_element!(i64, i64::wrapping_add);

/// The aligned fast path: both sides are whole elements. On little-endian targets the
/// `from_le_bytes`/`to_le_bytes` pairs are plain (unaligned-tolerant) loads and stores,
/// so the loop reduces to load-op-store per element and autovectorizes.
fn combine_slices<T: Element, const W: usize>(acc: &mut [u8], block: &[u8], op: ReduceOp) {
    debug_assert_eq!(acc.len(), block.len());
    debug_assert!(acc.len().is_multiple_of(W));
    for (ca, cb) in acc.chunks_exact_mut(W).zip(block.chunks_exact(W)) {
        T::from_le(ca).apply(T::from_le(cb), op).write_le(ca);
    }
}

/// [`combine_slices`] with the result written to a third slice instead of over `a`.
fn combine_from_slices<T: Element, const W: usize>(
    out: &mut [u8],
    a: &[u8],
    b: &[u8],
    op: ReduceOp,
) {
    for ((co, ca), cb) in out.chunks_exact_mut(W).zip(a.chunks_exact(W)).zip(b.chunks_exact(W)) {
        T::from_le(ca).apply(T::from_le(cb), op).write_le(co);
    }
}

/// Combine a block of any shape: contiguous blocks take the fast path whole, segmented
/// blocks take it per aligned segment run, and an element that straddles a segment
/// boundary arrives staged through `Payload::for_each_element_run`'s carry buffer
/// (the safe unaligned fallback).
fn combine_into_typed<T: Element, const W: usize>(acc: &mut [u8], block: &Payload, op: ReduceOp) {
    let mut at = 0usize; // byte offset into `acc`, always element-aligned
    block.for_each_element_run::<W>(|run| {
        combine_slices::<T, W>(&mut acc[at..at + run.len()], run, op);
        at += run.len();
    });
    // Total length is a validated multiple of W, so no element can be left dangling.
    debug_assert_eq!(at, acc.len());
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

    fn target() -> ObjectId {
        ObjectId::from_name("reduce-target")
    }

    /// `op(a, b)` the way the engines compute it: fold `b` into an owned copy of `a`.
    fn combined(spec: ReduceSpec, a: &Payload, b: &Payload) -> Result<Payload> {
        let mut acc = a.to_owned_vec().expect("real payload");
        spec.combine_into(target(), &mut acc, b)?;
        Ok(Payload::from_vec(acc))
    }

    #[test]
    fn sum_f32_elementwise() {
        let a = Payload::from_f32s(&[1.0, 2.0, 3.0]);
        let b = Payload::from_f32s(&[0.5, -2.0, 10.0]);
        let spec = ReduceSpec::sum_f32();
        let out = combined(spec, &a, &b).unwrap();
        assert_eq!(out.to_f32s(), vec![1.5, 0.0, 13.0]);
    }

    #[test]
    fn min_max_i64() {
        let enc = |vals: &[i64]| {
            let mut v = Vec::new();
            for x in vals {
                v.extend_from_slice(&x.to_le_bytes());
            }
            Payload::from_vec(v)
        };
        let a = enc(&[3, -7, 100]);
        let b = enc(&[5, -2, 50]);
        let min = ReduceSpec { op: ReduceOp::Min, dtype: DType::I64 };
        let max = ReduceSpec { op: ReduceOp::Max, dtype: DType::I64 };
        let min_out = combined(min, &a, &b).unwrap();
        let max_out = combined(max, &a, &b).unwrap();
        let dec = |p: &Payload| {
            p.as_bytes()
                .unwrap()
                .chunks_exact(8)
                .map(|c| i64::from_le_bytes(c.try_into().unwrap()))
                .collect::<Vec<_>>()
        };
        assert_eq!(dec(&min_out), vec![3, -7, 50]);
        assert_eq!(dec(&max_out), vec![5, -2, 100]);
    }

    #[test]
    fn combine_into_accumulates_in_place() {
        let spec = ReduceSpec::sum_f32();
        let mut acc = Payload::from_f32s(&[1.0, 2.0, 3.0]).to_owned_vec().unwrap();
        let acc_ptr = acc.as_ptr();
        spec.combine_into(target(), &mut acc, &Payload::from_f32s(&[10.0, 20.0, 30.0])).unwrap();
        spec.combine_into(target(), &mut acc, &Payload::from_f32s(&[0.5, 0.5, 0.5])).unwrap();
        assert_eq!(acc.as_ptr(), acc_ptr, "no reallocation");
        assert_eq!(Payload::from_vec(acc).to_f32s(), vec![11.5, 22.5, 33.5]);
    }

    #[test]
    fn combine_into_rejects_partial_trailing_element() {
        // 6 bytes is one and a half f32s: must error, not silently truncate. A
        // truncating implementation (chunks_exact drops the tail) would "succeed" and
        // corrupt the last element.
        let spec = ReduceSpec::sum_f32();
        let mut acc = vec![0u8; 6];
        let block = Payload::from_vec(vec![1u8; 6]);
        assert!(matches!(
            spec.combine_into(target(), &mut acc, &block),
            Err(HopliteError::ReduceShapeMismatch { .. })
        ));
        assert_eq!(acc, vec![0u8; 6], "failed combine must not modify the accumulator");
    }

    #[test]
    fn combine_into_rejects_length_mismatch_and_synthetic() {
        let spec = ReduceSpec::sum_f32();
        let mut acc = vec![0u8; 8];
        assert!(spec.combine_into(target(), &mut acc, &Payload::zeros(4)).is_err());
        assert!(spec.combine_into(target(), &mut acc, &Payload::synthetic(8)).is_err());
    }

    #[test]
    fn segmented_block_with_element_spanning_boundary() {
        // Two f32s whose byte boundary falls mid-element: segment 1 carries 6 bytes
        // (element 0 plus half of element 1), segment 2 the remaining 2 bytes. The
        // carry-buffer fallback must reassemble element 1 exactly.
        let spec = ReduceSpec::sum_f32();
        let flat = Payload::from_f32s(&[3.0, 5.0]).to_owned_vec().unwrap();
        let block = Payload::from_segments(vec![
            Bytes::from(flat[..6].to_vec()),
            Bytes::from(flat[6..].to_vec()),
        ]);
        let mut acc = Payload::from_f32s(&[1.0, 2.0]).to_owned_vec().unwrap();
        spec.combine_into(target(), &mut acc, &block).unwrap();
        assert_eq!(Payload::from_vec(acc).to_f32s(), vec![4.0, 7.0]);
    }

    #[test]
    fn segmented_block_exercises_every_split_point() {
        // Sweep the split point across a 4-element f64 array (element width 8): every
        // possible two-segment split, including element-aligned ones, must agree with
        // the contiguous result.
        let spec = ReduceSpec { op: ReduceOp::Sum, dtype: DType::F64 };
        let vals: Vec<u8> = (0..4u64).flat_map(|i| (i as f64 + 0.5).to_le_bytes()).collect();
        let base: Vec<u8> = (0..4u64).flat_map(|i| (i as f64 * 10.0).to_le_bytes()).collect();
        let want = {
            let mut acc = base.clone();
            spec.combine_into(target(), &mut acc, &Payload::from_vec(vals.clone())).unwrap();
            acc
        };
        for split in 1..vals.len() {
            let block = Payload::from_segments(vec![
                Bytes::from(vals[..split].to_vec()),
                Bytes::from(vals[split..].to_vec()),
            ]);
            let mut acc = base.clone();
            spec.combine_into(target(), &mut acc, &block).unwrap();
            assert_eq!(acc, want, "split at byte {split}");
        }
        // Pathological segmentation: every byte its own segment.
        let block = Payload::from_segments(vals.iter().map(|&b| Bytes::from(vec![b])).collect());
        let mut acc = base.clone();
        spec.combine_into(target(), &mut acc, &block).unwrap();
        assert_eq!(acc, want, "per-byte segmentation");
    }

    #[test]
    fn segmented_combine_matches_contiguous_for_all_dtypes_and_ops() {
        let mut raw = Vec::new();
        for i in 0..64u8 {
            raw.push(i.wrapping_mul(37).wrapping_add(11));
        }
        for dtype in [DType::F32, DType::F64, DType::I32, DType::I64] {
            for op in [ReduceOp::Sum, ReduceOp::Min, ReduceOp::Max] {
                let spec = ReduceSpec { op, dtype };
                let mut flat_acc = raw.clone();
                spec.combine_into(target(), &mut flat_acc, &Payload::from_vec(raw.clone()))
                    .unwrap();
                let block = Payload::from_segments(vec![
                    Bytes::from(raw[..13].to_vec()),
                    Bytes::from(raw[13..30].to_vec()),
                    Bytes::from(raw[30..].to_vec()),
                ]);
                let mut seg_acc = raw.clone();
                spec.combine_into(target(), &mut seg_acc, &block).unwrap();
                assert_eq!(flat_acc, seg_acc, "{dtype:?} {op:?}");
            }
        }
    }

    #[test]
    fn combine_from_matches_copy_then_combine_into_and_keeps_its_checks() {
        // Different bytes on the two sides, so operand order (min / max ties, NaNs in
        // the float views of these bytes) would show.
        let a: Vec<u8> = (0..64u8).map(|i| i.wrapping_mul(37).wrapping_add(11)).collect();
        let b: Vec<u8> = (0..64u8).map(|i| i.wrapping_mul(91).wrapping_add(5)).collect();
        for dtype in [DType::F32, DType::F64, DType::I32, DType::I64] {
            for op in [ReduceOp::Sum, ReduceOp::Min, ReduceOp::Max] {
                let spec = ReduceSpec { op, dtype };
                let mut two_pass = a.clone();
                spec.combine_into(target(), &mut two_pass, &Payload::from_vec(b.clone())).unwrap();
                let mut one_pass = vec![0xEE; 64];
                spec.combine_from(target(), &mut one_pass, &a, &b).unwrap();
                assert_eq!(one_pass, two_pass, "{dtype:?} {op:?}");
            }
        }
        let spec = ReduceSpec::sum_f32();
        let mut out = vec![0u8; 8];
        // Any of the three lengths off, or a partial trailing element: an error.
        assert!(spec.combine_from(target(), &mut out, &a[..8], &b[..4]).is_err());
        assert!(spec.combine_from(target(), &mut out, &a[..4], &b[..8]).is_err());
        assert!(spec.combine_from(target(), &mut out[..4], &a[..8], &b[..8]).is_err());
        assert!(spec.combine_from(target(), &mut out[..6], &a[..6], &b[..6]).is_err());
        spec.combine_from(target(), &mut out, &a[..8], &b[..8]).unwrap();
    }

    #[test]
    fn min_max_nan_propagation_matches_historical_combine() {
        // On incomparable floats the incoming element wins (same rule as ties): an
        // arriving NaN must surface in the reduce output, not be silently masked by a
        // finite accumulator — and an accumulated NaN is replaced by a later finite
        // incoming element, exactly as the pre-in-place combine behaved.
        let spec = ReduceSpec { op: ReduceOp::Min, dtype: DType::F32 };
        let mut acc = Payload::from_f32s(&[1.0, f32::NAN]).to_owned_vec().unwrap();
        spec.combine_into(target(), &mut acc, &Payload::from_f32s(&[f32::NAN, 2.0])).unwrap();
        let got = Payload::from_vec(acc).to_f32s();
        assert!(got[0].is_nan(), "incoming NaN propagates");
        assert_eq!(got[1], 2.0, "accumulated NaN is replaced by the incoming element");
        let max = ReduceSpec { op: ReduceOp::Max, dtype: DType::F32 };
        let out = combined(max, &Payload::from_f32s(&[5.0]), &Payload::from_f32s(&[f32::NAN]))
            .unwrap()
            .to_f32s();
        assert!(out[0].is_nan());
    }

    #[test]
    fn mismatched_lengths_error() {
        let a = Payload::from_f32s(&[1.0, 2.0]);
        let b = Payload::from_f32s(&[1.0]);
        assert!(matches!(
            combined(ReduceSpec::sum_f32(), &a, &b),
            Err(HopliteError::ReduceShapeMismatch { .. })
        ));
    }

    #[test]
    fn dtype_sizes() {
        assert_eq!(DType::F32.element_size(), 4);
        assert_eq!(DType::F64.element_size(), 8);
        assert_eq!(DType::I32.element_size(), 4);
        assert_eq!(DType::I64.element_size(), 8);
    }

    #[test]
    fn commutativity_and_associativity_sum() {
        let spec = ReduceSpec::sum_f32();
        let a = Payload::from_f32s(&[1.0, 2.0]);
        let b = Payload::from_f32s(&[3.0, 4.0]);
        let c = Payload::from_f32s(&[5.0, 6.0]);
        let ab_c = combined(spec, &combined(spec, &a, &b).unwrap(), &c).unwrap().to_f32s();
        let a_bc = combined(spec, &a, &combined(spec, &b, &c).unwrap()).unwrap().to_f32s();
        let ba_c = combined(spec, &combined(spec, &b, &a).unwrap(), &c).unwrap().to_f32s();
        assert_eq!(ab_c, a_bc);
        assert_eq!(ab_c, ba_c);
    }
}
