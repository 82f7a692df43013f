//! Minimal offline stand-in for the `bytes` crate.
//!
//! Provides [`Bytes`]: an immutable, cheaply cloneable, sliceable byte buffer backed by
//! an `Arc<Vec<u8>>`. Clones and slices share the same allocation, and construction
//! from an owned `Vec<u8>` adopts it in place (one small `Arc` header, no memcpy); only
//! construction from borrowed data copies.

#![forbid(unsafe_code)]

use std::borrow::Borrow;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Bound, Deref, RangeBounds};
use std::sync::Arc;

/// An immutable, reference-counted byte buffer (a view into a shared allocation).
#[derive(Clone)]
pub struct Bytes {
    data: Arc<Vec<u8>>,
    start: usize,
    end: usize,
}

impl Bytes {
    /// An empty buffer.
    pub fn new() -> Bytes {
        Bytes { data: Arc::new(Vec::new()), start: 0, end: 0 }
    }

    /// Copy a slice into a new buffer.
    pub fn copy_from_slice(data: &[u8]) -> Bytes {
        Bytes::from(data.to_vec())
    }

    /// A static slice (copied; the real crate borrows, but callers only read).
    pub fn from_static(data: &'static [u8]) -> Bytes {
        Bytes::copy_from_slice(data)
    }

    /// Length of the view in bytes.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// `true` when the view is empty.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// A zero-copy sub-view. Panics when the range is out of bounds, matching the real
    /// crate's behaviour.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Bytes {
        let len = self.len();
        let begin = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let end = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => len,
        };
        assert!(begin <= end && end <= len, "slice {begin}..{end} out of bounds of {len}");
        Bytes { data: self.data.clone(), start: self.start + begin, end: self.start + end }
    }

    /// The bytes of this view.
    pub fn as_slice(&self) -> &[u8] {
        &self.data[self.start..self.end]
    }

    /// Copy the view into an owned vector.
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_slice().to_vec()
    }

    /// A view over a caller-retained shared allocation (no copy). This is the hook
    /// slab pools use: the pool keeps its own `Arc` handle to the slab, mints views
    /// with this constructor, and reclaims the slab for rewriting once every view has
    /// dropped (`Arc::get_mut` on the retained handle succeeds again).
    /// Panics when the range is out of bounds.
    pub fn from_arc(data: Arc<Vec<u8>>, start: usize, end: usize) -> Bytes {
        assert!(start <= end && end <= data.len(), "view {start}..{end} out of bounds");
        Bytes { data, start, end }
    }
}

impl Default for Bytes {
    fn default() -> Bytes {
        Bytes::new()
    }
}

impl From<Vec<u8>> for Bytes {
    /// Adopts the vector in place: O(1), and the bytes stay where they are.
    fn from(v: Vec<u8>) -> Bytes {
        let end = v.len();
        Bytes { data: Arc::new(v), start: 0, end }
    }
}

impl From<&[u8]> for Bytes {
    fn from(v: &[u8]) -> Bytes {
        Bytes::copy_from_slice(v)
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl Borrow<[u8]> for Bytes {
    fn borrow(&self) -> &[u8] {
        self.as_slice()
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Bytes) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Bytes {}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}

impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Hash for Bytes {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Bytes({} bytes)", self.len())
    }
}

impl FromIterator<u8> for Bytes {
    fn from_iter<T: IntoIterator<Item = u8>>(iter: T) -> Bytes {
        Bytes::from(iter.into_iter().collect::<Vec<u8>>())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slice_shares_allocation() {
        let b = Bytes::from(vec![1, 2, 3, 4, 5]);
        let s = b.slice(1..4);
        assert_eq!(s.as_slice(), &[2, 3, 4]);
        let s2 = s.slice(1..);
        assert_eq!(s2.as_slice(), &[3, 4]);
        assert_eq!(b.len(), 5);
    }

    #[test]
    fn equality_and_deref() {
        let b = Bytes::copy_from_slice(&[9, 8]);
        assert_eq!(b, Bytes::from(vec![9, 8]));
        assert_eq!(b.iter().copied().collect::<Vec<_>>(), vec![9, 8]);
    }

    #[test]
    fn from_vec_adopts_the_allocation_in_place() {
        let v = vec![7u8; 4096];
        let ptr = v.as_ptr();
        let b = Bytes::from(v);
        assert_eq!(b.as_slice().as_ptr(), ptr, "construction from a Vec must not copy");
        assert_eq!(b.len(), 4096);
    }

    #[test]
    #[should_panic]
    fn out_of_bounds_slice_panics() {
        Bytes::from(vec![1]).slice(0..2);
    }
}
