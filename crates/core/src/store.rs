//! The per-node local object store.
//!
//! Each node buffers a set of objects; workers on the node read and write them through
//! shared memory in the paper's implementation. The store tracks streaming progress
//! (for pipelining), pins locally-`Put` objects until the framework deletes them, and
//! evicts unpinned copies LRU when it runs out of room (§6 "Garbage collection").
//!
//! The store is a zero-copy pass-through for the data plane: [`LocalStore::append`]
//! adopts incoming blocks as shared segments, and [`LocalStore::read`] and
//! [`LocalStore::get_complete`] hand ranges and whole objects back as shared views
//! (segmented when they span received blocks — see [`Payload::Segments`]). Nothing
//! here coalesces.

use std::collections::BTreeMap;

use crate::buffer::{Payload, ProgressBuffer};
use crate::error::{HopliteError, Result};
use crate::object::ObjectId;

/// A stored object plus store-level bookkeeping.
#[derive(Clone, Debug)]
struct StoredObject {
    buffer: ProgressBuffer,
    /// Held in memory until deleted (the local `Put` origin). Only an unpinned copy is
    /// evictable.
    pinned: bool,
    last_access: u64,
}

/// The local object store of one node.
#[derive(Debug)]
pub struct LocalStore {
    objects: BTreeMap<ObjectId, StoredObject>,
    capacity: u64,
    used: u64,
    access_counter: u64,
    evictions: u64,
}

impl LocalStore {
    /// Create a store with `capacity` bytes of room.
    pub fn new(capacity: u64) -> Self {
        LocalStore { objects: BTreeMap::new(), capacity, used: 0, access_counter: 0, evictions: 0 }
    }

    /// Number of objects currently stored.
    pub fn len(&self) -> usize {
        self.objects.len()
    }

    /// `true` when the store holds no objects.
    pub fn is_empty(&self) -> bool {
        self.objects.is_empty()
    }

    /// Bytes of capacity currently accounted for.
    pub fn used(&self) -> u64 {
        self.used
    }

    /// Total eviction count (for metrics and tests).
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// `true` if the object exists locally (partial or complete).
    pub fn contains(&self, object: ObjectId) -> bool {
        self.objects.contains_key(&object)
    }

    /// `true` if the object exists locally and is complete.
    pub fn is_complete(&self, object: ObjectId) -> bool {
        self.objects.get(&object).map(|o| o.buffer.is_complete()).unwrap_or(false)
    }

    /// Current watermark of an object, if present.
    pub fn watermark(&self, object: ObjectId) -> Option<u64> {
        self.objects.get(&object).map(|o| o.buffer.watermark())
    }

    /// Total size of an object, if present.
    pub fn total_size(&self, object: ObjectId) -> Option<u64> {
        self.objects.get(&object).map(|o| o.buffer.total_size())
    }

    /// Insert a complete object (the `Put` path). Locally-created objects are pinned
    /// until [`LocalStore::delete`] so there is always at least one copy to serve
    /// future `Get`s from (§6).
    pub fn put_complete(&mut self, object: ObjectId, payload: Payload, pinned: bool) -> Result<()> {
        if self.objects.contains_key(&object) {
            return Err(HopliteError::ObjectAlreadyExists(object));
        }
        let size = payload.len();
        self.make_room(size)?;
        self.used += size;
        self.access_counter += 1;
        self.objects.insert(
            object,
            StoredObject {
                buffer: ProgressBuffer::complete_from(payload),
                pinned,
                last_access: self.access_counter,
            },
        );
        Ok(())
    }

    /// Begin receiving an object of `total_size` bytes (the pull / reduce-output path).
    /// Received copies are unpinned and therefore evictable once complete.
    pub fn begin_receive(
        &mut self,
        object: ObjectId,
        total_size: u64,
        synthetic: bool,
    ) -> Result<()> {
        if self.objects.contains_key(&object) {
            return Err(HopliteError::ObjectAlreadyExists(object));
        }
        self.make_room(total_size)?;
        self.used += total_size;
        self.access_counter += 1;
        self.objects.insert(
            object,
            StoredObject {
                buffer: ProgressBuffer::new(total_size, synthetic),
                pinned: false,
                last_access: self.access_counter,
            },
        );
        Ok(())
    }

    /// Append a block to an in-progress object. Returns the new watermark.
    pub fn append(&mut self, object: ObjectId, offset: u64, payload: &Payload) -> Result<u64> {
        let entry = self.objects.get_mut(&object).ok_or(HopliteError::ObjectNotFound(object))?;
        if !entry.buffer.append_at(offset, payload) {
            return Err(HopliteError::Protocol(format!(
                "out-of-order append to {object:?}: offset {offset}, watermark {}",
                entry.buffer.watermark()
            )));
        }
        Ok(entry.buffer.watermark())
    }

    /// Read a range of an object if it is below the watermark. Zero-copy: the result
    /// shares the stored segments (and is a [`Payload::Segments`] view when the range
    /// straddles received blocks).
    pub fn read(&mut self, object: ObjectId, offset: u64, len: u64) -> Option<Payload> {
        self.access_counter += 1;
        let counter = self.access_counter;
        let entry = self.objects.get_mut(&object)?;
        entry.last_access = counter;
        entry.buffer.read(offset, len)
    }

    /// The complete payload of an object, if it is complete: the segments it was
    /// received in, shared, not copied.
    pub fn get_complete(&mut self, object: ObjectId) -> Option<Payload> {
        self.access_counter += 1;
        let counter = self.access_counter;
        let entry = self.objects.get_mut(&object)?;
        entry.last_access = counter;
        entry.buffer.to_payload()
    }

    /// Pin or unpin an object copy.
    pub fn set_pinned(&mut self, object: ObjectId, pinned: bool) {
        if let Some(entry) = self.objects.get_mut(&object) {
            entry.pinned = pinned;
        }
    }

    /// Remove an object copy regardless of pinning (used by `Delete`).
    pub fn delete(&mut self, object: ObjectId) -> bool {
        if let Some(entry) = self.objects.remove(&object) {
            self.used = self.used.saturating_sub(entry.buffer.total_size());
            true
        } else {
            false
        }
    }

    /// Evict unpinned, complete objects LRU-first until `needed` more bytes fit.
    fn make_room(&mut self, needed: u64) -> Result<()> {
        if needed > self.capacity {
            return Err(HopliteError::OutOfMemory { requested: needed, capacity: self.capacity });
        }
        while self.used + needed > self.capacity {
            // Oldest unpinned complete object first. In-progress (partial) objects are
            // never evicted: they are actively receiving data.
            let victim = self
                .objects
                .iter()
                .filter(|(_, o)| !o.pinned && o.buffer.is_complete())
                .min_by_key(|(_, o)| o.last_access)
                .map(|(id, _)| *id);
            match victim {
                Some(id) => {
                    let entry = self.objects.remove(&id).expect("victim exists");
                    self.used = self.used.saturating_sub(entry.buffer.total_size());
                    self.evictions += 1;
                }
                None => {
                    return Err(HopliteError::OutOfMemory {
                        requested: needed,
                        capacity: self.capacity,
                    })
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obj(name: &str) -> ObjectId {
        ObjectId::from_name(name)
    }

    #[test]
    fn put_get_roundtrip() {
        let mut s = LocalStore::new(1024);
        s.put_complete(obj("a"), Payload::from_vec(vec![1, 2, 3]), true).unwrap();
        assert!(s.is_complete(obj("a")));
        assert_eq!(s.get_complete(obj("a")).unwrap().as_bytes().unwrap().as_ref(), &[1, 2, 3]);
        assert_eq!(s.used(), 3);
        assert!(matches!(
            s.put_complete(obj("a"), Payload::zeros(1), true),
            Err(HopliteError::ObjectAlreadyExists(_))
        ));
    }

    #[test]
    fn streaming_receive() {
        let mut s = LocalStore::new(1024);
        s.begin_receive(obj("b"), 8, false).unwrap();
        assert!(!s.is_complete(obj("b")));
        assert_eq!(s.append(obj("b"), 0, &Payload::from_vec(vec![0, 1, 2, 3])).unwrap(), 4);
        assert!(s.read(obj("missing"), 0, 2).is_none(), "unknown object");
        assert_eq!(s.read(obj("b"), 2, 2).unwrap().as_bytes().unwrap().as_ref(), &[2, 3]);
        assert!(s.append(obj("b"), 6, &Payload::zeros(2)).is_err(), "gap rejected");
        s.append(obj("b"), 4, &Payload::from_vec(vec![4, 5, 6, 7])).unwrap();
        assert!(s.is_complete(obj("b")));
    }

    #[test]
    fn lru_eviction_spares_pinned_and_partial() {
        let mut s = LocalStore::new(100);
        s.put_complete(obj("pinned"), Payload::zeros(40), true).unwrap();
        s.put_complete(obj("old"), Payload::zeros(30), false).unwrap();
        s.begin_receive(obj("partial"), 20, false).unwrap();
        // Touch "old" so that it is *not* the LRU victim ordering under test; then add
        // an object that forces eviction.
        assert!(s.read(obj("old"), 0, 1).is_some());
        s.put_complete(obj("new"), Payload::zeros(10), false).unwrap(); // fits: 40+30+20+10
        assert_eq!(s.evictions(), 0);
        // Needs 30 more bytes: only "old" and "new" are evictable. "old" was touched
        // *before* "new" was inserted, so "old" is the least recently used and goes
        // first; its 30 bytes are exactly enough.
        s.put_complete(obj("big"), Payload::zeros(30), false).unwrap();
        assert_eq!(s.evictions(), 1);
        assert!(s.contains(obj("pinned")));
        assert!(s.contains(obj("partial")));
        assert!(!s.contains(obj("old")));
        assert!(s.contains(obj("new")));
    }

    #[test]
    fn oversized_requests_fail() {
        let mut s = LocalStore::new(10);
        assert!(matches!(
            s.put_complete(obj("x"), Payload::zeros(11), false),
            Err(HopliteError::OutOfMemory { .. })
        ));
        // Unevictable content (all pinned) also produces OutOfMemory.
        s.put_complete(obj("a"), Payload::zeros(10), true).unwrap();
        assert!(matches!(
            s.put_complete(obj("b"), Payload::zeros(5), false),
            Err(HopliteError::OutOfMemory { .. })
        ));
    }

    #[test]
    fn delete_frees_space() {
        let mut s = LocalStore::new(10);
        s.put_complete(obj("a"), Payload::zeros(10), true).unwrap();
        assert!(s.delete(obj("a")));
        assert!(!s.delete(obj("a")));
        assert_eq!(s.used(), 0);
        s.put_complete(obj("b"), Payload::zeros(10), false).unwrap();
    }

    #[test]
    fn segmented_payloads_flow_through_without_copies() {
        use bytes::Bytes;
        let mut s = LocalStore::new(1024);
        let first = Bytes::from(vec![1u8; 8]);
        let second = Bytes::from(vec![2u8; 8]);
        crate::copytrace::reset();
        s.put_complete(
            obj("seg"),
            crate::buffer::Payload::from_segments(vec![first.clone(), second]),
            true,
        )
        .unwrap();
        // A read inside the first segment aliases it; a straddling read stays a
        // segmented view. Neither copies.
        let inside = s.read(obj("seg"), 2, 4).unwrap();
        assert_eq!(inside.as_bytes().unwrap().as_slice().as_ptr(), first.as_slice()[2..].as_ptr());
        let straddling = s.read(obj("seg"), 6, 4).unwrap();
        assert!(straddling.as_bytes().is_none());
        assert_eq!(straddling, crate::buffer::Payload::from_vec(vec![1, 1, 2, 2]));
        // So is the whole object: the two segments that went in, by reference.
        let full = s.get_complete(obj("seg")).unwrap();
        assert_eq!(full, crate::buffer::Payload::from_vec([[1u8; 8], [2u8; 8]].concat()));
        assert_eq!(full.segments().next().unwrap().as_slice().as_ptr(), first.as_slice().as_ptr());
        assert_eq!(crate::copytrace::bytes_copied(), 0);
    }

    #[test]
    fn set_pinned_decides_whether_a_copy_can_be_evicted() {
        let mut s = LocalStore::new(10);
        s.put_complete(obj("a"), Payload::zeros(10), false).unwrap();
        s.set_pinned(obj("a"), true);
        // Pinned: the copy cannot be evicted to make room.
        assert!(s.put_complete(obj("b"), Payload::zeros(5), false).is_err());
        s.set_pinned(obj("a"), false);
        s.set_pinned(obj("missing"), true); // unknown objects are ignored
        s.put_complete(obj("b"), Payload::zeros(5), false).unwrap();
        assert!(!s.contains(obj("a")));
    }

    #[test]
    fn synthetic_objects_track_size_without_allocation() {
        let mut s = LocalStore::new(u64::MAX);
        s.begin_receive(obj("sim"), 1 << 30, true).unwrap();
        s.append(obj("sim"), 0, &Payload::synthetic(1 << 29)).unwrap();
        s.append(obj("sim"), 1 << 29, &Payload::synthetic(1 << 29)).unwrap();
        assert!(s.is_complete(obj("sim")));
        assert!(s.get_complete(obj("sim")).unwrap().is_synthetic());
    }
}
