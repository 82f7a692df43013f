//! Object and node identifiers, object metadata.
//!
//! Hoplite identifies every piece of immutable data with an [`ObjectId`] (the paper's
//! `ObjectID`): an opaque 16-byte identifier generated by the application or by the task
//! framework. Objects live in per-node local stores; the directory service maps an
//! [`ObjectId`] to the set of nodes holding a *partial* or *complete* copy.

use std::fmt;

/// Identifier of a physical node (one local object store + one directory shard).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Index form, for use with `Vec`-indexed per-node tables.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "N{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "N{}", self.0)
    }
}

/// 16-byte object identifier (the paper's `ObjectID`).
///
/// An `ObjectId` is a *future*: it can be created, passed around, and used in `Get` /
/// `Reduce` calls before the object value exists anywhere in the cluster.
#[derive(Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ObjectId(pub [u8; 16]);

impl ObjectId {
    /// Deterministically derive an id from a string name (e.g. `"gradients-7"`).
    ///
    /// Uses an FNV-1a style mix; collisions are not a correctness concern for the id
    /// space sizes used by applications, but [`ObjectId::random`] should be preferred
    /// when uniqueness must be guaranteed without coordination.
    pub fn from_name(name: &str) -> Self {
        let mut h1: u64 = 0xcbf2_9ce4_8422_2325;
        let mut h2: u64 = 0x6c62_272e_07bb_0142;
        for &b in name.as_bytes() {
            h1 ^= b as u64;
            h1 = h1.wrapping_mul(0x0000_0100_0000_01b3);
            h2 = h2.wrapping_add(b as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
            h2 ^= h2 >> 29;
        }
        let mut bytes = [0u8; 16];
        bytes[..8].copy_from_slice(&h1.to_le_bytes());
        bytes[8..].copy_from_slice(&h2.to_le_bytes());
        ObjectId(bytes)
    }

    /// Derive a related id, e.g. the `k`-th chunk or round of a named object family.
    pub fn derived(self, tag: u64) -> Self {
        let mut bytes = self.0;
        let mut h = u64::from_le_bytes(bytes[..8].try_into().unwrap());
        h ^= tag.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        h = h.rotate_left(23).wrapping_mul(0x2545_f491_4f6c_dd1d);
        bytes[..8].copy_from_slice(&h.to_le_bytes());
        let mut l = u64::from_le_bytes(bytes[8..].try_into().unwrap());
        l = l.wrapping_add(tag).rotate_right(17) ^ h;
        bytes[8..].copy_from_slice(&l.to_le_bytes());
        ObjectId(bytes)
    }

    /// Short hex form used in logs.
    pub fn short_hex(&self) -> String {
        self.0[..4].iter().map(|b| format!("{b:02x}")).collect()
    }
}

impl fmt::Debug for ObjectId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Obj({})", self.short_hex())
    }
}

impl fmt::Display for ObjectId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for b in &self.0 {
            write!(f, "{b:02x}")?;
        }
        Ok(())
    }
}

/// Progress of an object copy on a node, as tracked by the object directory.
///
/// The paper uses a single bit per location: either the node holds a partial copy
/// (still being written / received) or a complete one. Partial copies can act as
/// broadcast senders thanks to fine-grained pipelining, but complete copies are
/// preferred when the directory chooses a sender (§3.2, §3.4.1).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum ObjectStatus {
    /// The node is still receiving or creating the object.
    Partial,
    /// The node holds the full object.
    Complete,
}

impl ObjectStatus {
    /// `true` when the copy is complete.
    pub fn is_complete(self) -> bool {
        matches!(self, ObjectStatus::Complete)
    }
}

/// Metadata the directory keeps per object (size + locations); the size is needed so a
/// receiver can allocate its progress buffer before the first chunk arrives.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ObjectMeta {
    /// Object identifier.
    pub id: ObjectId,
    /// Total size in bytes.
    pub size: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn from_name_is_deterministic() {
        assert_eq!(ObjectId::from_name("model"), ObjectId::from_name("model"));
        assert_ne!(ObjectId::from_name("model"), ObjectId::from_name("model2"));
    }

    #[test]
    fn derived_ids_are_distinct() {
        let base = ObjectId::from_name("gradient");
        let mut seen = BTreeSet::new();
        for round in 0..1000u64 {
            assert!(seen.insert(base.derived(round)), "collision at round {round}");
        }
        assert!(!seen.contains(&base));
    }

    #[test]
    fn display_is_full_hex() {
        let id = ObjectId([0xab; 16]);
        assert_eq!(id.to_string().len(), 32);
        assert!(id.to_string().chars().all(|c| c == 'a' || c == 'b'));
    }

    #[test]
    fn node_id_index_roundtrip() {
        assert_eq!(NodeId(7).index(), 7);
        assert_eq!(format!("{}", NodeId(3)), "N3");
    }

    #[test]
    fn status_completeness() {
        assert!(ObjectStatus::Complete.is_complete());
        assert!(!ObjectStatus::Partial.is_complete());
    }
}
