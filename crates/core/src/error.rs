//! Error types for the Hoplite core.

use std::fmt;

use crate::object::ObjectId;

/// Errors surfaced by the Hoplite core API and protocol state machines.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum HopliteError {
    /// The object already exists in the local store (objects are immutable; `Put` on an
    /// existing id is a programming error).
    ObjectAlreadyExists(ObjectId),
    /// The object is not present locally and no remote location is known yet; only
    /// returned by non-blocking lookups (blocking `Get`s park until a location appears).
    ObjectNotFound(ObjectId),
    /// The object was deleted while an operation was in flight.
    ObjectDeleted(ObjectId),
    /// A reduce asked for no inputs, or for more inputs (`num_objects`) than it lists
    /// sources. Raised only when the reduce is submitted; nothing checks it again
    /// while the reduce runs, however many of its sources are lost.
    NotEnoughReduceInputs {
        /// Reduce output object.
        target: ObjectId,
        /// Number of inputs requested.
        requested: usize,
        /// Number of inputs that can still be produced.
        available: usize,
    },
    /// Reduce inputs disagree on size or element type.
    ReduceShapeMismatch {
        /// Reduce output object.
        target: ObjectId,
        /// Detail message.
        detail: String,
    },
    /// The local store ran out of memory and could not evict enough unpinned objects.
    OutOfMemory {
        /// Bytes requested.
        requested: u64,
        /// Store capacity.
        capacity: u64,
    },
    /// A protocol invariant was violated (bug or corrupted message).
    Protocol(String),
    /// Transport-level failure (only produced by real transports, never by the
    /// simulator).
    Transport(String),
}

impl fmt::Display for HopliteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HopliteError::ObjectAlreadyExists(id) => write!(f, "object {id:?} already exists"),
            HopliteError::ObjectNotFound(id) => write!(f, "object {id:?} not found"),
            HopliteError::ObjectDeleted(id) => write!(f, "object {id:?} was deleted"),
            HopliteError::NotEnoughReduceInputs { target, requested, available } => write!(
                f,
                "reduce {target:?} requested {requested} inputs but only {available} can be produced"
            ),
            HopliteError::ReduceShapeMismatch { target, detail } => {
                write!(f, "reduce {target:?} shape mismatch: {detail}")
            }
            HopliteError::OutOfMemory { requested, capacity } => {
                write!(f, "out of memory: requested {requested} bytes, capacity {capacity}")
            }
            HopliteError::Protocol(msg) => write!(f, "protocol error: {msg}"),
            HopliteError::Transport(msg) => write!(f, "transport error: {msg}"),
        }
    }
}

impl std::error::Error for HopliteError {}

/// Convenience result alias used across the workspace.
pub type Result<T> = std::result::Result<T, HopliteError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_contains_key_fields() {
        let id = ObjectId::from_name("x");
        let err = HopliteError::NotEnoughReduceInputs { target: id, requested: 6, available: 3 };
        let text = err.to_string();
        assert!(text.contains('6') && text.contains('3'));

        let err = HopliteError::OutOfMemory { requested: 10, capacity: 5 };
        assert!(err.to_string().contains("10"));
    }

    #[test]
    fn errors_are_comparable() {
        let (a, b) = (ObjectId::from_name("a"), ObjectId::from_name("b"));
        assert_eq!(HopliteError::ObjectNotFound(a), HopliteError::ObjectNotFound(a));
        assert_ne!(HopliteError::ObjectNotFound(a), HopliteError::ObjectNotFound(b));
    }
}
