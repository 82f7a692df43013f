//! Debug-build accounting of payload memcpys.
//!
//! The zero-copy invariant of the data plane — a block flows receive → store →
//! forward/combine → send without its bytes being copied (§3.4) — is easy to regress
//! silently: one `to_vec()` in a hot path and throughput quietly drops by a memcpy.
//! This module gives the invariant teeth. Every place in `hoplite-core` and
//! `hoplite-transport` that genuinely copies payload bytes (coalescing a segmented
//! buffer, gathering a payload into a contiguous frame, seeding a reduce accumulator
//! from a segmented input) calls [`record`], and forward-path tests assert the tally
//! stays **zero** across a full receive → append → read → re-encode hop.
//!
//! The counters are **thread-local** so concurrently-running tests cannot pollute each
//! other, and compile to nothing outside `debug_assertions` (release builds pay no
//! atomics, no TLS access, nothing).

#[cfg(debug_assertions)]
use std::cell::Cell;

#[cfg(debug_assertions)]
thread_local! {
    static PAYLOAD_BYTES_COPIED: Cell<u64> = const { Cell::new(0) };
    static PAYLOAD_COPIES: Cell<u64> = const { Cell::new(0) };
}

/// Record one payload memcpy of `bytes` bytes. No-op in release builds; empty copies
/// are not counted.
#[inline]
pub fn record(bytes: usize) {
    #[cfg(debug_assertions)]
    if bytes > 0 {
        PAYLOAD_BYTES_COPIED.with(|c| c.set(c.get() + bytes as u64));
        PAYLOAD_COPIES.with(|c| c.set(c.get() + 1));
    }
    #[cfg(not(debug_assertions))]
    let _ = bytes;
}

/// Reset this thread's counters (call at the start of a measured region).
pub fn reset() {
    #[cfg(debug_assertions)]
    {
        PAYLOAD_BYTES_COPIED.with(|c| c.set(0));
        PAYLOAD_COPIES.with(|c| c.set(0));
    }
}

/// Payload bytes memcpy'd on this thread since the last [`reset`]. Always `0` in
/// release builds (the instrumentation compiles out), so tests asserting on it must
/// assert **zero** — any other expectation would be vacuously wrong under `--release`.
pub fn bytes_copied() -> u64 {
    #[cfg(debug_assertions)]
    {
        PAYLOAD_BYTES_COPIED.with(|c| c.get())
    }
    #[cfg(not(debug_assertions))]
    {
        0
    }
}

/// Number of distinct payload memcpys on this thread since the last [`reset`].
/// Always `0` in release builds.
pub fn copies() -> u64 {
    #[cfg(debug_assertions)]
    {
        PAYLOAD_COPIES.with(|c| c.get())
    }
    #[cfg(not(debug_assertions))]
    {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_reset() {
        reset();
        record(0); // empty copies are free and not counted
        assert_eq!(bytes_copied(), 0);
        assert_eq!(copies(), 0);
        record(10);
        record(32);
        if cfg!(debug_assertions) {
            assert_eq!(bytes_copied(), 42);
            assert_eq!(copies(), 2);
        }
        reset();
        assert_eq!(bytes_copied(), 0);
        assert_eq!(copies(), 0);
    }
}
