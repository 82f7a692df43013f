//! The control protocol of a `hoplited` OS process: what the daemon and the
//! supervisor that drives it share.
//!
//! Each daemon hosts exactly one [`crate::host::NodeHost`] over a
//! [`hoplite_transport::tcp::TcpFabric`] bound with
//! [`bind_node`](hoplite_transport::tcp::TcpFabric::bind_node), plus a tiny control
//! server on a separate localhost TCP port. The control protocol is newline-delimited
//! text — one request line, one reply line, every reply starting `ok` or `err`:
//!
//! | request | reply |
//! |---|---|
//! | `ping` | `ok pong` |
//! | `status` | `ok {"node":0,"incarnation":1,"resyncing":false,"unconfirmed":0,"peers":[...],"primaries":[...],"metrics":{...}}`: the node's status as one JSON object on one line (`hoplite_daemon::status` renders it) |
//! | `put <name> <size> <seed>` | `ok` — stores `size` pattern bytes derived from `seed` |
//! | `get <name> <size> <seed>` | `ok` — fetches and verifies the pattern, `err mismatch` otherwise |
//! | `put-f32 <name> <len> <value>` | `ok` — stores `len` f32s all equal to `value` |
//! | `reduce <target> <src,src,...>` | `ok` — sum-reduces the sources into `target` |
//! | `get-f32 <name> <len> <expected>` | `ok` — fetches and checks every element ≈ `expected` |
//! | `peer-failed <id> <incarnation>` | `ok` — failure verdict for the hosted node: `<id>`'s `<incarnation>` died |
//! | `shutdown` | `ok` — then the daemon exits cleanly |
//!
//! Payload bytes are never shipped over the control socket: `put`/`get` agree on a
//! deterministic pattern ([`pattern_byte`]) so the controller can assert end-to-end
//! content integrity of multi-megabyte objects with one short line each way.
//!
//! This module keeps only that shared protocol: [`ControlClient`] and
//! [`pattern_byte`]. Launching, killing, restarting and stopping a fleet of daemons
//! is one supervisor, `hoplite_daemon::fleet::Fleet`, which both `hoplitectl drill`
//! and the detached `hoplitectl` commands use.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use hoplite_core::prelude::*;

/// The deterministic content byte `i` of an object generated from `seed`. Both ends
/// of the control protocol compute this, so `get` can verify a broadcast's payload
/// without the bytes ever crossing the control socket.
pub fn pattern_byte(seed: u64, i: u64) -> u8 {
    (seed.wrapping_add(i.wrapping_mul(2654435761)) % 251) as u8
}

/// Blocking client for one daemon's control socket.
pub struct ControlClient {
    reader: BufReader<TcpStream>,
}

impl ControlClient {
    /// Connect to a daemon's control socket.
    pub fn connect(addr: SocketAddr, timeout: Duration) -> io::Result<Self> {
        let stream = TcpStream::connect_timeout(&addr, timeout)?;
        stream.set_nodelay(true)?;
        // Generous read timeout: a `get` of a large object blocks until the data
        // plane delivers it, which legitimately takes a while under failover.
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        Ok(ControlClient { reader: BufReader::new(stream) })
    }

    /// Send one request line, read one reply line. Returns the reply payload after
    /// the `ok ` prefix; an `err ...` reply becomes an `io::Error`.
    pub fn request(&mut self, line: &str) -> io::Result<String> {
        let stream = self.reader.get_mut();
        stream.write_all(line.as_bytes())?;
        stream.write_all(b"\n")?;
        let mut reply = String::new();
        if self.reader.read_line(&mut reply)? == 0 {
            return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "control socket closed"));
        }
        let reply = reply.trim_end();
        if let Some(rest) = reply.strip_prefix("ok") {
            Ok(rest.trim_start().to_string())
        } else {
            Err(io::Error::other(format!("daemon replied: {reply}")))
        }
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> io::Result<()> {
        self.request("ping").map(|_| ())
    }

    /// Status snapshot: the reply line, one JSON object, as the daemon wrote it.
    pub fn status(&mut self) -> io::Result<String> {
        self.request("status")
    }

    /// Store `size` pattern bytes under `name`.
    pub fn put(&mut self, name: &str, size: u64, seed: u64) -> io::Result<()> {
        self.request(&format!("put {name} {size} {seed}")).map(|_| ())
    }

    /// Fetch `name` and verify it is `size` pattern bytes for `seed`.
    pub fn get(&mut self, name: &str, size: u64, seed: u64) -> io::Result<()> {
        self.request(&format!("get {name} {size} {seed}")).map(|_| ())
    }

    /// Store `len` f32s all equal to `value` under `name`.
    pub fn put_f32(&mut self, name: &str, len: usize, value: f32) -> io::Result<()> {
        self.request(&format!("put-f32 {name} {len} {value}")).map(|_| ())
    }

    /// Sum-reduce `sources` into `target`.
    pub fn reduce(&mut self, target: &str, sources: &[String]) -> io::Result<()> {
        self.request(&format!("reduce {target} {}", sources.join(","))).map(|_| ())
    }

    /// Fetch `name` and verify every element ≈ `expected`.
    pub fn get_f32(&mut self, name: &str, len: usize, expected: f32) -> io::Result<()> {
        self.request(&format!("get-f32 {name} {len} {expected}")).map(|_| ())
    }

    /// Failure-detector verdict: `node`'s `incarnation` is dead. There is no verdict
    /// that a node is back: its own `Hello` and resync traffic readmit it.
    pub fn peer_failed(&mut self, node: NodeId, incarnation: u64) -> io::Result<()> {
        self.request(&format!("peer-failed {} {incarnation}", node.0)).map(|_| ())
    }

    /// Ask the daemon to exit cleanly.
    pub fn shutdown(&mut self) -> io::Result<()> {
        self.request("shutdown").map(|_| ())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pattern_is_deterministic_and_seed_sensitive() {
        assert_eq!(pattern_byte(7, 100), pattern_byte(7, 100));
        let a: Vec<u8> = (0..64).map(|i| pattern_byte(1, i)).collect();
        let b: Vec<u8> = (0..64).map(|i| pattern_byte(2, i)).collect();
        assert_ne!(a, b, "different seeds must produce different payloads");
    }
}
