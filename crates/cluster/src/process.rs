//! Real multi-process deployment driver: spawn, supervise, kill and restart a
//! cluster of `hoplited` OS processes, and drive workload through their control
//! sockets.
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
//! | `status` | `ok node=0 incarnation=1 resyncing=false <counter>=<value>...` |
//! | `put <name> <size> <seed>` | `ok` — stores `size` pattern bytes derived from `seed` |
//! | `get <name> <size> <seed>` | `ok` — fetches and verifies the pattern, `err mismatch` otherwise |
//! | `put-f32 <name> <len> <value>` | `ok` — stores `len` f32s all equal to `value` |
//! | `reduce <target> <src,src,...>` | `ok` — sum-reduces the sources into `target` |
//! | `get-f32 <name> <len> <expected>` | `ok` — fetches and checks every element ≈ `expected` |
//! | `peer-failed <id> <incarnation>` | `ok` — failure-detector verdict for the hosted node |
//! | `peer-recovered <id>` | `ok` |
//! | `shutdown` | `ok` — then the daemon exits cleanly |
//!
//! Payload bytes are never shipped over the control socket: `put`/`get` agree on a
//! deterministic pattern ([`pattern_byte`]) so the controller can assert end-to-end
//! content integrity of multi-megabyte objects with one short line each way.
//!
//! [`ProcessCluster`] is what `hoplitectl drill` uses: it reserves fabric + control
//! ports, spawns one daemon per node with stdout/stderr teed to per-node log files,
//! waits for every control socket to answer `ping`, and exposes `kill -9` + restart
//! with incarnation bookkeeping that mirrors what a production supervisor would do.
//! The three steps are public functions — [`reserve_ports`], [`spawn_daemon`] (the one
//! spelling of the `hoplited` command line) and [`wait_ready`] — which `hoplitectl`'s
//! detached `spawn` / `restart` commands call too.

use std::collections::BTreeMap;
use std::fs::File;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use hoplite_core::prelude::*;

/// The deterministic content byte `i` of an object generated from `seed`. Both ends
/// of the control protocol compute this, so `get` can verify a broadcast's payload
/// without the bytes ever crossing the control socket.
pub fn pattern_byte(seed: u64, i: u64) -> u8 {
    (seed.wrapping_add(i.wrapping_mul(2654435761)) % 251) as u8
}

/// How to launch a daemon fleet.
#[derive(Clone, Debug)]
pub struct DaemonSpec {
    /// Path to the `hoplited` binary.
    pub binary: PathBuf,
    /// Number of nodes.
    pub n: usize,
    /// Directory for per-node log files (`node-<i>.log`), created if missing.
    pub log_dir: PathBuf,
    /// Optional TOML config file passed to every daemon via `--config`.
    pub config: Option<PathBuf>,
}

impl DaemonSpec {
    /// The log file `node`'s stdout/stderr are teed to.
    pub fn log_path(&self, node: usize) -> PathBuf {
        self.log_dir.join(format!("node-{node}.log"))
    }
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

    /// Connect with bounded retry: up to `attempts` tries, sleeping an exponentially
    /// doubling backoff (starting at `base`, capped at one second) between them. A
    /// daemon that is still binding its control socket — or mid-restart — refuses
    /// connections for a moment; callers that can tolerate that window use this
    /// instead of hand-rolled sleep loops. The last error is returned verbatim.
    pub fn connect_retrying(addr: SocketAddr, attempts: u32, base: Duration) -> io::Result<Self> {
        assert!(attempts >= 1, "at least one attempt");
        let mut backoff = base;
        let mut last = None;
        for attempt in 0..attempts {
            match ControlClient::connect(addr, Duration::from_millis(250)) {
                Ok(client) => return Ok(client),
                Err(e) => last = Some(e),
            }
            if attempt + 1 < attempts {
                std::thread::sleep(backoff);
                backoff = (backoff * 2).min(Duration::from_secs(1));
            }
        }
        Err(last.expect("attempts >= 1 recorded an error"))
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

    /// Status snapshot as `key → value` pairs (`node`, `incarnation`, `resyncing`,
    /// plus every [`NodeMetrics`] counter).
    pub fn status(&mut self) -> io::Result<BTreeMap<String, String>> {
        let reply = self.request("status")?;
        Ok(reply
            .split_whitespace()
            .filter_map(|pair| pair.split_once('=').map(|(k, v)| (k.to_string(), v.to_string())))
            .collect())
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

    /// Failure-detector verdict: `node` (at `incarnation`) is dead.
    pub fn peer_failed(&mut self, node: NodeId, incarnation: u64) -> io::Result<()> {
        self.request(&format!("peer-failed {} {incarnation}", node.0)).map(|_| ())
    }

    /// Failure-detector verdict: `node` is back.
    pub fn peer_recovered(&mut self, node: NodeId) -> io::Result<()> {
        self.request(&format!("peer-recovered {}", node.0)).map(|_| ())
    }

    /// Ask the daemon to exit cleanly.
    pub fn shutdown(&mut self) -> io::Result<()> {
        self.request("shutdown").map(|_| ())
    }
}

/// A fleet of `hoplited` OS processes under supervision.
pub struct ProcessCluster {
    spec: DaemonSpec,
    fabric_addrs: Vec<SocketAddr>,
    control_addrs: Vec<SocketAddr>,
    children: Vec<Option<Child>>,
    incarnations: Vec<u64>,
}

impl ProcessCluster {
    /// Reserve ports, spawn `spec.n` daemons, and wait until every control socket
    /// answers `ping`.
    pub fn spawn(spec: DaemonSpec) -> io::Result<Self> {
        std::fs::create_dir_all(&spec.log_dir)?;
        let fabric_addrs = reserve_ports(spec.n)?;
        let control_addrs = reserve_ports(spec.n)?;
        let mut cluster = ProcessCluster {
            children: (0..spec.n).map(|_| None).collect(),
            incarnations: vec![0; spec.n],
            spec,
            fabric_addrs,
            control_addrs,
        };
        for node in 0..cluster.spec.n {
            cluster.launch(node, false)?;
        }
        for &control in &cluster.control_addrs {
            wait_ready(control, Duration::from_secs(20))?;
        }
        Ok(cluster)
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.spec.n
    }

    /// `true` for an empty fleet.
    pub fn is_empty(&self) -> bool {
        self.spec.n == 0
    }

    /// The daemons' fabric listener addresses.
    pub fn fabric_addrs(&self) -> &[SocketAddr] {
        &self.fabric_addrs
    }

    /// The control socket address of `node` (stable across kills and restarts, so
    /// workload threads can reconnect on their own while the supervisor holds the
    /// cluster mutably).
    pub fn control_addr(&self, node: usize) -> SocketAddr {
        self.control_addrs[node]
    }

    /// The incarnation `node` currently runs at.
    pub fn incarnation(&self, node: usize) -> u64 {
        self.incarnations[node]
    }

    /// The log file `node`'s stdout/stderr are teed to.
    pub fn log_path(&self, node: usize) -> PathBuf {
        self.spec.log_path(node)
    }

    /// The OS pid of `node`'s daemon, if running.
    pub fn pid(&self, node: usize) -> Option<u32> {
        self.children[node].as_ref().map(|c| c.id())
    }

    /// Spawn `node`'s daemon at its current incarnation.
    fn launch(&mut self, node: usize, recover: bool) -> io::Result<()> {
        let (fabric, control) = (&self.fabric_addrs, self.control_addrs[node]);
        let incarnation = self.incarnations[node];
        self.children[node] =
            Some(spawn_daemon(&self.spec, fabric, control, node, incarnation, recover)?);
        Ok(())
    }

    /// A fresh control connection to `node`.
    pub fn control(&self, node: usize) -> io::Result<ControlClient> {
        ControlClient::connect(self.control_addrs[node], Duration::from_secs(5))
    }

    /// `kill -9` the daemon: no shutdown handshake, no flush — the process is gone
    /// mid-whatever-it-was-doing, exactly like a crashed machine.
    pub fn kill9(&mut self, node: usize) -> io::Result<()> {
        if let Some(child) = self.children[node].as_mut() {
            child.kill()?;
            child.wait()?;
        }
        self.children[node] = None;
        Ok(())
    }

    /// Deliver the failure verdict about `victim` (at its current incarnation) to
    /// every running daemon, as the deployment's failure detector would.
    pub fn announce_failure(&self, victim: usize) -> io::Result<()> {
        for node in 0..self.spec.n {
            if node != victim && self.children[node].is_some() {
                self.control(node)?
                    .peer_failed(NodeId(victim as u32), self.incarnations[victim])?;
            }
        }
        Ok(())
    }

    /// Restart a killed daemon at the next incarnation with `--recover`: it rebinds
    /// the same fabric port (retrying while the kernel finishes tearing down the old
    /// socket), resyncs its directory replicas, and announces itself. Survivors get
    /// the recovery verdict once the daemon answers `ping`.
    pub fn restart(&mut self, node: usize) -> io::Result<()> {
        assert!(self.children[node].is_none(), "restart requires a killed node");
        self.incarnations[node] += 1;
        self.launch(node, true)?;
        wait_ready(self.control_addrs[node], Duration::from_secs(30))?;
        for other in 0..self.spec.n {
            if other != node && self.children[other].is_some() {
                self.control(other)?.peer_recovered(NodeId(node as u32))?;
            }
        }
        Ok(())
    }

    /// Restart a killed daemon at the next incarnation with `--recover`, delivering
    /// **no** recovery verdict: survivors must learn of the comeback from the
    /// restarted daemon's own traffic (`Hello` at the bumped incarnation, resync
    /// snapshot requests, and — when the SWIM detector is on — its alive claims in
    /// piggybacked gossip). The verdict-free kill drill (`drill --detect`) restarts
    /// through this path.
    pub fn restart_undetected(&mut self, node: usize) -> io::Result<()> {
        assert!(self.children[node].is_none(), "restart requires a killed node");
        self.incarnations[node] += 1;
        self.launch(node, true)?;
        wait_ready(self.control_addrs[node], Duration::from_secs(30))
    }

    /// Ask every running daemon to exit cleanly, then reap them.
    pub fn shutdown_all(&mut self) {
        for node in 0..self.spec.n {
            if self.children[node].is_some() {
                if let Ok(mut ctl) = self.control(node) {
                    let _ = ctl.shutdown();
                }
            }
        }
        for child in self.children.iter_mut().flatten() {
            let _ = child.wait();
        }
        self.children.iter_mut().for_each(|c| *c = None);
    }
}

impl Drop for ProcessCluster {
    fn drop(&mut self) {
        // Belt and braces: never leave orphan daemons behind a panicking controller.
        for child in self.children.iter_mut().flatten() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// Reserve `n` distinct localhost ports by binding and immediately releasing them.
/// The tiny window between release and the daemon's own bind is tolerable for a
/// test/CI harness (and the daemon retries `AddrInUse` anyway).
pub fn reserve_ports(n: usize) -> io::Result<Vec<SocketAddr>> {
    let listeners: Vec<TcpListener> =
        (0..n).map(|_| TcpListener::bind("127.0.0.1:0")).collect::<io::Result<_>>()?;
    listeners.iter().map(|l| l.local_addr()).collect()
}

/// Launch `hoplited` as node `node` of the fleet `spec` describes, whose fabric
/// listeners are `fabric`, with its control socket on `control`, at `incarnation`
/// (`--recover` when `recover`: a restart, not a cold boot), its stdout and stderr
/// written to [`DaemonSpec::log_path`]. A `Child` does not kill its process on drop,
/// so a caller that drops it leaves the daemon running.
pub fn spawn_daemon(
    spec: &DaemonSpec,
    fabric: &[SocketAddr],
    control: SocketAddr,
    node: usize,
    incarnation: u64,
    recover: bool,
) -> io::Result<Child> {
    let fabric_list = fabric.iter().map(|a| a.to_string()).collect::<Vec<_>>().join(",");
    let log = File::create(spec.log_path(node))?;
    let mut cmd = Command::new(&spec.binary);
    cmd.arg("--node")
        .arg(node.to_string())
        .arg("--fabric")
        .arg(fabric_list)
        .arg("--control")
        .arg(control.to_string())
        .arg("--incarnation")
        .arg(incarnation.to_string())
        .stdin(Stdio::null())
        .stdout(Stdio::from(log.try_clone()?))
        .stderr(Stdio::from(log));
    if recover {
        cmd.arg("--recover");
    }
    if let Some(config) = &spec.config {
        cmd.arg("--config").arg(config);
    }
    cmd.spawn()
        .map_err(|e| io::Error::new(e.kind(), format!("spawn {}: {e}", spec.binary.display())))
}

/// Poll the control socket at `control` until it answers `ping` (or the deadline
/// passes).
pub fn wait_ready(control: SocketAddr, timeout: Duration) -> io::Result<()> {
    let deadline = Instant::now() + timeout;
    loop {
        match ControlClient::connect(control, Duration::from_millis(250)).and_then(|mut c| c.ping())
        {
            Ok(()) => return Ok(()),
            Err(e) if Instant::now() >= deadline => {
                return Err(io::Error::new(
                    e.kind(),
                    format!("daemon at {control} not ready within {timeout:?}: {e}"),
                ));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(100)),
        }
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

    #[test]
    fn reserve_ports_yields_distinct_addresses() {
        let addrs = reserve_ports(8).unwrap();
        let mut ports: Vec<u16> = addrs.iter().map(|a| a.port()).collect();
        ports.sort_unstable();
        ports.dedup();
        assert_eq!(ports.len(), 8);
    }
}
