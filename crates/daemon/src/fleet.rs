//! The one supervisor of a `hoplited` fleet, and the record it keeps.
//!
//! [`Fleet`] launches, kills, restarts, queries (each daemon's status, the one JSON
//! object [`crate::status`] renders) and stops daemons, one method per action, and
//! saves itself to `<dir>/cluster.state` after every change. So separate
//! `hoplitectl` invocations, `hoplitectl status` during a drill, and a drill's watchdog
//! all pick the fleet up with [`Fleet::load`]. The format is deliberately
//! line-oriented and human-readable:
//!
//! ```text
//! binary /path/to/hoplited
//! config /path/to/config.toml        # line absent when no config file is used
//! node 0 127.0.0.1:4000 127.0.0.1:5000 12345 0
//! node 1 127.0.0.1:4001 127.0.0.1:5001 12346 2
//! ```
//!
//! Each `node` line is: id, fabric address, control address, pid (0 = down),
//! incarnation. Daemons log to `<dir>/node-<i>.log`.

use std::fs::File;
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use hoplite_bench::json::Json;
use hoplite_cluster::process::ControlClient;
use hoplite_core::prelude::NodeId;

/// How long a launched daemon may take to answer `ping`.
const READY: Duration = Duration::from_secs(30);
/// How long a killed or stopped daemon's control socket may stay open.
const GONE: Duration = Duration::from_secs(10);

/// One daemon's entry in the record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NodeEntry {
    /// Fabric listener address.
    pub fabric: SocketAddr,
    /// Control socket address.
    pub control: SocketAddr,
    /// OS pid of the running daemon, 0 while it is down.
    pub pid: u32,
    /// The incarnation the daemon (last) ran at.
    pub incarnation: u64,
}

/// A fleet of `hoplited` processes: the deployment's on-disk record and the only
/// code that acts on its daemons.
#[derive(Debug, PartialEq, Eq)]
pub struct Fleet {
    /// The deployment directory, which holds the record and the daemons' logs.
    pub dir: PathBuf,
    /// Path to the `hoplited` binary (for restarts).
    pub binary: PathBuf,
    /// Optional config file every daemon is launched with.
    pub config: Option<PathBuf>,
    /// Per-node entries, indexed by node id.
    pub nodes: Vec<NodeEntry>,
}

impl Fleet {
    /// The record inside a deployment directory.
    pub fn path(dir: &Path) -> PathBuf {
        dir.join("cluster.state")
    }

    /// Launch `n` daemons on fresh localhost ports, recording them in `dir`, and
    /// wait until each answers `ping`. Refuses a directory that already records a
    /// fleet; a fleet that fails to come up is stopped again.
    pub fn spawn(
        dir: &Path,
        binary: PathBuf,
        config: Option<PathBuf>,
        n: usize,
    ) -> Result<Fleet, String> {
        let path = Self::path(dir);
        if path.exists() {
            return Err(format!(
                "{} already exists — `hoplitectl stop --dir {}` first",
                path.display(),
                dir.display()
            ));
        }
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let nodes = reserve_ports(n)?
            .into_iter()
            .zip(reserve_ports(n)?)
            .map(|(fabric, control)| NodeEntry { fabric, control, pid: 0, incarnation: 0 })
            .collect();
        let mut fleet = Fleet { dir: dir.to_path_buf(), binary, config, nodes };
        let up = (0..n)
            .try_for_each(|node| fleet.launch(node))
            .and_then(|()| (0..n).try_for_each(|node| fleet.wait_ready(node)));
        match up {
            Ok(()) => Ok(fleet),
            Err(e) => {
                let _ = fleet.stop();
                Err(e)
            }
        }
    }

    /// Load the record from `dir`.
    pub fn load(dir: &Path) -> Result<Fleet, String> {
        let path = Self::path(dir);
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("load {}: {e}", path.display()))?;
        Self::from_text(dir, &text).map_err(|e| format!("{}: {e}", path.display()))
    }

    /// Write the record (atomically via a temp file + rename, so a concurrent reader
    /// never sees a torn file).
    fn save(&self) -> Result<(), String> {
        let tmp = self.dir.join("cluster.state.tmp");
        std::fs::write(&tmp, self.to_text())
            .and_then(|()| std::fs::rename(tmp, Self::path(&self.dir)))
            .map_err(|e| format!("save state: {e}"))
    }

    /// The nodes whose daemon is running.
    pub fn running(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.nodes.len()).filter(|&node| self.nodes[node].pid != 0)
    }

    /// The log file `node`'s stdout and stderr are written to.
    pub fn log_path(&self, node: usize) -> PathBuf {
        self.dir.join(format!("node-{node}.log"))
    }

    /// A fresh control connection to `node`.
    pub fn control(&self, node: usize) -> io::Result<ControlClient> {
        ControlClient::connect(self.nodes[node].control, Duration::from_secs(5))
    }

    /// `kill -9` `node`'s daemon — no shutdown handshake, no flush, like a crashed
    /// machine — and wait until its control socket refuses connections. A process's
    /// sockets close when it exits, zombie or not, so a restart right after never
    /// races the dead process for its ports. The record takes its incarnation first.
    pub fn kill9(&mut self, node: usize) -> Result<(), String> {
        let pid = self.pid(node)?;
        if pid == 0 {
            return Err(format!("node {node} is already down"));
        }
        // A refutation may have moved the incarnation past the record's.
        match self.status(node).map(|s| s.get("incarnation").and_then(Json::as_u64)) {
            Ok(Some(incarnation)) => self.nodes[node].incarnation = incarnation,
            read => eprintln!("warning: node {node}'s incarnation unread before kill: {read:?}"),
        }
        let status = Command::new("kill")
            .args(["-9", &pid.to_string()])
            .status()
            .map_err(|e| format!("kill: {e}"))?;
        if !status.success() {
            return Err(format!("kill -9 {pid} failed: {status}"));
        }
        self.nodes[node].pid = 0;
        self.save()?;
        self.wait_gone(node)
    }

    /// Deliver the failure verdict about `node`, stamped with its incarnation, to
    /// every other running daemon, as the deployment's failure detector would.
    pub fn announce_failure(&self, node: usize) -> Result<(), String> {
        let incarnation = self.nodes[node].incarnation;
        for other in self.running().filter(|&other| other != node) {
            self.control(other)
                .and_then(|mut c| c.peer_failed(NodeId(node as u32), incarnation))
                .map_err(|e| format!("verdict about node {node} to node {other}: {e}"))?;
        }
        Ok(())
    }

    /// Start the killed `node` at the next incarnation, which makes it a restart, and
    /// wait until it answers `ping`. It rebinds its ports, resyncs its directory
    /// replicas and announces itself; survivors learn of it from that traffic, and
    /// from nothing else.
    pub fn restart(&mut self, node: usize) -> Result<(), String> {
        if self.pid(node)? != 0 {
            return Err(format!("node {node} is still running — kill it first"));
        }
        self.nodes[node].incarnation += 1;
        self.launch(node)?;
        self.wait_ready(node)
    }

    /// `node`'s status: its `status` reply, the one JSON object
    /// [`crate::status::to_json`] renders.
    pub fn status(&self, node: usize) -> Result<Json, String> {
        let line = self.control(node).and_then(|mut c| c.status());
        line.map_err(|e| e.to_string())
            .and_then(|line| Json::parse(&line))
            .map_err(|e| format!("status of node {node}: {e}"))
    }

    /// Each node's status; `None` for a node that is down or does not answer.
    pub fn statuses(&self) -> Vec<Option<Json>> {
        let up = |node: usize| self.nodes[node].pid != 0;
        (0..self.nodes.len())
            .map(|node| up(node).then(|| self.status(node).ok()).flatten())
            .collect()
    }

    /// Stop every running daemon — `shutdown` over its control socket, `kill -9` when
    /// that goes unanswered or the socket stays open — and remove the record.
    pub fn stop(mut self) -> Result<(), String> {
        for node in self.running().collect::<Vec<_>>() {
            let asked = self.control(node).and_then(|mut c| c.shutdown()).is_ok();
            if !asked || self.wait_gone(node).is_err() {
                // A daemon that already died on its own leaves nothing to kill.
                let _ = self.kill9(node);
            }
        }
        std::fs::remove_file(Self::path(&self.dir)).map_err(|e| format!("remove state: {e}"))
    }

    fn pid(&self, node: usize) -> Result<u32, String> {
        self.nodes.get(node).map(|entry| entry.pid).ok_or(format!("no node {node}"))
    }

    /// Launch `node` at its recorded incarnation (above 0 for a restart) and save its
    /// pid: the one spelling of the `hoplited` command line. The daemon outlives this
    /// process unless stopped.
    fn launch(&mut self, node: usize) -> Result<(), String> {
        let fabric = self.nodes.iter().map(|e| e.fabric.to_string()).collect::<Vec<_>>();
        let entry = &self.nodes[node];
        let (stdout, stderr) = File::create(self.log_path(node))
            .and_then(|log| Ok((log.try_clone()?, log)))
            .map_err(|e| format!("create {}: {e}", self.log_path(node).display()))?;
        let mut cmd = Command::new(&self.binary);
        cmd.args(["--node", &node.to_string(), "--fabric", &fabric.join(",")])
            .args(["--control", &entry.control.to_string()])
            .args(["--incarnation", &entry.incarnation.to_string()])
            .stdin(Stdio::null())
            .stdout(stdout)
            .stderr(stderr);
        if let Some(config) = &self.config {
            cmd.arg("--config").arg(config);
        }
        let child = cmd.spawn().map_err(|e| format!("spawn {}: {e}", self.binary.display()))?;
        self.nodes[node].pid = child.id();
        self.save()
    }

    fn wait_ready(&self, node: usize) -> Result<(), String> {
        wait_until(&format!("node {node} to answer ping"), READY, || {
            Ok(self.control(node).and_then(|mut c| c.ping()).is_ok())
        })
    }

    fn wait_gone(&self, node: usize) -> Result<(), String> {
        let control = self.nodes[node].control;
        wait_until(&format!("node {node}'s control socket to close"), GONE, || {
            Ok(ControlClient::connect(control, Duration::from_millis(250)).is_err())
        })
    }

    fn to_text(&self) -> String {
        let mut out = format!("binary {}\n", self.binary.display());
        if let Some(config) = &self.config {
            out.push_str(&format!("config {}\n", config.display()));
        }
        for (id, n) in self.nodes.iter().enumerate() {
            out.push_str(&format!(
                "node {id} {} {} {} {}\n",
                n.fabric, n.control, n.pid, n.incarnation
            ));
        }
        out
    }

    fn from_text(dir: &Path, text: &str) -> Result<Fleet, String> {
        let mut binary = None;
        let mut config = None;
        let mut nodes: Vec<NodeEntry> = Vec::new();
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() {
                continue;
            }
            let err = |what: &str| format!("line {}: {what}: `{raw}`", lineno + 1);
            let mut parts = line.split_whitespace();
            match parts.next() {
                Some("binary") => binary = Some(PathBuf::from(line[6..].trim())),
                Some("config") => config = Some(PathBuf::from(line[6..].trim())),
                Some("node") => {
                    let id: usize =
                        parts.next().and_then(|s| s.parse().ok()).ok_or_else(|| err("bad id"))?;
                    if id != nodes.len() {
                        return Err(err("node ids must be dense and in order"));
                    }
                    let fabric = parts
                        .next()
                        .and_then(|s| s.parse().ok())
                        .ok_or_else(|| err("bad fabric addr"))?;
                    let control = parts
                        .next()
                        .and_then(|s| s.parse().ok())
                        .ok_or_else(|| err("bad control addr"))?;
                    let pid =
                        parts.next().and_then(|s| s.parse().ok()).ok_or_else(|| err("bad pid"))?;
                    let incarnation = parts
                        .next()
                        .and_then(|s| s.parse().ok())
                        .ok_or_else(|| err("bad incarnation"))?;
                    nodes.push(NodeEntry { fabric, control, pid, incarnation });
                }
                _ => return Err(err("unknown directive")),
            }
        }
        Ok(Fleet {
            dir: dir.to_path_buf(),
            binary: binary.ok_or("missing `binary` line".to_string())?,
            config,
            nodes,
        })
    }
}

/// Call `done` every 20 ms until it returns `Ok(true)`; fail on its first error, or
/// once `timeout` has passed, saying what was awaited.
pub fn wait_until(
    what: &str,
    timeout: Duration,
    mut done: impl FnMut() -> Result<bool, String>,
) -> Result<(), String> {
    let deadline = Instant::now() + timeout;
    while !done()? {
        if Instant::now() >= deadline {
            return Err(format!("timed out after {timeout:?} waiting for {what}"));
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    Ok(())
}

/// Reserve `n` distinct localhost ports by binding and immediately releasing them.
/// The tiny window between release and the daemon's own bind is tolerable for a
/// test/CI harness (and the daemon retries `AddrInUse` anyway).
fn reserve_ports(n: usize) -> Result<Vec<SocketAddr>, String> {
    let listeners =
        (0..n).map(|_| TcpListener::bind("127.0.0.1:0")).collect::<io::Result<Vec<_>>>();
    listeners
        .and_then(|listeners| listeners.iter().map(TcpListener::local_addr).collect())
        .map_err(|e| format!("reserve ports: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_through_the_line_format() {
        let dir = Path::new("/tmp/deploy");
        let fleet = Fleet {
            dir: dir.to_path_buf(),
            binary: PathBuf::from("/tmp/deploy/hoplited"),
            config: Some(PathBuf::from("/tmp/deploy/config.toml")),
            nodes: vec![
                NodeEntry {
                    fabric: "127.0.0.1:4000".parse().unwrap(),
                    control: "127.0.0.1:5000".parse().unwrap(),
                    pid: 100,
                    incarnation: 0,
                },
                NodeEntry {
                    fabric: "127.0.0.1:4001".parse().unwrap(),
                    control: "127.0.0.1:5001".parse().unwrap(),
                    pid: 0,
                    incarnation: 3,
                },
            ],
        };
        assert_eq!(Fleet::from_text(dir, &fleet.to_text()).unwrap(), fleet);

        let without_config = Fleet { config: None, ..fleet };
        assert_eq!(Fleet::from_text(dir, &without_config.to_text()).unwrap(), without_config);
    }

    #[test]
    fn rejects_gaps_and_garbage() {
        let dir = Path::new("/tmp/deploy");
        assert!(Fleet::from_text(dir, "node 1 127.0.0.1:1 127.0.0.1:2 0 0").is_err());
        assert!(Fleet::from_text(dir, "binary /x\nwat 0").is_err());
        assert!(Fleet::from_text(dir, "").is_err(), "missing binary line");
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
