//! `hoplited` — the Hoplite node daemon.
//!
//! One OS process hosts one object-store node: a TCP fabric listener bound from a
//! shared cluster address map whose reader threads run the node through its
//! [`hoplite_cluster::host::NodeHost`], and a newline-delimited control socket the
//! deployment controller (`hoplitectl`) drives workload and failure verdicts
//! through (the protocol table lives in [`hoplite_cluster::process`]).
//!
//! ```text
//! hoplited --node 2 \
//!          --fabric 127.0.0.1:4000,127.0.0.1:4001,127.0.0.1:4002 \
//!          --control 127.0.0.1:5002 \
//!          [--incarnation 1] [--recover] [--config hoplite.toml]
//! ```
//!
//! `--recover` starts the node as a restarted process: empty store, empty directory
//! replicas, immediate resync (snapshot requests + log catch-up) before announcing
//! itself readmitted. `--incarnation` is the monotonically-bumped process number the
//! supervisor assigns; it rides on `Hello`, failure notices and `DirResynced`, so
//! stale news about a dead predecessor can never re-park the new process. Nothing
//! announces a restart to the other daemons: they readmit the new process from its
//! `Hello`, its restart-flagged snapshot requests and its `DirResynced`.
//!
//! Logs go to stderr (the supervisor tees them to a per-node file); set
//! `HOPLITE_TRACE=1` for protocol-level traces.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::AtomicU64;
use std::sync::Arc;

use hoplite_cluster::host::NodeHost;
use hoplite_cluster::process::pattern_byte;
use hoplite_core::prelude::*;
use hoplite_daemon::{args::Args, config};
use hoplite_transport::fabric::Fabric;
use hoplite_transport::tcp::TcpFabric;

fn main() {
    if let Err(e) = run() {
        eprintln!("hoplited: {e}");
        std::process::exit(2);
    }
}

fn run() -> std::result::Result<(), String> {
    let mut args = Args::from_env(0);
    let me = NodeId(args.req::<u32>("node")?);
    let fabric_list: String = args.req("fabric")?;
    let control: SocketAddr = args.req("control")?;
    let incarnation: u64 = args.opt_or("incarnation", 0)?;
    let recover = args.switch("recover");
    let cfg = match args.opt("config")? {
        Some(path) => config::load(std::path::Path::new(&path))?,
        None => HopliteConfig::default(),
    };
    args.finish()?;

    let addrs: Vec<SocketAddr> = fabric_list
        .split(',')
        .map(|a| a.trim().parse().map_err(|e| format!("--fabric {a}: {e}")))
        .collect::<std::result::Result<_, _>>()?;
    if me.index() >= addrs.len() {
        return Err(format!("--node {} out of range for {} fabric addresses", me.0, addrs.len()));
    }

    // The process's one pool of bulk memory: the fabric reads into it, the node folds.
    let pool = SlabPool::for_block_size(cfg.block_size);
    let mut fabric = TcpFabric::bind_node(me, &addrs, incarnation)
        .map_err(|e| format!("bind fabric {}: {e}", addrs[me.index()]))?
        .with_pool(pool.clone());
    let node = ObjectStoreNode::new(
        me,
        cfg,
        ClusterView::of_size(addrs.len()),
        NodeOptions { synthetic_data: false, pipelined_put: false, incarnation },
    )
    .with_pool(pool);
    let fabric_tx = Box::new(fabric.sender());
    let next_op = Arc::new(AtomicU64::new(1));
    let host = Arc::new(NodeHost::spawn(node, fabric_tx, recover, next_op, |sink| {
        fabric.attach(me, sink)
    }));

    let listener =
        TcpListener::bind(control).map_err(|e| format!("bind control {control}: {e}"))?;
    eprintln!(
        "hoplited node {} up: fabric {}, control {}, incarnation {}, recover {}",
        me.0,
        fabric.addresses()[me.index()],
        control,
        incarnation,
        recover
    );

    let (shutdown_tx, shutdown_rx) = std::sync::mpsc::channel::<()>();
    {
        let host = host.clone();
        std::thread::spawn(move || {
            for stream in listener.incoming() {
                let Ok(stream) = stream else { return };
                let host = host.clone();
                let shutdown_tx = shutdown_tx.clone();
                std::thread::spawn(move || serve_control(stream, &host, &shutdown_tx));
            }
        });
    }

    // Park until a control connection asks us to exit; `kill -9` is the other way out.
    let _ = shutdown_rx.recv();
    eprintln!("hoplited node {} shutting down", me.0);
    Ok(())
}

/// Serve one control connection: one request line in, one `ok`/`err` line out.
fn serve_control(stream: TcpStream, host: &NodeHost, shutdown_tx: &std::sync::mpsc::Sender<()>) {
    let _ = stream.set_nodelay(true);
    let Ok(write_half) = stream.try_clone() else { return };
    let mut writer = write_half;
    let reader = BufReader::new(stream);
    for line in reader.lines() {
        let Ok(line) = line else { return };
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let shutdown = line == "shutdown";
        let reply = match handle(line, host) {
            Ok(payload) if payload.is_empty() => "ok".to_string(),
            Ok(payload) => format!("ok {payload}"),
            Err(e) => format!("err {e}"),
        };
        if writer.write_all(reply.as_bytes()).is_err() || writer.write_all(b"\n").is_err() {
            return;
        }
        let _ = writer.flush();
        if shutdown {
            let _ = shutdown_tx.send(());
            return;
        }
    }
}

fn handle(line: &str, host: &NodeHost) -> std::result::Result<String, String> {
    let mut parts = line.split_whitespace();
    let verb = parts.next().unwrap_or("");
    let mut arg = |what: &str| -> std::result::Result<&str, String> {
        parts.next().ok_or_else(|| format!("{verb}: missing {what}"))
    };
    match verb {
        "ping" => Ok("pong".to_string()),
        "shutdown" => Ok(String::new()),
        "status" => {
            let status = host.status().ok_or("node loop is gone")?;
            let mut out = format!(
                "node={} incarnation={} resyncing={}",
                status.node.0, status.incarnation, status.resyncing
            );
            let peers = status.peers.iter().map(|&(incarnation, state, readmitted)| {
                let state = match state {
                    GossipState::Alive => "alive",
                    GossipState::Suspect => "suspect",
                    GossipState::Dead => "dead",
                };
                format!("{incarnation}:{state}:{}", u8::from(readmitted))
            });
            out.push_str(&format!(" peers={}", peers.collect::<Vec<_>>().join(",")));
            let primaries =
                status.primaries.iter().map(|p| p.map_or("-".into(), |p| p.0.to_string()));
            out.push_str(&format!(" primaries={}", primaries.collect::<Vec<_>>().join(",")));
            for (name, value) in status.metrics.fields() {
                out.push_str(&format!(" {name}={value}"));
            }
            Ok(out)
        }
        "put" => {
            let name = arg("name")?;
            let size: u64 = parse(arg("size")?)?;
            let seed: u64 = parse(arg("seed")?)?;
            let data: Vec<u8> = (0..size).map(|i| pattern_byte(seed, i)).collect();
            host.client()
                .put(ObjectId::from_name(name), Payload::from_vec(data))
                .map_err(|e| format!("{e:?}"))?;
            Ok(String::new())
        }
        "get" => {
            let name = arg("name")?;
            let size: u64 = parse(arg("size")?)?;
            let seed: u64 = parse(arg("seed")?)?;
            let payload =
                host.client().get(ObjectId::from_name(name)).map_err(|e| format!("{e:?}"))?;
            if payload.len() != size {
                return Err(format!("size mismatch: got {}, want {size}", payload.len()));
            }
            let mut i: u64 = 0;
            for segment in payload.segments() {
                for &byte in segment.as_slice() {
                    if byte != pattern_byte(seed, i) {
                        return Err(format!("content mismatch at byte {i}"));
                    }
                    i += 1;
                }
            }
            Ok(String::new())
        }
        "put-f32" => {
            let name = arg("name")?;
            let len: usize = parse(arg("len")?)?;
            let value: f32 = parse(arg("value")?)?;
            host.client()
                .put(ObjectId::from_name(name), Payload::from_f32s(&vec![value; len]))
                .map_err(|e| format!("{e:?}"))?;
            Ok(String::new())
        }
        "reduce" => {
            let target = arg("target")?;
            let sources: Vec<ObjectId> =
                arg("sources")?.split(',').map(ObjectId::from_name).collect();
            host.client()
                .reduce(ObjectId::from_name(target), sources, None, ReduceSpec::sum_f32())
                .map_err(|e| format!("{e:?}"))?;
            Ok(String::new())
        }
        "get-f32" => {
            let name = arg("name")?;
            let len: usize = parse(arg("len")?)?;
            let expected: f32 = parse(arg("expected")?)?;
            let payload =
                host.client().get(ObjectId::from_name(name)).map_err(|e| format!("{e:?}"))?;
            let values = payload.to_f32s();
            if values.len() != len {
                return Err(format!("length mismatch: got {}, want {len}", values.len()));
            }
            for (i, v) in values.iter().enumerate() {
                if (v - expected).abs() > expected.abs() * 1e-4 + 1e-4 {
                    return Err(format!("element {i}: got {v}, want ≈{expected}"));
                }
            }
            Ok(String::new())
        }
        "peer-failed" => {
            let node = NodeId(parse(arg("node id")?)?);
            let incarnation: u64 = parse(arg("incarnation")?)?;
            // Incarnation-stamped verdict: inject the protocol-level notice so the
            // node can drop it as stale if that peer already restarted.
            host.inject_message(host.id(), Message::PeerFailureNotice { node, incarnation });
            Ok(String::new())
        }
        other => Err(format!("unknown command `{other}`")),
    }
}

fn parse<T: std::str::FromStr>(s: &str) -> std::result::Result<T, String>
where
    T::Err: std::fmt::Display,
{
    s.parse().map_err(|e| format!("{s}: {e}"))
}
