//! The fleet supervisor against real `hoplited` processes: spawn, `kill -9`, verdicts,
//! restart at the next incarnation, status, and stop through a second handle loaded
//! from the record — the path every `hoplitectl` command and the kill -9 drill take.

use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::Duration;

use hoplite_daemon::fleet::{wait_until, Fleet};

/// A scratch deployment directory whose fleet is stopped however the test ends: on
/// drop, which a failed assertion unwinds through, and by a 60 s watchdog, for a hang.
struct Deployment {
    dir: PathBuf,
    _finished: mpsc::Sender<()>,
}

impl Deployment {
    fn new(name: &str) -> Deployment {
        let dir = std::env::temp_dir().join(format!("hoplite-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (finished, watchdog) = mpsc::channel();
        let watched = dir.clone();
        std::thread::spawn(move || {
            if watchdog.recv_timeout(Duration::from_secs(60)) == Err(RecvTimeoutError::Timeout) {
                eprintln!("fleet test not done after 60 s; stopping {}", watched.display());
                if let Ok(fleet) = Fleet::load(&watched) {
                    let _ = fleet.stop();
                }
                std::process::exit(124);
            }
        });
        Deployment { dir, _finished: finished }
    }
}

impl Drop for Deployment {
    fn drop(&mut self) {
        if let Ok(fleet) = Fleet::load(&self.dir) {
            let _ = fleet.stop();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn refuses(addr: SocketAddr) -> bool {
    TcpStream::connect_timeout(&addr, Duration::from_millis(250)).is_err()
}

#[test]
fn one_supervisor_spawns_kills_restarts_and_stops_real_daemons() {
    let deployment = Deployment::new("fleet-supervisor");
    let dir = &deployment.dir;
    let binary = PathBuf::from(env!("CARGO_BIN_EXE_hoplited"));
    let mut fleet = Fleet::spawn(dir, binary.clone(), None, 3).expect("spawn 3 daemons");
    assert_eq!(Fleet::load(dir).unwrap(), fleet, "the record is saved as it changes");
    assert!(fleet.statuses().iter().all(Option::is_some), "every daemon answers status");
    let refused = Fleet::spawn(dir, binary, None, 3).expect_err("a recorded fleet is in the way");
    assert!(refused.contains("already exists"), "{refused}");

    fleet.kill9(2).expect("kill -9 node 2");
    assert!(refuses(fleet.nodes[2].control), "a killed daemon's control socket is closed");
    assert_eq!(Fleet::load(dir).unwrap().nodes[2].pid, 0);
    assert!(fleet.kill9(2).is_err(), "node 2 is already down");
    fleet.announce_failure(2).expect("failure verdict to the survivors");

    fleet.restart(2).expect("restart node 2");
    assert!(fleet.restart(2).is_err(), "node 2 is running again");
    assert_eq!(fleet.nodes[2].incarnation, 1);
    wait_until("node 2 to resync at incarnation 1", Duration::from_secs(30), || {
        let statuses = fleet.statuses();
        let node2 = statuses[2].as_ref();
        Ok(node2.is_some_and(|s| s["incarnation"] == "1" && s["resyncing"] == "false"))
    })
    .unwrap();

    let controls: Vec<SocketAddr> = fleet.nodes.iter().map(|entry| entry.control).collect();
    Fleet::load(dir).expect("a second handle on the record").stop().expect("stop");
    assert!(!Fleet::path(dir).exists(), "stop removes the record");
    assert!(controls.into_iter().all(refuses), "every daemon is gone");
}
