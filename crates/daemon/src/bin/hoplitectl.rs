//! `hoplitectl` — deployment controller for a fleet of `hoplited` daemons.
//!
//! ```text
//! hoplitectl spawn   --nodes 5 --dir /tmp/hoplite [--binary PATH] [--config FILE]
//! hoplitectl status  --dir /tmp/hoplite [--json]
//! hoplitectl kill    --dir /tmp/hoplite --node 3        # kill -9 + failure verdicts
//! hoplitectl restart --dir /tmp/hoplite --node 3        # next incarnation, no verdict
//! hoplitectl stop    --dir /tmp/hoplite
//! hoplitectl drill   --nodes 5 --dir /tmp/drill [--waves 6] [--size BYTES]
//!                    [--timeout-secs 300] [--json FILE] [--detect]
//! ```
//!
//! `status --json` prints, per node, its record (`node`, `pid`, `up`, the recorded
//! `incarnation`) and `status`: the object the daemon's `status` reply carries
//! (`hoplite_daemon::status`), or `null` for a node that is down.
//!
//! Every command acts through one supervisor, [`Fleet`], whose record is the state
//! file `<dir>/cluster.state`. `spawn`/`status`/`kill`/`restart`/`stop` manage a
//! long-lived deployment: each invocation is a separate short-lived process, daemons
//! keep running in between. `drill` is the self-contained kill -9 end-to-end exercise
//! CI runs: it spawns its own fleet, drives broadcast + reduce waves, SIGKILLs a
//! receiver mid-broadcast of the third wave, restarts it at the next incarnation,
//! and then proves zero location records were lost — every object of every wave
//! readable from every node, including the restarted one. Its fleet is recorded in
//! its `--dir` while it runs (so `status` works mid-drill) and stopped however the
//! drill ends: pass, error, panic or watchdog.
//!
//! With `--detect` the drill is *verdict-free*: the daemons run the SWIM gossip
//! detector and no `peer-failed` notice is ever injected — survivors must notice the
//! victim's silence themselves (probe → indirect ping-req → suspect → dead). In both
//! modes nothing announces the restart: survivors learn of the comeback from the
//! victim's own `Hello` and resync traffic at the bumped incarnation. The JSON report
//! (`--json`) embeds every node's status object in `node_status`; with `--detect` it
//! gains `detection_ms`: the time from SIGKILL until every survivor has marked the
//! victim dead.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use hoplite_bench::json::Json;
use hoplite_cluster::process::ControlClient;
use hoplite_daemon::args::Args;
use hoplite_daemon::fleet::{wait_until, Fleet, NodeEntry};
use hoplite_daemon::status::counter;

fn main() {
    let sub = std::env::args().nth(1).unwrap_or_default();
    let mut args = Args::from_env(1);
    let result = match sub.as_str() {
        "spawn" => cmd_spawn(&mut args),
        "status" => cmd_status(&mut args),
        "kill" => cmd_kill(&mut args),
        "restart" => cmd_restart(&mut args),
        "stop" => cmd_stop(&mut args),
        "drill" => cmd_drill(&mut args),
        "" | "help" | "--help" => {
            eprint!("{USAGE}");
            return;
        }
        other => Err(format!("unknown subcommand `{other}`\n{USAGE}")),
    };
    if let Err(e) = result {
        eprintln!("hoplitectl {sub}: {e}");
        // A drill watchdog that fired holds this lock while it stops the fleet, which
        // fails the drill's requests: its exit code, 124, is the one that counts.
        let _exit = EXIT.lock().unwrap_or_else(PoisonError::into_inner);
        std::process::exit(1);
    }
}

/// Held by whoever stops a drill's fleet from its record, and by `main` exiting on an
/// error: whichever of `main` and the drill watchdog takes it first exits.
static EXIT: Mutex<()> = Mutex::new(());

const USAGE: &str = "usage:\n  \
    hoplitectl spawn   --nodes N --dir DIR [--binary PATH] [--config FILE]\n  \
    hoplitectl status  --dir DIR [--json]\n  \
    hoplitectl kill    --dir DIR --node I\n  \
    hoplitectl restart --dir DIR --node I\n  \
    hoplitectl stop    --dir DIR\n  \
    hoplitectl drill   --nodes N --dir DIR [--binary PATH] [--waves W] [--size BYTES]\n                     \
    [--timeout-secs S] [--json FILE] [--detect]\n";

/// The `hoplited` binary that ships next to this `hoplitectl`.
fn sibling_hoplited() -> Result<PathBuf, String> {
    let me = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let dir = me.parent().ok_or("current_exe has no parent directory")?;
    let candidate = dir.join("hoplited");
    if candidate.is_file() {
        Ok(candidate)
    } else {
        Err(format!("{} not found; pass --binary", candidate.display()))
    }
}

fn binary_arg(args: &mut Args) -> Result<PathBuf, String> {
    match args.opt("binary")? {
        Some(path) => Ok(PathBuf::from(path)),
        None => sibling_hoplited(),
    }
}

fn cmd_spawn(args: &mut Args) -> Result<(), String> {
    let n: usize = args.req("nodes")?;
    let dir = PathBuf::from(args.req::<String>("dir")?);
    let binary = binary_arg(args)?;
    let config = args.opt("config")?.map(PathBuf::from);
    args.finish()?;
    if n == 0 {
        return Err("--nodes must be at least 1".to_string());
    }
    let fleet = Fleet::spawn(&dir, binary, config, n)?;
    for (node, entry) in fleet.nodes.iter().enumerate() {
        println!(
            "node {node}: pid {} fabric {} control {}",
            entry.pid, entry.fabric, entry.control
        );
    }
    println!("{n} daemons up; state in {}", Fleet::path(&dir).display());
    Ok(())
}

fn cmd_status(args: &mut Args) -> Result<(), String> {
    let dir = PathBuf::from(args.req::<String>("dir")?);
    let as_json = args.switch("json");
    args.finish()?;
    let fleet = Fleet::load(&dir)?;
    let nodes: Vec<_> = fleet.nodes.iter().zip(fleet.statuses()).enumerate().collect();

    if as_json {
        let node = |(node, (entry, status)): &(usize, (&NodeEntry, Option<Json>))| {
            Json::Obj(vec![
                ("node".into(), Json::Num(*node as f64)),
                ("pid".into(), Json::Num(entry.pid as f64)),
                ("up".into(), Json::Bool(status.is_some())),
                ("incarnation".into(), Json::Num(entry.incarnation as f64)),
                ("status".into(), status.clone().unwrap_or(Json::Null)),
            ])
        };
        let doc = Json::Obj(vec![
            ("schema".into(), Json::Str("hoplite-ctl-status-v2".into())),
            ("nodes".into(), Json::Arr(nodes.iter().map(node).collect())),
        ]);
        print!("{}", doc.to_pretty_string());
    } else {
        for (node, (entry, status)) in &nodes {
            match status {
                Some(status) => println!(
                    "node {node}: up pid={} incarnation={} resyncing={} primaries={} puts={} \
                     gets={} failovers={} resyncs={}",
                    entry.pid,
                    entry.incarnation,
                    status.get("resyncing").map_or("?".into(), Json::to_line_string),
                    status.get("primaries").map_or("?".into(), Json::to_line_string),
                    counter(status, "objects_put"),
                    counter(status, "gets_completed"),
                    counter(status, "broadcast_failovers"),
                    counter(status, "directory_resyncs"),
                ),
                None => println!("node {node}: down (last incarnation {})", entry.incarnation),
            }
        }
    }
    Ok(())
}

fn cmd_kill(args: &mut Args) -> Result<(), String> {
    let dir = PathBuf::from(args.req::<String>("dir")?);
    let node: usize = args.req("node")?;
    args.finish()?;
    let mut fleet = Fleet::load(&dir)?;
    let pid = fleet.nodes.get(node).map_or(0, |entry| entry.pid);
    fleet.kill9(node)?;
    fleet.announce_failure(node)?;
    println!("node {node}: killed pid {pid}");
    Ok(())
}

fn cmd_restart(args: &mut Args) -> Result<(), String> {
    let dir = PathBuf::from(args.req::<String>("dir")?);
    let node: usize = args.req("node")?;
    args.finish()?;
    let mut fleet = Fleet::load(&dir)?;
    fleet.restart(node)?;
    let entry = &fleet.nodes[node];
    println!("node {node}: restarted as pid {} at incarnation {}", entry.pid, entry.incarnation);
    Ok(())
}

fn cmd_stop(args: &mut Args) -> Result<(), String> {
    let dir = PathBuf::from(args.req::<String>("dir")?);
    args.finish()?;
    Fleet::load(&dir)?.stop()?;
    println!("fleet in {} stopped", dir.display());
    Ok(())
}

// ---------------------------------------------------------------------------
// The kill -9 drill.
// ---------------------------------------------------------------------------

/// Object size and seeds for one wave's workload.
#[derive(Clone, Copy)]
struct Wave {
    index: usize,
    size: u64,
}

impl Wave {
    fn object(&self) -> String {
        format!("wave-{}", self.index)
    }
    fn seed(&self) -> u64 {
        0xD0_5E_ED + self.index as u64
    }
    fn sum(&self) -> String {
        format!("sum-{}", self.index)
    }
    fn contrib(&self, node: usize) -> String {
        format!("contrib-{}-{node}", self.index)
    }
}

const REDUCE_LEN: usize = 4096;

/// The wave whose broadcast the victim is killed in: two full waves before it, the
/// restart and at least one more after it.
const KILL_WAVE: usize = 2;

fn cmd_drill(args: &mut Args) -> Result<(), String> {
    let n: usize = args.opt_or("nodes", 5)?;
    let dir = PathBuf::from(args.req::<String>("dir")?);
    let binary = binary_arg(args)?;
    let waves: usize = args.opt_or("waves", 6)?;
    let size: u64 = args.opt_or("size", 1 << 20)?;
    let timeout_secs: u64 = args.opt_or("timeout-secs", 300)?;
    let json_path = args.opt("json")?.map(PathBuf::from);
    let detect = args.switch("detect");
    args.finish()?;
    if n < 3 {
        return Err("--nodes must be at least 3 (source + victim + a survivor)".to_string());
    }
    if waves <= KILL_WAVE {
        return Err(format!("--waves must be above {KILL_WAVE}, the wave the victim dies in"));
    }

    // Watchdog: if the drill wedges (a lost location record shows up as a get that
    // never completes), fail loudly with a distinctive exit code instead of letting
    // the CI job idle until its own timeout. `process::exit` runs no destructors, so
    // the watchdog stops the fleet recorded in the drill directory itself.
    let watched = dir.clone();
    std::thread::spawn(move || {
        std::thread::sleep(Duration::from_secs(timeout_secs));
        eprintln!("drill watchdog: not done after {timeout_secs}s, stopping the fleet");
        let _exit = stop_recorded(&watched);
        std::process::exit(124);
    });

    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    // Small blocks so a 1 MiB broadcast is a multi-block, multi-round transfer —
    // the kill lands mid-object, not between objects.
    let config_path = dir.join("drill-config.toml");
    let mut config_text = "# kill -9 drill: multi-block objects at modest sizes\n\
         block_size = 65536\n\
         inline_threshold = 1024\n"
        .to_string();
    if detect {
        // Verdict-free mode: the daemons run the SWIM detector with a tight probe
        // cadence so the 1 s suspicion window (100 ms x 10) keeps the drill fast
        // while still surviving real scheduling noise on a loaded CI machine.
        config_text.push_str(
            "detector_probe_period_ms = 100\n\
             detector_ack_timeout_ms = 40\n\
             detector_suspicion_multiplier = 10\n",
        );
    }
    std::fs::write(&config_path, config_text).map_err(|e| format!("write config: {e}"))?;

    println!("drill: spawning {n} hoplited processes (binary {})", binary.display());
    let mut fleet = Fleet::spawn(&dir, binary, Some(config_path), n)
        .map_err(|e| format!("spawn fleet: {e}"))?;
    let _stop = StopOnDrop(&dir);
    for node in 0..n {
        println!(
            "  node {node}: pid {} log {}",
            fleet.nodes[node].pid,
            fleet.log_path(node).display()
        );
    }

    // Node 0 sources every wave and is never killed; the victim is a *receiver*
    // whose death lands mid-broadcast while survivors' gets are in flight.
    let victim = n - 1;
    let started = Instant::now();
    let mut detection_ms: Option<f64> = None;
    for index in 0..waves {
        let wave = Wave { index, size };
        let detected = run_wave(&mut fleet, wave, (index == KILL_WAVE).then_some(victim), detect)?;
        if index == KILL_WAVE {
            detection_ms = detected;
            restart_and_verify(&mut fleet, victim, size, index)?;
        }
        println!("drill: wave {index} complete ({:.1}s)", started.elapsed().as_secs_f64());
    }
    if detect {
        assert!(detection_ms.is_some(), "detect mode must have measured detection");
    }

    // Final sweep: every wave object and every reduce result, from every node.
    verify_all(&fleet, size, waves - 1)?;
    // At quiescence every node names the same primary for every shard: a split view
    // routes one shard's writes to two primaries.
    wait_until("every node to name the same primary per shard", Duration::from_secs(10), || {
        let statuses = fleet.statuses();
        let views: Vec<Option<&Json>> =
            statuses.iter().map(|status| status.as_ref()?.get("primaries")).collect();
        Ok(views.iter().all(|view| view.is_some() && *view == views[0]))
    })?;

    let statuses: Vec<Json> = fleet
        .statuses()
        .into_iter()
        .collect::<Option<_>>()
        .ok_or("a node did not answer `status`")?;
    let victim_resyncs = counter(&statuses[victim], "directory_resyncs");
    let survivor_failovers: u64 = statuses
        .iter()
        .enumerate()
        .filter(|(node, _)| *node != victim)
        .map(|(_, s)| counter(s, "broadcast_failovers") + counter(s, "directory_failovers"))
        .sum();
    println!(
        "drill: victim resyncs={victim_resyncs} survivor failovers={survivor_failovers} \
         victim incarnation={}",
        fleet.nodes[victim].incarnation
    );

    if let Some(path) = json_path {
        let doc =
            drill_report(&fleet, waves, victim, size, statuses, started.elapsed(), detection_ms);
        std::fs::write(&path, doc.to_pretty_string())
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        println!("drill: report written to {}", path.display());
    }

    fleet.stop()?;
    println!("drill: PASS — {waves} waves, kill -9 at wave {KILL_WAVE}, zero lost objects");
    Ok(())
}

/// Stops the fleet recorded in a drill directory when dropped, so a drill that returns
/// an error or panics leaves no daemon behind.
struct StopOnDrop<'a>(&'a Path);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        drop(stop_recorded(self.0));
    }
}

/// Stop the fleet recorded in `dir`, if there is one, holding [`EXIT`] throughout so
/// the watchdog and a failing drill never stop the fleet at once. Returns the lock.
fn stop_recorded(dir: &Path) -> MutexGuard<'static, ()> {
    let exit = EXIT.lock().unwrap_or_else(PoisonError::into_inner);
    if let Ok(fleet) = Fleet::load(dir) {
        let _ = fleet.stop();
    }
    exit
}

/// One wave: node 0 puts a multi-block object, every other node gets it (in
/// parallel), then a sum-reduce across per-node contributions is verified
/// everywhere. When `kill` names a victim, it is SIGKILLed while the gets are in
/// flight, and survivor gets are retried through the failover window. With `detect`
/// the failure verdict is never announced — the SWIM detector has to notice on its
/// own, and the returned `detection_ms` is the time from SIGKILL until every
/// survivor reported the victim dead.
fn run_wave(
    fleet: &mut Fleet,
    wave: Wave,
    kill: Option<usize>,
    detect: bool,
) -> Result<Option<f64>, String> {
    let n = fleet.nodes.len();
    fleet
        .control(0)
        .and_then(|mut c| c.put(&wave.object(), wave.size, wave.seed()))
        .map_err(|e| format!("wave {}: put: {e}", wave.index))?;

    // Concurrent receivers: each survivor keeps retrying until the object verifies,
    // because a get that raced the kill may fail once before failover kicks in. The
    // threads reconnect by address on their own, so the supervisor keeps `fleet`
    // mutably for the kill.
    let failed: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
    let in_flight = Arc::new(AtomicUsize::new(0));
    let mut detection_ms: Option<f64> = None;
    std::thread::scope(|scope| -> Result<(), String> {
        let mut handles = Vec::new();
        for node in 1..n {
            let failed = failed.clone();
            let in_flight = in_flight.clone();
            let addr = fleet.nodes[node].control;
            let mut ctl = fleet
                .control(node)
                .map_err(|e| format!("wave {}: connect node {node}: {e}", wave.index))?;
            let is_victim = kill == Some(node);
            handles.push(scope.spawn(move || {
                in_flight.fetch_add(1, Ordering::SeqCst);
                let deadline = Instant::now() + Duration::from_secs(60);
                loop {
                    match ctl.get(&wave.object(), wave.size, wave.seed()) {
                        Ok(()) => return,
                        Err(_) if is_victim => return, // it died mid-get, by design
                        Err(e) if Instant::now() >= deadline => {
                            failed.lock().unwrap().push(format!("node {node}: {e}"));
                            return;
                        }
                        Err(_) => {
                            // Failover window: reconnect and retry.
                            std::thread::sleep(Duration::from_millis(200));
                            // A fresh connection, in case the daemon dropped ours.
                            if let Ok(fresh) = ControlClient::connect(addr, Duration::from_secs(1))
                            {
                                ctl = fresh;
                            }
                        }
                    }
                }
            }));
        }

        if let Some(victim) = kill {
            // Let the gets actually start pulling blocks, then yank the process.
            while in_flight.load(Ordering::SeqCst) < n - 1 {
                std::thread::sleep(Duration::from_millis(5));
            }
            std::thread::sleep(Duration::from_millis(30));
            let pid = fleet.nodes[victim].pid;
            fleet.kill9(victim).map_err(|e| format!("kill -9 node {victim}: {e}"))?;
            println!("drill: kill -9 node {victim} (pid {pid}) mid-broadcast of {}", wave.object());
            if detect {
                // Nobody tells the survivors anything. Poll their status counters (a
                // survivor mid-redrive may be slow to answer) until each has either
                // declared the death itself or learned it from gossip.
                let kill_at = Instant::now();
                let knows = |s: &Option<Json>| {
                    s.as_ref().is_some_and(|s| {
                        counter(s, "deaths_declared") + counter(s, "membership_deaths_learned") > 0
                    })
                };
                let what =
                    format!("wave {}: every survivor to mark node {victim} dead", wave.index);
                wait_until(&what, Duration::from_secs(30), || {
                    let statuses = fleet.statuses();
                    Ok(statuses.iter().enumerate().all(|(node, s)| node == victim || knows(s)))
                })?;
                let elapsed_ms = kill_at.elapsed().as_secs_f64() * 1000.0;
                println!(
                    "drill: every survivor marked node {victim} dead in {elapsed_ms:.0} ms — \
                     no verdict was delivered"
                );
                detection_ms = Some(elapsed_ms);
            } else {
                fleet.announce_failure(victim).map_err(|e| format!("announce failure: {e}"))?;
            }
        }
        for handle in handles {
            handle.join().map_err(|_| "get thread panicked".to_string())?;
        }
        Ok(())
    })?;
    let failed = Arc::try_unwrap(failed).unwrap().into_inner().unwrap();
    if !failed.is_empty() {
        return Err(format!("wave {}: gets failed: {}", wave.index, failed.join("; ")));
    }

    // Reduce leg across whoever is alive: each contributes (node+1), node 0
    // coordinates, everyone alive checks the sum.
    let alive: Vec<usize> = fleet.running().collect();
    let mut expected = 0.0f32;
    let mut sources = Vec::new();
    for &node in &alive {
        let value = (node + 1) as f32;
        fleet
            .control(node)
            .and_then(|mut c| c.put_f32(&wave.contrib(node), REDUCE_LEN, value))
            .map_err(|e| format!("wave {}: contrib node {node}: {e}", wave.index))?;
        expected += value;
        sources.push(wave.contrib(node));
    }
    fleet
        .control(0)
        .and_then(|mut c| c.reduce(&wave.sum(), &sources))
        .map_err(|e| format!("wave {}: reduce: {e}", wave.index))?;
    for &node in &alive {
        fleet
            .control(node)
            .and_then(|mut c| c.get_f32(&wave.sum(), REDUCE_LEN, expected))
            .map_err(|e| format!("wave {}: verify sum on node {node}: {e}", wave.index))?;
    }
    Ok(detection_ms)
}

/// Restart the victim at the next incarnation, wait out its directory resync, and
/// prove no location record was lost: the restarted node must be able to get every
/// object broadcast so far, and every survivor must still see them too. Nothing
/// announces the restart: survivors readmit the victim from its own traffic at the
/// bumped incarnation (its `Hello`, its restart requests, its `DirResynced`).
fn restart_and_verify(
    fleet: &mut Fleet,
    victim: usize,
    size: u64,
    through_wave: usize,
) -> Result<(), String> {
    fleet.restart(victim).map_err(|e| format!("restart node {victim}: {e}"))?;
    let incarnation = fleet.nodes[victim].incarnation;
    println!("drill: node {victim} restarted at incarnation {incarnation}");

    wait_until(&format!("node {victim} to finish its resync"), Duration::from_secs(30), || {
        let status = fleet.status(victim)?;
        let reported = status.get("incarnation").and_then(Json::as_u64);
        if reported != Some(incarnation) {
            return Err(format!(
                "node {victim} reports incarnation {reported:?}, expected {incarnation}"
            ));
        }
        Ok(status.get("resyncing").and_then(Json::as_bool) != Some(true))
    })?;
    println!("drill: node {victim} resynced at incarnation {incarnation}");

    verify_all(fleet, size, through_wave)
}

/// Every wave object so far, from every running node — the "zero lost location
/// records" check.
fn verify_all(fleet: &Fleet, size: u64, through_wave: usize) -> Result<(), String> {
    for index in 0..=through_wave {
        let wave = Wave { index, size };
        for node in fleet.running() {
            fleet
                .control(node)
                .and_then(|mut c| c.get(&wave.object(), wave.size, wave.seed()))
                .map_err(|e| format!("verify: node {node} lost {}: {e}", wave.object()))?;
        }
    }
    Ok(())
}

/// The drill's JSON report; `node_status` holds each node's status object as it
/// answered.
fn drill_report(
    fleet: &Fleet,
    waves: usize,
    victim: usize,
    size: u64,
    statuses: Vec<Json>,
    elapsed: Duration,
    detection_ms: Option<f64>,
) -> Json {
    let mut pairs = vec![
        ("schema".into(), Json::Str("hoplite-drill-v2".into())),
        ("nodes".into(), Json::Num(fleet.nodes.len() as f64)),
        ("waves".into(), Json::Num(waves as f64)),
        ("kill_wave".into(), Json::Num(KILL_WAVE as f64)),
        ("victim".into(), Json::Num(victim as f64)),
        ("victim_incarnation".into(), Json::Num(fleet.nodes[victim].incarnation as f64)),
        ("object_bytes".into(), Json::Num(size as f64)),
        ("elapsed_s".into(), Json::Num(elapsed.as_secs_f64())),
        ("detect".into(), Json::Bool(detection_ms.is_some())),
        ("completed".into(), Json::Bool(true)),
    ];
    if let Some(ms) = detection_ms {
        pairs.push(("detection_ms".into(), Json::Num(ms)));
    }
    pairs.push(("node_status".into(), Json::Arr(statuses)));
    Json::Obj(pairs)
}
