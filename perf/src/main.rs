//! `perf`: the repo's real-bytes benchmark. Four workloads drive a 4-node
//! [`hoplite_cluster::LocalCluster`] over loopback TCP through the public
//! `HopliteClient` API only; every layer is measured from outside. See `README.md`.
//!
//! ```text
//! perf --workload <name> --seed <n> --seconds <s> --trace <0|1>   contract run (BENCHMARK.json)
//! perf all    [--seed n] [--seconds s]                            every metric of every workload
//! perf layers                                                     calibration + per-layer probes
//! perf trace  --workload <name> [--seed n] [--out spans.json]     traced replay, span file
//! perf noise  [--seed n] [--runs k] [--seconds s]                 run-to-run spread vs bounds
//! ```

mod exec;
mod gen;
mod inline;
mod layers;
mod report;
mod simlane;
mod spans;
mod stats;
#[cfg(test)]
mod tests;

use std::collections::HashMap;
use std::io::Read;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use hoplite_bench::json::Json;
use hoplite_cluster::LocalFabric;

use exec::{run_round, script_calls, ClusterExec, Executor, Tally};
use gen::{script, script_hash, Inputs, Round, Shape, Workload};
use inline::InlineDriver;
use report::{Metric, Pooled};
use simlane::SimExec;
use stats::{median, quartiles, spread, Samples};

/// A child process that has not finished after this long is killed and every
/// operation of its script counts as failed.
const CHILD_LIMIT: Duration = Duration::from_secs(100);

/// `--key value` arguments after the verb.
struct Args(HashMap<String, String>);

impl Args {
    fn parse(args: &[String]) -> Result<Args, String> {
        let mut map = HashMap::new();
        let mut it = args.iter();
        while let Some(key) = it.next() {
            let name = key.strip_prefix("--").ok_or_else(|| format!("unexpected `{key}`"))?;
            let value = it.next().ok_or_else(|| format!("`{key}` needs a value"))?;
            map.insert(name.to_string(), value.clone());
        }
        Ok(Args(map))
    }

    fn num(&self, key: &str, default: u64) -> Result<u64, String> {
        match self.0.get(key) {
            Some(v) => v.parse().map_err(|_| format!("--{key}: `{v}` is not a number")),
            None => Ok(default),
        }
    }

    fn workload(&self) -> Result<Workload, String> {
        let name = self.0.get("workload").ok_or("--workload is required")?;
        Workload::parse(name).ok_or_else(|| format!("unknown workload `{name}`"))
    }
}

/// How a child runs its share of a workload.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// Full round count, nothing extra: the end-to-end measurement.
    Full,
    /// Short, with per-round `/proc` snapshots.
    Brief,
    /// Short, with spans and counter deltas recorded.
    Traced,
}

impl Mode {
    fn name(self) -> &'static str {
        match self {
            Mode::Full => "full",
            Mode::Brief => "brief",
            Mode::Traced => "traced",
        }
    }

    fn shape(self, workload: Workload) -> Shape {
        match self {
            Mode::Full => Shape::full(workload),
            Mode::Brief | Mode::Traced => Shape::full(workload).brief(),
        }
    }
}

/// What one child process measured.
struct ChildReport {
    samples: Samples,
    setup_s: f64,
    peak_rss_mib: f64,
    tally: Tally,
    spans: Json,
}

/// Run `script` on `exec`, warm-up first. Returns when set-up ended (seconds since
/// `started`).
fn run_script<E: Executor>(
    exec: &mut E,
    script: &[Round],
    inputs: &Inputs,
    detail: bool,
    started: Instant,
    samples: &mut Samples,
    tally: &mut Tally,
) -> Result<f64, String> {
    let mut setup_s = None;
    for round in script {
        if !round.warmup && setup_s.is_none() {
            setup_s = Some(started.elapsed().as_secs_f64());
        }
        run_round(exec, round, inputs, detail, samples, tally)?;
    }
    Ok(setup_s.unwrap_or_else(|| started.elapsed().as_secs_f64()))
}

/// The child verb: one fresh process runs one fixed-length script on a fresh cluster
/// (dropped clusters leak threads and receive slabs, so peak memory and thread counts
/// only mean something per process) and prints what it measured as JSON.
fn child_main(args: &Args, started: Instant) -> Result<ExitCode, String> {
    let workload = args.workload()?;
    let seed = args.num("seed", 1)?;
    let child = args.num("child", 0)? as u32;
    let mode = match args.0.get("mode").map(String::as_str) {
        Some("brief") => Mode::Brief,
        Some("traced") => Mode::Traced,
        _ => Mode::Full,
    };
    let shape = mode.shape(workload);
    let inputs = Inputs::build(workload, &shape, seed);
    let script = script(workload, &shape, seed, child);
    let mut exec = ClusterExec::start(&shape, LocalFabric::Tcp, mode == Mode::Traced);
    let (mut samples, mut tally) = (Samples::default(), Tally::default());
    let outcome = run_script(
        &mut exec,
        &script,
        &inputs,
        mode != Mode::Full,
        started,
        &mut samples,
        &mut tally,
    );
    samples.merge(&exec.extra);
    let correct = outcome.is_ok();
    let report = Json::Obj(vec![
        ("correct".to_string(), Json::Bool(correct)),
        ("attempted".to_string(), Json::Num(tally.attempted as f64)),
        ("failed".to_string(), Json::Num(tally.failed as f64)),
        ("setup_s".to_string(), Json::Num(*outcome.as_ref().unwrap_or(&0.0))),
        ("peak_rss_mib".to_string(), Json::Num(stats::peak_rss_mib())),
        ("samples".to_string(), samples.to_json()),
        ("spans".to_string(), exec.spans.as_ref().map_or(Json::Null, |log| log.to_json())),
    ]);
    print!("{}", report.to_pretty_string());
    if let Err(why) = &outcome {
        eprintln!("perf: WRONG PAYLOAD: {why}");
    }
    if exec.hung() {
        // A waiter is stuck inside a Get for good; unwinding would try to join it.
        std::process::exit(if correct { 0 } else { 1 });
    }
    Ok(if correct { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

/// Spawn this binary as a child for `(workload, seed, child)` and parse its report.
/// `Err` is a benchmark failure (wrong payload, unparsable report); a child that
/// crashed or hung is reported as all-operations-failed instead.
fn run_child(workload: Workload, seed: u64, child: u32, mode: Mode) -> Result<ChildReport, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut process = Command::new(exe)
        .args(["child", "--workload", workload.name(), "--mode", mode.name()])
        .args(["--seed", &seed.to_string(), "--child", &child.to_string()])
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawn child: {e}"))?;
    let mut stdout = process.stdout.take().expect("piped stdout");
    let reader = std::thread::spawn(move || {
        let mut text = String::new();
        stdout.read_to_string(&mut text).map(|_| text)
    });
    let deadline = Instant::now() + CHILD_LIMIT;
    let status = loop {
        match process.try_wait().map_err(|e| format!("wait for child: {e}"))? {
            Some(status) => break Some(status),
            None if Instant::now() > deadline => {
                let _ = process.kill();
                let _ = process.wait();
                break None;
            }
            None => std::thread::sleep(Duration::from_millis(5)),
        }
    };
    let text = reader.join().expect("reader thread").map_err(|e| format!("read child: {e}"))?;
    let lost = || {
        let calls = script_calls(&script(workload, &mode.shape(workload), seed, child));
        ChildReport {
            samples: Samples::default(),
            setup_s: f64::NAN,
            peak_rss_mib: f64::NAN,
            tally: Tally { attempted: calls, failed: calls },
            spans: Json::Null,
        }
    };
    let Ok(json) = Json::parse(&text) else {
        eprintln!("perf: child {child} of {} died ({status:?}) without a report", workload.name());
        return Ok(lost());
    };
    let num =
        |key: &str| json.get(key).and_then(Json::as_f64).ok_or(format!("child report: no {key}"));
    if json.get("correct").and_then(Json::as_bool) != Some(true) {
        return Err(format!("child {child} of {} returned a wrong payload", workload.name()));
    }
    Ok(ChildReport {
        samples: Samples::from_json(json.get("samples").ok_or("child report: no samples")?)?,
        setup_s: num("setup_s")?,
        peak_rss_mib: num("peak_rss_mib")?,
        tally: Tally { attempted: num("attempted")? as u64, failed: num("failed")? as u64 },
        spans: json.get("spans").cloned().unwrap_or(Json::Null),
    })
}

/// Fold a child's report into the pool. Children that lost operations contribute to
/// the tally only.
fn pool(pooled: &mut Pooled, tally: &mut Tally, report: &ChildReport) {
    tally.attempted += report.tally.attempted;
    tally.failed += report.tally.failed;
    if report.tally.failed == 0 {
        pooled.add(&report.samples, report.setup_s, report.peak_rss_mib);
    }
}

/// The end-to-end measurement: fresh child processes of fixed length, one after the
/// other, for `seconds` seconds (a child that would end after the deadline is not
/// started, except that there are always at least two).
fn measure(workload: Workload, seed: u64, seconds: u64) -> Result<(Pooled, Tally), String> {
    let started = Instant::now();
    let (mut pooled, mut tally) = (Pooled::default(), Tally::default());
    let mut child = 0;
    loop {
        let child_started = Instant::now();
        pool(&mut pooled, &mut tally, &run_child(workload, seed, child, Mode::Full)?);
        child += 1;
        let next_ends = started.elapsed() + child_started.elapsed();
        if child >= 2 && next_ends > Duration::from_secs(seconds) {
            return Ok((pooled, tally));
        }
    }
}

/// Run `workload`'s brief script (child 0) on an in-process backend; the samples of
/// its rounds. A backend that loses an operation is a benchmark failure.
fn replay<E: Executor>(exec: &mut E, workload: Workload, seed: u64) -> Result<Samples, String> {
    let shape = Mode::Traced.shape(workload);
    let inputs = Inputs::build(workload, &shape, seed);
    let script = script(workload, &shape, seed, 0);
    let (mut samples, mut tally) = (Samples::default(), Tally::default());
    run_script(exec, &script, &inputs, false, Instant::now(), &mut samples, &mut tally)?;
    if tally.failed > 0 {
        return Err(format!("a replay of {} lost {} operations", workload.name(), tally.failed));
    }
    Ok(samples)
}

/// Replay on the inline driver; per-round sums and the driver with its span log.
fn inline_replay(
    workload: Workload,
    seed: u64,
    codec: bool,
) -> Result<(Samples, InlineDriver), String> {
    let mut driver = InlineDriver::new(&Mode::Traced.shape(workload), codec);
    let windows = replay(&mut driver, workload, seed)?;
    Ok((report::inline_rounds(&driver.log, &windows), driver))
}

/// The simulator's median round time, its NICs set from this run's calibration.
fn sim_round_ms(workload: Workload, seed: u64, probes: &[Metric]) -> Result<f64, String> {
    let mut sim = SimExec::new(
        &Mode::Traced.shape(workload),
        report::value_of(probes, "calib.loopback_stream_gibps"),
        report::value_of(probes, "calib.loopback_rtt_us"),
        report::value_of(probes, "calib.memcpy_gibps"),
    );
    Ok(median(replay(&mut sim, workload, seed)?.get("round_ms")))
}

/// Everything the traced run of one workload produces.
struct Traced {
    /// Every per-layer metric measured, workload-only ones included.
    per_layer: Vec<Metric>,
    /// The `BENCHMARK.json` per-layer list.
    contract: Vec<Metric>,
    tally: Tally,
    /// Span logs: real cluster, inline, inline with codec.
    spans: Json,
    /// `(spans, self time in ns)` per span name of the inline replay with codec.
    self_times: std::collections::BTreeMap<&'static str, (u64, u64)>,
}

/// The per-layer measurement of one workload: a short untraced and a short traced run
/// on the real cluster, the two inline replays, the simulator lane, and the budget.
fn trace_workload(workload: Workload, seed: u64, probes: &[Metric]) -> Result<Traced, String> {
    let (mut plain, mut traced) = (Pooled::default(), Pooled::default());
    let mut tally = Tally::default();
    let mut cluster_spans = Json::Null;
    // At least three rounds of each kind, alternating so both see the same box.
    for child in 0..3u32.div_ceil(Mode::Brief.shape(workload).rounds) {
        pool(&mut plain, &mut tally, &run_child(workload, seed, child, Mode::Brief)?);
        let traced_child = run_child(workload, seed, child, Mode::Traced)?;
        pool(&mut traced, &mut tally, &traced_child);
        if child == 0 {
            cluster_spans = traced_child.spans;
        }
    }
    if tally.failed > 0 {
        return Err(format!(
            "{}: {} operations failed in the traced runs",
            workload.name(),
            tally.failed
        ));
    }

    let mut out = probes.to_vec();
    report::real_run_layers(&plain, &traced, &mut out);
    let e2e = report::end_to_end(&plain);
    let loopback = report::value_of(probes, "calib.loopback_stream_gibps");
    let rounds = plain.samples.get("round_ms").len();
    out.push(report::metric(
        "ratio.goodput_over_loopback",
        report::value_of(&e2e, "goodput_gibps") / loopback,
        rounds,
    ));
    out.push(report::metric(
        "ratio.get_p50_over_loopback_rtt",
        report::value_of(&e2e, "get_p50_us") / report::value_of(probes, "calib.loopback_rtt_us"),
        plain.samples.get("get_us").len(),
    ));

    let real_round_ms = report::value_of(&out, "trace.round_p50_ms");
    let (inline_plain, plain_driver) = inline_replay(workload, seed, false)?;
    let (inline_codec, codec_driver) = inline_replay(workload, seed, true)?;
    report::budget_layers(&inline_plain, &inline_codec, real_round_ms, loopback, &mut out);

    let predicted = sim_round_ms(workload, seed, probes)?;
    let error_pct = (predicted / real_round_ms - 1.0) * 100.0;
    out.push(report::metric("cluster.sim.predicted_round_ms", predicted, rounds));
    out.push(report::metric("cluster.sim.model_error_pct", error_pct, rounds));
    let spans = Json::Obj(vec![
        ("cluster".to_string(), cluster_spans),
        ("inline".to_string(), plain_driver.log.to_json()),
        ("inline_codec".to_string(), codec_driver.log.to_json()),
    ]);
    let self_times = codec_driver.log.self_time_by_name();
    Ok(Traced {
        contract: report::complete_per_layer(&out),
        per_layer: out,
        tally,
        spans,
        self_times,
    })
}

/// The last line of a contract run. A run that met a wrong payload never gets here.
fn contract_line(tally: Tally, metrics: &[Metric]) -> String {
    report::compact(&Json::Obj(vec![
        ("correct".to_string(), Json::Bool(true)),
        ("attempted".to_string(), Json::Num(tally.attempted.max(1) as f64)),
        ("failed".to_string(), Json::Num(tally.failed as f64)),
        ("metrics".to_string(), report::metrics_json(metrics, false)),
    ]))
}

/// `perf --workload W --seed N --seconds S --trace T`.
fn contract_main(args: &Args) -> Result<ExitCode, String> {
    let workload = args.workload()?;
    let seed = args.num("seed", 1)?;
    let (tally, metrics) = if args.num("trace", 0)? == 0 {
        let (pooled, tally) = measure(workload, seed, args.num("seconds", 30)?)?;
        if pooled.setup_s.is_empty() {
            return Err(format!("{}: every child lost operations", workload.name()));
        }
        (tally, report::end_to_end(&pooled))
    } else {
        let probes = layers::run();
        let traced = trace_workload(workload, seed, &probes)?;
        (traced.tally, traced.contract)
    };
    eprintln!("{}", report::metrics_json(&metrics, true).to_pretty_string());
    println!("{}", contract_line(tally, &metrics));
    Ok(ExitCode::SUCCESS)
}

/// `perf all`: one JSON document with every metric of every workload.
fn all_main(args: &Args) -> Result<ExitCode, String> {
    let seed = args.num("seed", 1)?;
    let seconds = args.num("seconds", 30)?;
    let probes = layers::run();
    let mut workloads = Vec::new();
    let mut failed = 0;
    for workload in Workload::ALL {
        let (pooled, mut tally) = measure(workload, seed, seconds)?;
        let traced = trace_workload(workload, seed, &probes)?;
        tally.attempted += traced.tally.attempted;
        tally.failed += traced.tally.failed;
        failed += tally.failed;
        // Probes are printed once, under "layers".
        let per_layer: Vec<Metric> = traced
            .per_layer
            .into_iter()
            .filter(|m| !probes.iter().any(|p| p.name == m.name))
            .collect();
        workloads.push((
            workload.name().to_string(),
            Json::Obj(vec![
                // Of the first child's script: the same seed gives the same hash.
                (
                    "script_hash".to_string(),
                    Json::Str(format!(
                        "{:016x}",
                        script_hash(&script(workload, &Shape::full(workload), seed, 0))
                    )),
                ),
                ("attempted".to_string(), Json::Num(tally.attempted as f64)),
                ("failed".to_string(), Json::Num(tally.failed as f64)),
                (
                    "failed_share".to_string(),
                    Json::Num(tally.failed as f64 / tally.attempted as f64),
                ),
                (
                    "end_to_end".to_string(),
                    report::metrics_json(&report::end_to_end(&pooled), true),
                ),
                ("per_layer".to_string(), report::metrics_json(&per_layer, true)),
            ]),
        ));
    }
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let doc = Json::Obj(vec![
        ("seed".to_string(), Json::Num(seed as f64)),
        ("cores".to_string(), Json::Num(cores as f64)),
        ("fabric".to_string(), Json::Str("loopback TCP, n = 4".to_string())),
        ("layers".to_string(), report::metrics_json(&probes, true)),
        ("workloads".to_string(), Json::Obj(workloads)),
    ]);
    print!("{}", doc.to_pretty_string());
    Ok(if failed == 0 { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

/// `perf trace`: the traced replay of one workload; writes the span file.
fn trace_main(args: &Args) -> Result<ExitCode, String> {
    let workload = args.workload()?;
    let probes = layers::run();
    let traced = trace_workload(workload, args.num("seed", 1)?, &probes)?;
    let out = args.0.get("out").cloned().unwrap_or_else(|| "spans.json".to_string());
    std::fs::write(&out, traced.spans.to_pretty_string())
        .map_err(|e| format!("write {out}: {e}"))?;
    eprintln!("perf: spans written to {out}");
    eprintln!("perf: self time by span name, inline replay with codec:");
    for (span, (count, self_ns)) in &traced.self_times {
        eprintln!("  {span:24} {count:8} spans {:12.3} ms", *self_ns as f64 / 1e6);
    }
    print!("{}", report::metrics_json(&traced.per_layer, true).to_pretty_string());
    Ok(ExitCode::SUCCESS)
}

/// `perf noise`: the whole end-to-end suite `runs` times back to back on one seed; per
/// workload × metric the median, quartiles, interquartile spread and largest relative
/// deviation, beside the bound. Non-zero exit when a spread exceeds its bound.
fn noise_main(args: &Args) -> Result<ExitCode, String> {
    let seed = args.num("seed", 1)?;
    let runs = args.num("runs", 5)?.max(5);
    let seconds = args.num("seconds", 30)?;
    let mut values: HashMap<(Workload, &str), Vec<f64>> = HashMap::new();
    for run in 0..runs {
        for workload in Workload::ALL {
            let (pooled, tally) = measure(workload, seed, seconds)?;
            if tally.failed > 0 {
                return Err(format!("{}: {} operations failed", workload.name(), tally.failed));
            }
            for m in report::end_to_end(&pooled) {
                values.entry((workload, m.name)).or_default().push(m.value);
            }
            eprintln!("perf: noise run {}/{runs}: {} done", run + 1, workload.name());
        }
    }
    println!(
        "| workload | metric | better | median | q1 | q3 | iqr/median | max dev | bound | |\n|---|---|---|---|---|---|---|---|---|---|"
    );
    let mut violations = 0;
    for workload in Workload::ALL {
        for def in report::END_TO_END {
            let v = &values[&(workload, def.name)];
            let (mid, (q1, q3), iqr) = (median(v), quartiles(v), spread(v));
            let dev = v.iter().map(|x| (x / mid - 1.0).abs()).fold(0.0, f64::max);
            let verdict = if iqr > def.bound { "VIOLATION" } else { "" };
            violations += (iqr > def.bound) as u32;
            println!(
                "| {} | {} | {} | {mid:.4} | {q1:.4} | {q3:.4} | {:.1}% | {:.1}% | {:.0}% | {verdict} |",
                workload.name(),
                def.name,
                def.better,
                iqr * 100.0,
                dev * 100.0,
                def.bound * 100.0
            );
        }
    }
    Ok(if violations == 0 { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

/// `perf layers`.
fn layers_main() -> Result<ExitCode, String> {
    let probes = layers::run();
    print!("{}", report::metrics_json(&probes, true).to_pretty_string());
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let started = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (verb, rest) = match argv.first() {
        Some(first) if !first.starts_with("--") => (first.as_str(), &argv[1..]),
        _ => ("contract", &argv[..]),
    };
    let result = Args::parse(rest).and_then(|args| match verb {
        "contract" => contract_main(&args),
        "child" => child_main(&args, started),
        "all" => all_main(&args),
        "layers" => layers_main(),
        "trace" => trace_main(&args),
        "noise" => noise_main(&args),
        other => Err(format!("unknown verb `{other}` (all | layers | trace | noise)")),
    });
    result.unwrap_or_else(|why| {
        eprintln!("perf: {why}");
        ExitCode::from(2)
    })
}
