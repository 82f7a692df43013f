//! Scenario sweep harness: run the topology × fault-schedule × collective matrix on
//! the simulator and emit machine-readable results.
//!
//! ```text
//! sweep [--matrix ci|full] [--out BENCH_sweep.json]
//!     Run the matrix and write the JSON document (stdout progress, one line/cell).
//!
//! sweep --check BASELINE [--against FRESH] [--tolerance 15%] [--matrix ci|full]
//!     Compare a fresh run (from --against, or executed in-process) to the committed
//!     baseline. Exit 1 on any regression: lost convergence, missing cell, a
//!     deterministic metric (completion_s, data_bytes_sent) off by more than the
//!     tolerance, or a protocol count (failovers, redrives, resyncs) off at all.
//!
//! sweep --summarize FILE
//!     Render the one-line-per-cell table from an existing document.
//! ```

use std::fs;
use std::process::ExitCode;

use hoplite_bench::json::Json;
use hoplite_bench::sweep::{self, MatrixKind};

struct Args {
    matrix: MatrixKind,
    out: String,
    check: Option<String>,
    against: Option<String>,
    summarize: Option<String>,
    tolerance: f64,
}

fn parse_tolerance(s: &str) -> Result<f64, String> {
    let (text, percent) = match s.strip_suffix('%') {
        Some(t) => (t, true),
        None => (s, false),
    };
    let v: f64 = text.parse().map_err(|_| format!("bad tolerance `{s}`"))?;
    let v = if percent { v / 100.0 } else { v };
    if !(0.0..=10.0).contains(&v) {
        return Err(format!("tolerance `{s}` out of range"));
    }
    Ok(v)
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        matrix: MatrixKind::Ci,
        out: "BENCH_sweep.json".to_string(),
        check: None,
        against: None,
        summarize: None,
        tolerance: 0.15,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--matrix" => {
                let v = value("--matrix")?;
                args.matrix =
                    MatrixKind::parse(&v).ok_or(format!("unknown matrix `{v}` (ci|full)"))?;
            }
            "--out" => args.out = value("--out")?,
            "--check" => args.check = Some(value("--check")?),
            "--against" => args.against = Some(value("--against")?),
            "--summarize" => args.summarize = Some(value("--summarize")?),
            "--tolerance" => args.tolerance = parse_tolerance(&value("--tolerance")?)?,
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(args)
}

fn load(path: &str) -> Result<Json, String> {
    let text = fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn run_fresh(matrix: MatrixKind) -> Json {
    eprintln!("running {} matrix...", matrix.name());
    sweep::run_matrix(matrix, |i, total, id, converged| {
        eprintln!(
            "[{:>3}/{total}] {id:<40} {}",
            i + 1,
            if converged { "converged" } else { "FAILED" }
        );
    })
}

fn real_main() -> Result<ExitCode, String> {
    let args = parse_args()?;

    if let Some(path) = &args.summarize {
        print!("{}", sweep::summarize(&load(path)?)?);
        return Ok(ExitCode::SUCCESS);
    }

    if let Some(baseline_path) = &args.check {
        let baseline = load(baseline_path)?;
        let fresh = match &args.against {
            Some(path) => load(path)?,
            None => run_fresh(args.matrix),
        };
        let report = sweep::check(&baseline, &fresh, args.tolerance)?;
        for note in &report.notes {
            println!("note: {note}");
        }
        if report.regressions.is_empty() {
            println!(
                "sweep check: {} cells within {:.1}% of {baseline_path}, protocol counts exact",
                report.compared,
                args.tolerance * 100.0
            );
            return Ok(ExitCode::SUCCESS);
        }
        eprintln!(
            "sweep check: {} regression(s) vs {baseline_path} (tolerance {:.1}%):",
            report.regressions.len(),
            args.tolerance * 100.0
        );
        for r in &report.regressions {
            eprintln!("  REGRESSION {r}");
        }
        return Ok(ExitCode::FAILURE);
    }

    let doc = run_fresh(args.matrix);
    fs::write(&args.out, doc.to_pretty_string()).map_err(|e| format!("{}: {e}", args.out))?;
    let cells = doc.get("cells").and_then(Json::as_arr).map(<[Json]>::len).unwrap_or(0);
    let failed: Vec<&str> = doc
        .get("cells")
        .and_then(Json::as_arr)
        .map(|cs| {
            cs.iter()
                .filter(|c| c.get("converged").and_then(Json::as_bool) != Some(true))
                .filter_map(|c| c.get("id").and_then(Json::as_str))
                .collect()
        })
        .unwrap_or_default();
    println!("wrote {} ({cells} cells, {} failed)", args.out, failed.len());
    for id in &failed {
        eprintln!("  NOT CONVERGED: {id}");
    }
    Ok(if failed.is_empty() { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

fn main() -> ExitCode {
    match real_main() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("sweep: {e}");
            eprintln!("usage: sweep [--matrix ci|full] [--out FILE]");
            eprintln!("       sweep --check BASELINE [--against FRESH] [--tolerance 15%]");
            eprintln!("       sweep --summarize FILE");
            ExitCode::FAILURE
        }
    }
}
