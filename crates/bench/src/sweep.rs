//! The scenario sweep matrix: cell enumeration, execution, regression checking, and
//! human-readable summaries.
//!
//! A sweep is a cartesian matrix of generated topologies × seeded fault schedules ×
//! collectives × seeds, each cell executed on a [`hoplite_cluster::SimCluster`] by
//! [`hoplite_cluster::sweep::run_cell`] and reduced to one JSON row. Simulated-time
//! metrics (`completion_s`, `data_bytes_sent`, message/event counts) are fully
//! deterministic — the simulator's only randomness is seeded per cell — so
//! [`check`] can gate CI on them with a tolerance that only real behavioural changes
//! can trip, and on the protocol counts (`failovers`, `redrives`, `resyncs`) with
//! none. Wall-clock time is recorded per cell for humans but never checked.

use std::time::Instant;

use hoplite_cluster::faults::ScheduleKind;
use hoplite_cluster::sweep::{run_cell, Collective};
use hoplite_cluster::topology::{self, GeneratedTopology};

use crate::json::Json;

/// Schema identifier stamped into every sweep document.
pub const SCHEMA: &str = "hoplite-sweep-v1";

/// Object size per collective: 8 MiB = two 4 MiB blocks at the paper's block size,
/// so every transfer exercises multi-block pipelining.
pub const OBJECT_BYTES: u64 = 8 * 1024 * 1024;

/// Which matrix to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MatrixKind {
    /// The reduced CI matrix: 124 cells, a couple of minutes in release.
    Ci,
    /// The full local matrix: more seeds and every schedule on the 256-node
    /// fat-tree.
    Full,
}

impl MatrixKind {
    /// Parse `ci` / `full`.
    pub fn parse(s: &str) -> Option<MatrixKind> {
        match s {
            "ci" => Some(MatrixKind::Ci),
            "full" => Some(MatrixKind::Full),
            _ => None,
        }
    }

    /// Stable name, stamped into the document.
    pub fn name(&self) -> &'static str {
        match self {
            MatrixKind::Ci => "ci",
            MatrixKind::Full => "full",
        }
    }
}

/// One cell of the matrix, fully specified before execution.
pub struct CellDef {
    /// Stable id: `topology/schedule/collective/sN`.
    pub id: String,
    /// The generated topology.
    pub topology: GeneratedTopology,
    /// Fault-schedule family.
    pub kind: ScheduleKind,
    /// Collective under test.
    pub collective: Collective,
    /// Seed for the schedule (and its link faults).
    pub seed: u64,
}

fn cell(topo: &GeneratedTopology, kind: ScheduleKind, coll: Collective, seed: u64) -> CellDef {
    CellDef {
        id: format!("{}/{}/{}/s{}", topo.name, kind.name(), coll.name(), seed),
        topology: topo.clone(),
        kind,
        collective: coll,
        seed,
    }
}

/// Enumerate the matrix of `kind`.
///
/// The small-topology block is the cartesian product
/// `4 topologies × 5 schedules × 3 collectives × seeds`; the 256-node fat-tree rows
/// on top keep the big-cluster path exercised (including one loss/reorder schedule)
/// without dominating the runtime.
pub fn build_matrix(kind: MatrixKind) -> Vec<CellDef> {
    let small: Vec<GeneratedTopology> = vec![
        topology::uniform(8),
        topology::fat_tree(4, 8, 4.0),
        topology::hetero_nics(16, 1),
        topology::wan_tiers(3, 8, 2),
    ];
    let big = topology::fat_tree(16, 16, 8.0);
    let seeds: &[u64] = match kind {
        MatrixKind::Ci => &[0, 1],
        MatrixKind::Full => &[0, 1, 2, 3],
    };
    let mut cells = Vec::new();
    for topo in &small {
        for sched in ScheduleKind::all() {
            for coll in Collective::all() {
                for &seed in seeds {
                    cells.push(cell(topo, sched, coll, seed));
                }
            }
        }
    }
    match kind {
        MatrixKind::Ci => {
            cells.push(cell(&big, ScheduleKind::None, Collective::Broadcast, 0));
            cells.push(cell(&big, ScheduleKind::LossReorder, Collective::Broadcast, 0));
            cells.push(cell(&big, ScheduleKind::None, Collective::Reduce, 0));
            cells.push(cell(&big, ScheduleKind::CorrelatedKills, Collective::Multicast, 0));
        }
        MatrixKind::Full => {
            for sched in ScheduleKind::all() {
                for coll in Collective::all() {
                    cells.push(cell(&big, sched, coll, 0));
                }
            }
        }
    }
    cells
}

/// Execute every cell and build the sweep document. `progress` is called after each
/// cell with `(index, total, id, converged)`.
pub fn run_matrix(kind: MatrixKind, mut progress: impl FnMut(usize, usize, &str, bool)) -> Json {
    let cells = build_matrix(kind);
    let total = cells.len();
    let mut rows = Vec::with_capacity(total);
    for (i, def) in cells.iter().enumerate() {
        let wall = Instant::now();
        let (schedule, out) =
            run_cell(&def.topology, def.kind, def.collective, OBJECT_BYTES, def.seed);
        let wall_ms = wall.elapsed().as_secs_f64() * 1e3;
        progress(i, total, &def.id, out.converged);
        rows.push(Json::Obj(vec![
            ("id".into(), Json::Str(def.id.clone())),
            ("topology".into(), Json::Str(def.topology.name.clone())),
            ("nodes".into(), Json::Num(def.topology.n as f64)),
            ("schedule".into(), Json::Str(schedule.name.clone())),
            ("collective".into(), Json::Str(def.collective.name().into())),
            ("seed".into(), Json::Num(def.seed as f64)),
            ("object_bytes".into(), Json::Num(OBJECT_BYTES as f64)),
            ("converged".into(), Json::Bool(out.converged)),
            ("failure".into(), out.failure.clone().map(Json::Str).unwrap_or(Json::Null)),
            ("completion_s".into(), Json::Num(out.completion_s)),
            ("data_bytes_sent".into(), Json::Num(out.data_bytes_sent as f64)),
            ("messages".into(), Json::Num(out.messages as f64)),
            ("events".into(), Json::Num(out.events as f64)),
            ("failovers".into(), Json::Num(out.failovers as f64)),
            ("redrives".into(), Json::Num(out.redrives as f64)),
            ("resyncs".into(), Json::Num(out.resyncs as f64)),
            ("messages_lost".into(), Json::Num(out.lost as f64)),
            ("messages_reordered".into(), Json::Num(out.reordered as f64)),
            ("wall_ms".into(), Json::Num((wall_ms * 100.0).round() / 100.0)),
        ]));
    }
    Json::Obj(vec![
        ("schema".into(), Json::Str(SCHEMA.into())),
        ("matrix".into(), Json::Str(kind.name().into())),
        ("object_bytes".into(), Json::Num(OBJECT_BYTES as f64)),
        ("cells".into(), Json::Arr(rows)),
    ])
}

/// The result of a baseline comparison.
pub struct CheckReport {
    /// Cells compared (present in both documents).
    pub compared: usize,
    /// Human-readable regression descriptions; empty means the gate passes.
    pub regressions: Vec<String>,
    /// Non-gating notes (e.g. newly-converging cells, extra cells in the fresh run).
    pub notes: Vec<String>,
}

fn cells_of(doc: &Json) -> Result<Vec<&Json>, String> {
    match doc.get("schema").and_then(Json::as_str) {
        Some(SCHEMA) => {}
        Some(other) => return Err(format!("unsupported schema `{other}` (want {SCHEMA})")),
        None => return Err("missing `schema` field".to_string()),
    }
    doc.get("cells")
        .and_then(Json::as_arr)
        .map(|cells| cells.iter().collect())
        .ok_or_else(|| "missing `cells` array".to_string())
}

/// Protocol counts a converged cell must reproduce exactly: how often the cluster
/// failed over, re-drove directory intents and resynced a replica. They are counts
/// of deterministic protocol events, so any change is a change of behaviour.
const EXACT_COUNTS: [&str; 3] = ["failovers", "redrives", "resyncs"];

/// Compare a fresh sweep against a committed baseline.
///
/// Gated per cell: convergence must not regress, the deterministic simulated
/// metrics `completion_s` and `data_bytes_sent` must stay within `tolerance`
/// (relative, e.g. `0.15`) of the baseline, and the protocol counts `failovers`,
/// `redrives` and `resyncs` must equal it. Cells present only in the baseline are
/// regressions (coverage shrank); cells only in the fresh run are notes.
///
/// The `loss` cells reshuffle whenever a protocol change adds or removes any frame,
/// even one no collective waits on: the loss model draws once per message, so every
/// later draw lands on another message and the cell's losses, and with them its
/// `completion_s`, move by up to ±90 %. Such a change is judged on the `loss` cells in
/// aggregate over `--matrix full` (the geometric mean of the per-cell ratios, and how
/// many cells moved each way), with every other schedule held to this check.
pub fn check(baseline: &Json, fresh: &Json, tolerance: f64) -> Result<CheckReport, String> {
    let base_cells = cells_of(baseline)?;
    let fresh_cells = cells_of(fresh)?;
    let fresh_by_id = |id: &str| {
        fresh_cells.iter().find(|c| c.get("id").and_then(Json::as_str) == Some(id)).copied()
    };
    let mut report = CheckReport { compared: 0, regressions: Vec::new(), notes: Vec::new() };
    for b in &base_cells {
        let id = b
            .get("id")
            .and_then(Json::as_str)
            .ok_or_else(|| "baseline cell without id".to_string())?;
        let Some(f) = fresh_by_id(id) else {
            report.regressions.push(format!("{id}: present in baseline, missing from fresh run"));
            continue;
        };
        report.compared += 1;
        let b_conv = b.get("converged").and_then(Json::as_bool).unwrap_or(false);
        let f_conv = f.get("converged").and_then(Json::as_bool).unwrap_or(false);
        match (b_conv, f_conv) {
            (true, false) => {
                let why = f.get("failure").and_then(Json::as_str).unwrap_or("unknown failure");
                report.regressions.push(format!("{id}: no longer converges ({why})"));
                continue;
            }
            (false, true) => {
                report.notes.push(format!("{id}: now converges (baseline did not)"));
                continue;
            }
            (false, false) => continue,
            (true, true) => {}
        }
        for field in ["completion_s", "data_bytes_sent"] {
            let bv = b.get(field).and_then(Json::as_f64).unwrap_or(0.0);
            let fv = f.get(field).and_then(Json::as_f64).unwrap_or(0.0);
            let scale = bv.abs().max(1e-12);
            let rel = (fv - bv).abs() / scale;
            if rel > tolerance {
                report.regressions.push(format!(
                    "{id}: {field} moved {bv} -> {fv} ({:+.1}%, tolerance {:.1}%)",
                    (fv - bv) / scale * 100.0,
                    tolerance * 100.0
                ));
            }
        }
        for field in EXACT_COUNTS {
            let (bv, fv) =
                (b.get(field).and_then(Json::as_f64), f.get(field).and_then(Json::as_f64));
            if bv != fv {
                report.regressions.push(format!("{id}: {field} moved {bv:?} -> {fv:?} (exact)"));
            }
        }
    }
    let extra = fresh_cells.len().saturating_sub(report.compared);
    if extra > 0 {
        report.notes.push(format!("{extra} fresh cell(s) not in the baseline (not gated)"));
    }
    Ok(report)
}

/// Render the per-cell summary table (one line per cell, aligned columns).
pub fn summarize(doc: &Json) -> Result<String, String> {
    let cells = cells_of(doc)?;
    let mut out = String::new();
    out.push_str(&format!(
        "{:<34} {:>5} {:>6} {:>9} {:>9} {:>5} {:>7} {:>8}  {}\n",
        "cell", "nodes", "conv", "time_s", "MB_wire", "fail", "resync", "events", "notes"
    ));
    let mut converged = 0usize;
    for c in &cells {
        let id = c.get("id").and_then(Json::as_str).unwrap_or("?");
        let nodes = c.get("nodes").and_then(Json::as_u64).unwrap_or(0);
        let conv = c.get("converged").and_then(Json::as_bool).unwrap_or(false);
        converged += conv as usize;
        let time_s = c.get("completion_s").and_then(Json::as_f64).unwrap_or(0.0);
        let mb = c.get("data_bytes_sent").and_then(Json::as_f64).unwrap_or(0.0) / (1024.0 * 1024.0);
        let failovers = c.get("failovers").and_then(Json::as_u64).unwrap_or(0);
        let resyncs = c.get("resyncs").and_then(Json::as_u64).unwrap_or(0);
        let events = c.get("events").and_then(Json::as_u64).unwrap_or(0);
        let lost = c.get("messages_lost").and_then(Json::as_u64).unwrap_or(0);
        let reordered = c.get("messages_reordered").and_then(Json::as_u64).unwrap_or(0);
        let mut notes = String::new();
        if lost + reordered > 0 {
            notes.push_str(&format!("lost={lost} reord={reordered}"));
        }
        if let Some(failure) = c.get("failure").and_then(Json::as_str) {
            if !notes.is_empty() {
                notes.push(' ');
            }
            notes.push_str(failure);
        }
        out.push_str(&format!(
            "{:<34} {:>5} {:>6} {:>9.4} {:>9.1} {:>5} {:>7} {:>8}  {}\n",
            id,
            nodes,
            if conv { "ok" } else { "FAIL" },
            time_s,
            mb,
            failovers,
            resyncs,
            events,
            notes
        ));
    }
    out.push_str(&format!("{} cells, {} converged\n", cells.len(), converged));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ci_matrix_shape_meets_the_acceptance_bar() {
        let cells = build_matrix(MatrixKind::Ci);
        assert!(cells.len() >= 100, "only {} cells", cells.len());
        assert!(cells.iter().any(|c| c.topology.n == 256), "no 256-node cell");
        assert!(
            cells.iter().any(|c| c.topology.n == 256 && c.kind == ScheduleKind::LossReorder),
            "no 256-node loss/reorder cell"
        );
        // Ids are unique — the check step keys on them.
        let mut ids: Vec<&str> = cells.iter().map(|c| c.id.as_str()).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), cells.len());
    }

    fn tiny_doc(completion: f64, converged: bool) -> Json {
        counted_doc(completion, converged, Some(2.0))
    }

    /// A one-cell document; `resyncs: None` leaves that count out.
    fn counted_doc(completion: f64, converged: bool, resyncs: Option<f64>) -> Json {
        let mut cell = vec![
            ("id".into(), Json::Str("uniform8/none/broadcast/s0".into())),
            ("nodes".into(), Json::Num(8.0)),
            ("converged".into(), Json::Bool(converged)),
            ("failure".into(), Json::Null),
            ("completion_s".into(), Json::Num(completion)),
            ("data_bytes_sent".into(), Json::Num(1e8)),
            ("failovers".into(), Json::Num(3.0)),
            ("redrives".into(), Json::Num(1.0)),
        ];
        cell.extend(resyncs.map(|n| ("resyncs".into(), Json::Num(n))));
        Json::Obj(vec![
            ("schema".into(), Json::Str(SCHEMA.into())),
            ("matrix".into(), Json::Str("test".into())),
            ("cells".into(), Json::Arr(vec![Json::Obj(cell)])),
        ])
    }

    #[test]
    fn check_passes_within_tolerance_and_fails_beyond() {
        let base = tiny_doc(0.100, true);
        let ok = check(&base, &tiny_doc(0.110, true), 0.15).unwrap();
        assert!(ok.regressions.is_empty(), "{:?}", ok.regressions);
        assert_eq!(ok.compared, 1);
        let bad = check(&base, &tiny_doc(0.130, true), 0.15).unwrap();
        assert_eq!(bad.regressions.len(), 1, "{:?}", bad.regressions);
        assert!(bad.regressions[0].contains("completion_s"));
    }

    #[test]
    fn check_requires_the_protocol_counts_to_match_exactly() {
        let base = tiny_doc(0.100, true);
        let same = check(&base, &tiny_doc(0.100, true), 0.15).unwrap();
        assert!(same.regressions.is_empty(), "{:?}", same.regressions);
        // One more resync fails the gate, with no tolerance, although every gated
        // time and byte metric is unchanged; so does a count the fresh run lost.
        for fresh in [Some(3.0), None] {
            let bad = check(&base, &counted_doc(0.100, true, fresh), 0.15).unwrap();
            assert_eq!(bad.regressions.len(), 1, "{:?}", bad.regressions);
            assert!(bad.regressions[0].contains("resyncs"), "{:?}", bad.regressions);
        }
    }

    #[test]
    fn check_flags_convergence_regressions_and_missing_cells() {
        let base = tiny_doc(0.100, true);
        let r = check(&base, &tiny_doc(0.100, false), 0.15).unwrap();
        assert!(r.regressions[0].contains("no longer converges"));
        let empty = Json::Obj(vec![
            ("schema".into(), Json::Str(SCHEMA.into())),
            ("cells".into(), Json::Arr(vec![])),
        ]);
        let r = check(&base, &empty, 0.15).unwrap();
        assert!(r.regressions[0].contains("missing from fresh run"));
    }

    #[test]
    fn summarize_renders_one_line_per_cell() {
        let doc = tiny_doc(0.1, true);
        let table = summarize(&doc).unwrap();
        assert_eq!(table.lines().count(), 3); // header + 1 cell + totals
        assert!(table.contains("uniform8/none/broadcast/s0"));
        assert!(table.contains("1 cells, 1 converged"));
    }
}
