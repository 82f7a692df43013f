//! # hoplite-bench
//!
//! The evaluation harness: the figure-regeneration binary (`experiments`), the
//! metadata-scale drill (`metadata_scale`), and the scenario sweep (`sweep`). Timed
//! real-bytes and per-layer numbers come from the `perf/` package.
//!
//! The library half carries the sweep machinery the `sweep` binary and its tests
//! share:
//!
//! * [`json`] — a dependency-free JSON value with a byte-stable writer, since the
//!   container vendors no serde;
//! * [`sweep`] — matrix enumeration, cell execution, the `--check` regression gate,
//!   and the `--summarize` table.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod json;
pub mod sweep;
