//! # btcfast-bench
//!
//! The evaluation harness: every table and figure of the BTCFast
//! reproduction, regenerable via `cargo run -p btcfast-bench --bin harness`
//! (optionally with an experiment id: `harness e3`).
//!
//! Each experiment module returns its rows as data *and* renders them, so
//! the same code backs the CLI harness, the integration tests, and
//! EXPERIMENTS.md.
//!
//! Performance is measured by the stand-alone `benchmark/` package only;
//! [`ab`] is the gate that compares two builds of it, and [`overhead`]
//! holds the instrumentation to its budget.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ab;
pub mod experiments;
pub mod golden;
pub mod json;
pub mod load;
pub mod overhead;
pub mod table;
pub mod trace;

pub use table::Table;

use std::path::{Path, PathBuf};

/// `relative`, a path from the root of this checkout, found from any
/// working directory: the root is fixed where the crate was compiled.
pub fn repository_path(relative: &str) -> PathBuf {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../..")).join(relative)
}
