//! Deterministic observability for the BTCFast workspace.
//!
//! Two halves, no external dependencies, no wall clocks:
//!
//! * [`metrics`] — a name-sorted [`Registry`] of saturating counters and
//!   gauges with a Prometheus-style text exporter;
//! * [`trace`] — a structured span/event [`Tracer`] whose timestamps are
//!   injected **sim-time** microseconds, so a fixed-seed replay renders a
//!   byte-identical JSONL trace.
//!
//! [`stats`] holds the nearest-rank quantile math shared with the bench
//! harness, keeping every p50/p95/p99 in the repo on one convention.
//!
//! This crate is a dependency leaf: everything above it (netsim, btcsim,
//! pscsim, payjudger, core, bench) can use it without cycles, because it
//! takes clock values as plain `u64` rather than depending on a time type.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod critical_path;
pub mod metrics;
pub mod stats;
pub mod trace;

pub use critical_path::{
    build_trees, check_nesting, check_slo, Breakdown, Bucket, SloVerdict, SpanNode, SpanTree,
    TreeError,
};
pub use metrics::{MetricValue, Registry};
pub use trace::{render_event, render_jsonl, Field, TraceContext, TraceEvent, Tracer};
