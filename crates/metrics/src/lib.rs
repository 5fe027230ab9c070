//! Measurement utilities for the SlimIO reproduction suite.
//!
//! Everything the evaluation harness records flows through this crate:
//!
//! * [`Histogram`] — a log-linear bucketed latency histogram (HDR-style)
//!   with percentile queries (`p50`, `p99`, `p999`).
//! * [`Timeline`] — fixed-interval time series used for the runtime-RPS
//!   figures (Figures 4 and 5 of the paper).
//! * [`WafTracker`] — write-amplification accounting
//!   (`NAND writes / host writes`), the Table 3 WAF column.
//! * [`Table`] — plain-text / markdown table rendering for the per-table
//!   benchmark binaries.
//! * [`registry`] — lock-free named counters/gauges/histograms with
//!   Prometheus text exposition, used by the live server's telemetry.
//!
//! The crate is deliberately free of dependencies so that every other crate
//! in the workspace can use it, including the innermost device models.

#![warn(missing_docs)]

pub mod histogram;
pub mod registry;
pub mod table;
pub mod timeline;
pub mod waf;

pub use histogram::Histogram;
pub use registry::{AtomicHistogram, Counter, Gauge, IntGauge, Registry};
pub use table::Table;
pub use timeline::Timeline;
pub use waf::WafTracker;
