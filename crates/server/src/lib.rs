//! Live mode: a wall-clock RESP2 server and bench client over the SlimIO
//! storage stack.
//!
//! Everything below the socket is the simulated stack from the rest of
//! the workspace — the same `Db` engine, kernel-path and passthru
//! backends, io_uring model, and emulated FDP NVMe device — but driven by
//! a wall [`slimio_uring::SharedClock`] instead of discrete-event time,
//! so real clients can talk to it over TCP:
//!
//! - [`resp`] — RESP2 framing: encoder plus an incremental parser.
//! - [`store`] — backend selection and the restartable device state.
//! - [`server`] — options, start-up, teardown, and the types every
//!   thread shares.
//! - `conn` — accept loop and the per-connection state machine: parse,
//!   route, local reads, reply assembly.
//! - `writer` — one shard's engine thread: batch, group commit, publish,
//!   replica apply.
//! - `control` — shard 0's control plane: INFO, CONFIG, DEBUG, SLOWLOG,
//!   LATENCY, BGSAVE broadcast, gathers, PSYNC handoff, REPLICAOF.
//! - `govern` — backpressure: bounded admission, memory and lag limits.
//! - `repl` — WAL-shipping primary/replica replication.
//! - `telemetry` — per-stage latency series, Prometheus `/metrics`,
//!   SLOWLOG and LATENCY.
//! - [`bench`] — a redis-benchmark-style closed-loop load generator.

#![warn(missing_docs)]

pub mod bench;
mod conn;
mod control;
mod govern;
mod repl;
pub mod resp;
pub mod server;
pub mod store;
mod telemetry;
mod writer;

pub use bench::{oneshot, oneshot_timeout, BenchOpts, BenchReport};
pub use govern::GovernorOpts;
pub use resp::{Parser, Value};
pub use server::{Server, ServerHandle, ServerOpts};
pub use store::{AnyBackend, BackendKind, Store, StoreConfig};
